"""Test executor: drives a file system under test with a script and
records the observed trace (paper section 6.2).  :class:`ScriptExecutor`
runs a stream of scripts, resuming each from the state its predecessor
reached at their shared prefix.
"""

from repro.executor.executor import ScriptExecutor, execute_script

__all__ = ["ScriptExecutor", "execute_script"]
