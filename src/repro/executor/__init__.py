"""Test executor: drives a file system under test with a script and
records the observed trace (paper section 6.2).  :class:`ScriptExecutor`
runs a stream of scripts, resuming each from the state its predecessor
reached at their shared prefix.  Also provides :class:`RecordingFS` for
recording traces from application-style code (paper section 9).
"""

from repro.executor.executor import ScriptExecutor, execute_script
from repro.executor.recorder import RecordingFS

__all__ = ["ScriptExecutor", "execute_script", "RecordingFS"]
