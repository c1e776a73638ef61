"""Permissions trait (paper section 4, Fig. 7: "Permissions", 208 loc).

The permission primitives are shared by path resolution (execute/search
checks on traversed directories) and by the file-system module
(read/write/ownership checks), so they live in their own module below
both.  The trait can be disabled wholesale ("core without permissions"):
:class:`PermEnv` carries an ``enabled`` switch.
"""

from repro.perms.permissions import PermEnv, has_perm_bits, may_exec

__all__ = ["PermEnv", "has_perm_bits", "may_exec"]
