"""Permission checking against object metadata.

Standard POSIX class selection: the owner bits apply if the caller's
effective uid matches; otherwise the group bits if the object's group is
the caller's effective gid or among its supplementary groups; otherwise
the "other" bits.  uid 0 bypasses the checks (superuser convention on
all modelled platforms).
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.core.flags import X_BITS
from repro.state.meta import Meta


@dataclasses.dataclass(frozen=True)
class PermEnv:
    """The credentials a call runs under.

    ``enabled=False`` is the "core without permissions" trait: all
    objects are accessible to all users.
    """

    uid: int = 0
    gid: int = 0
    groups: frozenset = frozenset()
    enabled: bool = True

    @property
    def is_root(self) -> bool:
        return self.uid == 0

    def all_groups(self) -> frozenset:
        return self.groups | {self.gid}


def has_perm_bits(env: PermEnv, meta: Meta,
                  bits: Tuple[int, int, int]) -> bool:
    """Does ``env`` hold the (owner, group, other) permission ``bits``
    on an object with metadata ``meta``?"""
    if not env.enabled or env.is_root:
        return True
    owner_bit, group_bit, other_bit = bits
    if meta.uid == env.uid:
        return bool(meta.mode & owner_bit)
    if meta.gid in env.all_groups():
        return bool(meta.mode & group_bit)
    return bool(meta.mode & other_bit)


def may_exec(env: PermEnv, meta: Meta) -> bool:
    """Execute permission — *search* permission for directories."""
    return has_perm_bits(env, meta, X_BITS)
