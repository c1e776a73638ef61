"""Shared context and helpers for the per-command specifications."""

from __future__ import annotations

import dataclasses

from repro.core.combinators import CheckResult, PASS, fails
from repro.core.errors import Errno
from repro.core.flags import FileKind, MODE_MASK, R_BITS, W_BITS, X_BITS
from repro.core.platform import PlatformSpec, TimestampMode
from repro.core.values import Stat
from repro.perms.permissions import PermEnv, has_perm_bits
from repro.state.heap import DirRef, FileRef, FsState
from repro.state.meta import Meta


@dataclasses.dataclass(frozen=True)
class FsEnv:
    """Everything a command specification needs besides the state itself:

    the platform variant, the calling process's credentials, and its file
    creation mask.
    """

    spec: PlatformSpec
    perm: PermEnv
    umask: int = 0o022

    def apply_umask(self, mode: int) -> int:
        return mode & ~self.umask & MODE_MASK

    def new_meta(self, mode: int, *, apply_umask: bool = True,
                 clock: int = 0) -> Meta:
        """Metadata for a newly created object owned by the caller."""
        eff = self.apply_umask(mode) if apply_umask else (mode & MODE_MASK)
        return Meta(mode=eff, uid=self.perm.uid, gid=self.perm.gid,
                    atime=clock, mtime=clock, ctime=clock)


# -- permission checks (the permissions trait) --------------------------------

def may_read_file(env: FsEnv, fs: FsState, fref: FileRef) -> bool:
    return has_perm_bits(env.perm, fs.file(fref).meta, R_BITS)


def may_write_file(env: FsEnv, fs: FsState, fref: FileRef) -> bool:
    return has_perm_bits(env.perm, fs.file(fref).meta, W_BITS)


def may_read_dir(env: FsEnv, fs: FsState, dref: DirRef) -> bool:
    return has_perm_bits(env.perm, fs.dir(dref).meta, R_BITS)


def may_write_dir(env: FsEnv, fs: FsState, dref: DirRef) -> bool:
    return has_perm_bits(env.perm, fs.dir(dref).meta, W_BITS)


def may_search_dir(env: FsEnv, fs: FsState, dref: DirRef) -> bool:
    return has_perm_bits(env.perm, fs.dir(dref).meta, X_BITS)


def check_parent_writable(env: FsEnv, fs: FsState,
                          parent: DirRef) -> CheckResult:
    """Creating or removing an entry needs write+search on the parent."""
    if not may_write_dir(env, fs, parent):
        return fails(Errno.EACCES)
    if not may_search_dir(env, fs, parent):
        return fails(Errno.EACCES)
    return PASS


# -- stat construction ---------------------------------------------------------

def stat_of_file(fs: FsState, fref: FileRef) -> Stat:
    f = fs.file(fref)
    return Stat(kind=f.kind, size=len(f.content), nlink=f.nlink,
                uid=f.meta.uid, gid=f.meta.gid, mode=f.meta.mode)


def stat_of_dir(fs: FsState, dref: DirRef) -> Stat:
    d = fs.dir(dref)
    return Stat(kind=FileKind.DIRECTORY, size=0, nlink=fs.dir_nlink(dref),
                uid=d.meta.uid, gid=d.meta.gid, mode=d.meta.mode)


def touch_mtime(env: FsEnv, fs: FsState, dref: DirRef) -> FsState:
    """Timestamps trait: bump a directory's mtime/ctime in immediate mode."""
    if env.spec.timestamps is not TimestampMode.IMMEDIATE:
        return fs
    fs = fs.tick()
    d = fs.dir(dref)
    return fs.set_dir_meta(dref, d.meta.touched(mtime=fs.clock,
                                                ctime=fs.clock))


def touch_file_mtime(env: FsEnv, fs: FsState, fref: FileRef) -> FsState:
    """Timestamps trait: bump a file's mtime/ctime in immediate mode."""
    if env.spec.timestamps is not TimestampMode.IMMEDIATE:
        return fs
    fs = fs.tick()
    f = fs.file(fref)
    return fs.set_file_meta(fref, f.meta.touched(mtime=fs.clock,
                                                 ctime=fs.clock))
