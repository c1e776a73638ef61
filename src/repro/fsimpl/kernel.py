"""The simulated implementation-under-test.

:class:`KernelFS` is a deterministic file-system implementation exposing
the modelled libc surface.  Internally it *determinizes the model* — the
technique the paper itself describes for using SibylFS as a reference
implementation (section 8) — and then layers the quirk table on top:
pre-hooks divert calls that a real defective system would mishandle
(spin, signal, wrong errno), and post-hooks corrupt results or state the
way the documented defects do (missing link counts, leaked storage,
clobbered symlinks).

Determinization policy (how one outcome is picked from the model's
allowed set):

* success is preferred over failure (a real system succeeds when it can);
* full-length reads and writes are performed;
* ``readdir`` yields entries in lexicographic order;
* among allowed errors, the configuration's ``error_priority`` decides
  (real implementations fix an error by their internal check order).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core import commands as C
from repro.core.errors import Errno
from repro.core.flags import FileKind, OpenFlag
from repro.core.platform import PlatformSpec, spec_by_name, \
    without_permissions
from repro.core.values import (Err, Ok, ReturnValue, RvDirEntry, RvNum,
                               RvStat)
from repro.fsimpl.quirks import Quirks, UmaskPolicy
from repro.osapi.os_state import OsState, SpecialOsState, initial_os_state
from repro.osapi.process import RsCalling, RsRunning
from repro.osapi.transition import exec_call
from repro.pathres.resname import Follow, RnFile
from repro.pathres.resolve import PermEnv, resolve


class SignalKill(Exception):
    """The system under test killed the calling process with a signal."""

    def __init__(self, signal: str):
        self.signal = signal
        super().__init__(signal)


class SpinHang(Exception):
    """The calling process entered an unkillable busy loop (Fig. 8)."""


class KernelFS:
    """One simulated OS/file-system configuration under test."""

    def __init__(self, quirks: Quirks):
        self.quirks = quirks
        base = spec_by_name(quirks.platform)
        if not quirks.enforce_permissions:
            base = without_permissions(base)
        self.spec: PlatformSpec = base
        self.state: OsState = initial_os_state()
        #: Bytes permanently lost to the posixovl rename leak (§7.3.5).
        self.leaked_bytes: int = 0
        self._dead: set[int] = set()

    # -- process management ----------------------------------------------------
    def create_process(self, pid: int, uid: int, gid: int) -> None:
        from repro.core.labels import OsCreate
        from repro.osapi.transition import os_trans
        states = os_trans(self.spec, self.state, OsCreate(pid, uid, gid))
        if not states:
            raise ValueError(f"cannot create process {pid}")
        (self.state,) = states

    def destroy_process(self, pid: int) -> None:
        from repro.core.labels import OsDestroy
        from repro.osapi.transition import os_trans
        states = os_trans(self.spec, self.state, OsDestroy(pid))
        if states:
            (self.state,) = states
        self._dead.discard(pid)

    def process_alive(self, pid: int) -> bool:
        return pid in self.state.procs and pid not in self._dead

    # -- the call interface -----------------------------------------------------
    def call(self, pid: int, cmd: C.OsCommand) -> ReturnValue:
        """Execute one libc call, returning its value or error.

        Raises :class:`SignalKill` / :class:`SpinHang` for the
        process-level defects of sections 7.3.4-7.3.5.
        """
        if pid in self._dead:
            raise ValueError(f"process {pid} was killed")
        quirk_ret = self._pre_hook(pid, cmd)
        if quirk_ret is not None:
            return quirk_ret
        ret, new_state = self._execute(pid, cmd)
        new_state = self._post_hook(pid, cmd, ret, new_state)
        self.state = new_state
        return self._result_hook(pid, cmd, ret)

    # -- determinized model execution ----------------------------------------
    def _execute(self, pid: int,
                 cmd: C.OsCommand) -> tuple[ReturnValue, OsState]:
        proc = self.state.proc(pid)
        cmd = self._transform_cmd(pid, cmd)
        # The umask mount-option quirks only affect object creation; the
        # effective mask is staged for the call and restored afterwards
        # so that the process's own umask value is preserved.
        creation = isinstance(cmd, (C.Open, C.Mkdir, C.Symlink))
        eff_umask = self._effective_umask(proc.umask) if creation \
            else proc.umask
        proc2 = dataclasses.replace(proc, umask=eff_umask,
                                    run=RsCalling(cmd))
        staged = self.state.with_proc(pid, proc2)
        outcomes = exec_call(self.spec, staged, pid)
        chosen = self._choose(pid, cmd, outcomes)
        if isinstance(chosen, SpecialOsState):
            # Undefined behaviour: the simulated kernel does the
            # Linux-like thing for the one special case in scope
            # (open O_CREAT|O_DIRECTORY creates a regular file).
            return self._do_special(pid, cmd)
        out_proc = chosen.proc(pid)
        ret = out_proc.run.ret  # type: ignore[union-attr]
        restored_umask = proc.umask if creation else out_proc.umask
        committed = chosen.with_proc(pid, dataclasses.replace(
            out_proc, umask=restored_umask, run=RsRunning()))
        return ret, committed

    def _transform_cmd(self, pid: int, cmd: C.OsCommand) -> C.OsCommand:
        # OpenZFS 0.6.3 (§7.3.4): O_APPEND does not seek to EOF before
        # write/pwrite.  Simulated by stripping O_APPEND from the open
        # flags of the file description for the duration of the call.
        if self.quirks.o_append_no_seek and isinstance(
                cmd, (C.Write, C.Pwrite)):
            proc = self.state.proc(pid)
            fid = proc.fds.get(cmd.fd)
            if fid is not None:
                fid_state = self.state.fids[fid]
                if fid_state.flags & OpenFlag.O_APPEND:
                    new_fid = dataclasses.replace(
                        fid_state,
                        flags=fid_state.flags & ~OpenFlag.O_APPEND)
                    self.state = dataclasses.replace(
                        self.state,
                        fids=self.state.fids.set(fid, new_fid))
        return cmd

    def _effective_umask(self, umask: int) -> int:
        policy = self.quirks.umask_policy
        if policy is UmaskPolicy.OR_0022:
            return umask | 0o022
        if policy is UmaskPolicy.IGNORE:
            return 0o000
        return umask

    def _choose(self, pid: int, cmd: C.OsCommand, outcomes):
        """Pick the deterministic real-system behaviour from the model's
        allowed set."""
        oks = []
        errs = []
        specials = []
        for out in outcomes:
            if isinstance(out, SpecialOsState):
                specials.append(out)
            else:
                ret = out.proc(pid).run.ret
                (oks if isinstance(ret, Ok) else errs).append((ret, out))
        if oks:
            return self._choose_ok(cmd, oks)
        if errs:
            priority = {e: i for i, e in
                        enumerate(self.quirks.error_priority)}
            errs.sort(key=lambda pair: (
                priority.get(pair[0].errno, len(priority)),
                pair[0].errno.value))
            return errs[0][1]
        assert specials
        return specials[0]

    def _choose_ok(self, cmd: C.OsCommand, oks):
        if isinstance(cmd, (C.Read, C.Pread)):
            # Full-length read.
            return max(oks, key=lambda pair: len(pair[0].value.data))[1]
        if isinstance(cmd, (C.Write, C.Pwrite)):
            # Full-length write.
            return max(oks, key=lambda pair: pair[0].value.value)[1]
        if isinstance(cmd, C.Readdir):
            # Lexicographically first owed entry; end only when drained.
            entries = [(ret.value.name, out) for ret, out in oks
                       if isinstance(ret.value, RvDirEntry)
                       and ret.value.name is not None]
            if entries:
                return min(entries, key=lambda pair: pair[0])[1]
            return oks[0][1]
        if isinstance(cmd, C.Open) and len(oks) > 1:
            # O_RDONLY|O_TRUNC looseness: Linux truncates; pick the
            # outcome whose file is empty.
            def truncated(pair):
                _ret, out = pair
                return sum(len(f.content) for f in out.fs.files.values())
            return min(oks, key=truncated)[1]
        return oks[0][1]

    def _do_special(self, pid: int,
                    cmd: C.OsCommand) -> tuple[ReturnValue, OsState]:
        # The only special case the simulated kernels hit: Linux's
        # O_CREAT|O_DIRECTORY wart — create the regular file anyway.
        assert isinstance(cmd, C.Open)
        stripped = C.Open(cmd.path, cmd.flags & ~OpenFlag.O_DIRECTORY,
                          cmd.mode)
        return self._execute(pid, stripped)

    # -- quirk pre-hooks ------------------------------------------------------
    def _pre_hook(self, pid: int,
                  cmd: C.OsCommand) -> Optional[ReturnValue]:
        quirks = self.quirks
        proc = self.state.proc(pid)

        if quirks.spin_on_create_in_disconnected_cwd and \
                isinstance(cmd, C.Open) and cmd.flags & OpenFlag.O_CREAT:
            cwd_dir = self.state.fs.dir(proc.cwd)
            if cwd_dir.parent is None and proc.cwd != self.state.fs.root:
                # Fig. 8: the calling process spins at 100% CPU and
                # ignores all signals.
                self._dead.add(pid)
                raise SpinHang()

        if quirks.pwrite_negative_signal and isinstance(cmd, C.Pwrite) \
                and cmd.offset < 0:
            # OS X VFS unsigned-offset underflow (§7.3.4): the process
            # is killed by SIGXFSZ instead of receiving EINVAL.
            self._dead.add(pid)
            raise SignalKill(quirks.pwrite_negative_signal)

        if quirks.chmod_errno is not None and isinstance(cmd, C.Chmod):
            return Err(quirks.chmod_errno)

        if isinstance(cmd, C.Write) and len(cmd.data) == 0 and \
                cmd.fd not in proc.fds:
            # Implementation-defined zero-byte write to a bad descriptor:
            # the libc decides (§7.2 acceptable variation).
            if quirks.write_zero_bad_fd_succeeds:
                return Ok(RvNum(0))
            return Err(Errno.EBADF)

        if quirks.link_symlink_eperm and isinstance(cmd, C.Link):
            env = PermEnv(uid=proc.uid, gid=proc.gid, groups=proc.groups,
                          enabled=False)
            rn = resolve(self.spec, self.state.fs, proc.cwd, cmd.src,
                         Follow.NOFOLLOW, env)
            if isinstance(rn, RnFile) and \
                    self.state.fs.file(rn.fref).kind is FileKind.SYMLINK:
                return Err(Errno.EPERM)

        if quirks.rename_nonempty_eperm and isinstance(cmd, C.Rename):
            env = PermEnv(enabled=False)
            src = resolve(self.spec, self.state.fs, proc.cwd, cmd.src,
                          Follow.NOFOLLOW, env)
            dst = resolve(self.spec, self.state.fs, proc.cwd, cmd.dst,
                          Follow.NOFOLLOW, env)
            from repro.pathres.resname import RnDir
            if isinstance(src, RnDir) and isinstance(dst, RnDir) and \
                    not self.state.fs.is_empty_dir(dst.dref):
                # The SSHFS deviation checked in paper Fig. 4.
                return Err(Errno.EPERM)

        if quirks.excl_dir_symlink_clobber and isinstance(cmd, C.Open) \
                and cmd.flags & OpenFlag.O_CREAT \
                and cmd.flags & OpenFlag.O_EXCL \
                and cmd.flags & OpenFlag.O_DIRECTORY:
            env = PermEnv(enabled=False)
            rn = resolve(self.spec, self.state.fs, proc.cwd, cmd.path,
                         Follow.NOFOLLOW, env)
            if isinstance(rn, RnFile) and \
                    self.state.fs.file(rn.fref).kind is FileKind.SYMLINK:
                # FreeBSD (§7.3.2): returns ENOTDIR *and* replaces the
                # symlink with a fresh regular file — breaking the POSIX
                # invariant that failing calls leave the state unchanged.
                fs = self.state.fs.remove_entry(rn.parent, rn.name)
                from repro.fsops.common import FsEnv
                fenv = FsEnv(spec=self.spec,
                             perm=PermEnv(uid=proc.uid, gid=proc.gid,
                                          groups=proc.groups,
                                          enabled=False),
                             umask=proc.umask)
                fs, _ = fs.create_file(rn.parent, rn.name,
                                       fenv.new_meta(cmd.mode))
                self.state = self.state.with_fs(fs)
                return Err(Errno.ENOTDIR)

        if quirks.capacity_bytes is not None:
            err = self._check_capacity(pid, cmd)
            if err is not None:
                return err
        return None

    # -- storage accounting (posixovl leak, §7.3.5) ----------------------------
    def used_bytes(self) -> int:
        live = sum(len(f.content)
                   for f in self.state.fs.files.values() if f.nlink > 0)
        return live + self.leaked_bytes

    def _check_capacity(self, pid: int,
                        cmd: C.OsCommand) -> Optional[ReturnValue]:
        cap = self.quirks.capacity_bytes
        assert cap is not None
        delta = 0
        if isinstance(cmd, (C.Write, C.Pwrite)):
            delta = len(cmd.data)
        elif isinstance(cmd, C.Truncate):
            delta = max(0, cmd.length)
        if delta and self.used_bytes() + delta > cap:
            return Err(Errno.ENOSPC)
        if isinstance(cmd, C.Open) and cmd.flags & OpenFlag.O_CREAT and \
                self.used_bytes() >= cap:
            # The paper observed open(O_CREAT) failing once the leaked
            # volume filled (ENOENT on Linux 3.19; we report ENOSPC).
            return Err(Errno.ENOSPC)
        return None

    # -- quirk post-hooks --------------------------------------------------------
    def _post_hook(self, pid: int, cmd: C.OsCommand, ret: ReturnValue,
                   new_state: OsState) -> OsState:
        quirks = self.quirks
        if quirks.rename_link_count_leak and isinstance(cmd, C.Rename) \
                and isinstance(ret, Ok):
            # Find a file object whose link count dropped to zero in this
            # rename (the displaced destination) and "forget" to
            # decrement it: the object stays allocated forever.
            for fref, fobj in new_state.fs.files.items():
                old = self.state.fs.files.get(fref)
                if old is not None and old.nlink > 0 and fobj.nlink == 0:
                    self.leaked_bytes += len(fobj.content)
        if quirks.forced_owner is not None and isinstance(ret, Ok):
            new_state = self._force_ownership(pid, cmd, new_state)
        return new_state

    def _force_ownership(self, pid: int, cmd: C.OsCommand,
                         new_state: OsState) -> OsState:
        # SSHFS (§7.3.4): creation ownership is unconfigurably the mount
        # owner, regardless of the calling process.
        uid, gid = self.quirks.forced_owner
        created_path = None
        if isinstance(cmd, C.Mkdir):
            created_path = cmd.path
        elif isinstance(cmd, C.Symlink):
            created_path = cmd.linkpath
        elif isinstance(cmd, C.Open) and cmd.flags & OpenFlag.O_CREAT:
            created_path = cmd.path
        if created_path is None:
            return new_state
        proc = new_state.proc(pid)
        env = PermEnv(enabled=False)
        rn = resolve(self.spec, new_state.fs, proc.cwd, created_path,
                     Follow.NOFOLLOW, env)
        fs = new_state.fs
        from repro.pathres.resname import RnDir
        if isinstance(rn, RnFile):
            meta = fs.file(rn.fref).meta.with_owner(uid, gid)
            fs = fs.set_file_meta(rn.fref, meta)
        elif isinstance(rn, RnDir):
            meta = fs.dir(rn.dref).meta.with_owner(uid, gid)
            fs = fs.set_dir_meta(rn.dref, meta)
        return new_state.with_fs(fs)

    # -- quirk result rewriting ----------------------------------------------
    def _result_hook(self, pid: int, cmd: C.OsCommand,
                     ret: ReturnValue) -> ReturnValue:
        quirks = self.quirks
        if isinstance(ret, Ok) and isinstance(ret.value, RvStat):
            stat = ret.value.stat
            if stat.kind is FileKind.DIRECTORY:
                if quirks.dir_nlink_constant is not None:
                    stat = dataclasses.replace(
                        stat, nlink=quirks.dir_nlink_constant)
                elif quirks.chroot_root_nlink_off_by_one and \
                        self._is_root_stat(pid, cmd):
                    # The chroot-jail artefact behind most of the paper's
                    # 9 standard-Linux trace failures (§7.2).
                    stat = dataclasses.replace(stat,
                                               nlink=stat.nlink + 1)
            else:
                if quirks.file_nlink_constant is not None:
                    stat = dataclasses.replace(
                        stat, nlink=quirks.file_nlink_constant)
            return Ok(RvStat(stat))
        return ret

    def _is_root_stat(self, pid: int, cmd: C.OsCommand) -> bool:
        if not isinstance(cmd, (C.StatCmd, C.LstatCmd)):
            return False
        proc = self.state.proc(pid)
        env = PermEnv(enabled=False)
        rn = resolve(self.spec, self.state.fs, proc.cwd, cmd.path,
                     Follow.FOLLOW, env)
        from repro.pathres.resname import RnDir
        return isinstance(rn, RnDir) and rn.dref == self.state.fs.root
