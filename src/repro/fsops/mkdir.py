"""Specification of ``mkdir``."""

from __future__ import annotations

from repro.core.combinators import (Outcomes, PASS, fails, guarded, ok,
                                    parallel)
from repro.core.coverage import cover, declare
from repro.core.errors import Errno
from repro.fsops.common import FsEnv, check_parent_writable, touch_mtime
from repro.pathres.resname import ResName, RnDir, RnError, RnFile, RnNone
from repro.state.heap import FsState

declare("fsop.mkdir.resolution_error")
declare("fsop.mkdir.exists_dir")
declare("fsop.mkdir.exists_file")
declare("fsop.mkdir.exists_file_trailing_slash")
declare("fsop.mkdir.parent_not_writable")
declare("fsop.mkdir.success")


def fsop_mkdir(env: FsEnv, fs: FsState, rn: ResName, mode: int) -> Outcomes:
    """``mkdir`` creates a directory at a nonexistent resolved name.

    ``mkdir`` does not follow a symlink in the final component, so a
    (possibly dangling) symlink at the target resolves to :class:`RnFile`
    and fails with EEXIST.
    """

    def check_target():
        if isinstance(rn, RnError):
            cover("fsop.mkdir.resolution_error")
            return fails(rn.errno)
        if isinstance(rn, RnDir):
            cover("fsop.mkdir.exists_dir")
            return fails(Errno.EEXIST)
        if isinstance(rn, RnFile):
            if rn.trailing_slash:
                # mkdir "f.txt/": both EEXIST and ENOTDIR are observed.
                cover("fsop.mkdir.exists_file_trailing_slash")
                return fails(Errno.EEXIST, Errno.ENOTDIR)
            cover("fsop.mkdir.exists_file")
            return fails(Errno.EEXIST)
        return PASS

    def check_perms():
        if not isinstance(rn, RnNone):
            return PASS
        result = check_parent_writable(env, fs, rn.parent)
        if not result.passes:
            cover("fsop.mkdir.parent_not_writable")
        return result

    result = parallel(check_target, check_perms)

    def success() -> Outcomes:
        assert isinstance(rn, RnNone)
        cover("fsop.mkdir.success")
        meta = env.new_meta(mode, clock=fs.clock)
        fs1, _ = fs.create_dir(rn.parent, rn.name, meta)
        fs1 = touch_mtime(env, fs1, rn.parent)
        return ok(fs1)

    return guarded(fs, result, success)
