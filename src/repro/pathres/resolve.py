"""The path-resolution algorithm.

Resolution is complicated for the reasons the paper lays out (section 5):
trailing slashes are treated in an apparently ad-hoc way by real systems,
symlinks in the final component are followed or not depending on the libc
function, a trailing slash makes following *more* likely, and permissions
interact with every directory traversed.

The algorithm below is iterative over a component work-list; following a
symlink splices the target's components onto the front of the list.  Each
expansion counts towards the ELOOP limit.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.core.coverage import cover, declare
from repro.core.errors import Errno
from repro.core.flags import FileKind
from repro.core.platform import PlatformSpec
from repro.pathres.resname import (Follow, ResName, RnDir, RnError, RnFile,
                                   RnNone)
from repro.perms.permissions import PermEnv, may_exec
from repro.state.heap import DirRef, FsState

#: POSIX limits (PATH_MAX / NAME_MAX on the tested platforms).  Both
#: are *byte* limits: the kernel sees encoded bytes, so a multibyte
#: UTF-8 name trips NAME_MAX well before 255 characters.
PATH_MAX = 4096
NAME_MAX = 255

declare("pathres.empty_path")
declare("pathres.path_too_long")
declare("pathres.name_too_long")
declare("pathres.double_slash_root")
declare("pathres.dotdot_at_root")
declare("pathres.dotdot_in_disconnected")
declare("pathres.intermediate_missing")
declare("pathres.intermediate_not_dir")
declare("pathres.intermediate_symlink")
declare("pathres.eloop")
declare("pathres.final_dir")
declare("pathres.final_file")
declare("pathres.final_file_trailing_slash")
declare("pathres.final_none")
declare("pathres.final_none_trailing_slash")
declare("pathres.final_symlink_nofollow")
declare("pathres.final_symlink_followed")
declare("pathres.final_symlink_trailing_slash_followed")
declare("pathres.dangling_symlink")
declare("pathres.search_permission_denied")
declare("pathres.empty_symlink_target")


def may_search(env: PermEnv, fs: FsState, dref: DirRef) -> bool:
    """Execute (search) permission on a directory."""
    return may_exec(env, fs.dir(dref).meta)


def _encoded(text: str) -> bytes:
    """UTF-8 bytes for limit checks, tolerating lone surrogates.

    Names that round-tripped through ``os.fsdecode`` (surrogateescape)
    contain unpaired surrogates that strict UTF-8 refuses to encode;
    a limit check must measure them, not crash the checker.
    """
    return text.encode("utf-8", "surrogatepass")


def split_path(path: str) -> Tuple[bool, List[str], bool]:
    """Split a path into (absolute, components, trailing_slash).

    Consecutive interior slashes collapse; ``.`` components are kept (they
    matter for permission checks on the traversed directory but otherwise
    act as no-ops); a lone ``/`` yields no components.
    """
    absolute = path.startswith("/")
    trailing = path.endswith("/") and path.strip("/") != ""
    comps = [c for c in path.split("/") if c != ""]
    return absolute, comps, trailing


def resolve(spec: PlatformSpec, fs: FsState, cwd: DirRef, path: str,
            follow: Follow, env: PermEnv,
            expansions: int = 0) -> ResName:
    """Resolve ``path`` against ``fs`` starting from ``cwd``.

    Returns a :class:`ResName`.  ``follow`` controls the treatment of a
    symlink in the *final* component only; intermediate symlinks are
    always followed.  ``expansions`` is the number of symlinks already
    expanded on the way to ``path`` (a spliced symlink target); they
    count towards the ELOOP limit.
    """
    if path == "":
        cover("pathres.empty_path")
        return RnError(Errno.ENOENT, "empty path")
    # The limit is on encoded bytes.  The character count bounds the
    # byte count from below (and, times four, from above for UTF-8),
    # so only paths near the limit pay for an encode.
    if len(path) > PATH_MAX or (len(path) * 4 > PATH_MAX and
                                len(_encoded(path)) > PATH_MAX):
        cover("pathres.path_too_long")
        return RnError(Errno.ENAMETOOLONG, "path exceeds PATH_MAX")

    absolute, comps, trailing = split_path(path)
    if absolute and path.startswith("//") and not path.startswith("///"):
        # Exactly two leading slashes is implementation-defined in POSIX;
        # all modelled platforms resolve it as the root.
        cover("pathres.double_slash_root")

    cur: DirRef = fs.root if absolute else cwd
    if absolute and not comps:
        cover("pathres.final_dir")
        return RnDir(dref=fs.root, parent=None, name=None,
                     trailing_slash=True)

    work: List[str] = list(comps)
    #: Remaining trailing-slash flag applies to the final component only.
    while work:
        name = work.pop(0)
        is_last = not work
        if len(name) > NAME_MAX or (len(name) * 4 > NAME_MAX and
                                    len(_encoded(name)) > NAME_MAX):
            cover("pathres.name_too_long")
            return RnError(Errno.ENAMETOOLONG,
                           f"component exceeds NAME_MAX: {name[:16]}...")
        if not may_search(env, fs, cur):
            cover("pathres.search_permission_denied")
            return RnError(Errno.EACCES, "search permission denied")
        if name == ".":
            if is_last:
                cover("pathres.final_dir")
                return dataclasses.replace(
                    _dir_result(fs, cur, trailing), last_dot=".")
            continue
        if name == "..":
            parent = fs.dir(cur).parent
            if parent is None:
                if cur == fs.root:
                    # ".." at the root resolves to the root itself.
                    cover("pathres.dotdot_at_root")
                    parent = cur
                else:
                    # ".." inside a disconnected directory: the parent
                    # entry is gone (cf. the Fig. 8 scenario).
                    cover("pathres.dotdot_in_disconnected")
                    return RnError(Errno.ENOENT,
                                   "parent of disconnected directory")
            if is_last:
                cover("pathres.final_dir")
                return dataclasses.replace(
                    _dir_result(fs, parent, trailing), last_dot="..")
            cur = parent
            continue

        ref = fs.lookup(cur, name)
        if ref is None:
            if is_last:
                if trailing:
                    cover("pathres.final_none_trailing_slash")
                    return RnNone(parent=cur, name=name, trailing_slash=True)
                cover("pathres.final_none")
                return RnNone(parent=cur, name=name)
            cover("pathres.intermediate_missing")
            return RnError(Errno.ENOENT, f"no such component: {name}")

        if isinstance(ref, DirRef):
            if is_last:
                cover("pathres.final_dir")
                return RnDir(dref=ref, parent=cur, name=name,
                             trailing_slash=trailing)
            cur = ref
            continue

        # ref is a FileRef: regular file or symlink.
        fobj = fs.file(ref)
        if fobj.kind is FileKind.SYMLINK:
            must_follow = (not is_last) or follow is Follow.FOLLOW
            if (is_last and trailing
                    and spec.trailing_slash_follows_final_symlink):
                # A trailing slash forces the final symlink to be
                # followed even for nofollow functions (paper section 5).
                cover("pathres.final_symlink_trailing_slash_followed")
                must_follow = True
            if not must_follow:
                cover("pathres.final_symlink_nofollow")
                return RnFile(parent=cur, name=name, fref=ref,
                              trailing_slash=trailing)
            expansions += 1
            if expansions > spec.symlink_loop_limit:
                cover("pathres.eloop")
                return RnError(Errno.ELOOP, "too many symlink expansions")
            target = fobj.content.decode("utf-8", "replace")
            if target == "":
                cover("pathres.empty_symlink_target")
                return RnError(Errno.ENOENT, "empty symlink target")
            if not is_last:
                cover("pathres.intermediate_symlink")
            else:
                cover("pathres.final_symlink_followed")
            t_abs, t_comps, t_trailing = split_path(target)
            if t_abs:
                cur = fs.root
            if is_last:
                # The dangling-symlink bookkeeping below only applies when
                # the symlink itself was the final component.
                result = _resolve_spliced(spec, fs, cur, t_comps,
                                          t_trailing or trailing, follow,
                                          env, expansions)
                if isinstance(result, RnNone) and not t_trailing:
                    cover("pathres.dangling_symlink")
                    result = dataclasses.replace(result,
                                                 dangling_symlink=ref)
                return result
            work[0:0] = t_comps
            continue

        # A plain file.
        if is_last:
            if trailing:
                cover("pathres.final_file_trailing_slash")
                return RnFile(parent=cur, name=name, fref=ref,
                              trailing_slash=True)
            cover("pathres.final_file")
            return RnFile(parent=cur, name=name, fref=ref)
        cover("pathres.intermediate_not_dir")
        return RnError(Errno.ENOTDIR, f"component is a file: {name}")

    # Only reachable for a relative path consisting entirely of "." / ".."
    # components handled above, or an empty component list.
    return _dir_result(fs, cur, trailing)


def _dir_result(fs: FsState, dref: DirRef, trailing: bool) -> RnDir:
    """Build an RnDir, recovering the parent link if connected."""
    if dref == fs.root:
        return RnDir(dref=dref, parent=None, name=None,
                     trailing_slash=trailing)
    parent = fs.dir(dref).parent
    if parent is None:
        return RnDir(dref=dref, parent=None, name=None,
                     trailing_slash=trailing)
    name = None
    for entry_name, ref in fs.dir(parent).entries.items():
        if ref == dref:
            name = entry_name
            break
    return RnDir(dref=dref, parent=parent, name=name,
                 trailing_slash=trailing)


def _resolve_spliced(spec: PlatformSpec, fs: FsState, cur: DirRef,
                     comps: List[str], trailing: bool, follow: Follow,
                     env: PermEnv, expansions: int) -> ResName:
    """Resolve the spliced target of a final-component symlink.

    Equivalent to continuing the main loop; implemented by re-entering
    :func:`resolve` on a reconstructed sub-path rooted at ``cur``, with
    the expansion count carried over.
    """
    if not comps:
        return _dir_result(fs, cur, trailing)
    sub_path = "/".join(comps) + ("/" if trailing else "")
    return resolve(spec, fs, cur, sub_path, follow, env, expansions)
