"""The dir heap: directories and file objects referenced by abstract refs.

This is the paper's *state* module.  Its interface is expressed in terms
of references (``dh_dir_ref`` / ``dh_file_ref``), permits arbitrary
linking and unlinking, and can represent **disconnected** files and
directories — objects that no longer appear in the directory tree but are
still accessible through an open handle or a process's working directory.
(Disconnected directories are exactly the scenario of the OpenZFS defect
in paper Fig. 8.)

Everything is immutable: every mutator returns a fresh :class:`FsState`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple, Union

from repro.core.flags import FileKind
from repro.state.meta import Meta
from repro.util.fdict import fdict


@dataclasses.dataclass(frozen=True, order=True)
class DirRef:
    """Abstract reference to a directory object."""

    id: int

    def __repr__(self) -> str:
        return f"d{self.id}"


@dataclasses.dataclass(frozen=True, order=True)
class FileRef:
    """Abstract reference to a file object (regular file or symlink)."""

    id: int

    def __repr__(self) -> str:
        return f"f{self.id}"


Ref = Union[DirRef, FileRef]


@dataclasses.dataclass(frozen=True)
class Dir:
    """A directory: named entries, a parent pointer, and metadata.

    ``parent`` is ``None`` for the root and for disconnected directories.
    """

    entries: fdict
    parent: Optional[DirRef]
    meta: Meta


@dataclasses.dataclass(frozen=True)
class File:
    """A file object: regular data or a symlink target.

    ``nlink`` counts directory entries referencing the object; an object
    with ``nlink == 0`` is disconnected but may still be readable via an
    open file description.
    """

    kind: FileKind
    content: bytes
    meta: Meta
    nlink: int

    def __post_init__(self) -> None:
        if self.kind is FileKind.DIRECTORY:
            raise ValueError("directories live in FsState.dirs, not files")


@dataclasses.dataclass(frozen=True)
class FsState:
    """The abstract file-system state: two heaps and a root reference.

    ``next_ref`` provides deterministic fresh-reference allocation, which
    keeps states comparable across identical operation sequences (the
    checker deduplicates states by equality).  ``clock`` is the logical
    clock driving the timestamps trait.
    """

    dirs: fdict
    files: fdict
    root: DirRef
    next_ref: int
    clock: int = 0

    # -- lookups --------------------------------------------------------------
    def dir(self, ref: DirRef) -> Dir:
        return self.dirs[ref]

    def file(self, ref: FileRef) -> File:
        return self.files[ref]

    def lookup(self, dref: DirRef, name: str) -> Optional[Ref]:
        """The ref bound to ``name`` in directory ``dref``, or None."""
        return self.dirs[dref].entries.get(name)

    def entry_names(self, dref: DirRef) -> Tuple[str, ...]:
        """Entry names of a directory, in deterministic (sorted) order."""
        return tuple(sorted(self.dirs[dref].entries))

    def is_empty_dir(self, dref: DirRef) -> bool:
        return len(self.dirs[dref].entries) == 0

    def dir_nlink(self, dref: DirRef) -> int:
        """Computed link count of a directory: 2 + number of subdirs."""
        subdirs = sum(1 for ref in self.dirs[dref].entries.values()
                      if isinstance(ref, DirRef))
        return 2 + subdirs

    def is_connected_dir(self, dref: DirRef) -> bool:
        """True if the directory is reachable from the root."""
        seen = set()
        cur: Optional[DirRef] = dref
        while cur is not None and cur not in seen:
            if cur == self.root:
                return True
            seen.add(cur)
            cur = self.dirs[cur].parent
        return False

    def is_ancestor(self, anc: DirRef, dref: DirRef) -> bool:
        """True if ``anc`` is a proper ancestor of ``dref``.

        Used by the rename check forbidding a directory from being moved
        into a subdirectory of itself.
        """
        cur = self.dirs[dref].parent
        seen = set()
        while cur is not None and cur not in seen:
            if cur == anc:
                return True
            seen.add(cur)
            cur = self.dirs[cur].parent
        return False

    # -- reference allocation --------------------------------------------------
    def _fresh(self) -> Tuple["FsState", int]:
        return dataclasses.replace(self, next_ref=self.next_ref + 1), \
            self.next_ref

    def tick(self) -> "FsState":
        """Advance the logical clock (timestamps trait)."""
        return dataclasses.replace(self, clock=self.clock + 1)

    # -- directory mutators -----------------------------------------------------
    def create_dir(self, parent: DirRef, name: str,
                   meta: Meta) -> Tuple["FsState", DirRef]:
        """Create an empty directory entry ``name`` under ``parent``."""
        s, n = self._fresh()
        dref = DirRef(n)
        new_dir = Dir(entries=fdict(), parent=parent, meta=meta)
        dirs = s.dirs.set(dref, new_dir)
        pdir = dirs[parent]
        dirs = dirs.set(parent, dataclasses.replace(
            pdir, entries=pdir.entries.set(name, dref)))
        return dataclasses.replace(s, dirs=dirs), dref

    def create_file(self, parent: DirRef, name: str, meta: Meta,
                    kind: FileKind = FileKind.REGULAR,
                    content: bytes = b"") -> Tuple["FsState", FileRef]:
        """Create a file (or symlink) entry ``name`` under ``parent``."""
        s, n = self._fresh()
        fref = FileRef(n)
        files = s.files.set(fref, File(kind=kind, content=content,
                                       meta=meta, nlink=1))
        pdir = s.dirs[parent]
        dirs = s.dirs.set(parent, dataclasses.replace(
            pdir, entries=pdir.entries.set(name, fref)))
        return dataclasses.replace(s, dirs=dirs, files=files), fref

    def add_link(self, parent: DirRef, name: str,
                 fref: FileRef) -> "FsState":
        """Add a hard link ``name`` -> existing file object ``fref``."""
        f = self.files[fref]
        files = self.files.set(fref, dataclasses.replace(
            f, nlink=f.nlink + 1))
        pdir = self.dirs[parent]
        dirs = self.dirs.set(parent, dataclasses.replace(
            pdir, entries=pdir.entries.set(name, fref)))
        return dataclasses.replace(self, dirs=dirs, files=files)

    def remove_entry(self, parent: DirRef, name: str) -> "FsState":
        """Remove entry ``name`` from ``parent``.

        Removing a file entry decrements the object's link count; the
        object itself is retained in the heap (it may be disconnected but
        still open).  Removing a directory entry disconnects the directory
        (its parent pointer is cleared) — the object survives so that open
        handles and working directories into it keep a referent.
        """
        pdir = self.dirs[parent]
        ref = pdir.entries[name]
        dirs = self.dirs.set(parent, dataclasses.replace(
            pdir, entries=pdir.entries.remove(name)))
        files = self.files
        if isinstance(ref, FileRef):
            f = files[ref]
            files = files.set(ref, dataclasses.replace(
                f, nlink=f.nlink - 1))
        else:
            child = dirs[ref]
            dirs = dirs.set(ref, dataclasses.replace(child, parent=None))
        return dataclasses.replace(self, dirs=dirs, files=files)

    def move_entry(self, src_parent: DirRef, src_name: str,
                   dst_parent: DirRef, dst_name: str) -> "FsState":
        """Atomically move an entry (the core of ``rename``).

        If the destination name exists it is replaced, with the usual
        link-count bookkeeping on the displaced object.
        """
        ref = self.dirs[src_parent].entries[src_name]
        s = self
        dst_dir = s.dirs[dst_parent]
        displaced = dst_dir.entries.get(dst_name)
        if displaced is not None and displaced != ref:
            s = s.remove_entry(dst_parent, dst_name)
        # Remove the source entry without touching the moved object's
        # counts or parent pointer (we re-add it immediately below).
        src_dir = s.dirs[src_parent]
        dirs = s.dirs.set(src_parent, dataclasses.replace(
            src_dir, entries=src_dir.entries.remove(src_name)))
        s = dataclasses.replace(s, dirs=dirs)
        dst_dir = s.dirs[dst_parent]
        dirs = s.dirs.set(dst_parent, dataclasses.replace(
            dst_dir, entries=dst_dir.entries.set(dst_name, ref)))
        s = dataclasses.replace(s, dirs=dirs)
        if isinstance(ref, DirRef):
            moved = s.dirs[ref]
            s = dataclasses.replace(s, dirs=s.dirs.set(
                ref, dataclasses.replace(moved, parent=dst_parent)))
        return s

    # -- file-object mutators -----------------------------------------------------
    def set_file_meta(self, fref: FileRef, meta: Meta) -> "FsState":
        f = self.files[fref]
        return dataclasses.replace(self, files=self.files.set(
            fref, dataclasses.replace(f, meta=meta)))

    def set_dir_meta(self, dref: DirRef, meta: Meta) -> "FsState":
        d = self.dirs[dref]
        return dataclasses.replace(self, dirs=self.dirs.set(
            dref, dataclasses.replace(d, meta=meta)))

    def write_span(self, fref: FileRef, offset: int,
                   data: bytes) -> "FsState":
        """Write ``data`` at ``offset``, zero-filling any hole."""
        f = self.files[fref]
        content = f.content
        if offset > len(content):
            content = content + b"\x00" * (offset - len(content))
        content = content[:offset] + data + content[offset + len(data):]
        return dataclasses.replace(self, files=self.files.set(
            fref, dataclasses.replace(f, content=content)))

    def read_span(self, fref: FileRef, offset: int, count: int) -> bytes:
        """Read up to ``count`` bytes at ``offset``."""
        content = self.files[fref].content
        if offset >= len(content):
            return b""
        return content[offset:offset + count]

    def truncate_file(self, fref: FileRef, length: int) -> "FsState":
        """Truncate or zero-extend a file to ``length`` bytes."""
        f = self.files[fref]
        content = f.content[:length]
        if len(content) < length:
            content = content + b"\x00" * (length - len(content))
        return dataclasses.replace(self, files=self.files.set(
            fref, dataclasses.replace(f, content=content)))

    def file_size(self, fref: FileRef) -> int:
        return len(self.files[fref].content)


def empty_fs(root_mode: int = 0o755, root_uid: int = 0,
             root_gid: int = 0) -> FsState:
    """The initial state: an empty root directory (paper section 5).

    Test execution starts from an empty file system (the executor's
    chroot-jail analogue), so ``S_0`` is always this state.
    """
    root = DirRef(0)
    root_dir = Dir(entries=fdict(), parent=None,
                   meta=Meta(mode=root_mode, uid=root_uid, gid=root_gid))
    return FsState(dirs=fdict({root: root_dir}), files=fdict(),
                   root=root, next_ref=1)
