"""A read-mostly transition-memo arena shared across worker processes.

The interned engine (:mod:`repro.engine.memo`) makes checking fast by
memoizing ``os_trans`` applications and tau closures per
:class:`~repro.engine.intern.InternTable` id — but the memo lives in one
process.  A pool of checking workers therefore re-derives the same hot
transitions once *per worker*, which is exactly the work the memo
exists to avoid.

This module packages a warmed memo for sharing:

* :class:`MemoArena` serialises one table + per-spec memo set into a
  single buffer — a pickled section holding the interned states and the
  distinct labels, followed by packed little-endian ``int64`` rows
  (``(state_id, label_id) -> successor ids`` for transitions,
  ``state_id -> closure ids`` for tau closures), sorted for binary
  search.  The buffer lives in a :mod:`multiprocessing.shared_memory`
  block when the platform provides one (workers attach the same
  physical pages read-only-by-convention), or travels as plain bytes
  when it does not — the reader API is identical.
* :class:`ArenaReader` attaches to an arena from any process.  The
  pickled states/labels are materialised once per attach (ids are the
  list positions, so re-interning them in order reproduces the arena's
  id assignment exactly); row lookups then run directly against the
  shared buffer without copying it.
* :class:`SharedTransitionMemo` is a :class:`TransitionMemo` that
  consults the arena between its local dict and a fresh derivation:
  local hit, else arena row (counted in ``arena_hits``), else derive
  locally (counted in ``arena_misses`` — the *fallback path*, whose
  results are bit-for-bit those of a hit, test-enforced).

Epoch reclamation: :meth:`MemoArena.create` takes ``keep_sids`` — the
state ids referenced by live prefix-cache snapshots.  Rows whose state
id is not in the set are dropped from the new epoch's arena (a worker
missing them just falls back to local derivation), which bounds the
packed row sections over a long campaign while keeping every row a
live snapshot can resume from.  The pickled state list is *not*
filtered — ids are list positions, so dropping states would re-mint
every id and invalidate live snapshots; compaction is future work.
"""

from __future__ import annotations

import array
import json
import pickle
import struct
import threading
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - 3.8+ always has it
    shared_memory = None  # type: ignore[assignment]

from repro.core.labels import OsLabel
from repro.engine.intern import InternTable
from repro.engine.memo import TransitionMemo

#: Buffer magic + layout version (bumped on incompatible changes).
_MAGIC = b"RPROARN1"
_LEN = struct.Struct("<Q")

#: A picklable attachment descriptor: ``("shm", name)`` or
#: ``("bytes", payload)``.
ArenaHandle = Tuple[str, object]

#: Serialises shared-memory open/attach within a process while
#: :func:`_untracked_attach` has registration suppressed.
_SHM_LOCK = threading.Lock()


def _untracked_attach(name: str):
    """Attach to an existing segment *without* registering it with
    this process's resource tracker.

    ``SharedMemory(name=...)`` registers on attach exactly as on
    create, but only the creating :class:`MemoArena` ever unlinks.
    Left registered, every attaching worker's tracker warns about a
    "leaked" segment at exit (and unlinks a name the owner already
    released); explicitly *unregistering* is no better, because forked
    workers may share the parent's tracker, where the unregister
    clobbers the creator's own registration.  Not registering in the
    first place is correct in both topologies — the creator's single
    registration remains the cleanup-of-last-resort.  (Python 3.13's
    ``track=False`` does exactly this; suppressing the register call
    is the 3.11-compatible spelling.)
    """
    from multiprocessing import resource_tracker
    with _SHM_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _pack_words(values: Iterable[int]) -> bytes:
    return array.array("q", values).tobytes()


class MemoArena:
    """Owner side: build, publish and reclaim one epoch's memo rows."""

    def __init__(self, payload: bytes, shm) -> None:
        self._payload: Optional[bytes] = payload if shm is None else None
        self._shm = shm
        header = _parse_header(memoryview(payload))
        self.specs: Tuple[str, ...] = tuple(header["specs"])
        self.n_states: int = header["n_states"]
        self.n_labels: int = header["n_labels"]
        #: Total packed rows (transition + closure) across specs.
        self.rows: int = header["rows"]

    # -- building -------------------------------------------------------------

    @classmethod
    def create(cls, table: InternTable,
               memos: Sequence[TransitionMemo], *,
               keep_sids: Optional[Iterable[int]] = None,
               use_shm: bool = True) -> "MemoArena":
        """Pack ``table`` + ``memos`` into a shareable arena.

        ``keep_sids`` is the epoch-reclamation filter: when given, only
        rows whose state id is a member survive (rows referenced by a
        live prefix-cache snapshot are exactly the ones callers pass).
        ``use_shm=False`` forces the plain-bytes fallback (what also
        happens when shared memory is unavailable at runtime).
        """
        payload = _pack_arena(table, memos, keep_sids=keep_sids)
        shm = None
        if use_shm and shared_memory is not None:
            try:
                with _SHM_LOCK:
                    shm = shared_memory.SharedMemory(create=True,
                                                     size=len(payload))
                shm.buf[:len(payload)] = payload
            except OSError:  # no /dev/shm (or exhausted): bytes mode
                shm = None
        return cls(payload, shm)

    def handle(self) -> ArenaHandle:
        """The picklable descriptor a worker attaches with."""
        if self._shm is not None:
            return ("shm", self._shm.name)
        return ("bytes", self._payload)

    @property
    def name(self) -> Optional[str]:
        return self._shm.name if self._shm is not None else None

    def stats(self) -> Dict[str, int]:
        return {"states": self.n_states, "labels": self.n_labels,
                "rows": self.rows}

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._shm is not None:
            self._shm.close()

    def unlink(self) -> None:
        """Release the shared block (no-op in bytes mode).  Attached
        readers keep working until they detach — the OS drops the pages
        with the last mapping."""
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double call
                pass
            self._shm = None

    def __enter__(self) -> "MemoArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        self.unlink()


def _pack_arena(table: InternTable, memos: Sequence[TransitionMemo], *,
                keep_sids: Optional[Iterable[int]] = None) -> bytes:
    keep: Optional[Set[int]] = (set(keep_sids)
                                if keep_sids is not None else None)
    states = table.states_of(range(len(table)))

    # Distinct labels across every memo, in first-seen order: label ids
    # are positions in this list, re-derivable on attach.
    labels: List[OsLabel] = []
    label_ids: Dict[OsLabel, int] = {}
    for memo in memos:
        for (_sid, label) in memo._trans:
            if label not in label_ids:
                label_ids[label] = len(labels)
                labels.append(label)
    slots = max(1, len(labels))

    sections = []
    words: List[bytes] = []
    word_count = 0
    rows = 0

    def _append(values: List[int]) -> int:
        nonlocal word_count
        blob = _pack_words(values)
        words.append(blob)
        offset = word_count
        word_count += len(values)
        return offset

    for memo in memos:
        trans_rows = sorted(
            (sid * slots + label_ids[label], succs)
            for (sid, label), succs in memo._trans.items()
            if keep is None or sid in keep)
        tkeys, toffs, tcnts, tsuccs = [], [], [], []
        for key, succs in trans_rows:
            tkeys.append(key)
            toffs.append(len(tsuccs))
            tcnts.append(len(succs))
            tsuccs.extend(succs)
        closure_rows = sorted(
            (sid, closed) for sid, closed in memo._closures.items()
            if keep is None or sid in keep)
        ckeys, coffs, ccnts, cvals = [], [], [], []
        for sid, closed in closure_rows:
            ckeys.append(sid)
            coffs.append(len(cvals))
            ccnts.append(len(closed))
            cvals.extend(sorted(closed))
        rows += len(trans_rows) + len(closure_rows)
        sections.append({
            "spec": memo.spec.name,
            "trans": {"n": len(tkeys), "keys": _append(tkeys),
                      "offs": _append(toffs), "cnts": _append(tcnts),
                      "succs": _append(tsuccs)},
            "closure": {"n": len(ckeys), "keys": _append(ckeys),
                        "offs": _append(coffs), "cnts": _append(ccnts),
                        "vals": _append(cvals)},
        })

    pickled = pickle.dumps((states, labels), pickle.HIGHEST_PROTOCOL)
    header = json.dumps({
        "specs": [memo.spec.name for memo in memos],
        "n_states": len(states),
        "n_labels": len(labels),
        "slots": slots,
        "rows": rows,
        "pickle_len": len(pickled),
        "sections": sections,
    }).encode()

    prefix_len = len(_MAGIC) + _LEN.size * 2 + len(header) + len(pickled)
    pad = (-prefix_len) % 8  # 8-align the int64 word region
    return b"".join([_MAGIC, _LEN.pack(len(header)),
                     _LEN.pack(pad), header, pickled, b"\0" * pad]
                    + words)


def _parse_header(buf: memoryview) -> dict:
    if bytes(buf[:len(_MAGIC)]) != _MAGIC:
        raise ValueError("not a memo arena buffer")
    base = len(_MAGIC)
    (header_len,) = _LEN.unpack_from(buf, base)
    (pad,) = _LEN.unpack_from(buf, base + _LEN.size)
    start = base + 2 * _LEN.size
    header = json.loads(bytes(buf[start:start + header_len]))
    header["pickle_off"] = start + header_len
    header["words_off"] = (header["pickle_off"] + header["pickle_len"]
                           + pad)
    return header


class ArenaReader:
    """Worker side: attach, look rows up, detach.

    Attach cost is one unpickle of the states/labels lists; row lookups
    are binary searches over the shared buffer and allocate only the
    returned tuple.  Readers are independent — any number may attach to
    and detach from the same arena concurrently (the buffer is never
    written after publication).
    """

    def __init__(self, buf: memoryview, shm=None) -> None:
        self._shm = shm
        self._buf = buf
        header = _parse_header(buf)
        self.specs: Tuple[str, ...] = tuple(header["specs"])
        self._slots: int = header["slots"]
        self._sections = {section["spec"]: section
                          for section in header["sections"]}
        self.rows: int = header["rows"]
        pickled = buf[header["pickle_off"]:
                      header["pickle_off"] + header["pickle_len"]]
        self.states, self.labels = pickle.loads(pickled)
        self._label_ids: Dict[OsLabel, int] = {
            label: lid for lid, label in enumerate(self.labels)}
        words_end = len(buf) - (len(buf) - header["words_off"]) % 8
        self._words = buf[header["words_off"]:words_end].cast("q")

    @classmethod
    def attach(cls, handle: ArenaHandle) -> "ArenaReader":
        kind, value = handle
        if kind == "bytes":
            return cls(memoryview(value))
        if shared_memory is None:  # pragma: no cover - defensive
            raise RuntimeError("shared memory is unavailable")
        shm = _untracked_attach(value)
        return cls(memoryview(shm.buf), shm)

    def spec_index(self, name: str) -> int:
        """Position of a spec among the arena's sections (the order the
        packing memos were given in)."""
        if name not in self._sections:
            raise KeyError(
                f"arena has no rows for spec {name!r}; packed: "
                f"{', '.join(self.specs)}")
        return self.specs.index(name)

    def _bsearch(self, base: int, n: int, key: int) -> int:
        words = self._words
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            value = words[base + mid]
            if value < key:
                lo = mid + 1
            elif value > key:
                hi = mid
            else:
                return mid
        return -1

    def lookup_trans(self, spec: str, sid: int,
                     label: OsLabel) -> Optional[Tuple[int, ...]]:
        """The packed successor ids of ``(sid, label)``, or None."""
        lid = self._label_ids.get(label)
        if lid is None:
            return None
        section = self._sections[spec]["trans"]
        hit = self._bsearch(section["keys"], section["n"],
                            sid * self._slots + lid)
        if hit < 0:
            return None
        words = self._words
        off = words[section["offs"] + hit]
        cnt = words[section["cnts"] + hit]
        base = section["succs"] + off
        return tuple(words[base:base + cnt])

    def lookup_closure(self, spec: str,
                       sid: int) -> Optional[FrozenSet[int]]:
        """The packed tau-closure ids of ``sid``, or None."""
        section = self._sections[spec]["closure"]
        hit = self._bsearch(section["keys"], section["n"], sid)
        if hit < 0:
            return None
        words = self._words
        off = words[section["offs"] + hit]
        cnt = words[section["cnts"] + hit]
        base = section["vals"] + off
        return frozenset(words[base:base + cnt])

    def seed_table(self, table: InternTable) -> None:
        """Intern the arena's states so local ids equal arena ids.

        Ids are first-seen dense, so interning the pickled list in
        order reproduces the packing table's assignment — provided the
        target table is fresh (or already seeded identically, e.g. a
        forked copy of the packing table).  Raises on any misalignment
        rather than serving wrong successor rows.
        """
        for sid, state in enumerate(self.states):
            if table.intern(state) != sid:
                raise ValueError(
                    "intern table does not align with the arena; "
                    "attach into a fresh table (or the one the arena "
                    "was packed from)")

    def close(self) -> None:
        self._words.release()
        self._buf.release()
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def __enter__(self) -> "ArenaReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SharedTransitionMemo(TransitionMemo):
    """A :class:`TransitionMemo` backed by a shared arena.

    Lookup order is local dict -> arena row -> fresh derivation; every
    consulted row is copied into the local dict so repeated steps stay
    dict-speed.  ``arena_hits`` / ``arena_misses`` count only the
    arena consultations (local dict hits touch neither), and surface in
    the sharded backend's run stats.
    """

    __slots__ = ("reader", "arena_hits", "arena_misses")

    def __init__(self, spec, table: InternTable,
                 reader: ArenaReader) -> None:
        super().__init__(spec, table)
        self.reader = reader
        self.arena_hits = 0
        self.arena_misses = 0

    def apply_one(self, sid: int, label) -> Tuple[int, ...]:
        cached = self._trans.get((sid, label))
        if cached is not None:
            return cached
        row = self.reader.lookup_trans(self.spec.name, sid, label)
        if row is not None:
            self.arena_hits += 1
            self._trans[(sid, label)] = row
            return row
        self.arena_misses += 1
        return super().apply_one(sid, label)

    def closure_one(self, sid: int) -> FrozenSet[int]:
        cached = self._closures.get(sid)
        if cached is not None:
            return cached
        row = self.reader.lookup_closure(self.spec.name, sid)
        if row is not None:
            self.arena_hits += 1
            self._closures[sid] = row
            return row
        self.arena_misses += 1
        return super().closure_one(sid)

    def stats(self) -> Dict[str, int]:
        stats = super().stats()
        stats["arena_hits"] = self.arena_hits
        stats["arena_misses"] = self.arena_misses
        return stats
