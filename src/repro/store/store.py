"""The append-only, content-addressed campaign store.

A :class:`CampaignStore` is a directory::

    campaign/
      manifest.json            # format marker + free-form campaign meta
      segments/
        segment-000001.seg     # length-prefixed checksummed JSONL rows
        segment-000002.seg     # (rolled when a segment passes its cap)
      index.bin                # packed (digest, segment, offset, len)
      views/
        survey.json            # per-view fold checkpoint: cursor+state

Write path: :meth:`append` takes a :class:`~repro.store.records
.TraceRecord` (or :class:`MetaRecord`), refuses duplicates by content
address (``(config-partition, trace-hash)``), and streams the encoded
row to the current segment — one buffered write + flush, so a crash
loses at most the row being written.  The packed index is a *cache*:
:meth:`flush`/:meth:`close` rewrite it only when it is stale (a row was
added, or recovery found rows it does not cover); on open, any rows the
index does not yet cover are recovered by scanning each segment only
from its indexed watermark — completed, fully indexed segments are
never re-read.

Crash safety: a torn tail record (short header/payload, missing
terminator, or checksum mismatch at end-of-file) is detected on open
and truncated away; interior damage raises
:class:`~repro.store.segment.StoreCorruption` loudly.  View
checkpoints whose cursor points past surviving data are reset (the
fold is recomputed from the records that actually remain — never a
fold over vanished rows).

Read path: :meth:`records` streams typed records from any
:class:`Cursor` (one segment buffered at a time); :meth:`view` folds a
named :mod:`~repro.store.views` view incrementally from its
checkpointed cursor and persists the new checkpoint atomically.
"""

from __future__ import annotations

import json
import pathlib
import struct
import threading
import zlib
from typing import Dict, Iterator, Optional, Tuple

from repro.store.records import (StoreRecord, TraceRecord, payload_key,
                                 record_from_payload)
from repro.store.segment import (StoreCorruption, TailTorn,
                                 decode_records, encode_record, scan)
from repro.store.views import VIEWS

FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_INDEX = "index.bin"
_SEGMENT_DIR = "segments"
_VIEW_DIR = "views"
_INDEX_MAGIC = b"RSTIDX01"
#: digest (32B) + segment (u32) + offset (u64) + row length (u32).
_INDEX_ROW = struct.Struct("<32sIQI")


class Cursor(Tuple[int, int]):
    """A resumable position in the record stream: ``(segment number,
    byte offset)``.  Ordered like its tuple."""

    __slots__ = ()

    def __new__(cls, segment: int, offset: int) -> "Cursor":
        return super().__new__(cls, (segment, offset))

    @property
    def segment(self) -> int:
        return self[0]

    @property
    def offset(self) -> int:
        return self[1]

    def to_json(self) -> dict:
        return {"segment": self.segment, "offset": self.offset}

    @classmethod
    def from_json(cls, payload: dict) -> "Cursor":
        return cls(int(payload["segment"]), int(payload["offset"]))


def _segment_name(number: int) -> str:
    return f"segment-{number:06d}.seg"


class CampaignStore:
    """One campaign directory, opened for reading and appending."""

    def __init__(self, path, *, create: bool = True,
                 segment_bytes: int = 8 << 20,
                 fsync: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.segment_bytes = max(1, segment_bytes)
        self.fsync = fsync
        self._lock = threading.RLock()
        #: digest bytes -> (segment number, offset, row length).
        self._keys: Dict[bytes, Tuple[int, int, int]] = {}
        self._dedup_hits = 0
        #: Whether the index on disk differs from ``_keys``: the next
        #: flush rewrites it.
        self._stale = False
        self._closed = False
        self._handle = None
        manifest = self.path / _MANIFEST
        if not manifest.exists():
            if not create:
                raise FileNotFoundError(
                    f"no campaign store at {self.path} (missing "
                    f"{_MANIFEST}); pass create=True to initialise one")
            (self.path / _SEGMENT_DIR).mkdir(parents=True,
                                             exist_ok=True)
            (self.path / _VIEW_DIR).mkdir(parents=True, exist_ok=True)
            self._write_json(manifest, {"format": FORMAT_VERSION,
                                        "meta": {}})
        else:
            payload = json.loads(manifest.read_text())
            if payload.get("format") != FORMAT_VERSION:
                raise StoreCorruption(
                    f"unsupported campaign store format: "
                    f"{payload.get('format')!r}")
            (self.path / _SEGMENT_DIR).mkdir(exist_ok=True)
            (self.path / _VIEW_DIR).mkdir(exist_ok=True)
        self._recover()

    # -- open-time recovery ---------------------------------------------------

    def _segment_path(self, number: int) -> pathlib.Path:
        return self.path / _SEGMENT_DIR / _segment_name(number)

    def _segment_numbers(self) -> list:
        numbers = []
        for path in (self.path / _SEGMENT_DIR).glob("segment-*.seg"):
            try:
                numbers.append(int(path.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(numbers)

    def _load_index(self) -> Dict[bytes, Tuple[int, int, int]]:
        """The packed index, or empty when absent/damaged (it is a
        cache — segments are the truth and are scanned to catch up)."""
        path = self.path / _INDEX
        try:
            blob = path.read_bytes()
        except OSError:
            return {}
        if (len(blob) < len(_INDEX_MAGIC) + 4
                or not blob.startswith(_INDEX_MAGIC)):
            return {}
        body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
        if zlib.crc32(body) != crc:
            return {}
        rows: Dict[bytes, Tuple[int, int, int]] = {}
        offset = len(_INDEX_MAGIC)
        for digest, segment, start, length in \
                _INDEX_ROW.iter_unpack(body[offset:]):
            rows[digest] = (segment, start, length)
        return rows

    def _recover(self) -> None:
        """Validate the index against the segments, truncate a torn
        tail, and rebuild the in-memory key set."""
        index = self._load_index()
        numbers = self._segment_numbers()
        if not numbers:
            numbers = [1]
            self._segment_path(1).touch()
        sizes = {n: self._segment_path(n).stat().st_size
                 for n in numbers}
        stale = False
        last = numbers[-1]
        # Validate the index against the files.  An indexed row cut
        # off at the end of the *last* segment is the torn-tail case
        # (data flushed per append can still be lost by a crash after
        # the index rename): drop it and truncate below.  The same in
        # an interior segment — or a vanished segment file — cannot be
        # an interrupted append (only the last segment is ever written
        # to) and is loud, never silent loss.
        watermark = {n: 0 for n in numbers}
        for digest, (segment, start, length) in index.items():
            if segment not in sizes:
                raise StoreCorruption(
                    f"index references vanished segment {segment}")
            if start + length > sizes[segment]:
                if segment != last:
                    raise StoreCorruption(
                        f"segment {segment} lost durable data: index "
                        f"row ends at {start + length}, file is "
                        f"{sizes[segment]} byte(s)")
                stale = True
                continue
            self._keys[digest] = (segment, start, length)
            watermark[segment] = max(watermark[segment],
                                     start + length)
        for number in numbers:
            size = sizes[number]
            start = watermark[number]
            if start >= size:
                continue
            path = self._segment_path(number)
            with path.open("rb") as fh:
                fh.seek(start)
                data = fh.read()
            records, valid_end = scan(data, last=(number == last))
            for offset, end, payload in records:
                digest = bytes.fromhex(payload_key(payload))
                if digest not in self._keys:
                    self._keys[digest] = (number, start + offset,
                                          end - offset)
                stale = True  # a row the index misses, or a duplicate
            absolute_end = start + valid_end
            if absolute_end < size:
                # Torn tail: drop the partial record durably.
                with path.open("r+b") as fh:
                    fh.truncate(absolute_end)
                stale = True
        self._stale = stale
        self._current = numbers[-1]
        self._current_size = self._segment_path(self._current)\
            .stat().st_size
        self._clamp_views(sizes={n: self._segment_path(n).stat().st_size
                                 for n in numbers}, last=last)

    def _clamp_views(self, sizes: Dict[int, int], last: int) -> None:
        """Reset any view checkpoint whose cursor points past the data
        that survived recovery — its folded state would otherwise
        include vanished records (a wrong fold)."""
        for path in (self.path / _VIEW_DIR).glob("*.json"):
            try:
                payload = json.loads(path.read_text())
                cursor = Cursor.from_json(payload["cursor"])
            except (ValueError, KeyError, OSError):
                path.unlink(missing_ok=True)
                continue
            valid = (cursor.segment in sizes
                     and cursor.offset <= sizes[cursor.segment]
                     and (cursor.segment <= last))
            if not valid:
                path.unlink(missing_ok=True)

    # -- the write path -------------------------------------------------------

    @property
    def rows(self) -> int:
        """Durable rows (trace + meta records), duplicates excluded."""
        return len(self._keys)

    @property
    def dedup_hits(self) -> int:
        """Appends refused because the content address already
        existed (re-runs, client retries)."""
        return self._dedup_hits

    def __contains__(self, key: str) -> bool:
        return bytes.fromhex(key) in self._keys

    def append(self, record: StoreRecord) -> bool:
        """Append one record; returns False (and writes nothing) when
        its content address is already stored."""
        with self._lock:
            if self._closed:
                raise ValueError("campaign store is closed")
            digest = bytes.fromhex(record.key)
            if digest in self._keys:
                self._dedup_hits += 1
                return False
            line = encode_record(record.to_payload())
            if (self._current_size > 0
                    and self._current_size + len(line)
                    > self.segment_bytes):
                self._roll_segment()
            handle = self._open_current()
            offset = self._current_size
            handle.write(line)
            handle.flush()
            if self.fsync:
                import os
                os.fsync(handle.fileno())
            self._current_size += len(line)
            self._keys[digest] = (self._current, offset, len(line))
            self._stale = True
            return True

    def _open_current(self):
        if self._handle is None:
            self._handle = self._segment_path(self._current)\
                .open("ab")
        return self._handle

    def _roll_segment(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._current += 1
        self._current_size = 0
        self._segment_path(self._current).touch()

    def _write_index(self) -> None:
        body = bytearray(_INDEX_MAGIC)
        for digest in sorted(self._keys):
            segment, offset, length = self._keys[digest]
            body += _INDEX_ROW.pack(digest, segment, offset, length)
        blob = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
        tmp = self.path / (_INDEX + ".tmp")
        tmp.write_bytes(blob)
        tmp.replace(self.path / _INDEX)
        self._stale = False

    @staticmethod
    def _write_json(path: pathlib.Path, payload: dict) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True)
                       + "\n")
        tmp.replace(path)

    def flush(self) -> None:
        """Persist any buffered segment bytes, and the packed index if
        it is stale."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
            if self._stale:
                self._write_index()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self.flush()
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._closed = True

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the read path --------------------------------------------------------

    def end_cursor(self) -> Cursor:
        with self._lock:
            return Cursor(self._current, self._current_size)

    def records(self, start: Optional[Cursor] = None
                ) -> Iterator[Tuple[Cursor, StoreRecord]]:
        """Stream ``(cursor-after, record)`` from ``start`` (default:
        the beginning).  Only segments at or after the cursor's are
        opened; memory is bounded by one segment."""
        with self._lock:
            numbers = [n for n in self._segment_numbers()
                       if start is None or n >= start.segment]
            end = self.end_cursor()
        for number in numbers:
            begin = (start.offset
                     if start is not None and number == start.segment
                     else 0)
            limit = (end.offset if number == end.segment else None)
            with self._segment_path(number).open("rb") as fh:
                fh.seek(begin)
                data = fh.read()
            if limit is not None:
                data = data[:max(0, limit - begin)]
            # Decode lazily: the raw segment bytes are the only
            # buffer; payloads materialise one row at a time.  A torn
            # tail on the final segment simply ends the stream (open
            # truncates it durably; a reader racing an appender may
            # still see one mid-write).
            rows = decode_records(data, last=(number == numbers[-1]))
            while True:
                try:
                    _offset, rec_end, payload = next(rows)
                except StopIteration:
                    break
                except TailTorn:
                    break
                yield (Cursor(number, begin + rec_end),
                       record_from_payload(payload))

    def partitions(self) -> Tuple[str, ...]:
        """Every partition with at least one trace row (full scan)."""
        seen = []
        for _cursor, record in self.records():
            if record.partition not in seen:
                seen.append(record.partition)
        return tuple(sorted(seen))

    # -- incremental views ----------------------------------------------------

    def _view_path(self, name: str) -> pathlib.Path:
        return self.path / _VIEW_DIR / f"{name}.json"

    def view_checkpoint(self, name: str) -> Optional[dict]:
        """The raw persisted checkpoint (cursor + folded count +
        state), or None before the first fold."""
        path = self._view_path(name)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def refresh_view(self, name: str) -> dict:
        """Fold the named view forward from its checkpointed cursor to
        the current end of the store, persist the new checkpoint, and
        return the raw state."""
        view = VIEWS.get(name)
        if view is None:
            raise KeyError(f"unknown view {name!r}; available: "
                           f"{', '.join(sorted(VIEWS))}")
        checkpoint = self.view_checkpoint(name)
        if checkpoint is None:
            cursor: Optional[Cursor] = None
            state = view.initial()
            folded = 0
        else:
            cursor = Cursor.from_json(checkpoint["cursor"])
            state = checkpoint["state"]
            folded = checkpoint["folded"]
        for after, record in self.records(cursor):
            if isinstance(record, TraceRecord):
                view.fold(state, record)
                folded += 1
            cursor = after
        if cursor is None:
            cursor = self.end_cursor()
        self._write_json(self._view_path(name), {
            "view": name, "cursor": cursor.to_json(),
            "folded": folded, "state": state})
        return state

    def view(self, name: str):
        """The named view's up-to-date result (fold + checkpoint)."""
        return VIEWS[name].result(self.refresh_view(name))

    def view_json(self, name: str) -> str:
        """The refreshed view *state* as canonical JSON — byte-stable
        across re-runs of identical campaigns (the dedup guarantee
        made visible)."""
        return json.dumps(self.refresh_view(name), indent=2,
                          sort_keys=True) + "\n"

    # -- maintenance ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            numbers = self._segment_numbers()
            return {
                "rows": len(self._keys),
                "segments": len(numbers),
                "bytes": sum(self._segment_path(n).stat().st_size
                             for n in numbers),
                "dedup_hits": self._dedup_hits,
            }

    def gc(self) -> Dict[str, int]:
        """Compact the store: rewrite all rows into fresh segments,
        dropping duplicate content addresses (keeping the first) and
        superseded meta rows (keeping the newest per partition), then
        rebuild the index and reset view checkpoints (offsets moved;
        the next :meth:`view` refolds from the surviving rows)."""
        with self._lock:
            before = self.stats()
            keep: Dict[bytes, dict] = {}
            latest_meta: Dict[str, bytes] = {}
            order = []
            for _cursor, record in self.records():
                digest = bytes.fromhex(record.key)
                payload = record.to_payload()
                if payload["kind"] == "meta":
                    old = latest_meta.get(record.partition)
                    if old is not None:
                        keep.pop(old, None)
                        order.remove(old)
                    latest_meta[record.partition] = digest
                if digest not in keep:
                    keep[digest] = payload
                    order.append(digest)
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            for number in self._segment_numbers():
                self._segment_path(number).unlink()
            self._keys.clear()
            self._current = 1
            self._current_size = 0
            self._segment_path(1).touch()
            for digest in order:
                line = encode_record(keep[digest])
                if (self._current_size > 0 and
                        self._current_size + len(line)
                        > self.segment_bytes):
                    self._roll_segment()
                handle = self._open_current()
                offset = self._current_size
                handle.write(line)
                self._current_size += len(line)
                self._keys[digest] = (self._current, offset, len(line))
            if self._handle is not None:
                self._handle.flush()
            self._write_index()
            for path in (self.path / _VIEW_DIR).glob("*.json"):
                path.unlink()
            after = self.stats()
            return {
                "rows_before": before["rows"],
                "rows_after": after["rows"],
                "bytes_before": before["bytes"],
                "bytes_after": after["bytes"],
                "segments_before": before["segments"],
                "segments_after": after["segments"],
            }
