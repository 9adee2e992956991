"""Append-only write-ahead log for the sharded network simulator.

The paper's deployment target persists shard microblocks and DS
merges so a node can crash and rejoin without diverging; this module
is the simulator's equivalent of that durability substrate.  A
:class:`WriteAheadLog` records every state-changing *input* to a
:class:`~repro.chain.network.Network` — deployments, account
creations, epoch submissions — so a crashed process can be resumed by
deterministic re-execution (``Network.resume``), with durable
snapshots (:mod:`repro.chain.store`) bounding how much of the log
must be replayed.

Record framing
--------------

One record per line (JSONL with an integrity header)::

    <LEN> <CRC32-hex8> <payload>\\n

``LEN`` is the byte length of the UTF-8 payload, the CRC covers the
payload bytes, and the payload is compact JSON of the form
``{"seq": n, "type": t, "data": {...}}``.  Sequence numbers are
monotonic from 1 and contiguous across segment files.  Compact JSON
never contains a raw newline, so the format stays line-delimited.

Replay semantics (the crash-consistency contract):

* a record that fails its length or CRC check **in the middle of the
  log** is corruption — replay refuses it (:class:`WALCorruption`);
* an invalid record **at the very tail** is a torn write (the process
  died mid-``write``) — replay drops it and physically truncates the
  segment back to the last valid record, losing nothing before the
  tear.  A record whose trailing newline is missing counts as torn
  even if its bytes are otherwise intact: without the terminator
  there is no evidence the write completed.

Fsync policy
------------

``"always"`` fsyncs after every append, ``"commit"`` (the default)
only at explicit :meth:`barrier` calls — the network places barriers
after epoch submission records and commit records — and ``"never"``
leaves flushing to the OS (crash-unsafe; benchmarks only).

Segments
--------

The log is a sequence of ``wal-<first-seq>.log`` files.  Taking a
snapshot rotates to a fresh segment; :meth:`compact` then deletes
segments wholly covered by the newest snapshot (see
:class:`~repro.chain.store.SnapshotStore`).

Crash injection
---------------

``crash_at_barrier=k`` SIGKILLs the process right after the ``k``-th
barrier completes (clean tail), and ``crash_at_append=n`` SIGKILLs it
halfway through writing the ``n``-th record (torn tail).  Both exist
for the crash-torture harness (:mod:`repro.eval.chaos`) and should
never be set in normal operation.
"""

from __future__ import annotations

import json
import os
import signal
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

FSYNC_POLICIES = ("always", "commit", "never")

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"


class WALError(Exception):
    """A write-ahead log could not be used."""


class WALCorruption(WALError):
    """A record in the *interior* of the log failed validation."""


@dataclass(frozen=True)
class WALRecord:
    """One decoded log record."""

    seq: int
    type: str
    data: Any


# Compact JSON (no whitespace, hence no raw newline), through one
# encoder: ``json.dumps(..., separators=...)`` builds one per call.
# Records and restore points are trees built here, never cyclic, so the
# encoder skips its per-container cycle bookkeeping (a third of the
# time a delta restore point's thousands of small rows took).
dumps_compact = json.JSONEncoder(separators=(",", ":"),
                                 check_circular=False).encode


def _frame(payload: bytes) -> bytes:
    return (f"{len(payload)} {zlib.crc32(payload):08x} ".encode()
            + payload + b"\n")


def _encode(record: WALRecord) -> bytes:
    return _frame(dumps_compact(
        {"seq": record.seq, "type": record.type,
         "data": record.data}).encode())


def _try_decode(line: bytes) -> WALRecord | None:
    """Decode one framed line; ``None`` if the framing is invalid."""
    head, sep, rest = line.partition(b" ")
    if not sep or not head.isdigit():
        return None
    crc_hex, sep, payload = rest.partition(b" ")
    if not sep or len(crc_hex) != 8:
        return None
    if len(payload) != int(head):
        return None
    try:
        if zlib.crc32(payload) != int(crc_hex, 16):
            return None
        obj = json.loads(payload)
        return WALRecord(obj["seq"], obj["type"], obj["data"])
    except (ValueError, KeyError, TypeError):
        return None


def _segment_files(directory: Path) -> list[Path]:
    return sorted(p for p in directory.iterdir()
                  if p.name.startswith(SEGMENT_PREFIX)
                  and p.name.endswith(SEGMENT_SUFFIX))


def _scan_segment(path: Path, expected_seq: int | None,
                  is_last: bool) -> tuple[list[WALRecord], int]:
    """Read one segment, returning ``(records, valid_byte_length)``.

    An invalid record raises :class:`WALCorruption` unless it is the
    tail of the *last* segment, in which case it is a torn write and
    everything from its first byte on is dropped.
    """
    blob = path.read_bytes()
    records: list[WALRecord] = []
    pos = 0
    while pos < len(blob):
        newline = blob.find(b"\n", pos)
        torn_reason = None
        record = None
        if newline < 0:
            torn_reason = "unterminated record"
        else:
            record = _try_decode(blob[pos:newline])
            if record is None:
                torn_reason = "bad frame or CRC"
            elif expected_seq is not None and record.seq != expected_seq:
                torn_reason = (f"sequence gap (expected {expected_seq}, "
                               f"found {record.seq})")
        if torn_reason is not None:
            at_tail = is_last and (newline < 0 or newline == len(blob) - 1)
            if not at_tail:
                raise WALCorruption(
                    f"{path.name} at byte {pos}: {torn_reason}, with "
                    f"further records after it")
            return records, pos
        assert record is not None and newline >= 0
        records.append(record)
        expected_seq = record.seq + 1
        pos = newline + 1
    return records, pos


def read_wal(data_dir: str | os.PathLike) -> list[WALRecord]:
    """Read every valid record in the log, read-only.

    Torn tail records are silently dropped (but the files are left
    untouched); interior corruption raises :class:`WALCorruption`.
    """
    directory = Path(data_dir)
    if not directory.is_dir():
        return []
    records: list[WALRecord] = []
    segments = _segment_files(directory)
    expected: int | None = None
    for index, path in enumerate(segments):
        is_last = index == len(segments) - 1
        found, _ = _scan_segment(path, expected, is_last)
        records.extend(found)
        if found:
            expected = found[-1].seq + 1
    return records


class WriteAheadLog:
    """An append-only, CRC-framed, segmented write-ahead log.

    Opening an existing log validates every record, truncates a torn
    tail in place, and positions appends after the last valid record;
    the records read during recovery are available as ``recovered``.
    """

    def __init__(self, data_dir: str | os.PathLike,
                 fsync: str = "commit",
                 crash_at_barrier: int | None = None,
                 crash_at_append: int | None = None):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r}; expected "
                             f"one of {FSYNC_POLICIES}")
        self.fsync = fsync
        self.dir = Path(data_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._crash_at_barrier = crash_at_barrier
        self._crash_at_append = crash_at_append
        self.appends = 0
        self.barriers = 0
        self.recovered: list[WALRecord] = []
        self._handle = None

        segments = _segment_files(self.dir)
        if not segments:
            self._next_seq = 1
            self._open_segment(first_seq=1)
            return
        expected: int | None = None
        for index, path in enumerate(segments):
            is_last = index == len(segments) - 1
            found, valid_len = _scan_segment(path, expected, is_last)
            self.recovered.extend(found)
            if found:
                expected = found[-1].seq + 1
            if is_last and valid_len < path.stat().st_size:
                with open(path, "r+b") as handle:
                    handle.truncate(valid_len)
                    handle.flush()
                    os.fsync(handle.fileno())
        if self.recovered:
            self._next_seq = self.recovered[-1].seq + 1
        else:
            # Segments exist but hold no complete record; continue the
            # sequence implied by the last segment's name.
            self._next_seq = _first_seq_of(segments[-1])
        self._handle = open(segments[-1], "ab")

    # -- naming -----------------------------------------------------------------

    def _segment_path(self, first_seq: int) -> Path:
        return self.dir / f"{SEGMENT_PREFIX}{first_seq:010d}{SEGMENT_SUFFIX}"

    def _open_segment(self, first_seq: int) -> None:
        if self._handle is not None:
            self._handle.close()
        path = self._segment_path(first_seq)
        self._handle = open(path, "ab")
        self._fsync_dir()

    def _fsync_dir(self) -> None:
        if self.fsync == "never":
            return
        fd = os.open(self.dir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- writing ----------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        return self._next_seq - 1

    def _io_failed(self, what: str, exc: OSError) -> WALError:
        """Convert an ``OSError`` from the disk into a typed
        :class:`WALError` and poison the log.

        A failed write may have left a partial frame on disk, so
        further appends could interleave with the torn bytes; closing
        the handle makes every later call fail cleanly ("closed").
        The on-disk log is still valid up to the last complete record
        — ``Network.resume`` truncates the torn tail and continues —
        so a mid-epoch I/O failure surfaces as one clean exception
        with the network left resumable.
        """
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass
        return WALError(f"write-ahead log {what} failed: "
                        f"{type(exc).__name__}: {exc}")

    def append(self, type: str, data: Any) -> int:
        """Append one record; returns its sequence number."""
        if self._handle is None:
            raise WALError("write-ahead log is closed")
        seq = self._next_seq
        frame = _encode(WALRecord(seq, type, data))
        self.appends += 1
        if self._crash_at_append is not None \
                and self.appends >= self._crash_at_append:
            # Simulate a crash mid-write: half the record reaches the
            # disk, then the process dies without any cleanup.
            self._handle.write(frame[:max(1, len(frame) // 2)])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            _die()
        try:
            self._handle.write(frame)
            self._next_seq = seq + 1
            if self.fsync == "always":
                self._handle.flush()
                os.fsync(self._handle.fileno())
        except OSError as exc:
            raise self._io_failed("append", exc) from exc
        return seq

    def barrier(self) -> None:
        """A durability point: everything appended so far survives a
        crash after this call returns (under ``always``/``commit``)."""
        if self._handle is None:
            raise WALError("write-ahead log is closed")
        self.barriers += 1
        try:
            self._handle.flush()
            if self.fsync != "never":
                os.fsync(self._handle.fileno())
        except OSError as exc:
            raise self._io_failed("barrier fsync", exc) from exc
        if self._crash_at_barrier is not None \
                and self.barriers >= self._crash_at_barrier:
            _die()

    def rotate(self) -> None:
        """Start a new segment at the next sequence number (called
        after a snapshot, so compaction can drop whole files)."""
        try:
            if self._handle is not None:
                self._handle.flush()
                if self.fsync != "never":
                    os.fsync(self._handle.fileno())
            self._open_segment(first_seq=self._next_seq)
        except OSError as exc:
            raise self._io_failed("rotate", exc) from exc

    def compact(self, keep_from_seq: int) -> list[str]:
        """Delete segments whose every record precedes ``keep_from_seq``.

        The active segment is never deleted.  Returns the deleted file
        names.
        """
        segments = _segment_files(self.dir)
        deleted: list[str] = []
        for path, successor in zip(segments, segments[1:]):
            if _first_seq_of(successor) <= keep_from_seq:
                path.unlink()
                deleted.append(path.name)
        if deleted:
            self._fsync_dir()
        return deleted

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.flush()
                if self.fsync != "never":
                    os.fsync(self._handle.fileno())
                self._handle.close()
            except OSError as exc:
                raise self._io_failed("close", exc) from exc
            self._handle = None


def _first_seq_of(path: Path) -> int:
    stem = path.name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError as exc:
        raise WALError(f"malformed segment name {path.name!r}") from exc


def _die() -> None:  # pragma: no cover - the process does not survive
    os.kill(os.getpid(), signal.SIGKILL)
