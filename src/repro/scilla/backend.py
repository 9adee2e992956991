"""The out-of-core page store for contract map state.

A :class:`SqliteBackend` holds the authoritative key/value rows of
paged maps off the heap.  A paged map is an ordinary
:class:`~repro.scilla.values.OverlayDict` whose frozen base is a
:class:`RowBase` — ``(backend, map_id)`` — instead of a dict:

* **Reads** that miss the overlay fault the row in from the backend
  (``state.backend.faults``) into the base's LRU cache of clean rows,
  shared by every overlay on it and bounded by :data:`PAGE_CACHE`
  (``state.backend.evictions``).
* **Writes** land in the overlay (``over`` / ``dead`` are the dirty
  rows and tombstones), so write-log rollback and CoW forks work as over
  a dict base: a fork's first write copies no clean row.
* **The fold is the write-back**, in one batch, only from the
  network's commit path, past which nothing restores.  It retires the
  old base: an overlay still on it raises :class:`StaleRowsError` at
  its next base read.

The store is a stdlib :mod:`sqlite3` KV table; a plain dict is the
reference the property battery (tests/test_paged_state.py) proves a
paged map observationally identical to.  The live file is a cache,
not a durability artifact: crash recovery rebuilds it from the base
restore point's sidecar plus the deltas and WAL replay past it
(:mod:`repro.chain.store`), so the live connection runs with
fsync-free pragmas.

Paging is chosen once, when a network is built
(``Network(..., state_backend="sqlite")``, ``repro run`` / ``repro
serve --state-backend sqlite``); a resume reads the choice from its
data dir, never from the resuming process.

Values cross the boundary through the same JSON wire format durable
snapshots use (:mod:`repro.chain.serialization`), so backend blobs and
snapshot payloads can never disagree about representation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import sqlite3
import tempfile
import time
import weakref
from typing import Iterable, Iterator

from .values import OverlayDict, Value

# Clean rows one row base keeps cached, oldest-touched evicted first.
PAGE_CACHE = 4096

_ABSENT = object()


# --------------------------------------------------------------------------
# Row codec (shared with the snapshot wire format).
# --------------------------------------------------------------------------

def encode_value(value: Value) -> str:
    """Deterministic text blob for a map key or value."""
    from ..chain.serialization import value_to_json
    return json.dumps(value_to_json(value), sort_keys=True,
                      separators=(",", ":"))


def decode_value(text: str) -> Value:
    from ..chain.serialization import value_from_json
    return value_from_json(json.loads(text))


encode_key = encode_value
decode_key = decode_value


# --------------------------------------------------------------------------
# The page store.
# --------------------------------------------------------------------------

class BackendStats:
    """Cumulative counters one backend instance accrues; the network
    drains deltas into ``state.backend.*`` instruments each commit."""

    __slots__ = ("faults", "evictions", "writebacks", "read_ns",
                 "write_ns")

    def __init__(self) -> None:
        self.faults = 0
        self.evictions = 0
        self.writebacks = 0
        self.read_ns = 0
        self.write_ns = 0

    def snapshot(self) -> tuple[int, ...]:
        return (self.faults, self.evictions, self.writebacks,
                self.read_ns, self.write_ns)


def _digest(rows: Iterable[tuple[int, str, str]]) -> str:
    """Logical content digest over every row, order-independent of
    physical layout (rows stream sorted by (map_id, key))."""
    h = hashlib.sha256()
    for map_id, token, blob in rows:
        h.update(f"{map_id}\x1f{token}\x1f{blob}\x1e".encode())
    return h.hexdigest()


def _scan(conn) -> Iterator[tuple[int, str, str]]:
    """Every row of a sqlite store sorted by (map_id, key): one cursor
    walking the primary key, O(rows) steps in all."""
    return conn.execute("SELECT map_id, k, v FROM kv ORDER BY map_id, k")


class SqliteBackend:
    """The page store: a stdlib sqlite3 KV table, rows
    ``(map_id, key_token) -> value_blob`` with both sides text (see
    :func:`encode_value`).

    The live file is *not* trusted across a crash — ``Network.resume``
    rebuilds it from the base restore point's sidecar copy plus the
    deltas and WAL replay past it — so the connection runs with ``journal_mode=MEMORY`` and
    ``synchronous=OFF``: page writes never fsync on the hot path, and
    durability comes from :meth:`save_copy`'s atomic-rename sidecars.
    One connection, usable only from the thread that opened it: sqlite
    raises ``ProgrammingError`` on any other (a pickled paged map
    materialises to a plain dict, so no pickle carries the backend).
    """

    kind = "sqlite"

    def __init__(self, path: str | None = None, fresh: bool = False):
        self.stats = BackendStats()
        self._tmpdir = None
        if path is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-state-")
            path = os.path.join(self._tmpdir, "state.sqlite")
            self._cleanup = weakref.finalize(
                self, shutil.rmtree, self._tmpdir, ignore_errors=True)
        if fresh:
            for suffix in ("", "-journal", "-wal", "-shm"):
                try:
                    os.unlink(path + suffix)
                except OSError:
                    pass
        self.path = path
        self._conn = sqlite3.connect(path)
        self._conn.execute("PRAGMA journal_mode=MEMORY")
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS kv ("
            " map_id INTEGER NOT NULL, k TEXT NOT NULL, v TEXT NOT NULL,"
            " PRIMARY KEY (map_id, k)) WITHOUT ROWID")
        self._conn.commit()
        row = self._conn.execute(
            "SELECT COALESCE(MAX(map_id), -1) FROM kv").fetchone()
        self._next_map = row[0] + 1

    def new_map(self) -> int:
        map_id = self._next_map
        self._next_map += 1
        return map_id

    def reserve(self, map_id: int) -> None:
        """Mark ``map_id`` as taken (snapshot restore re-binds maps by
        id; later ``new_map`` calls must never collide — an *empty*
        restored map leaves no rows to infer the watermark from)."""
        if map_id >= self._next_map:
            self._next_map = map_id + 1

    def get(self, map_id: int, token: str) -> str | None:
        t0 = time.perf_counter_ns()
        row = self._conn.execute(
            "SELECT v FROM kv WHERE map_id = ? AND k = ?",
            (map_id, token)).fetchone()
        self.stats.read_ns += time.perf_counter_ns() - t0
        return row[0] if row is not None else None

    def put_many(self, map_id: int,
                 items: Iterable[tuple[str, str]]) -> None:
        t0 = time.perf_counter_ns()
        self._conn.executemany(
            "INSERT OR REPLACE INTO kv (map_id, k, v) VALUES (?, ?, ?)",
            ((map_id, token, blob) for token, blob in items))
        self._conn.commit()
        self.stats.write_ns += time.perf_counter_ns() - t0

    def delete_many(self, map_id: int, tokens: Iterable[str]) -> None:
        t0 = time.perf_counter_ns()
        self._conn.executemany(
            "DELETE FROM kv WHERE map_id = ? AND k = ?",
            ((map_id, token) for token in tokens))
        self._conn.commit()
        self.stats.write_ns += time.perf_counter_ns() - t0

    def contains(self, map_id: int, token: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM kv WHERE map_id = ? AND k = ?",
            (map_id, token)).fetchone()
        return row is not None

    def count(self, map_id: int) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM kv WHERE map_id = ?",
            (map_id,)).fetchone()
        return row[0]

    def iter_items(self, map_id: int) -> Iterator[tuple[str, str]]:
        """All rows of one map, ordered by key token (deterministic).
        Chunked so an O(n) walk (fingerprints, snapshots) never holds
        the whole map in memory."""
        last = ""               # below every key token
        while True:
            rows = self._conn.execute(
                "SELECT k, v FROM kv WHERE map_id = ? AND k > ?"
                " ORDER BY k LIMIT 1024", (map_id, last)).fetchall()
            if not rows:
                return
            yield from rows
            last = rows[-1][0]

    # -- durability spine hooks -----------------------------------------

    def save_copy(self, dst: str) -> str:
        """Copy the live database to ``dst`` atomically (tmp + rename)
        and return the logical digest of the copied content."""
        tmp = dst + ".tmp"
        target = sqlite3.connect(tmp)
        try:
            self._conn.backup(target)
            target.commit()
        finally:
            target.close()
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, dst)
        dirfd = os.open(os.path.dirname(dst) or ".", os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)
        return self.digest_path(dst)

    @staticmethod
    def digest_path(path: str) -> str:
        """Logical digest of a database file at rest (sidecar verify)."""
        conn = sqlite3.connect(path)
        try:
            return _digest(_scan(conn))
        except sqlite3.DatabaseError as exc:
            raise ValueError(f"unreadable backend file {path}: {exc}")
        finally:
            conn.close()

    def close(self) -> None:
        try:
            self._conn.close()
        except sqlite3.Error:
            pass
        if self._tmpdir is not None:
            self._cleanup()


def resolve_backend(spec, data_dir: str | None = None
                    ) -> SqliteBackend | None:
    """The page store a network is built with: ``spec`` is a
    :class:`SqliteBackend`, ``"sqlite"`` (a fresh store, in
    ``data_dir`` when there is one), or ``None`` / ``"none"`` for plain
    dict state, the default.  Anything else is refused."""
    if spec is None or spec == "none":
        return None
    if isinstance(spec, SqliteBackend):
        return spec
    if spec == "sqlite":
        path = os.path.join(data_dir, "state.sqlite") if data_dir else None
        return SqliteBackend(path, fresh=True)
    raise ValueError(f"unknown state backend {spec!r}: "
                     f"expected None, 'none' or 'sqlite'")


# --------------------------------------------------------------------------
# The row base of a paged map.
# --------------------------------------------------------------------------

class StaleRowsError(RuntimeError):
    """A read through an overlay whose row base was written back (a
    fork that outlived a write-back)."""


class RowBase:
    """The frozen rows of one paged map as an :class:`OverlayDict`
    base: the read-only subset of the dict protocol an overlay uses
    (``len``, ``in``, ``[k]``, ``get``), served from a bounded LRU
    cache of clean rows that every overlay on this base shares, and
    from the backend on a miss.  ``count`` is the number of rows.

    :meth:`write_back` returns the base that replaces this one and
    retires it: from then on every read raises
    :class:`StaleRowsError` instead of answering with rows written
    after the overlays on it were forked.
    """

    __slots__ = ("backend", "map_id", "count", "cache", "live")

    def __init__(self, backend: SqliteBackend, map_id: int, count: int,
                 cache: dict | None = None):
        self.backend = backend
        self.map_id = map_id
        self.count = count
        self.cache: dict[Value, Value] = {} if cache is None else cache
        self.live = True

    def _check(self) -> None:
        if not self.live:
            raise StaleRowsError(
                f"map {self.map_id} was written back after this overlay "
                f"was forked; a fork does not outlive a write-back")

    def __len__(self) -> int:
        return self.count

    def __contains__(self, key: Value) -> bool:
        self._check()
        return (key in self.cache
                or self.backend.contains(self.map_id, encode_key(key)))

    def get(self, key: Value, default=None):
        self._check()
        cache = self.cache
        value = cache.pop(key, _ABSENT)         # LRU touch: to the end
        if value is _ABSENT:
            blob = self.backend.get(self.map_id, encode_key(key))
            if blob is None:
                return default
            self.backend.stats.faults += 1
            value = decode_value(blob)
            cache[key] = value
            self._trim()
        else:
            cache[key] = value
        return value

    def __getitem__(self, key: Value) -> Value:
        value = self.get(key, _ABSENT)
        if value is _ABSENT:
            raise KeyError(key)
        return value

    def _trim(self) -> None:
        cache = self.cache
        excess = len(cache) - PAGE_CACHE
        if excess > 0:
            for key in list(itertools.islice(cache, excess)):
                del cache[key]
            self.backend.stats.evictions += excess

    def stream(self) -> Iterator[tuple[Value, Value]]:
        """Every row, decoded, in key-token order; never cached, so a
        full walk leaves the resident set alone."""
        self._check()
        for token, blob in self.backend.iter_items(self.map_id):
            yield decode_key(token), decode_value(blob)

    def view(self, overlay: OverlayDict) -> "RowView":
        return RowView(overlay)

    def write_back(self, over: dict, dead: set, count: int) -> "RowBase":
        """Write ``over`` and the tombstones ``dead`` down, retire this
        base and return the one over the rows now stored, which takes
        over the cache (written rows included, as clean rows)."""
        self._check()
        backend, map_id = self.backend, self.map_id
        gone = [encode_key(k) for k in dead if k not in over]
        if over:
            backend.put_many(map_id, [(encode_key(k), encode_value(v))
                                      for k, v in over.items()])
        if gone:
            backend.delete_many(map_id, gone)
        backend.stats.writebacks += len(over) + len(gone)
        cache = self.cache
        for key in dead:
            cache.pop(key, None)
        for key, value in over.items():
            cache.pop(key, None)
            cache[key] = value
        self.live = False
        self.cache = {}
        rows = RowBase(backend, map_id, count, cache)
        rows._trim()
        return rows


class RowView:
    """Every live entry of an overlay on a row base, streamed: the
    rows it does not shadow in key-token order, then its own entries.
    What iterating, comparing and pickling such an overlay go through
    (``OverlayDict._flat``); it never builds the whole map."""

    __slots__ = ("overlay",)

    def __init__(self, overlay: OverlayDict):
        self.overlay = overlay

    def __len__(self) -> int:
        return len(self.overlay)

    def get(self, key: Value, default=None):
        return self.overlay.get(key, default)

    def items(self) -> Iterator[tuple[Value, Value]]:
        overlay = self.overlay
        over, dead = overlay.over, overlay.dead
        for key, value in overlay.base.stream():
            if key not in over and key not in dead:
                yield key, value
        yield from list(over.items())

    def __iter__(self) -> Iterator[Value]:
        return (key for key, _ in self.items())

    keys = __iter__

    def values(self) -> Iterator[Value]:
        return (value for _, value in self.items())

    def __eq__(self, other) -> bool:
        if len(other) != len(self):
            return False
        get = other.get
        return all(get(k, _ABSENT) == v for k, v in self.items())

    def __reduce__(self):
        # Pickles as a plain dict, its items streamed.
        return (dict, (), None, None, self.items())


def adopt(backend: SqliteBackend, entries) -> OverlayDict:
    """Write a map's entries into a new backend map and return the
    empty overlay over its rows that replaces them."""
    map_id = backend.new_map()
    backend.put_many(map_id, ((encode_key(k), encode_value(v))
                              for k, v in entries.items()))
    return OverlayDict(RowBase(backend, map_id, len(entries)))


def paged_base(value) -> RowBase | None:
    """The row base a map value pages through, None if it has none."""
    entries = getattr(value, "entries", None)
    if entries.__class__ is OverlayDict and entries.base.__class__ is RowBase:
        return entries.base
    return None

