"""Pluggable out-of-core storage backends for contract map state.

Every byte of contract state historically lived in in-memory dicts
(``MapVal.entries``), capping the "millions of users" north star at
RAM.  This module introduces the paged alternative: a
:class:`StateBackend` holds the authoritative key/value rows of a map
on (or off) the heap, and :class:`PagedDict` — a drop-in replacement
for ``MapVal``'s entry dict — keeps only a bounded working set
resident:

* **Hot entries** stay in a per-map LRU overlay; reads that miss fault
  the row in from the backend (``state.backend.faults``).
* **Dirty entries** (writes, deletes) accumulate in the overlay and
  are written back in batches when the network commits an epoch —
  never earlier, so the :class:`~repro.scilla.state.StateJournal`
  rollback contract survives unchanged: undo replays into the overlay
  and the overlay always wins over the backend.
* **Clean scalar entries** beyond the cache limit are evicted
  (``state.backend.evictions``); map-valued entries are pinned while
  resident so in-place nested mutation keeps its identity semantics.
* **CoW forks** stay O(1): ``MapVal.copy()`` shares the ``PagedDict``
  wrapper exactly as it shared the dict, and the first write through
  either side materialises a private *overlay* (``private_copy``) —
  never the backing rows, which both sides keep sharing read-only.

Two backends ship, both dependency-free:

* :class:`MemoryBackend` — encoded rows in nested dicts.  Used by the
  property battery to prove the paged map is observationally identical
  to the plain dict under arbitrary op interleavings.
* :class:`SqliteBackend` — a stdlib :mod:`sqlite3` KV table.  The live
  file is a cache, not a durability artifact: crash recovery always
  rebuilds from the snapshot sidecar plus WAL replay
  (:mod:`repro.chain.store`), so the live connection runs with
  fsync-free pragmas.

Values cross the boundary through the same JSON wire format durable
snapshots use (:mod:`repro.chain.serialization`), so backend blobs and
snapshot payloads can never disagree about representation.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sqlite3
import tempfile
import threading
import time
import weakref
from typing import Any, Iterable, Iterator

from .values import MapVal, OverlayDict, Value

# Resident entries a single paged map keeps before evicting clean
# scalar rows, oldest-touched first.  Override per-network with
# REPRO_PAGE_CACHE.
DEFAULT_PAGE_CACHE = 4096

# SQLite's default host-parameter ceiling is 999; stay far under it.
_IN_CHUNK = 400


def _cache_limit_from_env() -> int:
    """``REPRO_PAGE_CACHE`` if set (a positive integer, or an error:
    a typo must not silently become the default), else the default."""
    raw = os.environ.get("REPRO_PAGE_CACHE", "")
    if not raw:
        return DEFAULT_PAGE_CACHE
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(
            f"REPRO_PAGE_CACHE must be a positive integer, got {raw!r}")
    return value


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
# Backends.
# --------------------------------------------------------------------------

class BackendStats:
    """Cumulative counters one backend instance accrues; the network
    drains deltas into ``state.backend.*`` instruments each commit."""

    __slots__ = ("faults", "evictions", "writebacks",
                 "prefetch_requested", "prefetch_hits",
                 "read_ns", "write_ns")

    def __init__(self) -> None:
        self.faults = 0
        self.evictions = 0
        self.writebacks = 0
        self.prefetch_requested = 0
        self.prefetch_hits = 0
        self.read_ns = 0
        self.write_ns = 0

    def snapshot(self) -> tuple[int, ...]:
        return (self.faults, self.evictions, self.writebacks,
                self.prefetch_requested, self.prefetch_hits,
                self.read_ns, self.write_ns)


class StateBackend:
    """Authoritative row store for paged maps.

    Rows are ``(map_id, key_token) -> value_blob`` with both sides
    text (see :func:`encode_value`).  ``external`` backends keep rows
    off the Python heap and are snapshotted as sidecar files; the
    in-memory backend serialises inline with the snapshot JSON.
    """

    external = False
    kind = "abstract"

    def __init__(self) -> None:
        self.stats = BackendStats()

    # -- row API (implemented by subclasses) ----------------------------

    def new_map(self) -> int:
        raise NotImplementedError

    def reserve(self, map_id: int) -> None:
        """Mark ``map_id`` as taken (snapshot restore re-binds maps by
        id; later ``new_map`` calls must never collide — an *empty*
        restored map leaves no rows to infer the watermark from)."""
        if map_id >= self._next_map:
            self._next_map = map_id + 1

    def get(self, map_id: int, token: str) -> str | None:
        raise NotImplementedError

    def get_many(self, map_id: int, tokens: list[str]) -> dict[str, str]:
        raise NotImplementedError

    def put_many(self, map_id: int,
                 items: Iterable[tuple[str, str]]) -> None:
        raise NotImplementedError

    def delete_many(self, map_id: int, tokens: Iterable[str]) -> None:
        raise NotImplementedError

    def contains(self, map_id: int, token: str) -> bool:
        raise NotImplementedError

    def count(self, map_id: int) -> int:
        raise NotImplementedError

    def iter_items(self, map_id: int) -> Iterator[tuple[str, str]]:
        """All rows of one map, ordered by key token (deterministic)."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- digest ---------------------------------------------------------

    def _iter_all_rows(self) -> Iterator[tuple[int, str, str]]:
        raise NotImplementedError

    def digest(self) -> str:
        """Logical content digest over every row, order-independent of
        physical layout (rows stream sorted by (map_id, key))."""
        h = hashlib.sha256()
        for map_id, token, blob in self._iter_all_rows():
            h.update(f"{map_id}\x1f{token}\x1f{blob}\x1e".encode())
        return h.hexdigest()


class MemoryBackend(StateBackend):
    """Encoded rows in nested dicts — the in-memory reference backend."""

    external = False
    kind = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._maps: dict[int, dict[str, str]] = {}
        self._next_map = 0

    def new_map(self) -> int:
        map_id = self._next_map
        self._next_map += 1
        self._maps[map_id] = {}
        return map_id

    def get(self, map_id: int, token: str) -> str | None:
        t0 = time.perf_counter_ns()
        out = self._maps.get(map_id, {}).get(token)
        self.stats.read_ns += time.perf_counter_ns() - t0
        return out

    def get_many(self, map_id: int, tokens: list[str]) -> dict[str, str]:
        t0 = time.perf_counter_ns()
        rows = self._maps.get(map_id, {})
        out = {t: rows[t] for t in tokens if t in rows}
        self.stats.read_ns += time.perf_counter_ns() - t0
        return out

    def put_many(self, map_id: int,
                 items: Iterable[tuple[str, str]]) -> None:
        t0 = time.perf_counter_ns()
        rows = self._maps.setdefault(map_id, {})
        for token, blob in items:
            rows[token] = blob
        self.stats.write_ns += time.perf_counter_ns() - t0

    def delete_many(self, map_id: int, tokens: Iterable[str]) -> None:
        t0 = time.perf_counter_ns()
        rows = self._maps.get(map_id, {})
        for token in tokens:
            rows.pop(token, None)
        self.stats.write_ns += time.perf_counter_ns() - t0

    def contains(self, map_id: int, token: str) -> bool:
        return token in self._maps.get(map_id, {})

    def count(self, map_id: int) -> int:
        return len(self._maps.get(map_id, {}))

    def iter_items(self, map_id: int) -> Iterator[tuple[str, str]]:
        yield from sorted(self._maps.get(map_id, {}).items())

    def _iter_all_rows(self) -> Iterator[tuple[int, str, str]]:
        for map_id in sorted(self._maps):
            for token, blob in sorted(self._maps[map_id].items()):
                yield map_id, token, blob


class SqliteBackend(StateBackend):
    """Stdlib sqlite3 KV store; the out-of-core backend.

    The live file is *not* trusted across a crash — ``Network.resume``
    rebuilds it from the newest snapshot's sidecar copy plus WAL
    replay — so the connection runs with ``journal_mode=MEMORY`` and
    ``synchronous=OFF``: page writes never fsync on the hot path, and
    durability comes from :meth:`save_copy`'s atomic-rename sidecars.
    A single connection is shared behind a lock (a pickled paged map
    materialises to a plain dict, so no pickle carries the backend).
    """

    external = True
    kind = "sqlite"

    def __init__(self, path: str | None = None, fresh: bool = False):
        super().__init__()
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
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
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
        with self._lock:
            map_id = self._next_map
            self._next_map += 1
            return map_id

    def reserve(self, map_id: int) -> None:
        with self._lock:
            if map_id >= self._next_map:
                self._next_map = map_id + 1

    def get(self, map_id: int, token: str) -> str | None:
        t0 = time.perf_counter_ns()
        with self._lock:
            row = self._conn.execute(
                "SELECT v FROM kv WHERE map_id = ? AND k = ?",
                (map_id, token)).fetchone()
        self.stats.read_ns += time.perf_counter_ns() - t0
        return row[0] if row is not None else None

    def get_many(self, map_id: int, tokens: list[str]) -> dict[str, str]:
        t0 = time.perf_counter_ns()
        out: dict[str, str] = {}
        with self._lock:
            for i in range(0, len(tokens), _IN_CHUNK):
                chunk = tokens[i:i + _IN_CHUNK]
                marks = ",".join("?" * len(chunk))
                rows = self._conn.execute(
                    f"SELECT k, v FROM kv WHERE map_id = ? AND k IN"
                    f" ({marks})", (map_id, *chunk)).fetchall()
                out.update(rows)
        self.stats.read_ns += time.perf_counter_ns() - t0
        return out

    def put_many(self, map_id: int,
                 items: Iterable[tuple[str, str]]) -> None:
        t0 = time.perf_counter_ns()
        with self._lock:
            self._conn.executemany(
                "INSERT OR REPLACE INTO kv (map_id, k, v) VALUES (?, ?, ?)",
                ((map_id, token, blob) for token, blob in items))
            self._conn.commit()
        self.stats.write_ns += time.perf_counter_ns() - t0

    def delete_many(self, map_id: int, tokens: Iterable[str]) -> None:
        t0 = time.perf_counter_ns()
        with self._lock:
            self._conn.executemany(
                "DELETE FROM kv WHERE map_id = ? AND k = ?",
                ((map_id, token) for token in tokens))
            self._conn.commit()
        self.stats.write_ns += time.perf_counter_ns() - t0

    def contains(self, map_id: int, token: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM kv WHERE map_id = ? AND k = ?",
                (map_id, token)).fetchone()
        return row is not None

    def count(self, map_id: int) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM kv WHERE map_id = ?",
                (map_id,)).fetchone()
        return row[0]

    def iter_items(self, map_id: int) -> Iterator[tuple[str, str]]:
        # Chunked so an O(n) walk (fingerprints, snapshots) never holds
        # the whole map in memory nor the lock across the iteration.
        last = ""
        first = True
        while True:
            with self._lock:
                if first:
                    rows = self._conn.execute(
                        "SELECT k, v FROM kv WHERE map_id = ?"
                        " ORDER BY k LIMIT 1024", (map_id,)).fetchall()
                else:
                    rows = self._conn.execute(
                        "SELECT k, v FROM kv WHERE map_id = ? AND k > ?"
                        " ORDER BY k LIMIT 1024", (map_id, last)).fetchall()
            if not rows:
                return
            yield from rows
            last = rows[-1][0]
            first = False

    def _iter_all_rows(self) -> Iterator[tuple[int, str, str]]:
        last: tuple[int, str] | None = None
        while True:
            with self._lock:
                if last is None:
                    rows = self._conn.execute(
                        "SELECT map_id, k, v FROM kv"
                        " ORDER BY map_id, k LIMIT 1024").fetchall()
                else:
                    rows = self._conn.execute(
                        "SELECT map_id, k, v FROM kv"
                        " WHERE map_id > ? OR (map_id = ? AND k > ?)"
                        " ORDER BY map_id, k LIMIT 1024",
                        (last[0], last[0], last[1])).fetchall()
            if not rows:
                return
            yield from rows
            last = (rows[-1][0], rows[-1][1])

    # -- durability spine hooks -----------------------------------------

    def save_copy(self, dst: str) -> str:
        """Copy the live database to ``dst`` atomically (tmp + rename)
        and return the logical digest of the copied content."""
        tmp = dst + ".tmp"
        with self._lock:
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
            h = hashlib.sha256()
            last: tuple[int, str] | None = None
            while True:
                if last is None:
                    rows = conn.execute(
                        "SELECT map_id, k, v FROM kv"
                        " ORDER BY map_id, k LIMIT 1024").fetchall()
                else:
                    rows = conn.execute(
                        "SELECT map_id, k, v FROM kv"
                        " WHERE map_id > ? OR (map_id = ? AND k > ?)"
                        " ORDER BY map_id, k LIMIT 1024",
                        (last[0], last[0], last[1])).fetchall()
                if not rows:
                    break
                for map_id, token, blob in rows:
                    h.update(f"{map_id}\x1f{token}\x1f{blob}\x1e".encode())
                last = (rows[-1][0], rows[-1][1])
            return h.hexdigest()
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
                    ) -> StateBackend | None:
    """Build (or pass through) a backend from a knob value.

    ``spec`` is a :class:`StateBackend` instance, a kind string
    (``"memory"`` / ``"sqlite"`` / ``"none"``), or None, which defers
    to the ``REPRO_STATE_BACKEND`` environment variable; empty/unset
    means no backend (plain dict state, the default).
    """
    if isinstance(spec, StateBackend):
        return spec
    if spec is None:
        spec = os.environ.get("REPRO_STATE_BACKEND", "")
    kind = str(spec).strip().lower()
    if kind in ("", "none", "0", "off", "dict"):
        return None
    if kind in ("memory", "mem"):
        return MemoryBackend()
    if kind == "sqlite":
        path = os.path.join(data_dir, "state.sqlite") if data_dir else None
        return SqliteBackend(path, fresh=True)
    raise ValueError(f"unknown state backend {spec!r}")


# --------------------------------------------------------------------------
# The paged entry container.
# --------------------------------------------------------------------------

class PagedDict:
    """Dict-protocol view over (backend, map_id) with a resident overlay.

    Drop-in for ``MapVal.entries``: every consumer in the tree uses
    plain dict protocol (``in``, ``[k]``, ``.get``, ``.pop``,
    ``.items()``, ``len``, iteration, ``==``), and this class provides
    each with fault-on-miss semantics.  Resolution order for a read:

    1. ``_deleted`` tombstones (the key is logically absent),
    2. the ``_local`` overlay (dirty writes, pinned nested maps,
       clean cached scalars — LRU-touched on hit),
    3. the backend (fault: decode, cache as clean, count it).

    Writes land in the overlay only; :meth:`flush` pushes dirty rows
    and tombstones down in one batch (the network calls it at epoch
    commit, when the journal is empty, so no rollback can ever cross a
    writeback).  Pickling materialises to a plain dict — a pickled
    copy never shares the backend.
    """

    __slots__ = ("backend", "map_id", "cache_limit",
                 "_local", "_dirty", "_deleted", "_count")

    def __init__(self, backend: StateBackend, map_id: int, *,
                 count: int, cache_limit: int | None = None):
        self.backend = backend
        self.map_id = map_id
        self.cache_limit = (cache_limit if cache_limit is not None
                            else _cache_limit_from_env())
        self._local: dict[Value, Value] = {}
        self._dirty: set[Value] = set()
        self._deleted: set[Value] = set()
        self._count = count

    @classmethod
    def adopt(cls, backend: StateBackend, entries: dict, *,
              cache_limit: int | None = None) -> "PagedDict":
        """Move a plain entry dict into the backend.

        Scalar rows go straight down and drop out of memory; map-valued
        entries are also written (as blobs) but stay pinned in the
        overlay so existing references keep their identity.
        """
        map_id = backend.new_map()
        rows = []
        pinned: dict[Value, Value] = {}
        for k, v in entries.items():
            rows.append((encode_key(k), encode_value(v)))
            if isinstance(v, MapVal):
                pinned[k] = v
        if rows:
            backend.put_many(map_id, rows)
        paged = cls(backend, map_id, count=len(entries),
                    cache_limit=cache_limit)
        paged._local = pinned
        return paged

    # -- internal helpers ----------------------------------------------

    def _present(self, key: Value) -> bool:
        if key in self._deleted:
            return False
        if key in self._local:
            return True
        return self.backend.contains(self.map_id, encode_key(key))

    def _evict(self) -> None:
        limit = self.cache_limit
        excess = len(self._local) - limit
        if excess <= 0:
            return
        victims = []
        for k, v in self._local.items():
            if k not in self._dirty and not isinstance(v, MapVal):
                victims.append(k)
                if len(victims) >= excess:
                    break
        for k in victims:
            del self._local[k]
        self.backend.stats.evictions += len(victims)

    # -- dict protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __contains__(self, key: Value) -> bool:
        return self._present(key)

    def __getitem__(self, key: Value) -> Value:
        if key in self._deleted:
            raise KeyError(key)
        local = self._local
        if key in local:
            value = local.pop(key)      # LRU touch: move to the end
            local[key] = value
            return value
        blob = self.backend.get(self.map_id, encode_key(key))
        if blob is None:
            raise KeyError(key)
        self.backend.stats.faults += 1
        value = decode_value(blob)
        local[key] = value
        self._evict()
        return value

    def get(self, key: Value, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __setitem__(self, key: Value, value: Value) -> None:
        if not self._present(key):
            self._count += 1
        self._deleted.discard(key)
        self._local[key] = value
        self._dirty.add(key)
        self._evict()

    def pop(self, key: Value, *default):
        if key in self._deleted:
            if default:
                return default[0]
            raise KeyError(key)
        token = encode_key(key)
        in_backend = self.backend.contains(self.map_id, token)
        if key in self._local:
            value = self._local.pop(key)
            self._dirty.discard(key)
            if in_backend:
                self._deleted.add(key)
            self._count -= 1
            return value
        if in_backend:
            self.backend.stats.faults += 1
            value = decode_value(self.backend.get(self.map_id, token))
            self._deleted.add(key)
            self._count -= 1
            return value
        if default:
            return default[0]
        raise KeyError(key)

    def __delitem__(self, key: Value) -> None:
        self.pop(key)

    def __iter__(self) -> Iterator[Value]:
        for k, _ in self.items():
            yield k

    def keys(self) -> Iterator[Value]:
        return iter(self)

    def values(self) -> Iterator[Value]:
        for _, v in self.items():
            yield v

    def items(self) -> Iterator[tuple[Value, Value]]:
        """Every logical entry, backend rows first (sorted by token),
        then the overlay.  Backend values are decoded streaming and
        *not* cached — a full walk must never blow the resident set."""
        local = self._local
        deleted = self._deleted
        for token, blob in self.backend.iter_items(self.map_id):
            key = decode_key(token)
            if key in local or key in deleted:
                continue
            yield key, decode_value(blob)
        yield from list(local.items())

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if isinstance(other, (PagedDict, dict, OverlayDict)):
            if len(other) != len(self):
                return False
            sentinel = object()
            for k, v in self.items():
                theirs = other.get(k, sentinel)
                if theirs is sentinel or theirs != v:
                    return False
            return True
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __repr__(self) -> str:
        return (f"PagedDict(backend={self.backend.kind},"
                f" map={self.map_id}, n={self._count},"
                f" resident={len(self._local)}, dirty={len(self._dirty)})")

    # -- paging API ------------------------------------------------------

    def own_child(self, key: Value) -> Value:
        """The (present) nested map at ``key``, about to be mutated in
        place (``ContractState._descend``): it is pinned in the
        overlay and private to it — ``private_copy`` forks every
        resident child — so only the writeback needs arranging."""
        child = self[key]
        if key in self._local:
            self._dirty.add(key)
        return child

    def prefetch(self, keys: Iterable[Value]) -> int:
        """Batch-fault ``keys`` into the overlay in one round trip.

        Returns the number of keys resident afterwards.  Deliberately
        skips eviction: the caller is about to read exactly these keys,
        and the next write or flush trims the overlay back down.
        """
        stats = self.backend.stats
        wanted: dict[str, Value] = {}
        hits = 0
        requested = 0
        for key in keys:
            requested += 1
            if key in self._deleted:
                continue
            if key in self._local:
                hits += 1
                continue
            wanted[encode_key(key)] = key
        stats.prefetch_requested += requested
        if wanted:
            found = self.backend.get_many(self.map_id, list(wanted))
            for token, blob in found.items():
                self._local[wanted[token]] = decode_value(blob)
            hits += len(found)
        stats.prefetch_hits += hits
        return hits

    def private_copy(self) -> "PagedDict":
        """The CoW materialisation step (``MapVal._own``): a private
        overlay over the *shared* backend rows.  O(resident), never
        O(map) — the double-materialisation the property battery
        forbids."""
        clone = PagedDict(self.backend, self.map_id, count=self._count,
                          cache_limit=self.cache_limit)
        local = {}
        for k, v in self._local.items():
            local[k] = v.copy() if isinstance(v, MapVal) else v
        clone._local = local
        clone._dirty = set(self._dirty)
        clone._deleted = set(self._deleted)
        return clone

    def flush(self) -> int:
        """Write dirty rows and tombstones back to the backend, then
        evict surplus clean scalars.  Only the network's commit path
        calls this, and only with an empty journal — a rollback can
        therefore never observe (or be corrupted by) a writeback."""
        wrote = 0
        if self._dirty:
            rows = [(encode_key(k), encode_value(self._local[k]))
                    for k in self._dirty]
            self.backend.put_many(self.map_id, rows)
            wrote += len(rows)
            self._dirty.clear()
        if self._deleted:
            tokens = [encode_key(k) for k in self._deleted]
            self.backend.delete_many(self.map_id, tokens)
            wrote += len(tokens)
            self._deleted.clear()
        self.backend.stats.writebacks += wrote
        self._evict()
        return wrote

    def materialize(self) -> dict:
        """A plain dict with every logical entry (pickle boundary)."""
        return dict(self.items())

    def __reduce__(self):
        return (dict, (list(self.items()),))
