"""Durable restore points for the sharded network simulator.

A *base* restore point is a self-contained JSON image of everything a
:class:`~repro.chain.network.Network` can mutate — contract states,
account balance partitions, the nonce tracker, the fault injector's
counters, the service mempool's pending entries, and the network's
own configuration (``NetworkConfig``, the fault plan included) —
pinned to the WAL sequence number it covers.  A *delta*
(``snap-….delta.json``) names its parent restore point and the
parent's digest and holds only what changed since: the contract
locations, accounts and nonce records of the epochs' change sets
(``recovery.ChangeLedger``), read from live state when it is written,
plus the small sections in full.
``Network.resume`` loads the newest restorable chain — a base, then
each delta whose digest and parent link verify — and deterministically
re-executes only the WAL records past it, so restore points bound
replay time and let :meth:`~repro.chain.wal.WriteAheadLog.compact`
drop old segments.

The format (version 4, base and delta alike) writes a thing once: a
field's values travel under its declared type — a primitive as its
literal, a map of primitives as a key and a value column
(:func:`~repro.chain.serialization.typed_to_json`) — accounts and
nonce records are columns over their addresses, a sender's used nonces
``[first, last]`` runs, and every transaction it holds (mempool,
injector) is the positional row of
:func:`~repro.chain.serialization.transaction_to_obj`.
docs/FAULTS.md, "Restore points".

Restore points are written atomically: the JSON body (the payload,
serialised once, behind the SHA-256 of its bytes) goes to a temporary
file that is fsynced and then ``os.replace``d into place, so a crash
can never leave a half-written file visible — a reader either sees
the old set or the new one.  Retention keeps the newest ``keep``
restore points and everything one of them builds on; loading verifies
the raw bytes before parsing and records every file it rejects, and
why, in :attr:`SnapshotStore.skipped`.

What is *not* in a snapshot: the block history (``Network.blocks``)
and per-epoch fault logs — they are outputs, not inputs, and resuming
restarts them empty — and live runtime caches, which are rebuilt on
demand from contract sources.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any

from ..scilla.values import MapVal
from .mempool import PoolEntry
from .serialization import (
    apply_locations, locations_to_obj, signature_from_obj,
    signature_to_obj, state_from_obj, state_to_obj,
    transaction_from_obj, transaction_to_obj,
)
from .transaction import run_and_gaps, used_runs
from .wal import dumps_compact

# The one format read and written; a file of any other version is
# refused loudly, not skipped.
SNAPSHOT_VERSION = 4
SNAPSHOT_PREFIX = "snap-"
SNAPSHOT_SUFFIX = ".json"
DELTA_SUFFIX = ".delta" + SNAPSHOT_SUFFIX
BACKEND_PREFIX = "state-"
BACKEND_SUFFIX = ".sqlite"
BACKEND_LIVE_NAME = "state.sqlite"


class SnapshotError(Exception):
    """No usable snapshot / snapshot machinery failure."""


class StoreError(SnapshotError):
    """An I/O failure while persisting a snapshot (write/fsync/rename).

    Raised in place of the raw ``OSError`` so callers see a typed
    durability error; the in-memory network is untouched (the epoch
    already committed) and the on-disk state is still the previous,
    intact snapshot set — the network remains resumable.
    """


# --------------------------------------------------------------------------
# Network <-> snapshot object.
# --------------------------------------------------------------------------

def _columns(rows: list, width: int) -> list:
    """The transpose of ``width``-long rows."""
    return list(map(list, zip(*rows))) or [[] for _ in range(width)]


def _lane_columns(columns, every_lane: bool) -> dict:
    """One column per lane — shards ascending, then the DS committee
    (-1) — keyed by the lane; one all ``None`` only if ``every_lane``."""
    lanes = (*range(len(columns) - 1), -1)
    return {str(lane): column for lane, column in zip(lanes, columns)
            if every_lane or column.count(None) != len(column)}


def _account_columns(net, addresses) -> dict:
    """Accounts as columns, the transpose of their rows: address,
    balance, and per lane the portion of the balance held there
    (``None``: no such portion)."""
    addresses = list(addresses)
    columns = _columns(list(map(net.accounts.__getitem__, addresses)),
                       net.n_shards + 2)
    return {"address": addresses, "balance": columns[0],
            "portions": _lane_columns(columns[1:], False)}


def _nonce_columns(net, senders, every_lane: bool) -> dict:
    """The nonce records of ``senders`` as columns, the transpose of
    their rows: the used nonces as runs, the global high-water mark,
    and one per lane (``None``: the sender has no such record)."""
    senders, blank = list(senders), net.nonces.blank
    rows = list(map(net.nonces.records.get, senders))
    columns = _columns([row or blank for row in rows], len(blank))
    return {"sender": senders,
            "used": [row and used_runs(row) for row in rows],
            "last_global": columns[0],
            "last_lane": _lane_columns(columns[1:-2], every_lane)}


def snapshot_network(net, wal_seq: int, backend_obj: Any = None) -> Any:
    """Capture the network's mutable state as a JSON-able object: a
    delta against the previous restore point when the network's change
    ledger allows one, the full state otherwise.

    ``backend_obj`` is the descriptor returned by
    :meth:`SnapshotStore.save_backend` when the network pages state
    through an external backend: contract map fields then serialise as
    compact ``PagedMap`` references (dirty overlay + tombstones only)
    against the sidecar the descriptor pins by digest, instead of
    inlining every entry — always as a base.
    """
    ledger = net._ledger
    obj: dict[str, Any] = {
        "version": SNAPSHOT_VERSION,
        "epoch": net.epoch,
        "wal_seq": wal_seq,
        "counters": {"epoch_tags": dict(net.epoch_tags)},
        "notes": list(net.wal_notes),
        # Telemetry travels with the snapshot so a resumed network's
        # counters continue from the crash point: replay re-records
        # only the epochs past the snapshot (None when disabled).
        "metrics": (net.metrics.snapshot()
                    if net.metrics.enabled else None),
    }
    if ledger is not None:
        obj["accumulators"] = ledger.accumulators(net)
    if net.injector is not None:
        obj["injector"] = {
            "injected": net.injector.injected,
            "skipped": net.injector.skipped,
            "dropped": [transaction_to_obj(tx)
                        for tx in net.injector.dropped],
        }
    if net.mempool is not None:
        # Service mode: the admission pool's pending entries travel
        # with the snapshot (WAL compaction may drop their svc-admit
        # records), in global drain order.
        obj["mempool"] = net.mempool.to_obj()
        if net.mempool.inflight and net.blocks:
            # Cut inside the epoch that drained them, before the loop
            # has settled it: what the block deferred is still inflight
            # and will be re-admitted, one deferral on.
            inflight = net.mempool.inflight
            obj["mempool"]["entries"] += [
                [*transaction_to_obj(inflight[tx_id].tx),
                 inflight[tx_id].deferrals + 1]
                for tx_id in sorted(net.blocks[-1].deferred_ids())
                if tx_id in inflight]
    if ledger is not None and backend_obj is None \
            and not ledger.wants_base(wal_seq):
        obj["parent"] = list(ledger.parent)
        obj["rows"] = ledger.pending_rows()
        obj["contracts"] = {
            addr: {"balance": net.contracts[addr].state.balance,
                   "writes": locations_to_obj(net.contracts[addr].state,
                                              ledger.locations.get(addr, ()))}
            for addr in net.contracts}
        obj["accounts"] = _account_columns(net, ledger.accounts)
        obj["nonces"] = _nonce_columns(net, ledger.senders, True)
        return obj
    paged_backend = (net.state_backend
                     if backend_obj is not None else None)
    obj["rows"] = len(net.accounts) + len(net.nonces.records) + sum(
        len(v.entries) if isinstance(v, MapVal) else 1
        for c in net.contracts.values() for v in c.state.fields.values())
    obj["config"] = net.config.to_obj(net.n_shards)
    obj["contracts"] = {
        addr: {
            "source": c.source,
            "state": state_to_obj(c.state, backend=paged_backend),
            "signature": (signature_to_obj(c.signature)
                          if c.signature is not None else None),
        }
        for addr, c in net.contracts.items()
    }
    obj["accounts"] = _account_columns(net, net.accounts)
    obj["nonces"] = _nonce_columns(net, net.nonces.records, False)
    if backend_obj is not None:
        obj["backend"] = backend_obj
    return obj


def network_from_snapshot(obj: Any, metrics=None, tracer=None,
                          state_backend=None):
    """Rebuild a live (non-durable) Network from a base snapshot object.

    Contract runtimes are rebuilt from source through the cached
    deployment pipeline; everything else is restored verbatim.  The
    caller (``Network.resume``) applies the chain's deltas
    (:func:`apply_delta_snapshot`) and attaches durability afterwards.

    ``state_backend`` is the page store the snapshot's ``PagedMap``
    references resolve against (a restored sidecar); snapshots that
    inline every map entry ignore it except to re-adopt the restored
    fields into paged form.
    """
    from ..core.pipeline import run_pipeline_cached
    from ..scilla.interpreter import Interpreter
    from .network import Network, NetworkConfig

    if obj.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {obj.get('version')!r}")
    net = Network(*NetworkConfig.from_obj(obj["config"]), metrics=metrics,
                  tracer=tracer, state_backend=state_backend)
    for addr, payload in obj["contracts"].items():
        result = run_pipeline_cached(payload["source"], addr)
        state = state_from_obj(payload["state"],
                               backend=net.state_backend)
        signature = (signature_from_obj(payload["signature"])
                     if payload["signature"] is not None else None)
        net._install(addr, result, Interpreter(result.module), state,
                     signature, payload["source"])
    _restore_tables(net, obj)
    return net


def apply_delta_snapshot(net, obj: Any) -> None:
    """Advance a network restored from a delta's parent to the delta:
    changed locations go through the ordinary owned write paths, rows
    replace the accounts and nonce records they name."""
    for addr, part in obj["contracts"].items():
        state = net.contracts[addr].state
        apply_locations(state, part["writes"])
        state.balance = part["balance"]
        net._adopt_state(state)
    _restore_tables(net, obj)


def _restore_tables(net, obj: Any) -> None:
    """What a base and a delta restore alike: the account and nonce
    rows they carry (all of them, in a base) and the small sections.
    The ``executor_fallbacks`` counters and details older builds wrote
    are ignored; so are their empty ``backlog`` / ``dead_letter``
    sections, and a non-empty one is refused: nothing holds it now."""
    for section in ("backlog", "dead_letter"):
        if obj.get(section):
            raise SnapshotError(
                f"restore point at epoch {obj['epoch']} holds a "
                f"non-empty {section!r} section: this build has no "
                f"network-side backlog to resume it into")
    net.epoch = obj["epoch"]
    if net.metrics.enabled and obj.get("metrics") is not None:
        net.metrics.reset_to(obj["metrics"])
    # Rows straight from the columns; a lane with no column holds None.
    accounts = obj["accounts"]
    portions = [[None] * len(accounts["address"])] * (net.n_shards + 1)
    for lane, column in accounts["portions"].items():
        portions[int(lane)] = column
    shared: dict = {}   # equal rows share one tuple, as funded ones do
    net.accounts.update(
        (addr, shared.setdefault(row, row)) for addr, row in zip(
            accounts["address"], zip(accounts["balance"], *portions)))
    nonces, records = obj["nonces"], net.nonces.records
    floors = [[None] * len(nonces["sender"])] * (net.n_shards + 1)
    for lane, column in nonces["last_lane"].items():
        floors[int(lane)] = column
    for sender, runs, *marks in zip(nonces["sender"], nonces["used"],
                                    nonces["last_global"], *floors):
        if runs is not None or marks.count(None) < len(marks):
            records[sender] = (*marks, *run_and_gaps(runs))
    net.epoch_tags = dict(obj["counters"]["epoch_tags"])
    net.wal_notes = list(obj["notes"])
    injector_obj = obj.get("injector")
    if injector_obj is not None and net.injector is not None:
        net.injector.injected = injector_obj["injected"]
        net.injector.skipped = injector_obj["skipped"]
        net.injector.dropped = [transaction_from_obj(tx)
                                for tx in injector_obj["dropped"]]
    # Pending service-pool entries; WAL replay past the snapshot
    # adds/removes against this and ServiceLoop.adopt drains it.
    entries = map(PoolEntry.from_obj,
                  obj.get("mempool", {"entries": ()})["entries"])
    net.restored_mempool = {entry.tx.tx_id: entry for entry in entries}


# --------------------------------------------------------------------------
# Durable storage (atomic writes, digest validation, retention).
# --------------------------------------------------------------------------

# A restore-point file is ``{"digest": "<64 hex>", "snapshot": <payload>}``
# built by concatenation: the digest is over the payload's bytes, so
# loading slices the payload back out and verifies it before parsing.
_FRAME = ('{"digest": "', '", "snapshot": ', '}')
_PAYLOAD_AT = len(_FRAME[0]) + 64 + len(_FRAME[1])


class SnapshotStore:
    """Durable, atomically-written, digest-checked restore points."""

    def __init__(self, data_dir: str | os.PathLike, keep: int = 3):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.dir = Path(data_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        # (file name, digest) of the last restore point saved: what a
        # delta written next names as its parent.
        self.tip: tuple[str, str] | None = None
        # Restore points a load rejected: file name -> reason.
        self.skipped: dict[str, str] = {}
        # The restore-point and sidecar files, oldest first: listed once
        # here, then kept by the writers (save, save_backend, compact).
        names = sorted(p.name for p in self.dir.iterdir())
        self._paths = [self.dir / n for n in names
                       if n.startswith(SNAPSHOT_PREFIX)
                       and n.endswith(SNAPSHOT_SUFFIX)]
        self._sidecars = [self.dir / n for n in names
                          if n.startswith(BACKEND_PREFIX)
                          and n.endswith(BACKEND_SUFFIX)]

    def _path(self, epoch: int, wal_seq: int, delta: bool = False) -> Path:
        return self.dir / (f"{SNAPSHOT_PREFIX}{epoch:010d}-{wal_seq:010d}"
                           f"{DELTA_SUFFIX if delta else SNAPSHOT_SUFFIX}")

    def paths(self) -> list[Path]:
        """Restore-point files, oldest first (temp files excluded)."""
        return list(self._paths)

    def _backend_path(self, epoch: int, wal_seq: int) -> Path:
        return self.dir / (f"{BACKEND_PREFIX}{epoch:010d}-"
                           f"{wal_seq:010d}{BACKEND_SUFFIX}")

    def backend_paths(self) -> list[Path]:
        """Backend sidecar files, oldest first (the live page store —
        ``state.sqlite`` — is not a sidecar and is excluded)."""
        return list(self._sidecars)

    def save_backend(self, backend, epoch: int, wal_seq: int) -> dict:
        """Persist a consistent copy of the external page store as a
        snapshot sidecar, returning the descriptor the snapshot JSON
        embeds (``{"kind", "file", "digest"}``).

        Written *before* the snapshot JSON: the JSON pins the sidecar's
        logical digest, so a crash between the two leaves an orphan
        sidecar (harmless, reclaimed by :meth:`compact`) rather than a
        snapshot pointing at a missing or torn file.
        """
        target = self._backend_path(epoch, wal_seq)
        try:
            digest = backend.save_copy(str(target))
        except OSError as exc:
            raise StoreError(
                f"backend sidecar write failed for {target.name}: "
                f"{type(exc).__name__}: {exc}") from exc
        _insort_new(self._sidecars, target)
        return {"kind": backend.kind, "file": target.name,
                "digest": digest}

    def restore_backend(self, snap: Any | None, data_dir: str):
        """Rebuild the page-store backend a snapshot was taken against.

        With a ``backend`` section the referenced sidecar is digest-
        verified and copied over the live page store; a missing,
        unreadable, or digest-mismatched sidecar is a hard
        :class:`StoreError` — never a silent fall-back to an empty
        store, which would resume with silently truncated state.
        Without a section, the ``REPRO_STATE_BACKEND`` environment
        knob decides (possibly no backend at all, returning ``None``).
        """
        from ..scilla.backend import SqliteBackend, resolve_backend
        info = (snap or {}).get("backend")
        if info is None:
            return resolve_backend(None, data_dir)
        if info.get("kind") != "sqlite":
            raise StoreError(
                f"snapshot pins unsupported backend kind "
                f"{info.get('kind')!r}")
        sidecar = self.dir / info["file"]
        if not sidecar.is_file():
            raise StoreError(
                f"snapshot references missing backend sidecar "
                f"{info['file']}")
        try:
            digest = SqliteBackend.digest_path(str(sidecar))
        except ValueError as exc:
            raise StoreError(
                f"backend sidecar {info['file']} is unreadable: "
                f"{exc}") from exc
        if digest != info["digest"]:
            raise StoreError(
                f"backend sidecar {info['file']} digest mismatch "
                f"(have {digest[:12]}, snapshot pins "
                f"{info['digest'][:12]}): refusing torn/stale pages")
        live = os.path.join(data_dir, BACKEND_LIVE_NAME)
        # The live file is scratch (rebuilt here); drop any sqlite
        # journal remnants from the crashed run alongside it.
        for leftover in (live, live + "-journal", live + "-wal",
                         live + "-shm"):
            try:
                os.unlink(leftover)
            except OSError:
                pass
        try:
            shutil.copyfile(sidecar, live)
        except OSError as exc:
            raise StoreError(
                f"restoring backend sidecar {info['file']} failed: "
                f"{type(exc).__name__}: {exc}") from exc
        return SqliteBackend(live)

    def save(self, obj: Any) -> Path:
        """Atomically persist one restore point (write-temp, fsync,
        rename, fsync directory), serialising it once.  An ``OSError``
        anywhere in the sequence surfaces as :class:`StoreError`; the
        temp file is removed best-effort and the previous set of
        restore points is intact.
        """
        target = self._path(obj["epoch"], obj["wal_seq"],
                            delta="parent" in obj)
        payload = dumps_compact(obj).encode()   # ASCII: one byte a char
        digest = hashlib.sha256(payload).hexdigest()
        tmp = target.with_name(target.name + ".tmp")
        try:
            with open(tmp, "wb") as handle:
                handle.write(digest.join(_FRAME[:2]).encode())
                handle.write(payload)
                handle.write(_FRAME[2].encode())
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, target)
            fd = os.open(self.dir, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError as exc:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise StoreError(
                f"snapshot write failed for {target.name}: "
                f"{type(exc).__name__}: {exc}") from exc
        self.tip = (target.name, digest)
        _insort_new(self._paths, target)
        return target

    def _load(self, path: Path) -> tuple[Any, str] | None:
        """``(payload object, digest)`` of one restore-point file, or
        ``None`` — with the reason recorded in :attr:`skipped` — when
        it is unreadable or its digest does not verify.  An unknown
        *version* is not corruption: it raises."""
        try:
            raw = path.read_text(encoding="utf-8")
            digest, payload = raw[len(_FRAME[0]):][:64], raw[_PAYLOAD_AT:-1]
            if raw[:_PAYLOAD_AT] != digest.join(_FRAME[:2]) \
                    or raw[-1:] != _FRAME[2]:
                raise ValueError("not a restore-point file")
            if hashlib.sha256(payload.encode()).hexdigest() != digest:
                raise ValueError("digest mismatch")
            obj = json.loads(payload)
        except (OSError, ValueError) as exc:
            self.skipped[path.name] = f"{type(exc).__name__}: {exc}"
            return None
        version = obj.get("version") if isinstance(obj, dict) else None
        if version is not None and version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"{path.name} has unsupported snapshot version "
                f"{version!r}")
        return obj, digest

    def load_newest(self) -> Any | None:
        """The newest restore point whose digest verifies (a base or a
        delta), or ``None``; rejected files land in :attr:`skipped`.
        """
        for path in reversed(self.paths()):
            loaded = self._load(path)
            if loaded is not None:
                return loaded[0]
        return None

    def load_chain(self) -> list:
        """The newest restorable chain, base first (``[]`` if none):
        from each candidate tip, newest first, follow parent links down
        to a base.  A tip with an unusable file anywhere below it — or
        a parent whose digest is not the one the link names — is
        rejected as a whole, never partly applied; the WAL, kept back
        to the oldest retained restore point, covers the fall-back."""
        cache: dict[str, tuple[Any, str] | None] = {}
        for tip in reversed(self.paths()):
            chain, name, want = [], tip.name, None
            while True:
                if name not in cache:
                    cache[name] = self._load(self.dir / name)
                loaded = cache[name]
                if loaded is None or want not in (None, loaded[1]):
                    self.skipped.setdefault(
                        tip.name, f"builds on unusable restore point "
                                  f"{name}")
                    break
                chain.append(loaded[0])
                if "parent" not in loaded[0]:
                    return chain[::-1]
                name, want = loaded[0]["parent"]
        return []

    def wal_floor(self) -> int:
        """The WAL sequence number the oldest retained restore point (a
        base, after :meth:`compact`) covers: the log must stay
        replayable from there, or a retained restore point could not
        be fallen back to."""
        name = self._paths[0].name
        return int(name[len(SNAPSHOT_PREFIX):].split(".")[0].split("-")[1])

    def compact(self) -> list[str]:
        """Drop every restore point older than the newest ``keep`` and
        what they build on (back to the base under the oldest kept
        one), plus any backend sidecars whose paired snapshot is gone
        (same ``epoch-walseq`` stem); returns the deleted file names."""
        paths = self._paths
        first = max(len(paths) - self.keep, 0)
        while first and paths[first].name.endswith(DELTA_SUFFIX):
            first -= 1
        deleted = []
        for path in paths[:first]:
            path.unlink()
            deleted.append(path.name)
        del paths[:first]
        kept_stems = {
            p.name[len(SNAPSHOT_PREFIX):-len(SNAPSHOT_SUFFIX)]
            for p in paths}
        for sidecar in list(self._sidecars):
            stem = sidecar.name[len(BACKEND_PREFIX):-len(BACKEND_SUFFIX)]
            if stem not in kept_stems:
                try:
                    sidecar.unlink()
                except OSError:
                    continue
                self._sidecars.remove(sidecar)
                deleted.append(sidecar.name)
        return deleted


def _insort_new(paths: list[Path], path: Path) -> None:
    """Add ``path`` to the sorted list ``paths`` unless it is there."""
    at = bisect.bisect_left(paths, path)
    if paths[at:at + 1] != [path]:
        paths.insert(at, path)
