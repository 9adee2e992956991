"""Persistent (resident) shard-lane workers.

The per-epoch executors in :mod:`repro.chain.lanes` rebuild a worker
snapshot from scratch every epoch: a full account table, the whole
nonce history, and (sliced) contract states are copied, pickled and
shipped per lane per epoch.  The paper's testbed — like Chainspace's
long-lived shard nodes — does none of that: a shard *holds* its state
and only learns what changed.  This module brings that model to the
simulator:

* Each (network, lane) pair owns a **resident replica**: a private
  ``Network`` clone installed once (a one-time full payload, exactly
  what :func:`~repro.chain.lanes.build_lane_task` ships for a legacy
  attempt, unsliced) and kept in the worker across epochs.
* Per epoch the coordinator sends only the lane's **transaction queue**
  plus, asynchronously after each commit, a **merge-delta sync**
  (:class:`ResidentSync`): the state locations the epoch touched, as
  absolute authoritative values, plus the touched accounts and nonce
  records.  Workers reply with ordinary
  :class:`~repro.chain.lanes.LaneResult` deltas.
* A replica is a *pure replica of the epoch-start state*: after
  executing a queue the worker rolls back every account and nonce
  mutation its lane made (contract state is never mutated — the lane
  executes against CoW forks, as always), so the replica advances only
  through syncs.  ``tests/test_resident_properties.py`` proves the
  invariant: an incrementally-synced replica is indistinguishable from
  one reinstalled from scratch.
* Every message carries the coordinator's **state version** (one bump
  per commit).  A worker that restarted, missed a sync, or fell behind
  answers :class:`ResidentStale` instead of executing, and the
  supervisor retries with an install attached — silent divergence is
  structurally impossible.

The coordinator-side bookkeeping lives in :class:`ResidentTracker`
(owned by the network): it takes the committed epoch's changed contract
locations from the network's change set (merged delta keys and the DS
lane's writes), accumulates every account and nonce the coordinator
mutated, cuts a :class:`ResidentSync` at each commit, and pushes it to installed replicas *while the next epoch is
being prepared* — the epoch-pipelining half of this module.  Ordering
is preserved by the per-lane FIFO slots of
:class:`~repro.core.parallel.ResidentSlotPool`: a sync push enqueued
before the next epoch's run task is applied before it.

Touch tracking is deliberately an over-approximation: syncs carry
absolute values read from the authoritative post-commit state, so
shipping an unchanged location is harmless, and rolled-back view-change
attempts merely widen the sync.  What can never happen is shipping too
little — the differential battery (``tests/test_resident_differential``)
holds resident execution byte-identical to serial for every workload,
with and without injected worker kills.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field

from ..scilla.state import MISSING, StateKey
from ..scilla.values import MapVal
from .faults import WorkerKilled
from .lanes import (
    LaneResult, LaneTask, account_delta, build_lane_task,
    instantiate_lane_network, nonce_effects,
)
from .delta import compute_delta
from .transaction import Transaction, private_records

# Replicas a single worker process (or the coordinator process, for
# thread slots) keeps before evicting the least-recently-used one.
# Generous: a replica is mostly CoW shares, and eviction only costs a
# reinstall on the next epoch that wants it back.
REPLICA_CAPACITY = 64

_GEN = itertools.count(1)


# --------------------------------------------------------------------------
# Wire types.
# --------------------------------------------------------------------------

@dataclass
class ResidentSync:
    """Everything an epoch changed, as absolute authoritative values.

    One sync record advances a replica from ``prev_version`` to
    ``version``.  Contract writes are ``(address, StateKey, value)``
    triples (``MISSING`` deletes a map entry); balances ship for every
    contract (there are few); accounts and nonces ship only for the
    addresses/senders the epoch touched, as their rows.
    """

    prev_version: int
    version: int
    contract_writes: list[tuple[str, StateKey, object]]
    contract_balances: dict[str, int]
    accounts: dict[str, tuple]
    nonces: dict[str, tuple]


@dataclass
class ResidentEpochTask:
    """One epoch's work order for a resident lane worker."""

    gen: int                  # coordinator network generation (replica key)
    lane: int
    epoch: int
    version: int              # required replica version (epoch-start state)
    queue: list[Transaction]
    gas_limit: int
    # Attached when the coordinator knows (or must assume) the worker
    # has no replica at `version`: a full unsliced legacy payload the
    # worker installs before executing.
    install: LaneTask | None = None
    metrics_enabled: bool = False
    worker_fault: tuple[str, float] | None = None


@dataclass(frozen=True)
class ResidentStale:
    """The worker had no replica at the required version (restarted,
    evicted, or a sync push failed).  The supervisor retries the lane
    with an install attached."""

    lane: int
    found_version: int        # -1 when the replica is absent entirely


# --------------------------------------------------------------------------
# Worker-side replica store.
# --------------------------------------------------------------------------

class _Replica:
    __slots__ = ("net", "version")

    def __init__(self, net, version: int):
        self.net = net
        self.version = version


# (gen, lane) -> replica.  Per worker process; for thread slots this is
# the coordinator process's own copy, shared by all thread slots (each
# lane's replica is only ever touched by its slot thread — the lock
# below only guards the dict itself).
_REPLICAS: "OrderedDict[tuple[int, int], _Replica]" = OrderedDict()
_replicas_lock = threading.Lock()


def _store_replica(key: tuple[int, int], replica: _Replica) -> None:
    with _replicas_lock:
        _REPLICAS.pop(key, None)
        _REPLICAS[key] = replica
        while len(_REPLICAS) > REPLICA_CAPACITY:
            _REPLICAS.popitem(last=False)


def _lookup_replica(key: tuple[int, int]) -> _Replica | None:
    with _replicas_lock:
        replica = _REPLICAS.get(key)
        if replica is not None:
            _REPLICAS.move_to_end(key)
        return replica


def _drop_replica(key: tuple[int, int]) -> None:
    with _replicas_lock:
        _REPLICAS.pop(key, None)


def reset_replicas() -> None:
    """Forget every resident replica (tests)."""
    with _replicas_lock:
        _REPLICAS.clear()


def resident_replica(gen: int, lane: int):
    """The live replica network for (gen, lane), or None (tests)."""
    replica = _lookup_replica((gen, lane))
    return replica.net if replica is not None else None


# --------------------------------------------------------------------------
# Worker entry points.
# --------------------------------------------------------------------------

def build_install_task(net, lane: int, ship_modules: bool) -> LaneTask:
    """A one-time install payload: the legacy full snapshot, unsliced
    (a resident replica must hold whole states — there is no per-epoch
    footprint to slice to), with an empty queue."""
    saved = net.slice_payloads
    net.slice_payloads = False
    try:
        task = build_lane_task(net, lane, [], net.cost.shard_gas_limit,
                               ship_modules=ship_modules)
    finally:
        net.slice_payloads = saved
    # The replica's runtime must be private to its slot thread — never
    # share the coordinator's interpreter cache.
    if ship_modules:
        task.runtime_cache = {}
    # Per-epoch registries are created at execution time instead.
    task.metrics_enabled = False
    return task


def run_resident_epoch(task: ResidentEpochTask
                       ) -> LaneResult | ResidentStale:
    """Execute one epoch's queue on the resident replica.

    With ``install`` attached the replica is (re)built first.  Without
    it, a missing or version-mismatched replica returns
    :class:`ResidentStale` — never a silently wrong result.
    """
    if task.worker_fault is not None:
        action, seconds = task.worker_fault
        if action == "kill-process":
            os._exit(13)
        if action == "kill-thread":
            raise WorkerKilled(
                f"lane {task.lane}: injected worker kill")
        time.sleep(seconds)   # "hang" / "slow"

    key = (task.gen, task.lane)
    if task.install is not None:
        replica = _Replica(instantiate_lane_network(task.install),
                           task.version)
        _store_replica(key, replica)
    else:
        replica = _lookup_replica(key)
        if replica is None:
            return ResidentStale(task.lane, -1)
        if replica.version != task.version:
            return ResidentStale(task.lane, replica.version)
    try:
        return _run_epoch_on_replica(replica, task)
    except BaseException:
        # Anything unexpected may have left the replica mid-mutation;
        # drop it so the next epoch reinstalls from authoritative state.
        _drop_replica(key)
        raise


def apply_resident_sync(gen: int, lane: int, sync: ResidentSync) -> bool:
    """Advance a replica by one committed epoch's changes.

    Fire-and-forget from the coordinator: on any mismatch the replica
    is dropped (the next run task answers stale and triggers a
    reinstall), so a lost or failed sync can only cost a round trip,
    never correctness.
    """
    key = (gen, lane)
    replica = _lookup_replica(key)
    if replica is None:
        return False
    if replica.version != sync.prev_version:
        _drop_replica(key)
        return False
    try:
        _apply_sync(replica.net, lane, sync)
    except Exception:
        _drop_replica(key)
        return False
    replica.version = sync.version
    return True


def _apply_sync(net, lane: int, sync: ResidentSync) -> None:
    for addr, state_key, value in sync.contract_writes:
        contract = net.contracts.get(addr)
        if contract is None:
            raise KeyError(addr)
        if value is MISSING and not state_key[1]:
            # A whole field the authoritative state does not have —
            # only possible across a structure change, which forces a
            # reinstall anyway; never delete a field on a replica.
            continue
        contract.state.write(state_key, value)
    for addr, balance in sync.contract_balances.items():
        contract = net.contracts.get(addr)
        if contract is None:
            raise KeyError(addr)
        contract.state.balance = balance
    net.accounts.update(sync.accounts)
    net.nonces.records.update(private_records(sync.nonces))


def _run_epoch_on_replica(replica: _Replica, task: ResidentEpochTask
                          ) -> LaneResult:
    """Run the queue on the replica and undo the run's account/nonce
    side effects afterwards, so the replica stays a pure image of the
    epoch-start state (contract states are only read — the lane
    executes against CoW forks exactly like every other executor).

    The undo map doubles as the delta source: account deltas are
    computed from the touched accounts only, O(touched) instead of the
    legacy executor's O(all users) diff.
    """
    from ..obs.metrics import NULL_REGISTRY, MetricsRegistry
    from .network import Network, _NetworkMeters

    net = replica.net
    if task.metrics_enabled:
        registry = MetricsRegistry()
    else:
        registry = None
    net.metrics = registry if registry is not None else NULL_REGISTRY
    net._meters = _NetworkMeters(net.metrics)
    net.epoch = task.epoch

    # First-touch undo map over account access: every account the lane
    # reads or mutates goes through Network._account_at, so recording
    # there is complete.  None marks "did not exist".
    undo: dict[str, tuple | None] = {}

    def recording_account(addr: str) -> tuple:
        if addr not in undo:
            undo[addr] = net.accounts.get(addr)
        return Network._account_at(net, addr)

    records = net.nonces.records
    pre_nonces = private_records(
        {tx.sender: records.get(tx.sender) for tx in task.queue})

    net._account_at = recording_account  # instance attr shadows the method
    try:
        mb, local_states, touched, deferred = net._run_lane(
            task.lane, task.queue, task.gas_limit)
    finally:
        del net.__dict__["_account_at"]

    deltas = []
    balance_deltas: dict[str, int] = {}
    for addr, local in local_states.items():
        base = net.contracts[addr].state
        delta = compute_delta(addr, task.lane, base, local,
                              touched.get(addr, ()),
                              net.contracts[addr].joins)
        if delta.entries:
            deltas.append(delta)
        balance_deltas[addr] = local.balance - base.balance

    account_deltas = {}
    for addr, pre in undo.items():
        delta = account_delta(pre, net.accounts.get(addr), net.n_shards)
        if delta[0] or delta[1] or pre is None:
            account_deltas[addr] = delta
    nonce_used_added, nonce_last_global, nonce_last_lane = nonce_effects(
        task.lane, {s: (pre, records[s]) for s, pre in pre_nonces.items()
                    if s in records})

    # Roll the replica back to the epoch-start image.
    for table, pre_rows in ((net.accounts, undo), (records, pre_nonces)):
        for key, pre in pre_rows.items():
            if pre is None:
                table.pop(key, None)
            else:
                table[key] = pre

    return LaneResult(
        lane=task.lane, microblock=mb, deltas=deltas,
        balance_deltas=balance_deltas, deferred=deferred,
        account_deltas=account_deltas,
        nonce_used_added=nonce_used_added,
        nonce_last_global=nonce_last_global,
        nonce_last_lane=nonce_last_lane,
        metrics=registry.snapshot() if registry is not None else None,
    )


# --------------------------------------------------------------------------
# Coordinator-side tracking.
# --------------------------------------------------------------------------

class ResidentTracker:
    """Per-network record of what changed since each replica's last
    sync, plus the version counter and the installed-replica map.

    Touch recording is an over-approximation (syncs ship absolute
    values, so extra locations are harmless): the epoch change set's
    contract locations (``commit_epoch``), every account
    ``Network._account`` handed out, and every sender whose nonce
    record moved.  A deploy
    is a *structure* change — no sync can express it, so it clears the
    installed map and every lane reinstalls.
    """

    def __init__(self):
        self.gen = next(_GEN)
        self.version = 0
        # (strategy, lane) -> version the coordinator believes that
        # replica holds.  The worker-side version check is the safety
        # net when this belief is wrong (killed worker, lost sync).
        self.installed: dict[tuple[str, int], int] = {}
        self.structure_changed = False
        self.last_push_ns = 0
        self._accounts: set[str] = set()
        self._nonce_senders: set[str] = set()

    # -- touch recording (called from the network's hot paths) ----------

    def touch_account(self, address: str) -> None:
        self._accounts.add(address)

    def touch_nonce(self, sender: str) -> None:
        self._nonce_senders.add(sender)

    def mark_structure_change(self) -> None:
        self.structure_changed = True

    # -- version advance -------------------------------------------------

    def has_pending(self) -> bool:
        return bool(self._accounts or self._nonce_senders
                    or self.structure_changed)

    def commit_epoch(self, net, locations: dict[str, set]) -> None:
        """Cut the epoch's sync record from its change set's contract
        locations (``Network._cut_changes``), bump the version, and
        push the sync to every current replica — asynchronously,
        overlapping with whatever the coordinator does next (epoch
        pipelining)."""
        self._advance(net, locations)

    def flush_out_of_band(self, net) -> None:
        """Fold changes made *between* epochs (create_account, deploy)
        into a version bump before dispatching on top of them."""
        if self.has_pending():
            self._advance(net, {})

    def _advance(self, net, state_keys: dict[str, set[StateKey]]) -> None:
        accounts, senders = self._accounts, self._nonce_senders
        self._accounts, self._nonce_senders = set(), set()
        prev = self.version
        self.version = prev + 1
        if self.structure_changed:
            # No sync can add or remove a contract: force reinstalls.
            self.structure_changed = False
            self.installed.clear()
            return
        targets = [key for key, v in self.installed.items() if v == prev]
        for key in [k for k, v in self.installed.items() if v != prev]:
            del self.installed[key]     # behind: reinstall on next use
        if not targets:
            return
        sync = self._build_sync(net, prev, state_keys, accounts, senders)
        self._push_sync(net, sync, targets)

    def _build_sync(self, net, prev: int,
                    state_keys: dict[str, set[StateKey]],
                    accounts: set[str],
                    senders: set[str]) -> ResidentSync:
        writes: list[tuple[str, StateKey, object]] = []
        for addr, keys in state_keys.items():
            contract = net.contracts.get(addr)
            if contract is None:
                continue
            state = contract.state
            # Paged fields: batch-fault the epoch's touched first keys
            # per field in one backend round-trip instead of one fault
            # per state.read below.
            by_field: dict[str, list] = {}
            for name, sub in keys:
                if sub:
                    by_field.setdefault(name, []).append(sub[0])
            for name, first_keys in by_field.items():
                field = state.fields.get(name)
                prefetch = getattr(
                    getattr(field, "entries", None), "prefetch", None)
                if prefetch is not None:
                    prefetch(first_keys)
            for key in keys:
                value = state.read(key)
                if isinstance(value, MapVal):
                    value = value.copy()     # CoW: never ship live maps
                writes.append((addr, key, value))
        balances = {addr: c.state.balance
                    for addr, c in net.contracts.items()}
        rows, records = net.accounts, net.nonces.records
        net._meters.resident_sync_deltas.inc(len(writes))
        return ResidentSync(
            prev_version=prev, version=self.version,
            contract_writes=writes, contract_balances=balances,
            accounts={a: rows[a] for a in accounts if a in rows},
            nonces=private_records(
                {s: records[s] for s in senders if s in records}))

    def _push_sync(self, net, sync: ResidentSync,
                   targets: list[tuple[str, int]]) -> None:
        import pickle

        from ..core.parallel import get_resident_pool
        meters = net._meters
        sync_bytes = None
        for strategy, lane in targets:
            try:
                pool = get_resident_pool(strategy, net.lane_workers)
                if strategy == "process" and net.metrics.enabled:
                    if sync_bytes is None:
                        sync_bytes = len(pickle.dumps(sync))
                    meters.resident_sync_bytes.inc(sync_bytes)
                pool.submit(lane, apply_resident_sync,
                            self.gen, lane, sync)
            except Exception:
                # Push failed (broken slot, unpicklable value): forget
                # the replica; the next epoch reinstalls it.
                self.installed.pop((strategy, lane), None)
            else:
                self.installed[(strategy, lane)] = sync.version
                meters.resident_sync_pushes.inc()
        if net.metrics.enabled and self.installed:
            self.last_push_ns = time.perf_counter_ns()
