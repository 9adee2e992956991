"""Isolated shard-lane execution for the parallel epoch executors.

Why lanes may run concurrently at all
-------------------------------------

Signature dispatch guarantees that two transactions routed to
different shard lanes have *disjoint write footprints* on contract
state (the ``Owns`` constraints of Sec. 4.3), that their gas charges
come out of per-lane balance portions (split-balance accounting,
Sec. 4.2.2), and that relaxed nonce checking is per-lane by
construction (Sec. 4.2.1).  Within one epoch, therefore, a lane's
execution depends only on the epoch-start state and on its own queue —
which is what the serial loop in ``Network._attempt_epoch`` implicitly
relies on, and what this module makes explicit.

A :class:`LaneTask` snapshots everything a lane may read (contract
states, account balances, nonce history); :func:`run_lane_task`
rebuilds a private, fully isolated ``Network`` around that snapshot
and executes the queue through the *identical* ``_run_lane`` code path
the serial executor uses; the resulting :class:`LaneResult` carries
the MicroBlock plus the lane's side effects as *deltas* which the DS
committee applies in deterministic shard order.  Because every decision
a lane makes is independent of its siblings (see
``docs/PARALLELISM.md`` for the argument, and
``tests/test_parallel_equivalence.py`` for the differential oracle),
delta-merging in shard order reproduces the serial execution exactly —
byte-identical receipts, stats, and state fingerprints.

The cases where lane independence does NOT hold — strict nonce mode,
or the same ``(sender, nonce)`` submitted to two different lanes — are
detected up front by ``Network._lane_strategy`` and fall back to the
serial loop for that epoch.

Worker-side caching: process-pool tasks ship contract *source text*
rather than AST; each worker rebuilds (and caches, keyed by source
hash) the parsed module and an interpreter per lane, so steady-state
epochs pickle only states, queues and balances.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field as dc_field

from ..core.domain import ConstKey, Key, ParamKey
from ..scilla import types as ty
from ..scilla.ast import Module
from ..scilla.errors import EvalError
from ..scilla.interpreter import Interpreter
from ..scilla.state import ContractState
from ..scilla.values import (
    BNumVal, ByStrVal, IntVal, MapVal, StringVal, Value,
)
from .blocks import MicroBlock
from .delta import StateDelta, compute_delta
from .dispatch import _pad, key_token
from .faults import WorkerKilled
from .transaction import Transaction, floor_slot, portion_slot, private_records


@dataclass
class LaneContractPayload:
    """What a worker needs to rebuild one deployed contract."""

    source_hash: str
    source: str                      # "" when the module ships directly
    module: Module | None            # None when the source ships instead
    state: ContractState             # epoch-start state (private copy)
    signature: object | None         # ShardingSignature (carries joins)
    # Slicing plan the state was built under (None = the full state
    # shipped).  Per field: ``None`` means the whole field shipped;
    # a frozenset of first-key tokens means only those top-level map
    # entries (and their subtrees) shipped.  The worker checks every
    # touched location against this plan — a location outside it is a
    # *footprint escape* and discards the whole parallel attempt.
    shipped: dict[str, frozenset[str] | None] | None = None
    # True for contracts none of this lane's transactions target: only
    # the address needs to exist (payment-to-contract rejection and the
    # no-cross-contract-calls check), so an empty state ships.
    stub: bool = False


@dataclass
class LaneTask:
    """One shard lane's slice of an epoch, fully self-contained."""

    lane: int
    epoch: int
    n_shards: int
    use_signatures: bool
    overflow_guard: bool
    gas_limit: int
    queue: list[Transaction]
    contracts: dict[str, LaneContractPayload]
    # Account and nonce rows (repro.chain.transaction); gap sets are
    # the lane's own copies.
    accounts: dict[str, tuple]
    nonces: dict[str, tuple]
    # Thread-mode only: per-network interpreter cache, keyed by
    # (lane, source_hash).  Never pickled — process tasks leave it None
    # and use the per-worker module cache instead.
    runtime_cache: dict | None = dc_field(default=None, repr=False)
    # When the owning network records telemetry, the worker records the
    # lane's metrics into a private registry shipped back in the result.
    metrics_enabled: bool = False
    # Chaos injection (repro.chain.supervise): an (action, seconds)
    # pair the worker acts out before executing — "hang"/"slow" sleep,
    # "kill-process" exits the worker process, "kill-thread" raises
    # WorkerKilled.  The supervisor attaches it to first attempts only
    # and never to tasks it runs inline in the coordinator.
    worker_fault: tuple[str, float] | None = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["runtime_cache"] = None
        return state


@dataclass
class LaneResult:
    """A lane's MicroBlock plus its side effects, as mergeable deltas."""

    lane: int
    microblock: MicroBlock
    deltas: list[StateDelta]
    balance_deltas: dict[str, int]
    deferred: list[Transaction]
    # address -> (balance delta, portion deltas); addresses the lane
    # created are present even when every delta is zero, so lazily
    # created accounts exist in the merged network exactly as they
    # would after a serial epoch.
    account_deltas: dict[str, tuple[int, dict[int, int]]]
    nonce_used_added: dict[str, set[int]]
    nonce_last_global: dict[str, int]
    nonce_last_lane: dict[str, int]
    # Snapshot of the worker's private registry (None when telemetry is
    # off).  The coordinator folds it in at the same point it applies
    # the lane's other effects, in shard order, so merged counters are
    # identical to what the serial loop records inline.
    metrics: dict | None = None
    # Locations the lane touched outside its shipped slice (sound
    # analysis makes this empty; a non-empty list is defence in depth —
    # the coordinator discards every lane result and redoes the epoch
    # serially, so a slicing bug degrades performance, never results).
    footprint_escapes: list[str] = dc_field(default_factory=list)

    def apply_effects(self, net) -> None:
        """Merge this lane's account/nonce effects into the network.

        Charges and credits are additive and land in per-lane portions,
        so applying lanes in ascending shard order reproduces the
        serial interleaving exactly.
        """
        for addr in sorted(self.account_deltas):
            bal_d, portions_d = self.account_deltas[addr]
            row = list(net._account_at(addr))
            row[0] += bal_d
            for shard, d in portions_d.items():
                i = portion_slot(shard)
                row[i] = (row[i] or 0) + d
            net.accounts[addr] = tuple(row)
        # Resident replicas must learn these nonce moves at the next
        # sync (account moves are already recorded via _account_at).
        tracker = getattr(net, "_resident_tracker", None)
        for sender in dict.fromkeys((*self.nonce_used_added,
                                     *self.nonce_last_global,
                                     *self.nonce_last_lane)):
            net.nonces.absorb(sender, self.lane,
                              self.nonce_used_added.get(sender, ()),
                              self.nonce_last_global.get(sender),
                              self.nonce_last_lane.get(sender))
            if tracker is not None:
                tracker.touch_nonce(sender)


# --------------------------------------------------------------------------
# Footprint-sliced payloads (main process).
# --------------------------------------------------------------------------

def transition_footprints(summaries) -> dict[str, tuple | None]:
    """Per-transition state footprints, computed once at deploy time.

    Uses the *raw* analysis summaries (reads ∪ writes), not the
    derived signature constraints — the signature prunes constant-field
    reads and commutative writes, but slicing must cover every location
    a transition may touch.  ``None`` marks an unsummarisable (⊤)
    transition: the analysis cannot bound its accesses, so payloads
    ship the full state whenever one is dispatched.
    """
    out: dict[str, tuple | None] = {}
    for name, summary in summaries.items():
        if summary.has_top:
            out[name] = None
        else:
            pfs = [e.pf for e in summary.reads()]
            pfs += [e.pf for e in summary.writes()]
            out[name] = tuple(dict.fromkeys(pfs))
    return out


def _value_from_token(token: str) -> Value | None:
    """Rebuild a runtime value from a ``key_token`` literal (the
    constant-key format of the analysis).  ADT tokens are not
    round-tripped — the caller falls back to shipping the whole field.
    """
    kind, sep, payload = token.partition("|")
    if not sep:
        return None
    try:
        if kind.startswith(("Int", "Uint")):
            return IntVal(int(payload), ty.prim(kind))
        if kind == "String":
            return StringVal(payload)
        if kind.startswith("ByStr"):
            return ByStrVal(payload, ty.prim(kind))
        if kind == "BNum":
            return BNumVal(int(payload))
    except (ValueError, EvalError):
        return None
    return None


def _resolve_key_value(key: Key, tx: Transaction,
                       deployed) -> Value | None:
    """The concrete runtime value a symbolic footprint key takes for
    ``tx`` — the same resolution the dispatcher performs for ownership
    constraints (``Dispatcher._resolve_key``), but returning the value
    itself so sliced entries are selected by O(1) dict lookup."""
    if isinstance(key, ParamKey):
        if key.name in ("_sender", "_origin"):
            return ByStrVal(tx.sender, ty.BYSTR20)
        return tx.args_dict().get(key.name)
    assert isinstance(key, ConstKey)
    if key.repr.startswith("cparam:"):
        return deployed.immutables.get(key.repr.removeprefix("cparam:"))
    if key.repr == "_this_address":
        return ByStrVal(_pad(deployed.address), ty.BYSTR20)
    return _value_from_token(key.repr)


def _payload_plan(net, c, txs: list[Transaction]
                  ) -> dict[str, set[Value] | None] | None:
    """The slicing plan for one contract in one lane: field name →
    ``None`` (ship whole) or the set of first-key values whose
    top-level entries (with their subtrees) must ship.  Fields absent
    from the plan are not needed at all.  Returns ``None`` when the
    whole state must ship (no usable footprints, or a dispatched
    transition is unsummarisable)."""
    if c.footprints is None or c.signature is None \
            or not net.use_signatures:
        return None
    deployed = net.dispatcher.contracts.get(_pad(c.address))
    if deployed is None:
        return None
    plan: dict[str, set[Value] | None] = {}
    for tx in txs:
        pfs = c.footprints.get(tx.transition or "")
        if pfs is None:    # unknown transition or ⊤ summary
            return None
        for pf in pfs:
            if plan.get(pf.field, ()) is None:
                continue   # already shipping the whole field
            if pf.is_whole_field:
                plan[pf.field] = None
                continue
            value = _resolve_key_value(pf.keys[0], tx, deployed)
            if value is None:
                plan[pf.field] = None    # unresolvable: be conservative
            else:
                plan.setdefault(pf.field, set()).add(value)
    return plan


def _sliced_state(state: ContractState,
                  plan: dict[str, set[Value] | None]
                  ) -> tuple[ContractState, dict[str, frozenset[str] | None],
                             int]:
    """Build the payload state for a plan, plus the ``shipped`` spec
    the worker checks escapes against and the count of shipped map
    entries.  Non-map fields always ship whole (they are one value);
    map fields ship fully (CoW fork), sliced to the planned first-key
    entries, or empty when no dispatched transition names them."""
    fields: dict[str, Value] = {}
    shipped: dict[str, frozenset[str] | None] = {}
    entries = 0
    for name, value in state.fields.items():
        if not isinstance(value, MapVal):
            fields[name] = value
            shipped[name] = None
            continue
        keys = plan.get(name, set())
        if keys is None:
            fields[name] = value.copy()
            shipped[name] = None
            entries += len(value.entries)
            continue
        try:
            tokens = frozenset(key_token(k) for k in keys)
        except ValueError:
            fields[name] = value.copy()
            shipped[name] = None
            entries += len(value.entries)
            continue
        sub = MapVal(value.key_type, value.value_type)
        prefetch = getattr(value.entries, "prefetch", None)
        if prefetch is not None:
            # Paged field: batch-fault the lane's whole footprint in
            # one backend round-trip before the per-key lookups below
            # (the slicing plan doubles as the prefetch oracle).
            prefetch(keys)
        for k in keys:
            v = value.entries.get(k)
            if v is not None:
                sub.entries[k] = v.copy() if isinstance(v, MapVal) else v
                entries += 1
        fields[name] = sub
        shipped[name] = tokens
    sliced = ContractState(state.address, fields, state.field_types,
                           state.immutables, state.balance)
    return sliced, shipped, entries


def _stub_state(c) -> ContractState:
    return ContractState(c.state.address, {}, c.state.field_types,
                         c.state.immutables, 0)


def _full_entries(state: ContractState) -> int:
    return sum(len(v.entries) for v in state.fields.values()
               if isinstance(v, MapVal))


# --------------------------------------------------------------------------
# Task construction (main process).
# --------------------------------------------------------------------------

def source_hash(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


def build_lane_task(net, lane: int, queue: list[Transaction],
                    gas_limit: int, ship_modules: bool) -> LaneTask:
    """Snapshot the network into a self-contained lane task.

    ``ship_modules=True`` (thread executor) shares the live AST and
    the network's per-lane interpreter cache; ``False`` (process
    executor) ships source text and lets the worker's own cache
    rebuild the runtime.  Contract states are private CoW forks; with
    ``net.slice_payloads`` they are *sliced* down to the components the
    lane's dispatched footprints name (stubs for contracts the lane
    never targets), so steady-state payload size tracks activity, not
    state size.
    """
    meters = net._meters if net.metrics.enabled else None
    targeted: dict[str, list[Transaction]] = {}
    for tx in queue:
        if tx.is_contract_call:
            targeted.setdefault(tx.to, []).append(tx)
    contracts: dict[str, LaneContractPayload] = {}
    for addr, c in net.contracts.items():
        src = getattr(c, "source", "")
        payload = LaneContractPayload(
            source_hash=source_hash(src) if src else f"module:{id(c.module)}",
            source="" if (ship_modules or not src) else src,
            module=c.module if (ship_modules or not src) else None,
            state=c.state,                  # placeholder, replaced below
            signature=c.signature,
        )
        txs = targeted.get(addr)
        plan = None
        if net.slice_payloads and txs is None:
            payload.state = _stub_state(c)
            payload.stub = True
            payload.source = ""
            payload.module = None
            if meters:
                meters.payload_states_stub.inc()
        elif net.slice_payloads and \
                (plan := _payload_plan(net, c, txs)) is not None:
            payload.state, payload.shipped, n = _sliced_state(c.state, plan)
            if meters:
                meters.payload_states_sliced.inc()
                meters.payload_entries.inc(n)
        else:
            payload.state = c.state.fork()
            if meters:
                meters.payload_states_full.inc()
                meters.payload_entries.inc(_full_entries(c.state))
        contracts[addr] = payload
    return LaneTask(
        lane=lane, epoch=net.epoch, n_shards=net.n_shards,
        use_signatures=net.use_signatures,
        overflow_guard=net.overflow_guard, gas_limit=gas_limit,
        queue=queue, contracts=contracts, accounts=dict(net.accounts),
        nonces=private_records(net.nonces.records),
        runtime_cache=net._runtime_cache if ship_modules else None,
        metrics_enabled=net.metrics.enabled,
    )


# --------------------------------------------------------------------------
# Task execution (worker side; also runs in-process for threads).
# --------------------------------------------------------------------------

# Per-worker-process runtime cache: (lane, source_hash) -> (module,
# interpreter).  Keyed by lane as well so two *thread* tasks of one
# epoch never share an interpreter (run_transition installs a gas hook
# on the instance); process workers execute one task at a time, so for
# them the lane key only costs a few duplicate 40µs constructions.
_worker_runtime_cache: dict[tuple[int, str], tuple[Module, Interpreter]] = {}


def _runtime_for(lane: int, payload: LaneContractPayload,
                 cache: dict | None) -> tuple[Module, Interpreter]:
    cache = _worker_runtime_cache if cache is None else cache
    key = (lane, payload.source_hash)
    hit = cache.get(key)
    if hit is not None and (payload.module is None
                            or hit[0] is payload.module):
        return hit
    module = payload.module
    if module is None:
        from ..scilla.parser import parse_module
        from ..scilla.typechecker import typecheck_module
        module = parse_module(payload.source, "<lane>")
        typecheck_module(module)
    runtime = (module, Interpreter(module))
    cache[key] = runtime
    return runtime


def _footprint_escapes(task: LaneTask,
                       touched: dict[str, list]) -> list[str]:
    """Touched locations outside the shipped slice (writes of
    successful transactions; reads are covered by the same footprints
    by construction — the plan ships ``reads ∪ writes``)."""
    escapes: list[str] = []
    for addr, logs in touched.items():
        shipped = task.contracts[addr].shipped
        if shipped is None:
            continue
        for name, path in {key for log in logs for key in log.writes}:
            spec = shipped.get(name)
            if name not in shipped:
                escapes.append(f"{addr}: write to unshipped field "
                               f"{name!r}")
            elif spec is None:
                continue
            elif not path:
                escapes.append(f"{addr}: whole-field write to sliced "
                               f"field {name!r}")
            else:
                try:
                    token = key_token(path[0])
                except ValueError:
                    token = None
                if token is None or token not in spec:
                    escapes.append(f"{addr}: write to {name!r} outside "
                                   f"the shipped slice ({path[0]})")
    return escapes


def instantiate_lane_network(task: LaneTask, registry=None):
    """Rebuild a private, fully isolated ``Network`` from a task
    snapshot — the worker-side half of :func:`build_lane_task`.

    Shared by the per-epoch executor (:func:`run_lane_task`) and the
    resident-replica install path (:mod:`repro.chain.resident`), so a
    replica starts from *exactly* the state a one-shot worker would
    have seen.
    """
    from .network import DeployedContract, Network

    # state_backend="none": lane payload states are already private
    # slices/forks of the coordinator's (possibly paged) state; the
    # private network must never resolve REPRO_STATE_BACKEND and spin
    # up its own page store per lane.
    net = Network(task.n_shards, use_signatures=task.use_signatures,
                  overflow_guard=task.overflow_guard, executor="serial",
                  metrics=registry, state_backend="none")
    net.epoch = task.epoch
    for addr, payload in task.contracts.items():
        if payload.stub:
            # Only the address must exist (payment-to-contract and
            # cross-contract-call checks); the lane never invokes it.
            net.contracts[addr] = DeployedContract(
                addr, None, None, payload.state, payload.signature)
            continue
        module, interp = _runtime_for(task.lane, payload,
                                      task.runtime_cache)
        net.contracts[addr] = DeployedContract(
            addr, module, interp, payload.state, payload.signature)
    net.accounts = dict(task.accounts)
    net.nonces.records = private_records(task.nonces)
    return net


def run_lane_task(task: LaneTask) -> LaneResult:
    """Execute one lane in complete isolation.

    Builds a private Network holding only copies of the task snapshot
    and runs the ordinary sequential ``_run_lane`` over the queue, so
    the execution semantics are *the same code* as the serial
    executor's — parallelism changes scheduling, never meaning.
    """
    from ..obs.metrics import MetricsRegistry

    if task.worker_fault is not None:
        action, seconds = task.worker_fault
        if action == "kill-process":
            os._exit(13)
        if action == "kill-thread":
            raise WorkerKilled(
                f"lane {task.lane}: injected worker kill")
        time.sleep(seconds)   # "hang" (past deadline) / "slow" (within)

    registry = MetricsRegistry() if task.metrics_enabled else None
    net = instantiate_lane_network(task, registry)

    mb, local_states, touched, deferred = net._run_lane(
        task.lane, task.queue, task.gas_limit)

    escapes = _footprint_escapes(task, touched)
    if escapes:
        # The lane ran against an incomplete slice, so nothing it
        # produced can be trusted.  Report the escapes; the coordinator
        # discards every lane result and redoes the epoch serially.
        return LaneResult(
            lane=task.lane, microblock=mb, deltas=[], balance_deltas={},
            deferred=[], account_deltas={}, nonce_used_added={},
            nonce_last_global={}, nonce_last_lane={},
            footprint_escapes=escapes)

    deltas: list[StateDelta] = []
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
    for addr, row in net.accounts.items():
        pre = task.accounts.get(addr)
        if row is not pre:
            delta = account_delta(pre, row, net.n_shards)
            if delta[0] or delta[1] or pre is None:
                account_deltas[addr] = delta
    nonce_used_added, nonce_last_global, nonce_last_lane = nonce_effects(
        task.lane, {s: (task.nonces.get(s), row)
                    for s, row in net.nonces.records.items()
                    if row != task.nonces.get(s)})

    return LaneResult(
        lane=task.lane, microblock=mb, deltas=deltas,
        balance_deltas=balance_deltas, deferred=deferred,
        account_deltas=account_deltas,
        nonce_used_added=nonce_used_added,
        nonce_last_global=nonce_last_global,
        nonce_last_lane=nonce_last_lane,
        metrics=registry.snapshot() if registry is not None else None,
    )


def account_delta(pre: tuple | None, post: tuple | None,
                  n_shards: int) -> tuple[int, dict[int, int]]:
    """An account's (balance delta, per-lane portion deltas) between
    two rows (None: no account)."""
    pre = pre or (0,) * (n_shards + 2)
    post = post or (0,) * (n_shards + 2)
    return post[0] - pre[0], {
        lane: d for lane in (*range(n_shards), -1)
        if (d := (post[portion_slot(lane)] or 0)
            - (pre[portion_slot(lane)] or 0))}


def nonce_effects(lane: int, moved: dict) -> tuple[dict, dict, dict]:
    """What a lane did to the nonce records it moved — sender ->
    (row before, row after) — as ``LaneResult``'s three nonce maps:
    the nonces it used, and the high-water marks it raised."""
    used_added, last_global, last_lane = {}, {}, {}
    floor = floor_slot(lane)
    for sender, (pre, post) in moved.items():
        run, gaps = (pre[-2], pre[-1] or ()) if pre else (0, ())
        added = {n for n in (*range(run + 1, post[-2] + 1),
                             *(post[-1] or ())) if n not in gaps}
        if added:
            used_added[sender] = added
        if post[0] is not None and post[0] != (pre and pre[0]):
            last_global[sender] = post[0]
        if post[floor] is not None and post[floor] != (pre and pre[floor]):
            last_lane[sender] = post[floor]
    return used_added, last_global, last_lane


# --------------------------------------------------------------------------
# Scheduling (main process).
# --------------------------------------------------------------------------

def run_lanes(net, lanes: list[tuple[int, list[Transaction]]],
              gas_limit: int, strategy: str
              ) -> dict[int, LaneResult] | None:
    """Run the given (shard, queue) lanes under the chosen executor.

    Dispatch is delegated to the network's persistent lane supervisor
    (:mod:`repro.chain.supervise`): per-lane futures under a deadline,
    a hung-worker watchdog, per-lane retry with backoff, and the
    executor circuit-breaker ladder.  A failing lane is retried or
    re-executed serially *inside* the supervisor while its siblings
    keep their results; ``None`` comes back only when the whole epoch
    must fall back to the caller's serial loop (breaker ladder
    bottomed out, or an unrecoverable coordinator-side error) — and
    since nothing has been mutated yet, that fallback is transparent
    and the results are identical either way.
    """
    return net.supervisor.run(net, lanes, gas_limit, strategy)
