"""The sharded network simulator (Fig. 10).

A :class:`Network` holds lookup-node dispatch, N shards, and the DS
committee.  Every transaction is *really executed* through the Scilla
interpreter; the simulator contributes the things the paper's EC2
testbed provided physically: parallel shard lanes, per-epoch gas
limits, the FSD merge, and a wall-clock cost model.

Epoch processing follows the protocol: shards execute their assigned
transactions sequentially against the epoch-start state; each produces
a MicroBlock plus StateDeltas; the DS committee three-way-merges the
deltas, then executes the potentially-conflicting transactions routed
to it; the FinalBlock's state becomes the next epoch's start state.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import (
    asdict, dataclass, field as dc_field, replace as dc_replace,
)
from operator import attrgetter

from ..core.joins import JoinKind
from ..core.pipeline import run_pipeline_cached
from ..obs.metrics import (
    GAS_BUCKETS, MS_BUCKETS, NS_BUCKETS, NULL_REGISTRY,
)
from ..obs.tracing import NULL_TRACER
from ..core.signature import ShardingSignature
from ..scilla.ast import Module
from ..scilla.compile import STATS as COMPILE_STATS
from ..scilla.errors import ExecError
from ..scilla.interpreter import Interpreter, TxContext
from ..scilla.backend import PagedDict, resolve_backend
from ..scilla.state import ContractState, StateJournal
from ..scilla import values as scilla_values
from ..scilla.values import ByStrVal, IntVal, MapVal, Value
from ..scilla import types as ty
from .blocks import (
    BODY_WINDOW, BlockHeader, FinalBlock, MicroBlock, Receipt,
)
from .consensus import DEFAULT_COST_MODEL, CostModel
from .delta import StateDelta, compute_delta, merge_deltas
from .dispatch import DS, REASON_KINDS, DeployedSignature, Dispatcher, _pad
from .faults import FaultInjector, FaultPlan
from .lanes import LaneResult, run_lanes
from .mempool import PoolEntry
from .recovery import (
    ChangeLedger, DeltaViolation, NetworkCheckpoint, fingerprint_digest,
    validate_delta,
)
from .supervise import (
    BoundedLog, LaneFailureKind, LaneSupervisor, SuperviseConfig,
)
from .serialization import (
    TransactionRowError, signature_from_obj, signature_to_obj,
    transaction_from_obj, transaction_to_obj, value_from_json,
    value_to_json,
)
from .transaction import (
    NonceTracker, Transaction, charged, credited, funded_row, portion_slot,
)
from .wal import WALError, WriteAheadLog

PAYMENT_GAS = 50
_MAX_AMOUNT = ty.int_bounds(ty.UINT128)[1]
_ENTRY_KEY = attrgetter("key")
FUNDING = 10**12    # what a created account holds unless told otherwise

# Lane executor strategies for Network.process_epoch.  "serial" is the
# reference implementation; "thread"/"process" execute independent
# shard lanes concurrently through repro.chain.lanes with results
# merged in deterministic shard order — observationally identical to
# serial (tests/test_parallel_equivalence.py is the differential
# oracle).  The default comes from the REPRO_EXECUTOR env var so a
# whole test run can be pointed at a parallel path.
EXECUTOR_STRATEGIES = ("serial", "thread", "process")


@dataclass
class DeployedContract:
    address: str
    module: Module
    interpreter: Interpreter
    state: ContractState
    signature: ShardingSignature | None = None
    # Original source text; lets the process-pool lane executor ship
    # compact text (re-parsed once per worker) instead of pickled ASTs.
    source: str = ""
    # transition -> tuple of PseudoFields (reads ∪ writes from the raw
    # analysis summaries), or None for an unsummarisable (⊤)
    # transition.  None for the whole contract when deployed without a
    # signature.  Lane payload slicing ships only these components
    # (repro.chain.lanes).
    footprints: dict[str, tuple | None] | None = None

    @property
    def joins(self) -> dict[str, JoinKind]:
        return self.signature.joins if self.signature else {}


@dataclass
class BacklogEntry:
    """A gas-deferred transaction waiting in the mempool for retry."""

    tx: Transaction
    retries: int = 0
    # Earliest epoch at which the transaction is resubmitted (backoff).
    not_before: int = 0


@dataclass
class EpochStats:
    dispatched: int = 0
    committed: int = 0
    failed: int = 0
    deferred: int = 0
    to_ds: int = 0
    per_shard: dict[int, int] = dc_field(default_factory=dict)
    # Why: dispatch reason class (dispatch.REASON_KINDS) -> count.
    reasons: dict[str, int] = dc_field(default_factory=dict)
    # Offered-load accounting for mempool-drained (service) epochs:
    # ``offered`` counts only this epoch's fresh submissions;
    # ``carried_in`` the backlog retries prepended to them.  Their sum
    # (minus injected churn) is ``dispatched``.
    offered: int = 0
    carried_in: int = 0
    # Recovery bookkeeping (see repro.chain.recovery).
    recovered: int = 0        # txns from excluded lanes rerouted to DS
    reexecuted: int = 0       # of those, actually executed this epoch
    rejected_deltas: int = 0  # byzantine StateDeltas the DS refused
    view_changes: int = 0     # epoch attempts discarded to a rollback
    dead_lettered: int = 0    # txns dropped after max_retries


class _NetworkMeters:
    """Every instrument the network records, created once per network.

    Counters without a flag are *deterministic*: their values are a
    pure function of the submitted workload, identical across the
    serial/thread/process executors and across a crash + resume
    (``tests/test_telemetry_differential.py`` enforces this).
    Executor-strategy and WAL counters legitimately vary between
    otherwise-identical runs, and every duration histogram is
    wall-clock, so those carry ``deterministic=False``.

    With a disabled registry every attribute is the shared null
    instrument — recording is an empty call.
    """

    def __init__(self, m):
        self.epochs = m.counter("net.epochs")
        self.tx_dispatched = m.counter("net.tx.dispatched")
        self.tx_committed = m.counter("net.tx.committed")
        self.tx_failed = m.counter("net.tx.failed")
        self.tx_deferred = m.counter("net.tx.deferred")
        self.tx_carried = m.counter("net.tx.carried")
        self.tx_to_ds = m.counter("net.tx.to_ds")
        self.dispatch_reasons = {k: m.counter(f"net.dispatch.reason.{k}")
                                 for k in REASON_KINDS}
        self.tx_recovered = m.counter("net.tx.recovered")
        self.tx_reexecuted = m.counter("net.tx.reexecuted")
        self.tx_dead_lettered = m.counter("net.tx.dead_lettered")
        self.view_changes = m.counter("net.view_changes")
        self.rejected_deltas = m.counter("net.rejected_deltas")
        self.merge_deltas = m.counter("net.merge.deltas")
        self.merge_locations = m.counter("net.merge.locations")
        self.deploys = m.counter("net.deploy.count")
        # Hit/miss attribution reads the process-wide GLOBAL_CACHE,
        # whose warmth a resumed process does not share — a replayed
        # deploy can miss where the original hit.
        self.deploy_cache_hits = m.counter("net.deploy.cache_hits",
                                           deterministic=False)
        self.deploy_cache_misses = m.counter("net.deploy.cache_misses",
                                             deterministic=False)
        self.lane_tx_executed = m.counter("lane.tx.executed")
        self.lane_tx_ok = m.counter("lane.tx.ok")
        self.lane_tx_failed = m.counter("lane.tx.failed")
        self.lane_gas = m.counter("lane.gas.used")
        self.lane_gas_per_tx = m.histogram("lane.gas_per_tx", GAS_BUCKETS)
        self.parallel_epochs = m.counter("net.executor.parallel_epochs",
                                         deterministic=False)
        self.executor_fallbacks = m.counter("net.executor.fallbacks",
                                            deterministic=False)
        self.wal_appends = m.counter("net.wal.appends",
                                     deterministic=False)
        self.wal_barriers = m.counter("net.wal.barriers",
                                      deterministic=False)
        self.backlog_size = m.gauge("net.backlog.size")
        self.dead_letter_size = m.gauge("net.dead_letter.size")
        self.epoch_ns = m.histogram("net.epoch_ns", NS_BUCKETS,
                                    deterministic=False)
        self.lane_exec_ns = m.histogram("lane.exec_ns", NS_BUCKETS,
                                        deterministic=False)
        self.merge_ns = m.histogram("net.merge_ns", NS_BUCKETS,
                                    deterministic=False)
        self.wal_append_ns = m.histogram("net.wal.append_ns", NS_BUCKETS,
                                         deterministic=False)
        self.wal_fsync_ns = m.histogram("net.wal.fsync_ns", NS_BUCKETS,
                                        deterministic=False)
        self.deploy_ns = m.histogram("net.deploy_ns", NS_BUCKETS,
                                     deterministic=False)
        # O(touched) durability (recovery.ChangeLedger).  The change
        # set is a function of the workload; replay takes no snapshots
        # and a resume recomputes accumulators, so the rest is not.
        self.commit_changed = m.counter("net.commit.changed_locations")
        self.commit_digest_ns = m.histogram(
            "net.commit.digest_ns", NS_BUCKETS, deterministic=False)
        self.digest_full_recomputes = m.counter(
            "net.digest.full_recomputes", deterministic=False)
        (self.snapshot_bases, self.snapshot_deltas, self.snapshot_rows,
         self.snapshot_bytes) = (
            m.counter(f"net.snapshot.{what}", deterministic=False)
            for what in ("bases", "deltas", "rows", "bytes"))
        self.snapshot_ns = m.histogram("net.snapshot_ns", NS_BUCKETS,
                                       deterministic=False)
        self.resume_skipped = m.gauge(
            "net.resume.skipped_restore_points", deterministic=False)
        # Compiled transitions (repro.scilla.compile), counted at
        # deploy from the source's shared unit: static properties of
        # the source, whichever process later runs it.
        self.compile_units = m.counter("interp.compile.units")
        self.compile_delegated = m.counter("interp.compile.delegated_exprs")
        self.compile_did = {key: m.counter(f"interp.compile.{key}")
                            for key in COMPILE_STATS}
        self.compile_ns = m.histogram("interp.compile_ns", NS_BUCKETS,
                                      deterministic=False)
        # State-engine instruments (PR 5): copy-on-write and journal
        # activity varies with executor scheduling and checkpoint
        # lifetimes, payload shapes with the slicing toggle — all
        # non-deterministic by design.
        self.cow_copies = m.counter("state.cow.copies",
                                    deterministic=False)
        # Overlay folds (repro.scilla.values.OverlayDict): each is one
        # O(map) dict copy, so a fold storm shows here, not in a
        # profile.  Process-wide like state.cow.copies — folds inside
        # worker processes are not seen by the coordinator.
        self.overlay_folds = m.counter("state.overlay.folds",
                                       deterministic=False)
        self.overlay_folded_entries = m.counter(
            "state.overlay.folded_entries", deterministic=False)
        self.journal_depth = m.gauge("state.journal.depth",
                                     deterministic=False)
        self.checkpoint_take_ns = m.histogram(
            "net.checkpoint.take_ns", NS_BUCKETS, deterministic=False)
        self.checkpoint_restore_ns = m.histogram(
            "net.checkpoint.restore_ns", NS_BUCKETS, deterministic=False)
        # Journal entries a checkpoint held when it was released: the
        # size of the epoch's undo log (a journal that stopped
        # truncating shows as ever-growing observations).
        self.checkpoint_undo_entries = m.histogram(
            "net.checkpoint.undo_entries",
            (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000),
            deterministic=False)
        self.payload_states_full = m.counter("lane.payload.states_full",
                                             deterministic=False)
        self.payload_states_sliced = m.counter(
            "lane.payload.states_sliced", deterministic=False)
        self.payload_states_stub = m.counter("lane.payload.states_stub",
                                             deterministic=False)
        self.payload_entries = m.counter("lane.payload.entries",
                                         deterministic=False)
        self.payload_bytes = m.counter("lane.payload.bytes",
                                       deterministic=False)
        # Lane supervision (repro.chain.supervise): deadlines, retries,
        # breakers and quarantine respond to real infrastructure
        # failures and wall-clock scheduling, so every instrument is
        # non-deterministic by design.
        self.lane_failures = {
            kind: m.counter(f"supervise.failures.{kind.value}",
                            deterministic=False)
            for kind in LaneFailureKind}
        self.lane_retries = m.counter("supervise.lane_retries",
                                      deterministic=False)
        self.lane_rescues = m.counter("supervise.lane_rescues",
                                      deterministic=False)
        self.pool_rebuilds = m.counter("supervise.pool_rebuilds",
                                       deterministic=False)
        self.slow_lanes = m.counter("supervise.slow_lanes",
                                    deterministic=False)
        self.degraded_epochs = m.counter("supervise.degraded_epochs",
                                         deterministic=False)
        self.supervise_backoff_ms = m.histogram(
            "supervise.backoff_ms", MS_BUCKETS, deterministic=False)
        self.supervise_attempts = m.histogram(
            "supervise.attempts_per_lane", (1, 2, 3, 4, 6, 8),
            deterministic=False)
        self.breaker_trips = m.counter("supervise.breaker.trips",
                                       deterministic=False)
        self.breaker_probes = m.counter("supervise.breaker.probes",
                                        deterministic=False)
        self.breaker_recoveries = m.counter(
            "supervise.breaker.recoveries", deterministic=False)
        # 0 = closed, 1 = half-open, 2 = open (supervise.BREAKER_GAUGE).
        self.breaker_state = {
            strategy: m.gauge(f"supervise.breaker.{strategy}_state",
                              deterministic=False)
            for strategy in ("process", "thread")}
        self.quarantine_size = m.gauge("supervise.quarantine.size",
                                       deterministic=False)
        self.quarantine_additions = m.counter(
            "supervise.quarantine.additions", deterministic=False)
        self.fallback_dropped = m.gauge("net.executor.fallback_dropped",
                                        deterministic=False)
        # Resident shard workers (repro.chain.resident) and epoch
        # pipelining: installs/syncs respond to worker lifecycle and
        # wall-clock overlap, so every instrument is non-deterministic.
        self.resident_installs = m.counter("lane.resident.installs",
                                           deterministic=False)
        self.resident_reinstalls = m.counter("lane.resident.reinstalls",
                                             deterministic=False)
        self.resident_sync_deltas = m.counter("lane.resident.sync_deltas",
                                              deterministic=False)
        self.resident_sync_pushes = m.counter("lane.resident.sync_pushes",
                                              deterministic=False)
        self.resident_install_bytes = m.counter(
            "lane.resident.install_bytes", deterministic=False)
        self.resident_sync_bytes = m.counter("lane.resident.sync_bytes",
                                             deterministic=False)
        self.resident_stale = m.counter("lane.resident.stale",
                                        deterministic=False)
        self.pipeline_overlap_ns = m.histogram(
            "pipeline.overlap_ns", NS_BUCKETS, deterministic=False)
        # Out-of-core state backend (repro.scilla.backend): fault,
        # eviction and writeback counts follow cache-residency history
        # (executor scheduling, payload shapes, prior epochs), and the
        # ns totals follow the disk — all non-deterministic by design,
        # so the deterministic-telemetry differential contract is
        # untouched by paging (docs/STATE.md).
        self.backend_faults = m.counter("state.backend.faults",
                                        deterministic=False)
        self.backend_evictions = m.counter("state.backend.evictions",
                                           deterministic=False)
        self.backend_writebacks = m.counter("state.backend.writebacks",
                                            deterministic=False)
        self.backend_prefetch_requested = m.counter(
            "state.backend.prefetch.requested", deterministic=False)
        self.backend_prefetch_hits = m.counter(
            "state.backend.prefetch.hits", deterministic=False)
        self.backend_read_ns = m.counter("state.backend.page_read_ns",
                                         deterministic=False)
        self.backend_write_ns = m.counter("state.backend.page_write_ns",
                                          deterministic=False)


@dataclass
class _EpochAttempt:
    """Everything one attempt at an epoch produced (pre-finalisation)."""

    stats: EpochStats
    microblocks: list[MicroBlock]
    ds_block: MicroBlock
    merged_locations: int
    shard_exec_times: list[float]
    deferred: list[tuple[int, Transaction]]
    newly_faulty: dict[int, str]
    rejected_deltas: int
    # The DS lane's successful write logs per contract, and every
    # touched contract's pre-epoch state (durable networks only): with
    # the microblocks' deltas, the sources of the epoch's change set.
    ds_logs: dict = dc_field(default_factory=dict)
    pre_states: dict | None = None


class Network:
    """A sharded blockchain with optional CoSplit-aware dispatch."""

    def __init__(self, n_shards: int, shard_size: int = 5,
                 ds_size: int = 10, use_signatures: bool = True,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 strict_nonces: bool = False,
                 overflow_guard: bool = False,
                 carry_backlog: bool = False,
                 fault_plan: FaultPlan | None = None,
                 max_retries: int = 16,
                 retry_backoff: float = 1.0,
                 executor: str | None = None,
                 lane_workers: int | None = None,
                 data_dir: str | None = None,
                 fsync: str = "commit",
                 snapshot_every: int = 8,
                 keep_snapshots: int = 3,
                 crash_at_barrier: int | None = None,
                 crash_at_append: int | None = None,
                 slice_payloads: bool = True,
                 lane_deadline_s: float | None = None,
                 supervise: SuperviseConfig | None = None,
                 resident: bool = True,
                 state_backend=None,
                 clock=None,
                 metrics=None,
                 tracer=None):
        self.n_shards = n_shards
        self.shard_size = shard_size
        self.ds_size = ds_size
        self.use_signatures = use_signatures
        self.cost = cost_model
        self.overflow_guard = overflow_guard
        # Footprint-sliced lane payloads (repro.chain.lanes): ship only
        # the state components the dispatched transitions' signatures
        # name.  A runtime choice like the executor strategy — results
        # are byte-identical either way (tests/test_slicing_differential
        # is the oracle) — so it is not part of the durable config.
        self.slice_payloads = slice_payloads
        # Network-wide undo journal: every write to a globally-visible
        # contract state, and every account and nonce move, records its
        # reversal here, making checkpoints O(1) marks
        # (repro.chain.recovery).
        self.journal = StateJournal()
        self._state_counters_seen = self._state_counters()
        self.dispatcher = Dispatcher(n_shards, use_signatures)
        # address -> account row (repro.chain.transaction).
        self.accounts: dict[str, tuple] = {}
        self.contracts: dict[str, DeployedContract] = {}
        self.nonces = NonceTracker(strict=strict_nonces, n_shards=n_shards)
        self.nonces.journal = self.journal
        self.epoch = 0
        # One entry per epoch, for reporting: the newest BODY_WINDOW
        # are the FinalBlocks process_epoch returned, older ones their
        # headers — receipts and deltas do not outlive their epoch here.
        self.blocks: list[BlockHeader] = []
        # Opt-in mempool: transactions deferred by a lane's gas limit
        # are retried in later epochs instead of being dropped, with
        # per-transaction backoff (retry_backoff ** retries epochs,
        # rounded) and a dead-letter list after max_retries.
        self.carry_backlog = carry_backlog
        self.backlog: list[BacklogEntry] = []
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.dead_letter: list[Transaction] = []
        # Service mode (repro.chain.service): the attached admission
        # mempool, if any — snapshots embed its pending entries so
        # resume restores the queue.  ``restored_mempool`` collects
        # pending entries recovered from a snapshot + WAL replay
        # (tx_id -> PoolEntry, insertion-ordered); a ServiceLoop
        # adopting this network drains it.
        self.mempool = None
        self.restored_mempool: dict[int, PoolEntry] = {}
        # Senders ``auto_fund`` created whose WAL input is not yet
        # logged: they go, as one record, ahead of the next one.
        self._unlogged_accounts: list[str] = []
        # Modeled seconds the service loop spent on ticks that
        # processed no epoch (idle or stalled), per WAL tag — charged
        # to average_tps so partial service batches cannot inflate it.
        self.idle_seconds: dict[str, float] = {}
        # Optional deterministic fault injection (repro.chain.faults).
        self.injector = FaultInjector(fault_plan) if fault_plan else None
        # Shard-lane execution strategy (see EXECUTOR_STRATEGIES).
        if executor is None:
            executor = os.environ.get("REPRO_EXECUTOR", "serial")
        if executor not in EXECUTOR_STRATEGIES:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of "
                f"{EXECUTOR_STRATEGIES}")
        self.executor = executor
        self.lane_workers = lane_workers
        if lane_workers is None and executor != "serial":
            # A malformed REPRO_WORKERS raises here, at construction,
            # not inside the supervisor's catch-all at the first epoch.
            from ..core.parallel import default_workers
            default_workers()
        # Resident shard workers (repro.chain.resident): long-lived
        # per-lane worker replicas holding installed shard state, fed
        # only transactions + merge-delta syncs per epoch.  Like the
        # executor and slicing, a pure runtime choice — results are
        # byte-identical either way (tests/test_resident_differential
        # is the oracle) — on by default.
        self.resident = resident
        self._resident_tracker = None
        if resident and self.executor != "serial":
            from .resident import ResidentTracker
            self._resident_tracker = ResidentTracker()
        # Lane supervision (repro.chain.supervise): per-lane deadlines,
        # hung-worker watchdog, retry with backoff, and the executor
        # circuit-breaker ladder.  The deadline defaults to the cost
        # model's consensus timeout — the same bound after which the
        # protocol declares a MicroBlock missing — unless
        # ``lane_deadline_s`` overrides it.  Like the executor itself
        # this is a runtime choice, not durable config.
        if supervise is None:
            supervise = SuperviseConfig(
                deadline_s=(lane_deadline_s if lane_deadline_s is not None
                            else cost_model.microblock_timeout_s))
        elif lane_deadline_s is not None:
            supervise = dc_replace(supervise,
                                   deadline_s=lane_deadline_s)
        self.supervisor = LaneSupervisor(supervise, clock=clock)
        # Observability (repro.obs).  Off by default: the null registry
        # and tracer answer every record with an empty call, so the
        # simulator's hot paths stay uninstrumented-cheap.
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._meters = _NetworkMeters(self.metrics)
        # (lane, source-hash) -> (module, interpreter), reused across
        # epochs by the thread executor so each lane keeps a private
        # interpreter (run_transition installs a per-call gas hook).
        self._runtime_cache: dict = {}
        # Epochs where a parallel executor was requested but the epoch
        # ran serially (strict nonces, cross-lane nonce collision,
        # fewer than two runnable lanes, or a pool failure).
        self.executor_fallbacks = 0
        # One detail entry per pool failure / supervision event, so a
        # silent serial fallback stays observable after the fact.
        # Bounded: appends past capacity drop the oldest entry and
        # count it (the net.executor.fallback_dropped gauge).
        self.executor_fallback_details: BoundedLog = BoundedLog()
        # How many epochs committed under each caller-supplied WAL tag
        # (the durable harness uses this to fast-forward generators).
        self.epoch_tags: dict[str, int] = {}
        # Deltas in the restore-point chain Network.resume restored
        # from (the files it rejected, and why: ``store.skipped``).
        self.restored_deltas = 0
        # Free-form durable annotations (repro.eval.chaos marks setup
        # completion here); replicated into snapshots and the WAL.
        self.wal_notes: list = []
        # Durability (repro.chain.wal / repro.chain.store).  Off by
        # default: with data_dir=None nothing below ever touches disk.
        self.wal: WriteAheadLog | None = None
        self.store = None
        self.snapshot_every = snapshot_every
        self._replaying = False
        self._commits_since_snapshot = 0
        # Accumulators + dirty set; kept while durable or replaying.
        self._ledger: ChangeLedger | None = None
        if data_dir is not None:
            from .store import SnapshotStore
            wal = WriteAheadLog(data_dir, fsync=fsync,
                                crash_at_barrier=crash_at_barrier,
                                crash_at_append=crash_at_append)
            store = SnapshotStore(data_dir, keep=keep_snapshots)
            if wal.recovered or store.paths():
                wal.close()
                raise WALError(
                    f"{data_dir} already holds a log or snapshots; "
                    f"use Network.resume to continue it")
            self.wal = wal
            self.store = store
            self._ledger = ChangeLedger(self)
            self._wal_append("init", self._config_obj(), barrier=True)
        # Out-of-core state (repro.scilla.backend): page cold map
        # entries to a pluggable row store, faulting them back on
        # demand.  Like the executor strategy a pure runtime choice —
        # results are byte-identical with or without a backend (the
        # slicing/resident differentials are the oracle) —
        # defaulting off, opt-in via REPRO_STATE_BACKEND.  Created
        # after the durability attach so a WALError on a reused
        # data_dir never clobbers an existing backend file.
        self.state_backend = resolve_backend(state_backend, data_dir)
        self._backend_stats_seen = (
            self.state_backend.stats.snapshot()
            if self.state_backend is not None else None)

    @staticmethod
    def _state_counters() -> tuple[int, int, int]:
        """The state engine's process-wide counters, as drained into
        ``state.cow.copies`` / ``state.overlay.*`` at each commit."""
        return (scilla_values.COW_COPIES, scilla_values.OVERLAY_FOLDS,
                scilla_values.OVERLAY_FOLDED_ENTRIES)

    # -- setup ----------------------------------------------------------------

    def create_account(self, address: str, balance: int = FUNDING) -> None:
        self._wal_append("account", {"address": address,
                                     "balance": balance})
        if self._ledger is not None:
            self._ledger.accounts.add(_pad(address))
        self._create_account(address, balance)

    def auto_fund(self, address: str) -> None:
        """:meth:`create_account` at its default balance for a sender
        the service loop meets at admission.  The account exists at
        once; its WAL input waits for the next record or restore point
        and goes ahead of it, one ``accounts`` record for every sender
        funded since the last — ahead of the barrier that makes the
        admission itself durable, which is all ``create_account``
        promises too."""
        if self.wal is not None:
            self._unlogged_accounts.append(address)
            self._ledger.accounts.add(_pad(address))
        self._create_account(address, FUNDING)

    def _log_accounts(self) -> None:
        addresses, self._unlogged_accounts = self._unlogged_accounts, []
        self._wal_append("accounts", {"balance": FUNDING,
                                      "addresses": addresses})

    def _create_account(self, address: str, balance: int) -> tuple:
        address = _pad(address)
        self.journal.record_row(self.accounts, address,
                                self.accounts.get(address))
        row = self.accounts[address] = funded_row(
            balance, self.n_shards, self.dispatcher.home_shard(address))
        if self._resident_tracker is not None:
            self._resident_tracker.touch_account(address)
        return row

    def _account_at(self, address: str) -> tuple:
        """The account row at a canonical (already padded) address."""
        row = self.accounts.get(address)
        if row is None:
            # Lazily-created zero-balance accounts are a deterministic
            # consequence of execution; they are not WAL inputs.
            return self._create_account(address, balance=0)
        # Every account move goes through here (apply_effects, serial
        # lanes, DS lane, payouts): the handout is where the journal
        # takes the row's pre-image for checkpoint rollback, and it
        # over-approximates the epoch's touched-account set for the
        # resident replicas.
        self.journal.record_row(self.accounts, address, row)
        if self._resident_tracker is not None:
            self._resident_tracker.touch_account(address)
        return row

    def _charge(self, address: str, lane: int, amount: int) -> bool:
        """Take ``amount`` from the account's ``lane`` portion; False,
        and nothing moved, if that portion or the balance is short."""
        row = charged(self._account_at(address), lane, amount)
        if row is not None:
            self.accounts[address] = row
        return row is not None

    def _credit(self, address: str, lane: int, amount: int) -> None:
        self.accounts[address] = credited(self._account_at(address), lane,
                                          amount)

    def balance(self, address: str, lane: int | None = None) -> int | None:
        """An account's balance — or, given ``lane``, the portion of it
        held for that lane (None: no such portion).  An address with no
        account reads 0 / None; reading creates nothing."""
        row = self.accounts.get(_pad(address)) or (
            0, *[None] * (self.n_shards + 1))
        return row[0 if lane is None else portion_slot(lane)]

    def deploy(self, source: str, address: str,
               params: dict[str, Value],
               sharded_transitions: tuple[str, ...] | None = None,
               weak_reads="auto", balance: int = 0,
               allow_commutativity: bool = True,
               proposed_signature: ShardingSignature | None = None
               ) -> DeployedContract:
        """Deploy a contract, running the miner-side pipeline.

        ``sharded_transitions`` is the developer's selection; ``None``
        deploys without a sharding signature (the baseline mode).
        ``proposed_signature`` is the signature submitted alongside the
        contract (Sec. 4.3): miners re-derive it from the source and
        reject the deployment on any mismatch.
        """
        self._wal_append("deploy", {
            "source": source, "address": address,
            "params": {k: value_to_json(v) for k, v in params.items()},
            "sharded_transitions": (list(sharded_transitions)
                                    if sharded_transitions is not None
                                    else None),
            "weak_reads": (weak_reads if isinstance(weak_reads, str)
                           else sorted(weak_reads)),
            "balance": balance,
            "allow_commutativity": allow_commutativity,
            "proposed_signature": (signature_to_obj(proposed_signature)
                                   if proposed_signature is not None
                                   else None),
        }, barrier=True)
        address = _pad(address)
        # Content-addressed: redeployments of an already-analysed
        # source (and miner-side validations) skip the pipeline.  The
        # hit/miss delta is attributed to this network's own telemetry
        # (deploys always run on the coordinating thread, so the delta
        # is this call's).
        from ..core.cache import GLOBAL_CACHE
        meters = self._meters
        meters.deploys.inc()
        hits0, misses0 = GLOBAL_CACHE.stats.hits, GLOBAL_CACHE.stats.misses
        t0 = time.perf_counter_ns() if self.metrics.enabled else 0
        with self.tracer.span(f"deploy {address[:10]}"):
            result = run_pipeline_cached(source, address)
        if self.metrics.enabled:
            meters.deploy_ns.observe(time.perf_counter_ns() - t0)
        meters.deploy_cache_hits.inc(GLOBAL_CACHE.stats.hits - hits0)
        meters.deploy_cache_misses.inc(GLOBAL_CACHE.stats.misses - misses0)
        interpreter = Interpreter(result.module)
        if self.metrics.enabled:
            # Unmetered, the unit is built by the first call instead.
            t0 = time.perf_counter_ns()
            unit = interpreter.unit
            meters.compile_ns.observe(time.perf_counter_ns() - t0)
            meters.compile_units.inc(unit.units)
            meters.compile_delegated.inc(unit.delegated)
            for key, n in unit.totals.items():
                meters.compile_did[key].inc(n)
        state = interpreter.deploy(address, params, balance)
        signature = None
        if proposed_signature is not None and self.use_signatures:
            from ..core.signature import signatures_equal
            recomputed = result.signature(
                tuple(sorted(proposed_signature.selected)),
                weak_reads, allow_commutativity)
            if not signatures_equal(recomputed, proposed_signature):
                raise ValueError(
                    "proposed sharding signature failed miner validation")
            signature = recomputed
        elif sharded_transitions is not None and self.use_signatures:
            signature = result.signature(tuple(sorted(sharded_transitions)),
                                         weak_reads, allow_commutativity)
        state.journal = self.journal
        self._adopt_state(state)
        footprints = None
        if signature is not None:
            from .lanes import transition_footprints
            footprints = transition_footprints(result.summaries)
        deployed = DeployedContract(address, result.module, interpreter,
                                    state, signature, source, footprints)
        self.contracts[address] = deployed
        if self._ledger is not None:
            # A structure change, as for resident replicas: no delta
            # can express it, so the next restore point is a base.
            self._ledger.add_contract(state)
        if self._resident_tracker is not None:
            # No sync can express a new contract: resident replicas
            # reinstall from scratch at the next dispatch.
            self._resident_tracker.mark_structure_change()
        self.dispatcher.register_contract(DeployedSignature(
            address, signature, dict(state.immutables)))
        return deployed

    # -- out-of-core state (repro.scilla.backend) -------------------------------

    def _adopt_state(self, state: ContractState) -> None:
        """Move a freshly built state's top-level map fields into the
        paged backend.  No-op without a backend; maps that already
        page are left alone.  A field initialiser may have written
        through a fork (``builtin put`` on ``Emp``), leaving an overlay
        or a still-shared dict: those are adopted too, so no map is
        left resident by accident."""
        backend = self.state_backend
        if backend is None:
            return
        for value in state.fields.values():
            if not isinstance(value, MapVal) \
                    or isinstance(value.entries, PagedDict):
                continue
            entries = value.entries
            if value._cow or not isinstance(entries, dict):
                # Other holders can reach these children: pin forks.
                entries = {k: (v.copy() if isinstance(v, MapVal) else v)
                           for k, v in entries.items()}
            value.entries = PagedDict.adopt(backend, entries)
            value._cow = False

    def _flush_backend(self) -> None:
        """Write dirty overlay rows back and trim resident sets.

        Called only at epoch commit with an empty journal: with no
        retained undo entry referencing any paged state, no rollback
        can cross the writeback, so overlay and backend can never
        disagree about what a restore should produce."""
        for contract in self.contracts.values():
            for value in contract.state.fields.values():
                entries = getattr(value, "entries", None)
                if isinstance(entries, PagedDict):
                    entries.flush()

    def _drain_backend_stats(self) -> None:
        backend = self.state_backend
        if backend is None:
            return
        now = backend.stats.snapshot()
        seen = self._backend_stats_seen
        m = self._meters
        m.backend_faults.inc(now[0] - seen[0])
        m.backend_evictions.inc(now[1] - seen[1])
        m.backend_writebacks.inc(now[2] - seen[2])
        m.backend_prefetch_requested.inc(now[3] - seen[3])
        m.backend_prefetch_hits.inc(now[4] - seen[4])
        m.backend_read_ns.inc(now[5] - seen[5])
        m.backend_write_ns.inc(now[6] - seen[6])
        self._backend_stats_seen = now

    # -- durability (WAL + snapshots + resume) -----------------------------------

    def _wal_append(self, type: str, data, barrier: bool = False) -> None:
        if self.wal is None or self._replaying:
            return
        if self._unlogged_accounts:
            self._log_accounts()
        meters = self._meters
        if self.metrics.enabled:
            t0 = time.perf_counter_ns()
            self.wal.append(type, data)
            meters.wal_append_ns.observe(time.perf_counter_ns() - t0)
            if barrier:
                t1 = time.perf_counter_ns()
                self.wal.barrier()
                meters.wal_fsync_ns.observe(time.perf_counter_ns() - t1)
        else:
            self.wal.append(type, data)
            if barrier:
                self.wal.barrier()
        meters.wal_appends.inc()
        if barrier:
            meters.wal_barriers.inc()

    def wal_note(self, data) -> None:
        """Record a durable, application-level annotation (replayed on
        resume and carried through snapshots)."""
        self.wal_notes.append(data)
        self._wal_append("note", data, barrier=True)

    def snapshot(self) -> None:
        """Persist a restore point now — a base, or a delta against
        the previous one (``store.snapshot_network`` decides) — rotate
        the WAL, and drop the segments and restore points no retained
        one needs."""
        if self.wal is None or self.store is None:
            return
        if self._unlogged_accounts:     # the restore point holds them
            self._log_accounts()
        t0 = time.perf_counter_ns() if self.metrics.enabled else 0
        from .store import snapshot_network
        backend_obj = None
        if self.state_backend is not None and self.state_backend.external:
            # Sidecar first: the snapshot JSON names the sidecar file
            # and pins its digest, so a torn sidecar write can never be
            # adopted (resume verifies before trusting any row).
            backend_obj = self.store.save_backend(
                self.state_backend, epoch=self.epoch,
                wal_seq=self.wal.last_seq)
        obj = snapshot_network(self, wal_seq=self.wal.last_seq,
                               backend_obj=backend_obj)
        path = self.store.save(obj)
        is_base = "parent" not in obj
        # Paged state keeps writing bases (PagedMap references).
        self._ledger.restore_point_written(
            self.store.tip if backend_obj is None else None,
            obj["wal_seq"], obj["rows"], is_base)
        self.wal.rotate()
        self.store.compact()
        # Never past the oldest restore point resume could fall back to.
        self.wal.compact(keep_from_seq=self.store.wal_floor() + 1)
        self._commits_since_snapshot = 0
        meters = self._meters
        (meters.snapshot_bases if is_base else meters.snapshot_deltas).inc()
        meters.snapshot_rows.inc(obj["rows"])
        if self.metrics.enabled:
            meters.snapshot_bytes.inc(path.stat().st_size)
            meters.snapshot_ns.observe(time.perf_counter_ns() - t0)

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    def _config_obj(self):
        """The construction-time configuration, as logged in the WAL
        init record and embedded in snapshots.  Executor strategy and
        worker count are runtime choices, not configuration — resume
        may pick different ones without affecting replay."""
        return {
            "n_shards": self.n_shards,
            "shard_size": self.shard_size,
            "ds_size": self.ds_size,
            "use_signatures": self.use_signatures,
            "cost_model": asdict(self.cost),
            "strict_nonces": self.nonces.strict,
            "overflow_guard": self.overflow_guard,
            "carry_backlog": self.carry_backlog,
            "fault_plan": (self.injector.plan.to_obj()
                           if self.injector is not None else None),
            "max_retries": self.max_retries,
            "retry_backoff": self.retry_backoff,
        }

    @classmethod
    def _from_config(cls, config, executor: str | None = None,
                     lane_workers: int | None = None,
                     state_backend=None,
                     metrics=None, tracer=None) -> "Network":
        return cls(
            state_backend=state_backend,
            n_shards=config["n_shards"],
            shard_size=config["shard_size"],
            ds_size=config["ds_size"],
            use_signatures=config["use_signatures"],
            cost_model=CostModel(**config["cost_model"]),
            strict_nonces=config["strict_nonces"],
            overflow_guard=config["overflow_guard"],
            carry_backlog=config["carry_backlog"],
            fault_plan=(FaultPlan.from_obj(config["fault_plan"])
                        if config["fault_plan"] is not None else None),
            max_retries=config["max_retries"],
            retry_backoff=config["retry_backoff"],
            executor=executor,
            lane_workers=lane_workers,
            metrics=metrics,
            tracer=tracer,
        )

    @classmethod
    def resume(cls, data_dir: str, executor: str | None = None,
               lane_workers: int | None = None, fsync: str = "commit",
               snapshot_every: int = 8, keep_snapshots: int = 3,
               crash_at_barrier: int | None = None,
               crash_at_append: int | None = None,
               metrics=None, tracer=None) -> "Network":
        """Recover a network from ``data_dir`` after a crash or clean
        shutdown.

        Opens the WAL (validating every record and physically
        truncating a torn tail), loads the newest restorable chain of
        restore points (a base, then each delta whose digest and parent
        link verify), deterministically re-executes the logged records
        past it, and re-attaches durability so the returned network
        keeps logging where the dead process stopped.  The accumulators
        behind the commit digest are checked against a from-scratch
        recomputation twice: as adopted from the chain, and after
        replay.
        """
        from .store import (
            SnapshotError, SnapshotStore, apply_delta_snapshot,
            network_from_snapshot,
        )
        wal = WriteAheadLog(data_dir, fsync=fsync,
                            crash_at_barrier=crash_at_barrier,
                            crash_at_append=crash_at_append)
        try:
            store = SnapshotStore(data_dir, keep=keep_snapshots)
            chain = store.load_chain()
            snap = chain[0] if chain else None
            # The live backend file is never trusted across a crash
            # (its pragmas skip fsync): restore_backend rebuilds it
            # from the snapshot's digest-verified sidecar, or fresh
            # when the snapshot predates (or never had) a backend —
            # replay then repopulates the rows deterministically.
            backend = store.restore_backend(snap, data_dir)
            if snap is not None:
                net = network_from_snapshot(snap, executor=executor,
                                            lane_workers=lane_workers,
                                            state_backend=backend,
                                            metrics=metrics,
                                            tracer=tracer)
                for delta in chain[1:]:
                    apply_delta_snapshot(net, delta)
                start_seq = chain[-1]["wal_seq"]
            else:
                if not wal.recovered or wal.recovered[0].type != "init":
                    raise WALError(
                        f"nothing to resume in {data_dir}: no valid "
                        f"snapshot and no init record")
                net = cls._from_config(wal.recovered[0].data,
                                       executor=executor,
                                       lane_workers=lane_workers,
                                       state_backend=backend,
                                       metrics=metrics,
                                       tracer=tracer)
                start_seq = wal.recovered[0].seq
            net._meters.resume_skipped.set(len(store.skipped))
            net.restored_deltas = max(len(chain) - 1, 0)
            ledger = net._ledger = ChangeLedger(net)
            net._meters.digest_full_recomputes.inc()
            embedded = chain[-1].get("accumulators") if chain else None
            if embedded is not None and embedded != ledger.accumulators(net):
                raise SnapshotError(
                    f"restore point at WAL sequence {start_seq} embeds "
                    f"accumulators its own state does not reproduce")
            net._replaying = True
            try:
                for record in wal.recovered:
                    if record.seq > start_seq:
                        net._replay_record(record)
            finally:
                net._replaying = False
            net._meters.digest_full_recomputes.inc()
            if ChangeLedger(net).fields != ledger.fields:
                raise WALError(
                    "incremental accumulators diverged from a "
                    "from-scratch recomputation during replay")
        except BaseException:
            wal.close()
            raise
        net.wal = wal
        net.store = store
        net.snapshot_every = snapshot_every
        return net

    def _replay_record(self, record) -> None:
        try:
            self._replay(record)
        except TransactionRowError as exc:
            raise WALError(
                f"log record {record.seq} ({record.type}) holds a "
                f"transaction in no form this build reads: {exc}"
            ) from exc

    def _replay(self, record) -> None:
        data = record.data
        if record.type == "account":
            self._create_account(data["address"], data["balance"])
        elif record.type == "accounts":
            for address in data["addresses"]:
                self._create_account(address, data["balance"])
        elif record.type == "deploy":
            weak_reads = data["weak_reads"]
            self.deploy(
                data["source"], data["address"],
                params={k: value_from_json(v)
                        for k, v in data["params"].items()},
                sharded_transitions=(
                    tuple(data["sharded_transitions"])
                    if data["sharded_transitions"] is not None else None),
                weak_reads=(weak_reads if isinstance(weak_reads, str)
                            else frozenset(weak_reads)),
                balance=data["balance"],
                allow_commutativity=data["allow_commutativity"],
                proposed_signature=(
                    signature_from_obj(data["proposed_signature"])
                    if data["proposed_signature"] is not None else None))
        elif record.type == "epoch":
            if data["epoch"] != self.epoch + 1:
                raise WALError(
                    f"replay out of step: log record {record.seq} is "
                    f"epoch {data['epoch']} but the network is at "
                    f"epoch {self.epoch}")
            pending = self.restored_mempool
            txns = []
            for tx in data["txns"]:
                if isinstance(tx, int):
                    # Named, not carried: journaled at admission.
                    if tx not in pending:
                        raise WALError(
                            f"log record {record.seq} (epoch "
                            f"{data['epoch']}) names transaction {tx}, "
                            f"which no admission record or restore "
                            f"point holds")
                    txns.append(pending[tx].tx)
                else:
                    txns.append(transaction_from_obj(tx))
            block = self.process_epoch(
                txns, unlimited=data["unlimited"], wal_tag=data["tag"])
            # Inputs drained from the restored service pool have their
            # outcome in the block, as the live loop read it: what it
            # deferred stays pending, one deferral on and behind the
            # rest (the loop re-admits; a re-admission record further
            # on says the same); everything else is settled.
            if pending:
                deferred = block.deferred_ids()
                for tx in txns:
                    entry = pending.pop(tx.tx_id, None)
                    if entry is not None and tx.tx_id in deferred:
                        entry.deferrals += 1
                        pending[tx.tx_id] = entry
        elif record.type == "commit":
            # A record without "scheme" predates the accumulator and
            # pins the full-walk fingerprint digest.
            digest = (self._ledger.digest(self) if "scheme" in data
                      else fingerprint_digest(self))
            if digest != data["digest"]:
                raise WALError(
                    f"replay diverged at epoch {data['epoch']}: "
                    f"recomputed fingerprint {digest[:12]}… does not "
                    f"match the logged commit {data['digest'][:12]}…")
        elif record.type == "note":
            self.wal_notes.append(data)
        elif record.type == "svc-admit":
            # Service-mode admissions journaled before execution, one
            # pool row each; an entry stays pending until an epoch
            # drains it or a svc-terminal record retires it.
            if not isinstance(data, list):
                raise TransactionRowError(
                    f"not a list of pool rows: {type(data).__name__}")
            for row in data:
                entry = PoolEntry.from_obj(row)
                self.restored_mempool[entry.tx.tx_id] = entry
        elif record.type == "svc-terminal":
            for tx_id in data["ids"]:
                self.restored_mempool.pop(tx_id, None)
        elif record.type == "init":
            raise WALError(
                f"unexpected init record at sequence {record.seq}")
        else:
            raise WALError(f"unknown WAL record type {record.type!r}")

    # -- epoch processing --------------------------------------------------------

    def process_epoch(self, txns: list[Transaction],
                      unlimited: bool = False,
                      wal_tag: str = "epoch") -> FinalBlock:
        """Process one epoch; ``unlimited`` lifts the per-lane gas
        limits (used for setup epochs that must commit everything).
        Wraps :meth:`_process_epoch` in the ``epoch`` root span and the
        ``net.epoch_ns`` wall-time histogram.

        An epoch only commits as a whole (the FinalBlock is the commit
        point).  If the DS committee discovers a faulty lane mid-epoch
        — a MicroBlock missing past the consensus timeout, or a
        StateDelta that fails footprint validation — it rolls the
        attempt back to the epoch-start checkpoint, excludes the lane,
        and retries; the excluded lane's queue is re-executed on the DS
        lane against the merged state (view change).

        Under durability (``data_dir``) the submitted transactions are
        logged and fsynced *before* execution, so a crash at any later
        point replays this epoch from its durable inputs; ``wal_tag``
        labels the epoch in the log (counted in ``epoch_tags``).
        """
        if not (self.metrics.enabled or self.tracer.enabled):
            return self._process_epoch(txns, unlimited, wal_tag)
        t0 = time.perf_counter_ns()
        with self.tracer.span(f"epoch {self.epoch + 1}"):
            block = self._process_epoch(txns, unlimited, wal_tag)
        self._meters.epoch_ns.observe(time.perf_counter_ns() - t0)
        return block

    def _process_epoch(self, txns: list[Transaction], unlimited: bool,
                       wal_tag: str) -> FinalBlock:
        # The WAL barrier here is the durability point of the epoch:
        # once it returns, the epoch's inputs survive any crash.
        # (Guarded here as well as in _wal_append so a network without
        # a WAL never serialises its batch.)
        if self.wal is not None and not self._replaying:
            # What the service pool journaled at admission — at this
            # point its drained, inflight entries: ServiceLoop.tick
            # flushes the journal before it drains — is named by id;
            # anything else travels here, whole.
            journaled = (self.mempool.inflight
                         if self.mempool is not None else ())
            self._wal_append("epoch", {
                "epoch": self.epoch + 1, "unlimited": unlimited,
                "tag": wal_tag,
                "txns": [tx.tx_id if tx.tx_id in journaled
                         else transaction_to_obj(tx) for tx in txns],
            }, barrier=True)
        self.epoch += 1
        shard_limit = 10**15 if unlimited else self.cost.shard_gas_limit
        ds_limit = 10**15 if unlimited else self.cost.ds_gas_limit
        fault_log: list[str] = []

        incoming = list(txns)
        if self.injector is not None:
            incoming = self.injector.churn_mempool(self.epoch, incoming,
                                                   fault_log)
        retries_of: dict[int, int] = {}
        carried_in = 0
        if self.carry_backlog and self.backlog:
            due = [e for e in self.backlog if e.not_before <= self.epoch]
            if due:
                self.backlog = [e for e in self.backlog
                                if e.not_before > self.epoch]
                retries_of = {e.tx.tx_id: e.retries for e in due}
                incoming = [e.tx for e in due] + incoming
                carried_in = len(due)

        checkpoint = NetworkCheckpoint.take(self)
        try:
            excluded: dict[int, str] = {}
            if self.injector is not None:
                for shard in self.injector.crashed_shards(self.epoch):
                    excluded[shard] = "crash"
                    fault_log.append(f"epoch {self.epoch}: shard {shard} "
                                     f"crashed before producing a "
                                     f"MicroBlock")

            attempt = 0
            rejected_total = 0
            while True:
                attempt += 1
                outcome = self._attempt_epoch(incoming, excluded,
                                              shard_limit, ds_limit,
                                              fault_log)
                rejected_total += outcome.rejected_deltas
                if not outcome.newly_faulty:
                    break
                if attempt > self.n_shards + 1:  # cannot happen: every
                    raise RuntimeError(          # retry excludes ≥1 lane
                        "view-change loop failed to converge")
                excluded.update(outcome.newly_faulty)
                checkpoint.restore(self)
                fault_log.append(
                    f"epoch {self.epoch}: view change — retrying without "
                    f"lane(s) {sorted(outcome.newly_faulty)}")
            # Cut from the surviving attempt only, and before the
            # release below truncates the journal.
            changed = (self._cut_changes(outcome, checkpoint)
                       if self._ledger is not None
                       or self._resident_tracker is not None else None)
        finally:
            # The epoch is the commit point: nothing restores to this
            # checkpoint afterwards, so its journal entries may go.
            checkpoint.release(self)

        if self._ledger is not None:
            # Before the paged-state writeback below: the pre-epoch
            # states read here share the backend's rows.
            t0 = time.perf_counter_ns() if self.metrics.enabled else 0
            self._ledger.commit(self, outcome.pre_states, *changed)
            self._meters.commit_changed.inc(
                sum(map(len, changed[0].values())))
            if self.metrics.enabled:
                self._meters.commit_digest_ns.observe(
                    time.perf_counter_ns() - t0)

        stats = outcome.stats
        stats.view_changes = attempt - 1
        stats.rejected_deltas = rejected_total

        # Account for every deferred transaction exactly once: retry
        # via the mempool (with backoff, up to max_retries), or emit an
        # explicit failure receipt so no transaction silently vanishes.
        mb_by_lane = {mb.shard: mb for mb in outcome.microblocks}
        carried = 0
        for lane, tx in outcome.deferred:
            if self.carry_backlog:
                retries = retries_of.get(tx.tx_id, 0) + 1
                if retries <= self.max_retries:
                    wait = max(1, round(self.retry_backoff
                                        ** (retries - 1)))
                    self.backlog.append(BacklogEntry(
                        tx, retries, self.epoch + wait))
                    carried += 1
                    continue
                self.dead_letter.append(tx)
                stats.dead_lettered += 1
                receipt = Receipt(
                    tx, False, 0, lane,
                    error=f"deferred: {self.max_retries} retries "
                          f"exhausted")
            else:
                receipt = Receipt(tx, False, 0, lane,
                                  error="deferred: epoch gas limit")
            if lane == DS or lane not in mb_by_lane:
                outcome.ds_block.receipts.append(receipt)
            else:
                mb_by_lane[lane].receipts.append(receipt)

        stats.committed = \
            sum(mb.n_committed for mb in outcome.microblocks) + \
            sum(1 for r in outcome.ds_block.receipts if r.success)
        stats.failed = len(incoming) - stats.committed - carried

        # Telemetry is recorded from the *surviving* attempt only —
        # discarded view-change attempts were rolled back (including
        # their lane counters, via NetworkCheckpoint) — so every value
        # here is a pure function of the submitted workload.
        meters = self._meters
        meters.epochs.inc()
        meters.tx_dispatched.inc(stats.dispatched)
        meters.tx_committed.inc(stats.committed)
        meters.tx_failed.inc(stats.failed)
        meters.tx_deferred.inc(stats.deferred)
        meters.tx_carried.inc(carried)
        meters.tx_to_ds.inc(stats.to_ds)
        for kind, count in stats.reasons.items():
            meters.dispatch_reasons[kind].inc(count)
        meters.tx_recovered.inc(stats.recovered)
        meters.tx_reexecuted.inc(stats.reexecuted)
        meters.tx_dead_lettered.inc(stats.dead_lettered)
        meters.view_changes.inc(stats.view_changes)
        meters.rejected_deltas.inc(stats.rejected_deltas)
        meters.merge_deltas.inc(sum(len(mb.deltas)
                                    for mb in outcome.microblocks))
        meters.merge_locations.inc(outcome.merged_locations)
        meters.backlog_size.set(len(self.backlog))
        meters.dead_letter_size.set(len(self.dead_letter))
        meters.fallback_dropped.set(
            getattr(self.executor_fallback_details, "dropped", 0))
        meters.journal_depth.set(self.journal.depth)
        now, seen = self._state_counters(), self._state_counters_seen
        meters.cow_copies.inc(now[0] - seen[0])
        meters.overlay_folds.inc(now[1] - seen[1])
        meters.overlay_folded_entries.inc(now[2] - seen[2])
        self._state_counters_seen = now
        # Epoch commit is the writeback point for paged state — but
        # only when the journal retains nothing (an outstanding caller
        # checkpoint could still roll contract states back past this
        # epoch, and a writeback must never race such a restore; dirty
        # rows simply stay resident until a safe commit).
        if self.state_backend is not None and self.journal.depth == 0:
            self._flush_backend()
        self._drain_backend_stats()

        stats.offered = len(txns)
        stats.carried_in = carried_in
        block = FinalBlock(
            epoch=self.epoch,
            microblocks=outcome.microblocks,
            ds_receipts=outcome.ds_block.receipts,
            merged_locations=outcome.merged_locations,
            stats=stats,
            fault_log=fault_log,
            excluded_lanes=dict(excluded),
            tag=wal_tag,
        )
        block.epoch_seconds = self.cost.epoch_seconds(
            shard_exec=outcome.shard_exec_times,
            ds_exec=self.cost.exec_seconds(outcome.ds_block.gas_used),
            merged_locations=outcome.merged_locations,
            shard_size=self.shard_size,
            ds_size=self.ds_size,
            n_dispatched=len(incoming),
            with_cosplit=self.use_signatures,
            timeouts=len(excluded),
        )
        # The list entry leaving the body window becomes its header;
        # the block that was returned for it is never touched.  (After
        # a caller's ``blocks.pop()`` that entry is a header already.)
        blocks = self.blocks
        blocks.append(block)
        if len(blocks) > BODY_WINDOW:
            aged = blocks[-1 - BODY_WINDOW]
            if type(aged) is FinalBlock:
                blocks[-1 - BODY_WINDOW] = aged.header()
        self.epoch_tags[wal_tag] = self.epoch_tags.get(wal_tag, 0) + 1
        # The commit record pins the post-epoch fingerprint so replay
        # can detect divergence instead of silently continuing from a
        # wrong state.
        if self.wal is not None and not self._replaying:
            # Only durable networks pay for the digest, and they pay
            # per changed location: the accumulators were advanced by
            # the epoch's change set above.
            self._wal_append("commit", {
                "epoch": self.epoch,
                "digest": self._ledger.digest(self),
                "scheme": 1,
            }, barrier=True)
        if self._resident_tracker is not None:
            # Push this epoch's merge-deltas to the resident replicas
            # asynchronously — the pipelining overlap: syncs apply in
            # the workers while the coordinator finalises the block and
            # prepares the next epoch.
            self._resident_tracker.commit_epoch(self, changed[0])
        if self.wal is not None and not self._replaying:
            self._commits_since_snapshot += 1
            if self._commits_since_snapshot >= self.snapshot_every:
                self.snapshot()
        return block

    def _cut_changes(self, outcome: _EpochAttempt,
                     checkpoint: NetworkCheckpoint):
        """The committed epoch's change set, from what the surviving
        attempt already produced: contract locations (state keys per
        contract) from the merged deltas and the DS lane's write logs;
        touched accounts and senders from the journal entries above the
        checkpoint's mark (recorded once per address / (sender, lane);
        an attempt rolled back left none)."""
        locations: dict[str, set] = {}
        for mb in outcome.microblocks:
            for delta in mb.deltas:
                locations.setdefault(delta.contract, set()).update(
                    map(_ENTRY_KEY, delta.entries))
        for addr, logs in outcome.ds_logs.items():
            keys = locations.setdefault(addr, set())
            for log in logs:
                keys.update(log.writes)
        accounts, senders = set(), set()
        tables = {id(self.accounts): accounts,
                  id(self.nonces.records): senders}
        depth = self.journal.seq - checkpoint.journal_mark
        for entry in self.journal.entries[-depth:] if depth else ():
            if entry[0] == "row":
                tables[id(entry[1])].add(entry[2])
        return locations, accounts, senders

    def _attempt_epoch(self, incoming: list[Transaction],
                       excluded: dict[int, str], shard_limit: int,
                       ds_limit: int,
                       fault_log: list[str]) -> _EpochAttempt:
        """One attempt at the epoch, with the given lanes excluded.

        Returns without merging anything if a new faulty lane is
        discovered — the caller rolls back to the checkpoint and
        retries.  Excluded lanes' queues are appended to the DS queue
        and re-executed there against the merged global state.
        """
        injector = self.injector
        stats = EpochStats(dispatched=len(incoming))
        queues: dict[int, list[Transaction]] = {s: [] for s in
                                                range(self.n_shards)}
        # The DS execution queue keeps the original submission order,
        # interleaving organically DS-routed transactions with the
        # queues of excluded lanes: re-execution must not reorder a
        # sender's transactions across lanes, or relaxed-nonce checks
        # would reject the lower nonces.
        ds_queue: list[Transaction] = []
        recovered: list[Transaction] = []
        with self.tracer.span("dispatch"):
            dispatch, reasons = self.dispatcher.dispatch, stats.reasons
            for tx in incoming:
                decision = dispatch(tx)
                shard, kind = decision.shard, decision.kind
                reasons[kind] = reasons.get(kind, 0) + 1
                if shard == DS:
                    ds_queue.append(tx)
                else:
                    queues[shard].append(tx)
                    if shard in excluded:
                        ds_queue.append(tx)
                        recovered.append(tx)
        stats.to_ds = len(ds_queue) - len(recovered)
        stats.per_shard = {s: len(q) for s, q in queues.items() if q}

        mb_faults = (injector.microblock_faults(self.epoch)
                     if injector else {})
        delta_faults = (injector.delta_faults(self.epoch)
                        if injector else {})

        # Phase 1: live shards execute in parallel lanes on the
        # epoch-start state.  Under a parallel executor the runnable
        # lanes are executed concurrently in isolation (each against a
        # private snapshot — repro.chain.lanes) and their results
        # absorbed below in shard order, which reproduces the serial
        # interleaving exactly; the serial executor runs each lane
        # inline at its absorption point.
        runnable = [s for s, q in queues.items()
                    if s not in excluded and s not in mb_faults]
        strategy = self._lane_strategy(runnable, queues)
        lane_results: dict[int, LaneResult] = {}
        if strategy != "serial":
            with self.tracer.span("lanes"):
                parallel = run_lanes(self,
                                     [(s, queues[s]) for s in runnable],
                                     shard_limit, strategy)
            if parallel is None:
                self.executor_fallbacks += 1  # pool failure: run serially
                self._meters.executor_fallbacks.inc()
            else:
                lane_results = parallel
                self._meters.parallel_epochs.inc()
        elif self.executor != "serial":
            self.executor_fallbacks += 1
            self._meters.executor_fallbacks.inc()

        microblocks: list[MicroBlock] = []
        shard_exec_times: list[float] = []
        all_deltas: dict[str, list[StateDelta]] = {}
        balance_deltas: dict[str, int] = {}
        deferred: list[tuple[int, Transaction]] = []
        newly_faulty: dict[int, str] = {}
        rejected = 0
        for shard, queue in queues.items():
            if shard in excluded:
                continue
            fault = mb_faults.get(shard)
            if fault is not None:
                newly_faulty[shard] = str(fault)
                fault_log.append(
                    f"epoch {self.epoch}: shard {shard} MicroBlock "
                    f"missing past the consensus timeout ({fault})")
                continue
            lane_result = lane_results.get(shard)
            if lane_result is not None:
                mb = lane_result.microblock
                lane_deltas = lane_result.deltas
                lane_balance = lane_result.balance_deltas
                lane_deferred = lane_result.deferred
            else:
                with self.tracer.span(f"lane {shard}"):
                    mb, local_states, touched, lane_deferred = \
                        self._run_lane(shard, queue, shard_limit)
                lane_deltas = []
                lane_balance = {}
                for addr, local in local_states.items():
                    base = self.contracts[addr].state
                    delta = compute_delta(addr, shard, base, local,
                                          touched.get(addr, ()),
                                          self.contracts[addr].joins)
                    if delta.entries:
                        lane_deltas.append(delta)
                    # Native-token balance changes (accepts / payouts)
                    # are additive, so they merge like an IntMerge
                    # component.
                    lane_balance[addr] = local.balance - base.balance
            kind = delta_faults.get(shard)
            if kind is not None and injector is not None:
                injector.tamper_deltas(self.epoch, shard, kind,
                                       lane_deltas, self,
                                       self._delta_validator, fault_log)
            # The DS committee validates every delta against the
            # deployed signature's write footprint before merging.
            violations = [(delta, v) for delta in lane_deltas
                          if (v := self._delta_validator(delta))
                          is not None]
            if violations:
                rejected += len(violations)
                newly_faulty[shard] = "byzantine-delta"
                for _, violation in violations:
                    fault_log.append(f"epoch {self.epoch}: {violation}")
                continue
            if lane_result is not None:
                # An isolated lane's gas charges, credits and nonce
                # commitments land here, in shard order — the same
                # totals the serial loop produced by mutating in place.
                # So does its telemetry: the worker recorded lane.*
                # into a private registry, folded in additively at the
                # exact point the serial loop would have recorded it.
                lane_result.apply_effects(self)
                if lane_result.metrics is not None:
                    self.metrics.merge_snapshot(lane_result.metrics)
            stats.deferred += len(lane_deferred)
            deferred.extend((shard, tx) for tx in lane_deferred)
            microblocks.append(mb)
            shard_exec_times.append(self.cost.exec_seconds(mb.gas_used))
            for delta in lane_deltas:
                mb.deltas.append(delta)
                all_deltas.setdefault(delta.contract, []).append(delta)
            for addr, bdelta in lane_balance.items():
                balance_deltas[addr] = (balance_deltas.get(addr, 0)
                                        + bdelta)

        if newly_faulty:
            return _EpochAttempt(stats, microblocks,
                                 MicroBlock(shard=DS, epoch=self.epoch),
                                 0, shard_exec_times, deferred,
                                 newly_faulty, rejected)

        # Phase 2: DS merges shard deltas (FSD).
        t_merge = time.perf_counter_ns() if self.metrics.enabled else 0
        merged_locations = 0
        # Pre-epoch states, for the ledger's pre-images: a merged
        # contract's stays intact (the merge is fork + rebind); one only
        # the DS lane touches is forked when first handed out.
        pre_states = {} if self._ledger is not None else None
        with self.tracer.span("merge"):
            for addr, deltas in all_deltas.items():
                contract = self.contracts[addr]
                if pre_states is not None:
                    pre_states[addr] = contract.state
                merged, changed = merge_deltas(contract.state, deltas)
                self._rebind_state(contract, merged)
                merged_locations += changed
            for addr, bdelta in balance_deltas.items():
                if bdelta:
                    self.contracts[addr].state.balance += bdelta
                    merged_locations += 1
        if self.metrics.enabled:
            self._meters.merge_ns.observe(time.perf_counter_ns() - t_merge)

        # Phase 3: DS executes the potentially-conflicting transactions
        # directly on the merged global state, plus the queues of every
        # excluded lane (the recovery path of the view change).
        recovered_ids = {tx.tx_id for tx in recovered}
        with self.tracer.span("ds lane"):
            ds_block, _, ds_touched, ds_deferred = self._run_lane(
                DS, ds_queue, ds_limit, use_global_state=True,
                pre_states=pre_states)
        stats.deferred += len(ds_deferred)
        deferred.extend((DS, tx) for tx in ds_deferred)
        stats.recovered = len(recovered)
        stats.reexecuted = sum(1 for r in ds_block.receipts
                               if r.tx.tx_id in recovered_ids)
        return _EpochAttempt(stats, microblocks, ds_block,
                             merged_locations, shard_exec_times,
                             deferred, newly_faulty, rejected,
                             ds_touched, pre_states)

    def _rebind_state(self, contract: DeployedContract,
                      new_state: ContractState) -> None:
        """Swap a contract's globally-visible state (the FSD merge
        produces a fresh fork).  The swap is journaled so a checkpoint
        rollback rebinds the old state, and the new state is attached
        to the journal so later writes keep recording."""
        self.journal.record_rebind(contract, contract.state)
        contract.state = new_state
        new_state.journal = self.journal

    def _delta_validator(self, delta: StateDelta) -> DeltaViolation | None:
        contract = self.contracts.get(delta.contract)
        if contract is None:
            return DeltaViolation(delta.contract, delta.shard, None,
                                  "unknown contract")
        return validate_delta(delta, contract, self.dispatcher)

    def _lane_strategy(self, runnable: list[int],
                       queues: dict[int, list[Transaction]]) -> str:
        """Pick the executor for this epoch's shard phase.

        Lane isolation is sound exactly when every decision a lane
        makes is independent of its siblings.  Two situations break
        that and force the serial loop: strict nonce mode (acceptance
        reads a *global* high-water mark that other lanes advance),
        and the same ``(sender, nonce)`` pair dispatched to two
        different lanes (first-lane-wins replay detection depends on
        execution order).  Both are detected up front, so the choice
        is deterministic and made before any state changes.
        """
        if self.executor == "serial" or len(runnable) < 2:
            return "serial"
        if self.nonces.strict:
            return "serial"
        seen: dict[tuple[str, int], int] = {}
        for shard in runnable:
            for tx in queues[shard]:
                key = (tx.sender, tx.nonce)
                if seen.setdefault(key, shard) != shard:
                    return "serial"
        return self.executor

    # -- lane execution ------------------------------------------------------------

    def _run_lane(self, lane: int, queue: list[Transaction],
                  gas_limit: int, use_global_state: bool = False,
                  pre_states: dict | None = None):
        """Execute a queue sequentially, as one shard (or the DS) does."""
        mb = MicroBlock(shard=lane, epoch=self.epoch)
        local_states: dict[str, ContractState] = {}
        touched = defaultdict(list)   # contract -> successful write logs

        def state_for(addr: str) -> ContractState:
            if use_global_state:
                state = self.contracts[addr].state
                if pre_states is not None and addr not in pre_states:
                    # Written in place from here on: pin the pre-image.
                    pre_states[addr] = state.fork()
                return state
            state = local_states.get(addr)
            if state is None:
                state = local_states[addr] = self.contracts[addr].state.fork()
            return state

        t0 = time.perf_counter_ns() if self.metrics.enabled else 0
        deferred: list[Transaction] = []
        for position, tx in enumerate(queue):
            if mb.gas_used >= gas_limit:
                deferred = queue[position:]
                break  # retried next epoch when the mempool is enabled
            receipt = self._execute(tx, lane, state_for, touched)
            mb.receipts.append(receipt)
            mb.gas_used += receipt.gas_used
        # The lane.* meters: once per finished lane, not per receipt.
        meters, n, ok = self._meters, len(mb.receipts), mb.n_committed
        meters.lane_tx_executed.inc(n)
        meters.lane_tx_ok.inc(ok)
        meters.lane_tx_failed.inc(n - ok)
        meters.lane_gas.inc(mb.gas_used)
        if self.metrics.enabled:
            meters.lane_gas_per_tx.observe_many(
                [receipt.gas_used for receipt in mb.receipts])
            meters.lane_exec_ns.observe(time.perf_counter_ns() - t0)
        return mb, local_states, touched, deferred

    def _execute(self, tx: Transaction, lane: int, state_for,
                 touched: defaultdict) -> Receipt:
        """Run one transaction; success appends its logs to ``touched``."""
        sender_addr, to_addr = tx.sender, tx.to
        self._account_at(sender_addr)
        if self._resident_tracker is not None:
            # try_accept moves this sender's nonce record (even a
            # rejection may create it).
            self._resident_tracker.touch_nonce(sender_addr)
        if not self.nonces.try_accept(sender_addr, tx.nonce, lane):
            return Receipt(tx, False, 0, lane, error="bad nonce")
        if not 0 <= tx.amount <= _MAX_AMOUNT:
            # A Uint128, as Zilliqa's _amount: a negative one would
            # move funds from the recipient to the sender.
            return Receipt(tx, False, 0, lane, error="invalid amount")

        if tx.transition is None:
            if to_addr in self.contracts:
                # Mirrors the dispatcher's "payment to contract"
                # routing: the funds stay with the sender instead of
                # landing in a shadow user account under the contract's
                # address.
                return Receipt(tx, False, PAYMENT_GAS, lane,
                               error="payment to contract address")
            fee = PAYMENT_GAS * tx.gas_price
            if not self._charge(sender_addr, lane, tx.amount + fee):
                return Receipt(tx, False, PAYMENT_GAS, lane,
                               error="insufficient balance")
            self._credit(to_addr, lane, tx.amount)
            return Receipt(tx, True, PAYMENT_GAS, lane)

        contract = self.contracts.get(to_addr)
        if contract is None:
            return Receipt(tx, False, 0, lane, error="unknown contract")

        chain = _CallChain(self, lane, state_for, tx.gas_limit)
        try:
            chain.invoke(contract, tx.transition, dict(tx.args),
                         ByStrVal(sender_addr, ty.BYSTR20), tx.amount,
                         sender_addr, 0)
        except _ChainFailed as exc:
            chain.rollback()
            self._charge(sender_addr, lane, chain.gas_used * tx.gas_price)
            return Receipt(tx, False, chain.gas_used, lane,
                           error=str(exc))

        fee = chain.gas_used * tx.gas_price
        if not self._charge(sender_addr, lane, fee):
            # Gas must be paid even for failed transactions; a sender who
            # cannot pay gets the transaction rejected outright.
            chain.rollback()
            return Receipt(tx, False, chain.gas_used, lane,
                           error="cannot pay gas")

        if self.overflow_guard and lane != DS and \
                not chain.within_overflow_budget():
            chain.rollback()
            return Receipt(tx, False, chain.gas_used, lane,
                           error="overflow guard: rerouted")

        for contract, _, log in chain.logs:
            touched[contract.address].append(log)
        return Receipt(tx, True, chain.gas_used, lane, None, chain.events)

    # -- reporting ----------------------------------------------------------------

    def average_tps(self, last_n: int | None = None,
                    tag: str | None = None) -> float:
        """Committed transactions per modeled second.

        ``tag`` restricts the average to epochs committed under that
        WAL tag (e.g. ``"serve"`` for service-mode epochs).  Idle and
        stalled service ticks processed no epoch but still consumed
        consensus time; :meth:`note_idle_seconds` charges them here, so
        a mempool-drained service run's partial batches cannot inflate
        the average over what the wall clock saw.
        """
        blocks = [b for b in self.blocks
                  if tag is None or getattr(b, "tag", None) == tag]
        blocks = blocks[-last_n:] if last_n else blocks
        total = sum(b.n_committed for b in blocks)
        seconds = sum(b.epoch_seconds for b in blocks)
        if last_n is None:
            if tag is None:
                seconds += sum(self.idle_seconds.values())
            else:
                seconds += self.idle_seconds.get(tag, 0.0)
        return total / seconds if seconds else 0.0

    def note_idle_seconds(self, tag: str, seconds: float) -> None:
        """Charge modeled time for a service tick that processed no
        epoch (idle mempool or a stalled consumer)."""
        self.idle_seconds[tag] = self.idle_seconds.get(tag, 0.0) + seconds


# --------------------------------------------------------------------------
# Chained contract calls (atomic, DS-only beyond the first hop).
# --------------------------------------------------------------------------

MAX_CALL_DEPTH = 3


class _ChainFailed(Exception):
    """A call in the chain failed; the whole transaction rolls back."""


class _CallChain:
    """Executes a transaction's (possibly multi-contract) call chain.

    Messages sent to user addresses move native tokens; messages sent
    to *contract* addresses invoke the transition named by the tag —
    but only inside the DS committee (the lookup node's single-contract
    check routes such transactions there, Sec. 4.3).  The entire chain
    is atomic: any failure undoes every state write and balance move.
    """

    __slots__ = ("net", "lane", "state_for", "gas_limit", "gas_used",
                 "events", "logs", "_refunds")

    def __init__(self, net: "Network", lane: int, state_for,
                 gas_limit: int):
        self.net = net
        self.lane = lane
        self.state_for = state_for
        self.gas_limit = gas_limit
        self.gas_used = 0
        self.events: list = []
        # (contract, state, write log) per call, in order; and balance
        # moves to undo on rollback: (state or address, amount to add).
        self.logs: list = []
        self._refunds: list = []

    def invoke(self, contract: DeployedContract, transition: str,
               args: dict, caller: ByStrVal, amount: int,
               payer: str | None, depth: int) -> None:
        state = self.state_for(contract.address)
        # (sender, amount, origin, block_number), positionally: keyword
        # calls of a dataclass __init__ cost twice as much.
        ctx = TxContext(caller, amount, None, self.net.epoch)
        try:
            result = contract.interpreter.run_transition(
                state, transition, args, ctx,
                gas_limit=max(self.gas_limit - self.gas_used, 0))
        except ExecError as exc:
            raise _ChainFailed(str(exc)) from exc
        self.gas_used += result.gas_used
        if not result.success:
            raise _ChainFailed(result.error or "transition failed")

        self.logs.append((contract, state, result.write_log))
        if result.events:
            self.events.extend(result.events)

        accepted = result.accepted
        if accepted:   # funds offered but not accepted stay with the payer
            # The interpreter already credited the contract; that credit
            # must be undone too if the chain later fails.
            self._refunds.append((state, -accepted))
            # Debit the payer (the user for the first hop, the calling
            # contract afterwards).
            if payer is not None:
                if not self.net._charge(payer, self.lane, accepted):
                    raise _ChainFailed("insufficient balance for transfer")
                self._refunds.append((payer, accepted))
            else:
                caller_state = self.state_for(caller.hex)
                if caller_state.balance < accepted:
                    raise _ChainFailed(
                        "insufficient contract balance for transfer")
                caller_state.balance -= accepted
                self._refunds.append((caller_state, accepted))

        for msg in result.messages:
            recipient = _pad(msg.recipient)
            callee = self.net.contracts.get(recipient)
            if callee is not None:
                if self.lane != DS:
                    raise _ChainFailed(
                        "contract-to-contract call outside the DS committee")
                if depth + 1 >= MAX_CALL_DEPTH:
                    raise _ChainFailed("call depth exceeded")
                self.invoke(callee, msg.tag, dict(msg.params),
                            ByStrVal(contract.address, ty.BYSTR20),
                            msg.amount, None, depth + 1)
            elif msg.amount > 0:
                if state.balance < msg.amount:
                    raise _ChainFailed(
                        "insufficient contract balance for payout")
                state.balance -= msg.amount
                self.net._credit(recipient, self.lane, msg.amount)
                self._refunds += ((state, msg.amount),
                                  (recipient, -msg.amount))

    def rollback(self) -> None:
        for _, state, log in reversed(self.logs):
            log.rollback(state)
        for target, amount in reversed(self._refunds):
            if target.__class__ is str:
                self.net._credit(target, self.lane, amount)
            else:
                target.balance += amount
        self.logs.clear()
        self._refunds.clear()

    def within_overflow_budget(self) -> bool:
        """Sec. 6's conservative per-shard overflow budget for IntMerge
        components: a transaction may move a component at most
        ``(MAX - v) / N`` away from its epoch-start value ``v``."""
        for contract, state, log in self.logs:
            base = self.net.contracts[contract.address].state
            for key in log.writes:
                if contract.joins.get(key[0]) is not JoinKind.INT_MERGE:
                    continue
                new = state.read(key)
                old = base.read(key)
                if not isinstance(new, IntVal):
                    continue
                old_v = old.value if isinstance(old, IntVal) else 0
                _, max_v = ty.int_bounds(new.typ)
                budget = (max_v - old_v) // max(self.net.n_shards, 1)
                if abs(new.value - old_v) > budget:
                    return False
        return True
