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

Here: the façade and that epoch path.  A lane's execution is
:mod:`repro.chain.execution`; logging, restore points, resume and
:class:`NetworkConfig` are :mod:`repro.chain.durability`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

from ..core.joins import JoinKind, MergeOverflow
from ..core.pipeline import run_pipeline_cached
from ..obs.metrics import NULL_REGISTRY
from ..obs.tracing import NULL_TRACER
from ..core.signature import ShardingSignature
from ..scilla.ast import Module
from ..scilla.interpreter import Interpreter
from ..scilla.state import ContractState, StateJournal
from ..scilla.values import Value
from .blocks import (
    BODY_WINDOW, BlockHeader, EpochStats, FinalBlock, MicroBlock, Receipt,
)
from .delta import StateDelta, compute_delta, merge_deltas
from .dispatch import DS, DeployedSignature, Dispatcher, _pad
from .durability import Durability, NetworkConfig
from .execution import FUNDING, Execution
from .faults import FaultInjector
from .meters import NetworkMeters
from .recovery import DeltaViolation, NetworkCheckpoint, validate_delta
# A global here as well as in repro.chain.durability, where replay
# calls it: bench/layers.py times the names this module binds.
from .recovery import fingerprint_digest  # noqa: F401
from .serialization import signature_to_obj, transaction_to_obj, value_to_json
from .transaction import NonceTracker, Transaction, portion_slot


@dataclass
class DeployedContract:
    address: str
    module: Module
    interpreter: Interpreter
    state: ContractState
    signature: ShardingSignature | None = None
    # Original source text: a base restore point carries it, and
    # resume re-runs the deployment pipeline on it.
    source: str = ""

    @property
    def joins(self) -> dict[str, JoinKind]:
        return self.signature.joins if self.signature else {}


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


class Network(Execution, Durability):
    """A sharded blockchain with optional CoSplit-aware dispatch."""

    def __init__(self, n_shards: int, config: NetworkConfig | None = None,
                 *, executor: str = "serial",
                 data_dir: str | None = None,
                 fsync: str = "commit",
                 snapshot_every: int = 8,
                 keep_snapshots: int = 3,
                 crash_at_barrier: int | None = None,
                 crash_at_append: int | None = None,
                 state_backend=None,
                 metrics=None,
                 tracer=None):
        """``config`` is what a replay must reproduce (the WAL's
        ``init`` record); the keywords are how this process runs it.
        ``executor`` accepts only ``"serial"`` (lanes run one after
        another; their parallelism is ``CostModel``'s) and goes once
        ``bench/workloads.py`` stops passing it."""
        if executor != "serial":
            raise ValueError(
                f"unknown executor {executor!r}: shard lanes run "
                f"serially; the 'thread' and 'process' executors were "
                f"removed")
        if n_shards < 1:
            raise ValueError(f"a network needs at least one shard, "
                             f"not {n_shards}")
        self.n_shards = n_shards
        self.config = config = config or NetworkConfig()
        # Network-wide undo journal: every write to a globally-visible
        # contract state, and every account and nonce move, records its
        # reversal here, making checkpoints O(1) marks
        # (repro.chain.recovery).
        self.journal = StateJournal()
        self.dispatcher = Dispatcher(n_shards, config.use_signatures)
        # address -> account row (repro.chain.transaction).
        self.accounts: dict[str, tuple] = {}
        self.contracts: dict[str, DeployedContract] = {}
        self.nonces = NonceTracker(strict=config.strict_nonces,
                                   n_shards=n_shards)
        self.nonces.journal = self.journal
        self.epoch = 0
        # One entry per epoch, for reporting: the newest BODY_WINDOW
        # are the FinalBlocks process_epoch returned, older ones their
        # headers — receipts and deltas do not outlive their epoch here.
        self.blocks: list[BlockHeader] = []
        # Modeled seconds the service loop spent on ticks that
        # processed no epoch (idle or stalled), per WAL tag — charged
        # to average_tps so partial service batches cannot inflate it.
        self.idle_seconds: dict[str, float] = {}
        # Optional deterministic fault injection (repro.chain.faults).
        self.injector = (FaultInjector(config.fault_plan)
                         if config.fault_plan else None)
        # Observability (repro.obs).  Off by default: the null registry
        # and tracer answer every record with an empty call, so the
        # simulator's hot paths stay uninstrumented-cheap.
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._meters = NetworkMeters(self.metrics)
        self._init_durability(data_dir, fsync, snapshot_every,
                              keep_snapshots, crash_at_barrier,
                              crash_at_append, state_backend)

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

    def balance(self, address: str, lane: int | None = None) -> int | None:
        """An account's balance — or, given ``lane`` (a shard, or
        ``DS``), the portion of it held for that lane (None: no such
        portion).  An address with no account reads 0 / None; reading
        creates nothing."""
        if lane is not None and not (lane == DS or 0 <= lane < self.n_shards):
            raise ValueError(
                f"no lane {lane} on this network: its lanes are DS "
                f"({DS}) and shards 0..{self.n_shards - 1}")
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
        use_signatures = self.config.use_signatures
        if proposed_signature is not None and use_signatures:
            from ..core.signature import signatures_equal
            recomputed = result.signature(
                tuple(sorted(proposed_signature.selected)),
                weak_reads, allow_commutativity)
            if not signatures_equal(recomputed, proposed_signature):
                raise ValueError(
                    "proposed sharding signature failed miner validation")
            signature = recomputed
        elif sharded_transitions is not None and use_signatures:
            signature = result.signature(tuple(sorted(sharded_transitions)),
                                         weak_reads, allow_commutativity)
        state.journal = self.journal
        self._adopt_state(state)
        deployed = DeployedContract(address, result.module, interpreter,
                                    state, signature, source)
        self.contracts[address] = deployed
        if self._ledger is not None:
            # A structure change: no delta can express it, so the next
            # restore point is a base.
            self._ledger.add_contract(state)
        self.dispatcher.register_contract(DeployedSignature(
            address, signature, dict(state.immutables)))
        return deployed

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
        lane against the merged state (view change).  An IntMerge total
        that overflows at the merge excludes every lane contributing
        to it the same way.

        A transaction a lane's gas limit leaves unexecuted gets a
        ``deferred: epoch gas limit`` receipt; a caller resubmits it
        (:class:`~repro.chain.service.ServiceLoop` re-admits it).

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
        cost = self.config.cost_model
        shard_limit = 10**15 if unlimited else cost.shard_gas_limit
        ds_limit = 10**15 if unlimited else cost.ds_gas_limit
        fault_log: list[str] = []

        incoming = list(txns)
        if self.injector is not None:
            incoming = self.injector.churn_mempool(self.epoch, incoming,
                                                   fault_log)

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
                       if self._ledger is not None else None)
        finally:
            # The epoch is the commit point: nothing restores to this
            # checkpoint afterwards, so its journal entries may go.
            checkpoint.release(self)

        if self._ledger is not None:
            # Before the paged-state writeback below: the pre-epoch
            # states read here share the backend's rows.
            self._fold_changes(outcome.pre_states, changed)

        stats = outcome.stats
        stats.view_changes = attempt - 1
        stats.rejected_deltas = rejected_total

        # Every deferred transaction gets an explicit failure receipt,
        # so none silently vanishes.
        mb_by_lane = {mb.shard: mb for mb in outcome.microblocks}
        for lane, tx in outcome.deferred:
            receipt = Receipt(tx, False, 0, lane,
                              error="deferred: epoch gas limit")
            if lane == DS or lane not in mb_by_lane:
                outcome.ds_block.receipts.append(receipt)
            else:
                mb_by_lane[lane].receipts.append(receipt)

        stats.committed = \
            sum(mb.n_committed for mb in outcome.microblocks) + \
            sum(1 for r in outcome.ds_block.receipts if r.success)
        stats.failed = len(incoming) - stats.committed
        stats.offered = len(txns)
        self._meters.record_epoch(
            stats, sum(len(mb.deltas) for mb in outcome.microblocks),
            outcome.merged_locations)
        self._settle_state()

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
        block.epoch_seconds = cost.epoch_seconds(
            shard_exec=outcome.shard_exec_times,
            ds_exec=cost.exec_seconds(outcome.ds_block.gas_used),
            merged_locations=outcome.merged_locations,
            n_dispatched=len(incoming),
            with_cosplit=self.config.use_signatures,
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
        self._log_commit()
        return block

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

        # Phase 1: live shards execute their lanes on the epoch-start
        # state, one after another.  A lane's result depends only on
        # that state and its own queue (docs/PARALLELISM.md §1; strict
        # nonces and a (sender, nonce) sent to two lanes are where
        # this order is the semantics), so the order stands for the
        # shards running side by side: the cost model charges the
        # slowest lane, not the sum.  tests/test_lane_isolation.py
        # checks it.
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
                if delta.columns:
                    lane_deltas.append(delta)
                # Native-token balance changes (accepts / payouts) are
                # additive, so they merge like an IntMerge component.
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
            stats.deferred += len(lane_deferred)
            deferred.extend((shard, tx) for tx in lane_deferred)
            microblocks.append(mb)
            shard_exec_times.append(
                self.config.cost_model.exec_seconds(mb.gas_used))
            for delta in lane_deltas:
                mb.deltas.append(delta)
                all_deltas.setdefault(delta.contract, []).append(delta)
            for addr, bdelta in lane_balance.items():
                balance_deltas[addr] = (balance_deltas.get(addr, 0)
                                        + bdelta)

        def abandoned() -> _EpochAttempt:
            # The caller rolls back and retries without newly_faulty.
            return _EpochAttempt(stats, microblocks,
                                 MicroBlock(shard=DS, epoch=self.epoch),
                                 0, shard_exec_times, deferred,
                                 newly_faulty, rejected)

        if newly_faulty:
            return abandoned()

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
                try:
                    merged, changed = merge_deltas(contract.state, deltas)
                except MergeOverflow as overflow:
                    # Every lane that contributed to the location is
                    # excluded, and its queue re-runs on the DS lane,
                    # where the transaction that overflows fails.
                    for shard in overflow.shards:
                        newly_faulty[shard] = "merge-overflow"
                    fault_log.append(f"epoch {self.epoch}: {overflow}; "
                                     f"lane(s) {list(overflow.shards)} "
                                     f"re-run on the DS lane")
                    return abandoned()
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
