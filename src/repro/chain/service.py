"""The continuous service loop: mempool → epochs, forever.

``ServiceLoop`` turns the batch simulator into a long-running ingestion
service.  Producers call :meth:`submit` (admission control answers with
a typed receipt — see :mod:`repro.chain.mempool`); each :meth:`tick`
drains one adaptive batch into ``Network.process_epoch`` and feeds the
outcomes back:

* committed / failed receipts retire their pool entries terminally;
* gas-deferred transactions re-enter the pool at the front of their
  sender's queue, up to ``max_deferrals``, then dead-letter;
* anything injected churn removed is closed out as ``DROPPED``;
* over-capacity after re-admission sheds deterministically.

Degradation ladder under sustained overload (docs/SERVICE.md): first
the batch size shrinks toward the observed commit rate (bounding
per-epoch latency), then backpressure refuses new admissions above the
high-water mark, and only then does the pool shed already-admitted
work — never silently.

The loop is the only place a gas-deferred transaction waits: the
network answers it with an in-block ``deferred: epoch gas limit``
receipt and keeps nothing, so WAL replay of the epoch records
reproduces exactly the live decisions.  Admissions are journaled as
``svc-admit`` records and flushed (with an fsync) at the next tick or
:meth:`sync`, before the epoch that drains them executes — that record
is the one place a transaction's body is logged; the ``epoch`` record
names it by id — and sheds and dead-letters are ``svc-terminal``
records.
``Network.resume`` rebuilds the pending set from snapshot + WAL
(a transaction a replayed epoch deferred stays in it) and the adopting
ServiceLoop restores it into a fresh mempool.

Overload fault modes (:mod:`repro.chain.faults`): ``STALL_CONSUMER``
freezes a tick (the loop consults the network's injector, keyed by
tick index); ``FLOOD`` multiplies the *offered* load and is applied by
the driver (:func:`repro.eval.service.run_service`) via
``FaultInjector.flood_multiplier``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .mempool import (
    Mempool, MempoolConfig, PoolEntry, SubmitReceipt, TerminalKind,
)
from .transaction import Transaction

HEADROOM = 1.25      # batch target = commit rate x HEADROOM
SERVE_TAG = "serve"  # the WAL tag of a service epoch


@dataclass
class ServiceConfig:
    """Service-loop tuning knobs (docs/SERVICE.md, "Tuning")."""

    batch_max: int = 256       # epoch batch ceiling (and idle default)
    batch_min: int = 8         # never shrink the batch below this
    max_deferrals: int = 12    # gas deferrals before dead-lettering
    auto_fund: bool = True     # create unknown sender accounts at admission
    record_committed: bool = False  # keep per-epoch committed batches
    # Headers net.blocks lists before the oldest is dropped; bodies
    # are the network's BODY_WINDOW (repro.chain.blocks).
    keep_blocks: int | None = 256

    def __post_init__(self) -> None:
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.batch_min < 1:
            raise ValueError("batch_min must be >= 1")
        if self.max_deferrals < 0:
            raise ValueError("max_deferrals must be >= 0")


@dataclass
class TickReport:
    """What one service tick did."""

    tick: int
    epoch: int | None = None   # network epoch processed (None: no epoch)
    stalled: bool = False      # STALL_CONSUMER froze this tick
    idle: bool = False         # pool and batch were empty
    drained: int = 0
    committed: int = 0
    failed: int = 0
    deferred: int = 0
    dead_lettered: int = 0
    dropped: int = 0
    shed: int = 0
    occupancy: int = 0
    batch_size: int = 0
    backpressure: bool = False
    epoch_seconds: float = 0.0


class ServiceLoop:
    """Drains an admission-controlled mempool into network epochs."""

    def __init__(self, net, config: ServiceConfig | None = None,
                 pool_config: MempoolConfig | None = None):
        self.net = net
        self.config = config or ServiceConfig()
        self.mempool = Mempool(pool_config, metrics=net.metrics)
        net.mempool = self.mempool       # snapshots embed the pool
        self.tick_index = 0
        self.batch_size = self.config.batch_max
        # Accumulators that survive block trimming (keep_blocks).
        self.served_committed = 0
        self.served_seconds = 0.0
        self.idle_ticks = 0
        self.stalled_ticks = 0
        self.max_occupancy = 0
        # Per-epoch committed batches, in drained order — the serial
        # replay oracle's input (tests/test_service_differential.py).
        self.committed_epochs: list[list[Transaction]] = []
        # Journal buffers, flushed (fsynced) at the next tick boundary
        # or sync(): admissions must hit the WAL before the epoch that
        # drains them.
        self._admit_buffer: list[PoolEntry] = []
        self._terminal_buffer: dict[str, list[int]] = {}
        self._meters = (_ServiceMeters(net.metrics)
                        if net.metrics.enabled else None)
        if net.restored_mempool:
            self._adopt_restored()

    # -- ingestion ---------------------------------------------------------

    def submit(self, tx: Transaction) -> SubmitReceipt:
        """Admit one producer submission (and journal it)."""
        pool = self.mempool
        receipt = pool.submit(tx)
        if pool.evicted is not None:
            # A better-paying newcomer took a tail's place: that is a
            # shed, journaled with the tick's other terminals.
            self._buffer_terminal(pool.evicted, TerminalKind.SHED)
            pool.evicted = None
        if receipt.admitted:
            sender = tx.sender
            if self.config.auto_fund and \
                    sender not in self.net.accounts and \
                    sender not in self.net.contracts:
                # Unknown senders get a funded gas account at the door
                # (a WAL-logged input, so resume re-creates it).  With
                # population 10^5-10^6 this is what makes setup O(1)
                # per *touched* sender instead of O(population).
                self.net.auto_fund(sender)
            self._admit_buffer.append(pool.queues[sender][-1])
        return receipt

    def sync(self) -> None:
        """Make every issued admission receipt durable now (one fsync).
        Without an explicit sync, durability rides the next tick's
        epoch barrier."""
        self._flush_journal(barrier=True)

    # -- the loop ----------------------------------------------------------

    def tick(self) -> TickReport:
        """One service iteration: journal, drain, execute, settle."""
        self.tick_index += 1
        pool = self.mempool
        pool.now_tick = self.tick_index
        self._flush_journal(barrier=False)  # epoch barrier covers it
        report = TickReport(tick=self.tick_index,
                            batch_size=self.batch_size)

        injector = self.net.injector
        if injector is not None and \
                injector.consumer_stalled(self.tick_index):
            # The consumer is wedged for one tick: no drain, no epoch.
            # Producers keep submitting; occupancy climbs; the modeled
            # clock still pays an epoch of consensus time.
            self.stalled_ticks += 1
            report.stalled = True
            self._charge_idle_tick()
            if self._meters:
                self._meters.stalls.inc()
            return self._settle(report)

        batch = pool.drain(self.batch_size)
        report.drained = len(batch)
        if not batch:
            self.idle_ticks += 1
            report.idle = True
            self._charge_idle_tick()
            if self._meters:
                self._meters.idle_ticks.inc()
            return self._settle(report)

        block = self.net.process_epoch(batch, wal_tag=SERVE_TAG)
        report.epoch = block.epoch
        report.epoch_seconds = block.epoch_seconds
        self._absorb_outcomes(block, batch, report)
        self.served_committed += report.committed
        self.served_seconds += block.epoch_seconds
        pool.note_drain_rate(report.committed)
        self._trim_blocks()
        return self._settle(report)

    def run(self, ticks: int) -> list[TickReport]:
        return [self.tick() for _ in range(ticks)]

    def drain_remaining(self, max_ticks: int = 64) -> int:
        """Tick until the pool is empty (or the budget runs out);
        returns the number of ticks spent."""
        for spent in range(max_ticks):
            if self.mempool.occupancy == 0 and \
                    not self.mempool.inflight:
                return spent
            self.tick()
        return max_ticks

    # -- outcome settlement ------------------------------------------------

    def _absorb_outcomes(self, block, batch, report: TickReport) -> None:
        pool = self.mempool
        committed: list[Transaction] = []
        deferred: list[PoolEntry] = []
        committed_ids: set[int] = set()
        for receipt in block.all_receipts:
            tx_id = receipt.tx.tx_id
            entry = pool.inflight.get(tx_id)
            if entry is None:
                continue  # churn duplicate of a settled transaction
            if receipt.success:
                pool.resolve(tx_id, TerminalKind.COMMITTED)
                committed_ids.add(tx_id)
                report.committed += 1
            elif receipt.deferred:
                deferred.append(pool.inflight.pop(tx_id))
            else:
                pool.resolve(tx_id, TerminalKind.FAILED)
                report.failed += 1
        if self.config.record_committed:
            committed = [tx for tx in batch if tx.tx_id in committed_ids]
            self.committed_epochs.append(committed)

        # Deferrals re-enter at the front of their sender's queue, or
        # dead-letter once their budget is spent.  Receipts arrive in
        # shard-lane order, so one sender's deferrals are not nonce-
        # sorted; readmitting in descending nonce order (per-sender
        # descending, since sorting preserves subsequences) makes each
        # appendleft rebuild an ascending queue.  Re-admissions are
        # journaled like admissions; dead-letters as terminals.
        deferred.sort(key=lambda e: e.tx.nonce, reverse=True)
        for entry in deferred:
            if entry.deferrals + 1 > self.config.max_deferrals:
                retired = pool.dead_letter(
                    entry.tx, entry.deferrals + 1,
                    entry.admit_tick, entry.admit_ns)
                self._buffer_terminal(retired, TerminalKind.DEAD_LETTERED)
                report.dead_lettered += 1
            else:
                pool.readmit(entry.tx, entry.deferrals + 1,
                             entry.admit_tick, entry.admit_ns)
                self._admit_buffer.append(
                    pool.queues[entry.tx.sender][0])
                report.deferred += 1

        # Close the books: drained entries that neither came back as a
        # receipt nor deferred were removed by injected mempool churn.
        for entry in pool.resolve_leftover_inflight():
            self._buffer_terminal(entry, TerminalKind.DROPPED)
            report.dropped += 1

    def _settle(self, report: TickReport) -> TickReport:
        pool = self.mempool
        # Shed only after re-admission (the end of the degradation
        # ladder); batch adaptation and backpressure come first.
        for entry in pool.shed_to_capacity():
            self._buffer_terminal(entry, TerminalKind.SHED)
            report.shed += 1
        report.backpressure = pool.update_backpressure()
        report.occupancy = pool.occupancy
        self.max_occupancy = max(self.max_occupancy, pool.occupancy)
        self._adapt_batch()
        pool.sync_meters()
        if self._meters:
            self._meters.ticks.inc()
            self._meters.batch_size.set(self.batch_size)
        return report

    def _adapt_batch(self) -> None:
        """Shrink the batch toward the observed commit rate while the
        pool is saturated (bounding per-epoch latency and deferral
        churn under overload); recover multiplicatively once pressure
        clears.  The threshold is the *low*-water mark — the first
        rung of the degradation ladder, below the high-water mark
        where backpressure starts refusing admissions (were it the
        high mark, backpressure would cap occupancy right under the
        shrink trigger and this rung could never engage).  ``batch_max``
        is applied last: it is a ceiling even under ``batch_min``."""
        cfg, pool = self.config, self.mempool
        if pool.occupancy >= max(pool.config.low_mark, 1):
            target = int(pool.drain_rate * HEADROOM)
            self.batch_size = min(cfg.batch_max,
                                  max(cfg.batch_min, target))
        else:
            self.batch_size = min(cfg.batch_max,
                                  max(self.batch_size * 2,
                                      cfg.batch_min))

    def _charge_idle_tick(self) -> None:
        """An idle or stalled tick still burns an epoch's consensus
        time on the modeled clock; charging it keeps service TPS
        honest (Network.average_tps)."""
        config = self.net.config
        seconds = config.cost_model.epoch_seconds(
            shard_exec=[], ds_exec=0.0, merged_locations=0,
            n_dispatched=0, with_cosplit=config.use_signatures)
        self.net.note_idle_seconds(SERVE_TAG, seconds)
        self.served_seconds += seconds

    # -- reporting ---------------------------------------------------------

    @property
    def tps(self) -> float:
        """Committed / modeled second over the whole service life,
        idle and stalled ticks included (trim-safe, unlike
        ``net.average_tps`` once ``keep_blocks`` starts dropping)."""
        if self.served_seconds <= 0:
            return 0.0
        return self.served_committed / self.served_seconds

    # -- durability --------------------------------------------------------

    def _flush_journal(self, barrier: bool) -> None:
        if self._terminal_buffer:
            for kind, ids in sorted(self._terminal_buffer.items()):
                self.net._wal_append("svc-terminal",
                                     {"kind": kind, "ids": ids})
            self._terminal_buffer = {}
        if self._admit_buffer:
            self.net._wal_append(
                "svc-admit", [e.to_obj() for e in self._admit_buffer],
                barrier=barrier)
            self._admit_buffer = []
        elif barrier and self.net.wal is not None:
            self.net.wal.barrier()

    def _buffer_terminal(self, entry: PoolEntry,
                         kind: TerminalKind) -> None:
        # Terminals are flushed ahead of admissions: an entry admitted
        # (or re-admitted) since the last flush and retired before the
        # next is dropped from the admissions instead, or replay would
        # retire it first and then make it pending again.
        buffer = self._admit_buffer
        for i in range(len(buffer) - 1, -1, -1):
            if buffer[i] is entry:
                del buffer[i]
                break
        self._terminal_buffer.setdefault(kind.value, []).append(
            entry.tx.tx_id)

    def _adopt_restored(self) -> None:
        """Rebuild the pending pool from what resume recovered."""
        entries = list(self.net.restored_mempool.values())
        for seq, entry in enumerate(entries):
            entry.seq = seq
        floors = {sender: row[0] for sender, row
                  in self.net.nonces.records.items() if row[0] is not None}
        self.mempool.restore(entries, nonce_floor=floors)
        self.net.restored_mempool = {}

    def _trim_blocks(self) -> None:
        keep = self.config.keep_blocks
        if keep is not None and len(self.net.blocks) > keep:
            del self.net.blocks[:len(self.net.blocks) - keep]


class _ServiceMeters:
    """Loop-level instruments (pool instruments live in the mempool)."""

    def __init__(self, metrics):
        self.ticks = metrics.counter("service.ticks")
        self.stalls = metrics.counter("service.stalled_ticks")
        self.idle_ticks = metrics.counter("service.idle_ticks")
        self.batch_size = metrics.gauge("service.batch_size")
