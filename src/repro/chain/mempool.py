"""Bounded, admission-controlled mempool (the service-mode front door).

The paper's Fig. 14 drives a *saturated* network; a real deployment
needs a front door that survives saturation.  This module provides it:

* **Per-sender FIFO nonce queues.**  A sender's transactions are
  admitted only in contiguous nonce order — gaps and duplicates are
  rejected at the door with typed receipts, so the pool never holds a
  transaction that cannot execute before the ones ahead of it.
* **Capacity caps.**  A global cap bounds pool memory; a per-sender cap
  stops one client from monopolising it.
* **Backpressure.**  Above the high-water mark, new admissions are
  refused with a ``BACKPRESSURE`` receipt carrying a retry-after hint
  (in ticks), until occupancy falls back under the low-water mark.
* **Deterministic shedding.**  Transactions a lane's gas limit
  deferred, re-entering the pool, are never refused (refusing them would lose
  work the service already accepted); if they push the pool past its
  cap, the lowest-priority queue *tail* is shed — lowest gas price
  first, then most-deferred, then youngest — and the sender's nonce
  floor rolls back so the client can resubmit.  Only tails are ever
  evicted, preserving nonce contiguity.
* **Exactly-one-terminal accounting.**  Every submission ends in
  exactly one terminal outcome — committed, failed, rejected at
  admission, backpressured, shed, dead-lettered, or dropped by
  injected churn — and the counters partition: ``submitted ==
  terminal + pending + inflight`` at every instant
  (``tests/test_mempool_properties.py`` enforces this under arbitrary
  interleavings).

The pool is a pure data structure: it never executes transactions and
holds no wall-clock state beyond optional latency stamps.  The
:class:`~repro.chain.service.ServiceLoop` drains it into
``Network.process_epoch`` and reports outcomes back.
"""

from __future__ import annotations

import enum
import heapq
import time
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .transaction import Transaction
from .serialization import (
    TransactionRowError, transaction_from_obj, transaction_to_obj,
)


class AdmissionStatus(enum.Enum):
    """What the front door said to one submission."""

    ADMITTED = "admitted"
    REJECTED = "rejected"
    BACKPRESSURE = "backpressure"


class RejectReason(enum.Enum):
    """Typed reasons for an admission-time rejection."""

    NONCE_GAP = "nonce-gap"              # nonce > expected: hole ahead
    NONCE_DUPLICATE = "nonce-duplicate"  # nonce <= last admitted/used
    SENDER_FULL = "sender-queue-full"    # per-sender cap reached
    POOL_FULL = "pool-full"              # global cap, tx outranked


class TerminalKind(enum.Enum):
    """The exactly-one terminal outcome of a submission.

    ``COMMITTED``/``FAILED`` are execution outcomes (the transaction
    reached a block; ``FAILED`` means it carries a failure receipt).
    ``REJECTED``/``BACKPRESSURED`` are admission outcomes — the pool
    never held the transaction.  ``SHED`` and ``DEAD_LETTERED`` are
    overload outcomes for admitted transactions.  ``DROPPED`` accounts
    for transactions removed by injected mempool churn (fault runs
    only) so even adversarial runs keep the partition exact.
    """

    COMMITTED = "committed"
    FAILED = "failed"
    REJECTED = "rejected"
    BACKPRESSURED = "backpressured"
    SHED = "shed"
    DEAD_LETTERED = "dead-lettered"
    DROPPED = "dropped"


class SubmitReceipt(NamedTuple):
    """Typed answer to one ``submit`` call (immutable: a tuple)."""

    tx_id: int
    sender: str
    nonce: int
    status: AdmissionStatus
    reason: RejectReason | None = None
    # BACKPRESSURE only: suggested ticks to wait before resubmitting.
    retry_after: int | None = None

    @property
    def admitted(self) -> bool:
        return self.status is AdmissionStatus.ADMITTED


@dataclass(slots=True)
class PoolEntry:
    """One admitted transaction waiting to be drained."""

    tx: Transaction
    seq: int                 # global arrival order (drain key)
    deferrals: int = 0       # times a lane's gas limit deferred it
    admit_tick: int = 0      # service tick at first admission
    admit_ns: int = 0        # wall-clock stamp (0 when metrics are off)

    def to_obj(self) -> list:
        """The journal row: the transaction's row, then the deferral
        count (``svc-admit`` records, restore points)."""
        row = transaction_to_obj(self.tx)
        row.append(self.deferrals)
        return row

    @classmethod
    def from_obj(cls, row: list, seq: int = 0) -> "PoolEntry":
        if not isinstance(row, list) or not row:
            raise TransactionRowError(
                f"a pool entry is a transaction row and a deferral "
                f"count, not {type(row).__name__}")
        return cls(transaction_from_obj(row[:-1]), seq, row[-1])


@dataclass
class MempoolConfig:
    """Tuning knobs (docs/SERVICE.md, "Tuning")."""

    capacity: int = 2048          # global entry cap
    per_sender: int = 64          # per-sender queue cap
    high_water: float = 0.85      # engage backpressure at this fill
    low_water: float = 0.60       # release it below this fill

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("mempool capacity must be >= 1")
        if self.per_sender < 1:
            raise ValueError("per-sender cap must be >= 1")
        if not (0.0 < self.high_water <= 1.0):
            raise ValueError("high_water must be in (0, 1]")
        if not (0.0 <= self.low_water <= self.high_water):
            raise ValueError("low_water must be in [0, high_water]")

    @property
    def high_mark(self) -> int:
        return max(1, int(self.capacity * self.high_water))

    @property
    def low_mark(self) -> int:
        return int(self.capacity * self.low_water)


class Mempool:
    """Bounded admission-controlled transaction pool.

    ``nonce_floor`` tracks the highest nonce accepted (or known
    consumed on-chain) per sender; admission requires exactly
    ``floor + 1`` — except for a sender's very first submission, which
    sets the floor (the pool cannot know where an unseen sender's
    sequence starts).  Shedding a tail entry rolls the floor back so
    the client's resubmission is admissible again.
    """

    def __init__(self, config: MempoolConfig | None = None,
                 metrics=None, clock=time.monotonic_ns):
        self.config = config or MempoolConfig()
        self.queues: dict[str, deque[PoolEntry]] = {}
        self.nonce_floor: dict[str, int] = {}
        self.count = 0
        self.now_tick = 0            # maintained by the service loop
        self._seq = 0
        self._backpressure_on = False
        # Drained-but-not-terminal entries, keyed by tx_id.
        self.inflight: dict[int, PoolEntry] = {}
        # The tail the last submit shed to make room, if it shed one:
        # the service loop journals it and clears this.
        self.evicted: PoolEntry | None = None
        # EWMA of recent per-tick commits; drives the retry-after hint.
        self.drain_rate = 1.0
        self.counters: dict[str, int] = {
            "submitted": 0, "admitted": 0, "readmitted": 0,
            **{f"rejected_{r.value}": 0 for r in RejectReason},
            **{t.value: 0 for t in TerminalKind
               if t not in (TerminalKind.REJECTED,)},
        }
        self._metrics = metrics
        self._clock = clock
        self._meters = (_MempoolMeters(metrics)
                        if metrics is not None and metrics.enabled
                        else None)

    # -- introspection -----------------------------------------------------

    @property
    def occupancy(self) -> int:
        return self.count

    @property
    def senders(self) -> int:
        return len(self.queues)

    @property
    def backpressure_active(self) -> bool:
        return self._backpressure_on

    def terminal_total(self) -> int:
        c = self.counters
        return (c["committed"] + c["failed"] + c["shed"]
                + c["dead-lettered"] + c["dropped"])

    def rejected_total(self) -> int:
        return sum(self.counters[f"rejected_{r.value}"]
                   for r in RejectReason)

    def accounted(self) -> int:
        """Every submission, partitioned: terminal outcomes plus the
        still-live population.  Equals ``counters['submitted']`` at all
        times (the core safety invariant)."""
        return (self.rejected_total() + self.counters["backpressured"]
                + self.terminal_total() + self.count
                + len(self.inflight))

    # -- admission ---------------------------------------------------------

    def submit(self, tx: Transaction) -> SubmitReceipt:
        """Apply admission control to one fresh submission."""
        counters = self.counters
        counters["submitted"] += 1
        sender, nonce = tx.sender, tx.nonce
        floor = self.nonce_floor.get(sender)
        if floor is not None:
            if nonce <= floor:
                return self._reject(tx, RejectReason.NONCE_DUPLICATE)
            if nonce > floor + 1:
                return self._reject(tx, RejectReason.NONCE_GAP)
        queue = self.queues.get(sender)
        config = self.config
        if queue is not None and len(queue) >= config.per_sender:
            return self._reject(tx, RejectReason.SENDER_FULL)

        if self.count >= config.capacity:
            # Full: admit only if the newcomer outranks the worst
            # sheddable tail, which is then shed to make room.  Ties
            # keep the incumbent (no churn).
            victim = self._shed_candidate(exclude_sender=sender)
            if victim is None or not self._outranks(tx, victim):
                return self._reject(tx, RejectReason.POOL_FULL)
            self.evicted = self._shed_entry(victim)
        elif (self._backpressure_on or self.count >= config.high_mark) \
                and self._under_backpressure():
            counters["backpressured"] += 1
            return SubmitReceipt(
                tx.tx_id, sender, nonce, AdmissionStatus.BACKPRESSURE,
                retry_after=self._retry_after_hint())

        self._seq = seq = self._seq + 1
        entry = PoolEntry(tx, seq, 0, self.now_tick,
                          self._clock() if self._meters else 0)
        if queue is None:
            queue = self.queues[sender] = deque()
        queue.append(entry)
        self.nonce_floor[sender] = nonce
        self.count += 1
        counters["admitted"] += 1
        return SubmitReceipt(tx.tx_id, sender, nonce,
                             AdmissionStatus.ADMITTED)

    def readmit(self, tx: Transaction, deferrals: int,
                admit_tick: int = 0, admit_ns: int = 0) -> None:
        """Return a gas-deferred transaction to the *front* of its
        sender's queue.

        Re-admissions bypass backpressure and the caps — the pool
        already accepted this work and must not lose it silently; any
        resulting over-capacity is resolved by ``shed_to_capacity``.
        Keeps the original admission stamps so submit→commit latency
        spans deferrals.
        """
        sender = tx.sender
        entry = PoolEntry(tx, self._next_seq(), deferrals=deferrals,
                          admit_tick=admit_tick, admit_ns=admit_ns)
        self.inflight.pop(tx.tx_id, None)
        queue = self.queues.setdefault(sender, deque())
        if queue and queue[0].tx.nonce < tx.nonce:
            raise ValueError(
                f"readmit would break nonce order for {sender}: "
                f"head nonce {queue[0].tx.nonce} < {tx.nonce}")
        queue.appendleft(entry)
        self.nonce_floor[sender] = max(
            self.nonce_floor.get(sender, 0), tx.nonce)
        self.count += 1
        self.counters["readmitted"] += 1

    def restore(self, entries: list[PoolEntry],
                nonce_floor: dict[str, int] | None = None) -> None:
        """Rebuild the pending pool after ``Network.resume``.

        ``entries`` arrive in their original global order; each
        sender's slice is re-sorted by nonce (deferred re-admissions
        were prepended live, which the flat order cannot express).
        Restored entries do not recount as submissions — they were
        already counted in the pre-crash life; the post-restore
        invariant is seeded by ``admitted``.
        """
        for entry in sorted(entries, key=lambda e: e.seq):
            queue = self.queues.setdefault(entry.tx.sender, deque())
            queue.append(entry)
            entry.seq = self._next_seq()
            self.count += 1
            self.counters["submitted"] += 1
            self.counters["admitted"] += 1
        for sender, queue in self.queues.items():
            ordered = sorted(queue, key=lambda e: e.tx.nonce)
            self.queues[sender] = deque(ordered)
            floor = max(e.tx.nonce for e in ordered)
            self.nonce_floor[sender] = max(
                self.nonce_floor.get(sender, 0), floor)
        if nonce_floor:
            for sender, floor in nonce_floor.items():
                self.nonce_floor[sender] = max(
                    self.nonce_floor.get(sender, 0), floor)
        if self._meters:
            # Restored entries were metered as admissions before the
            # crash (the registry came back with the restore point).
            self._meters.seen["admitted"] += len(entries)
            self.sync_meters()

    # -- draining and outcomes ---------------------------------------------

    def drain(self, max_n: int) -> list[Transaction]:
        """Remove up to ``max_n`` transactions in global arrival order,
        subject to per-sender FIFO: a sender's transactions leave in
        nonce order, interleaved with other senders by arrival."""
        if max_n <= 0 or self.count == 0:
            return []
        heap = [(q[0].seq, sender) for sender, q in self.queues.items()
                if q]
        heapq.heapify(heap)
        out: list[Transaction] = []
        while heap and len(out) < max_n:
            _, sender = heapq.heappop(heap)
            queue = self.queues[sender]
            entry = queue.popleft()
            self.count -= 1
            self.inflight[entry.tx.tx_id] = entry
            out.append(entry.tx)
            if queue:
                heapq.heappush(heap, (queue[0].seq, sender))
            else:
                del self.queues[sender]
        self.sync_meters()
        return out

    def resolve(self, tx_id: int,
                kind: TerminalKind) -> PoolEntry | None:
        """Mark a drained transaction terminal.  Returns the entry, or
        ``None`` if the id is unknown (e.g. a churn-duplicated receipt
        for an already-terminal transaction)."""
        entry = self.inflight.pop(tx_id, None)
        if entry is None:
            return None
        self._count_terminal(entry, kind)
        return entry

    def resolve_leftover_inflight(self) -> list[PoolEntry]:
        """Close the books on a tick: anything drained but neither
        receipted nor deferred was removed by injected mempool churn.
        Counting it ``DROPPED`` keeps the partition exact even under
        adversarial fault plans."""
        leftovers = list(self.inflight.values())
        self.inflight.clear()
        for entry in leftovers:
            self._count_terminal(entry, TerminalKind.DROPPED)
        return leftovers

    def shed_to_capacity(self) -> list[PoolEntry]:
        """Deterministically evict queue tails until occupancy is back
        under the cap (re-admissions may have pushed past it)."""
        shed: list[PoolEntry] = []
        while self.count > self.config.capacity:
            victim = self._shed_candidate()
            if victim is None:      # pragma: no cover - count>0 => tail
                break
            shed.append(self._shed_entry(victim))
        return shed

    def dead_letter(self, tx: Transaction, deferrals: int,
                    admit_tick: int = 0, admit_ns: int = 0) -> PoolEntry:
        """Terminally retire a transaction whose deferral budget is
        exhausted (called by the service loop instead of ``readmit``)."""
        entry = PoolEntry(tx, self._next_seq(), deferrals=deferrals,
                          admit_tick=admit_tick, admit_ns=admit_ns)
        self.inflight.pop(tx.tx_id, None)
        self._count_terminal(entry, TerminalKind.DEAD_LETTERED)
        return entry

    def note_drain_rate(self, committed: int) -> None:
        """Feed the retry-after estimator with this tick's commits."""
        self.drain_rate = 0.7 * self.drain_rate + 0.3 * max(committed, 0)

    def update_backpressure(self) -> bool:
        """Hysteresis: engage at the high-water mark, release under the
        low-water mark.  Returns the new state."""
        if self._backpressure_on:
            if self.count <= self.config.low_mark:
                self._backpressure_on = False
        elif self.count >= self.config.high_mark:
            self._backpressure_on = True
        return self._backpressure_on

    def sync_meters(self) -> None:
        """Bring the registry up to date with :attr:`counters` and the
        pool's size.  Nothing between ``submit`` and a terminal outcome
        touches an instrument: ``drain`` calls this (so a restore point
        cut inside the epoch it feeds carries every admission up to
        it), ``restore`` does, and the service loop does when a tick
        settles.  In between the registry lags by the submissions and
        outcomes since."""
        if self._meters:
            self._meters.sync(self)

    # -- persistence -------------------------------------------------------

    def pending_entries(self) -> list[PoolEntry]:
        """Every pending entry in global drain order (inflight entries
        are the service loop's to journal — they are inside an epoch)."""
        heap = [(q[0].seq, sender) for sender, q in self.queues.items()
                if q]
        heapq.heapify(heap)
        out: list[PoolEntry] = []
        cursors = {sender: 0 for _, sender in heap}
        while heap:
            _, sender = heapq.heappop(heap)
            queue = self.queues[sender]
            i = cursors[sender]
            out.append(queue[i])
            cursors[sender] = i + 1
            if i + 1 < len(queue):
                heapq.heappush(heap, (queue[i + 1].seq, sender))
        return out

    def to_obj(self) -> dict:
        """Snapshot form: pending entries only.  Nonce floors are
        reconstructed at restore from execution state + pending
        nonces, so they are not persisted."""
        return {"entries": [e.to_obj() for e in self.pending_entries()]}

    # -- internals ---------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _under_backpressure(self) -> bool:
        self.update_backpressure()
        return self._backpressure_on

    def _retry_after_hint(self) -> int:
        """Ticks until occupancy should fall under the high-water mark
        at the recently observed drain rate."""
        backlog = max(self.count - self.config.low_mark, 1)
        rate = max(int(self.drain_rate), 1)
        return -(-backlog // rate)  # ceil

    def _reject(self, tx: Transaction,
                reason: RejectReason) -> SubmitReceipt:
        self.counters[f"rejected_{reason.value}"] += 1
        return SubmitReceipt(tx.tx_id, tx.sender, tx.nonce,
                             AdmissionStatus.REJECTED, reason=reason)

    def _outranks(self, tx: Transaction, victim: PoolEntry) -> bool:
        # A newcomer must strictly beat the victim's gas price; equal
        # priority keeps the incumbent.
        return tx.gas_price > victim.tx.gas_price

    def _shed_candidate(self, exclude_sender: str | None = None
                        ) -> PoolEntry | None:
        """The entry the shedding policy evicts next: among queue
        *tails* (only tails preserve nonce contiguity), the lowest gas
        price; ties broken by most-deferred, then youngest arrival.
        Deterministic: no randomness, no wall clock."""
        best: PoolEntry | None = None
        for sender, queue in self.queues.items():
            if not queue or sender == exclude_sender:
                continue
            tail = queue[-1]
            if best is None or self._shed_key(tail) < self._shed_key(best):
                best = tail
        return best

    @staticmethod
    def _shed_key(entry: PoolEntry) -> tuple:
        return (entry.tx.gas_price, -entry.deferrals, -entry.seq)

    def _shed_entry(self, entry: PoolEntry) -> PoolEntry:
        sender = entry.tx.sender
        queue = self.queues[sender]
        assert queue[-1] is entry, "shedding must take the tail"
        queue.pop()
        if not queue:
            del self.queues[sender]
        self.count -= 1
        # Roll the nonce floor back so the client can resubmit.
        if self.nonce_floor.get(sender, 0) >= entry.tx.nonce:
            self.nonce_floor[sender] = entry.tx.nonce - 1
        self._count_terminal(entry, TerminalKind.SHED)
        return entry

    def _count_terminal(self, entry: PoolEntry,
                        kind: TerminalKind) -> None:
        self.counters[kind.value] += 1
        if self._meters and kind in _EXECUTED:
            self._meters.executed.append(
                (max(self.now_tick - entry.admit_tick, 0), entry.admit_ns))


# Submit→commit latency in service ticks (logical epochs): these are
# deterministic given the workload + fault plan, unlike the wall-clock
# milliseconds histogram next to it.
TICK_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)
LAT_MS_BUCKETS = (0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000,
                  2500, 5000)


_EXECUTED = (TerminalKind.COMMITTED, TerminalKind.FAILED)


class _MempoolMeters:
    """One pool's instruments, written only by :meth:`sync`."""

    def __init__(self, metrics):
        c, g, h = metrics.counter, metrics.gauge, metrics.histogram
        # Registry counter per ``Mempool.counters`` key ("rejected":
        # all its reasons), and how much of each the registry holds.
        self.counters = {
            key: c(f"mempool.{key}") for key in
            ("admitted", "readmitted", "rejected", "backpressured")}
        self.counters.update(
            (kind.value, c(f"mempool.terminal.{kind.value}"))
            for kind in TerminalKind
            if kind not in (TerminalKind.REJECTED,
                            TerminalKind.BACKPRESSURED))
        self.seen = dict.fromkeys(self.counters, 0)
        # (latency in ticks, admission stamp) of every transaction
        # executed since the last sync.
        self.executed: list[tuple[int, int]] = []
        self.occupancy = g("mempool.occupancy")
        self.sender_queues = g("mempool.senders")
        self.saturation = g("mempool.saturation_permille")
        self.backpressure_on = g("mempool.backpressure_active")
        # Tick latency is logical (deterministic); wall latency is not.
        self.latency_ticks = h("mempool.latency_ticks", TICK_BUCKETS)
        self.latency_ms = h("mempool.latency_ms", LAT_MS_BUCKETS,
                            deterministic=False)

    def sync(self, pool: Mempool) -> None:
        totals, seen = dict(pool.counters), self.seen
        totals["rejected"] = pool.rejected_total()
        for key, counter in self.counters.items():
            if totals[key] != seen[key]:
                counter.inc(totals[key] - seen[key])
                seen[key] = totals[key]
        if totals["admitted"] or totals["readmitted"]:
            # The size gauges stay unset until the pool has held
            # something (``Gauge.set_``).
            self.occupancy.set(pool.count)
            self.sender_queues.set(len(pool.queues))
            self.saturation.set(
                round(1000 * pool.count / pool.config.capacity))
        self.backpressure_on.set(1 if pool.backpressure_active else 0)
        if self.executed:
            now = pool._clock()
            self.latency_ticks.observe_many(
                [ticks for ticks, _ in self.executed])
            self.latency_ms.observe_many(
                [(now - stamp) / 1e6 for _, stamp in self.executed
                 if stamp])
            self.executed = []
