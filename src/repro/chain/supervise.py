"""Lane supervision: deadlines, watchdog, retry, and circuit breakers.

The epoch loop's contract is that *no single worker failure can stall
an epoch past its deadline or force discarding unaffected lanes*.  The
old dispatch path (``pool.map`` in :mod:`repro.chain.lanes`) satisfied
neither half: a hung worker blocked the coordinator forever, and any
pool-level error threw away every lane's result and reran the whole
epoch serially.  This module replaces it with a supervised dispatcher:

* Each runnable lane is submitted as its own future and collected
  under a shared **per-lane deadline** (``SuperviseConfig.deadline_s``,
  derived from ``CostModel.microblock_timeout_s`` by default —
  mirroring the protocol rule that a MicroBlock missing past the
  consensus timeout triggers recovery).
* A **watchdog** classifies every failure into the
  :class:`LaneFailure` taxonomy (timeout / worker-death / pickle /
  footprint-escape / pool-broken), reaps a wedged process pool
  (``kill_process_pool``), and retries *only* the failed lanes with
  bounded exponential backoff and deterministic seeded jitter —
  completed lanes keep their results.  Retries are safe because a
  :class:`~repro.chain.lanes.LaneTask` is an immutable snapshot of the
  epoch-start state: re-executing it is idempotent.  Each retry builds
  a *fresh* task (new CoW forks, private interpreter cache) so a
  timed-out thread attempt still limping along in the background can
  never share mutable structures with its replacement.
* A per-strategy **circuit breaker** opens after repeated
  infrastructure failures, degrading process → thread → serial, and
  half-open-probes its way back up once a cooldown (counted in
  supervised epochs, so it is scheduler-independent) expires.
* A lane that keeps taking workers down is **quarantined**: pinned to
  the in-coordinator serial path and recorded like a dead letter, so
  one poison payload cannot grind the executor ladder down for
  everyone else.

Every decision is exported through ``repro.obs`` (``supervise.*``
counters, breaker-state gauges, retry/backoff histograms, and a
``supervise`` span) — all ``deterministic=False``, since real failures
and wall-clock deadlines legitimately differ between otherwise
identical runs.  ``docs/FAULTS.md`` documents the taxonomy, the
breaker state machine, and the tuning knobs.
"""

from __future__ import annotations

import enum
import pickle
import random
import time
from collections import deque
from concurrent.futures import BrokenExecutor, TimeoutError as FutureTimeout
from dataclasses import dataclass, replace as dc_replace

from .faults import FaultKind, WorkerKilled
from .lanes import LaneResult, build_lane_task, run_lane_task


# --------------------------------------------------------------------------
# Failure taxonomy.
# --------------------------------------------------------------------------

class LaneFailureKind(enum.Enum):
    TIMEOUT = "timeout"                      # no result within deadline_s
    WORKER_DEATH = "worker-death"            # worker process/thread died
    PICKLE = "pickle"                        # task or result not picklable
    FOOTPRINT_ESCAPE = "footprint-escape"    # lane wrote outside its slice
    POOL_BROKEN = "pool-broken"              # submit/pool-level failure

    def __str__(self) -> str:
        return self.value


# Kinds that indicate *executor infrastructure* trouble: they feed the
# circuit breaker and the poison-payload quarantine.  PICKLE and
# FOOTPRINT_ESCAPE are deterministic properties of the payload — a
# retry through the same pool cannot fix them, so they route straight
# to the in-coordinator serial path without tripping anything.
INFRA_FAILURES = frozenset({
    LaneFailureKind.TIMEOUT, LaneFailureKind.WORKER_DEATH,
    LaneFailureKind.POOL_BROKEN,
})


@dataclass(frozen=True)
class LaneFailure:
    """One classified failure of one lane attempt."""

    lane: int
    kind: LaneFailureKind
    strategy: str
    epoch: int
    attempt: int          # 0-based pool attempt that failed
    detail: str = ""

    def __str__(self) -> str:
        base = (f"epoch {self.epoch} lane {self.lane} "
                f"attempt {self.attempt} [{self.strategy}]: {self.kind}")
        return f"{base} — {self.detail}" if self.detail else base


# --------------------------------------------------------------------------
# Clocks (injectable, so backoff schedules are testable without sleeping).
# --------------------------------------------------------------------------

class SystemClock:
    """Real time; the default."""

    monotonic = staticmethod(time.monotonic)
    sleep = staticmethod(time.sleep)


class ManualClock:
    """A fake clock for tests: ``sleep`` advances time instantly and
    records the requested duration, so backoff schedules can be
    asserted deterministically."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


# --------------------------------------------------------------------------
# Bounded detail log (satellite: net.executor_fallback_details).
# --------------------------------------------------------------------------

FALLBACK_DETAIL_LIMIT = 64


class BoundedLog(deque):
    """A fixed-capacity append-only detail log.

    Appends past capacity drop the oldest entry and count the drop, so
    a long chaos run cannot grow memory without bound while the loss
    stays observable (``dropped`` is surfaced as the
    ``net.executor.fallback_dropped`` gauge and persisted through
    snapshots).  Equality compares element-wise against any sequence,
    so assertions written against the old plain-list field still hold.
    """

    def __init__(self, iterable=(), maxlen: int = FALLBACK_DETAIL_LIMIT,
                 dropped: int = 0):
        super().__init__(iterable, maxlen)
        self.dropped = dropped

    def append(self, item) -> None:
        if self.maxlen is not None and len(self) == self.maxlen:
            self.dropped += 1
        super().append(item)

    def __eq__(self, other):
        if isinstance(other, (list, tuple, deque)):
            return list(self) == list(other)
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None


# --------------------------------------------------------------------------
# Circuit breaker.
# --------------------------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"
# Gauge encoding for supervise.breaker.* (docs/FAULTS.md).
BREAKER_GAUGE = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}


class CircuitBreaker:
    """Per-executor-strategy breaker over supervised epoch runs.

    CLOSED counts *consecutive* runs with an infrastructure failure;
    ``threshold`` of them trips the breaker OPEN.  An open breaker
    rejects runs for ``cooldown`` supervised epochs (counted in calls,
    not wall time, so the schedule is deterministic under test), then
    admits one HALF_OPEN probe: success closes it and resets the
    cooldown, another failure re-opens it with the cooldown doubled
    (capped).  ``transitions`` records every state change for the
    chaos report and the metrics snapshot.
    """

    def __init__(self, strategy: str, threshold: int, cooldown: int,
                 cooldown_cap: int):
        self.strategy = strategy
        self.threshold = threshold
        self.base_cooldown = cooldown
        self.cooldown_cap = cooldown_cap
        self.state = BREAKER_CLOSED
        self.failures = 0            # consecutive failed runs while closed
        self.cooldown = cooldown     # current open-state cooldown
        self.remaining = 0           # runs left before the next probe
        self.transitions: list[tuple[str, str]] = []

    def _move(self, state: str) -> None:
        if state != self.state:
            self.transitions.append((self.state, state))
            self.state = state

    def admits(self) -> bool:
        """One admission decision per supervised run."""
        if self.state == BREAKER_OPEN:
            self.remaining -= 1
            if self.remaining > 0:
                return False
            self._move(BREAKER_HALF_OPEN)
        return True

    def record_success(self) -> None:
        if self.state == BREAKER_HALF_OPEN:
            self.cooldown = self.base_cooldown
        self.failures = 0
        self._move(BREAKER_CLOSED)

    def record_failure(self) -> None:
        if self.state == BREAKER_HALF_OPEN:
            self.cooldown = min(self.cooldown * 2, self.cooldown_cap)
            self.remaining = self.cooldown
            self._move(BREAKER_OPEN)
            return
        self.failures += 1
        if self.state == BREAKER_CLOSED and self.failures >= self.threshold:
            self.remaining = self.cooldown
            self._move(BREAKER_OPEN)


# --------------------------------------------------------------------------
# Supervisor configuration.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperviseConfig:
    """Tuning knobs of the lane supervisor (see docs/FAULTS.md)."""

    # Per-lane deadline for one pool attempt.  Network.__init__ defaults
    # it to CostModel.microblock_timeout_s (its lane_deadline_s
    # argument overrides).
    deadline_s: float = 12.0
    # Pool re-submissions per lane per epoch beyond the first attempt;
    # a lane still failing afterwards runs serially in the coordinator.
    max_lane_retries: int = 2
    # Exponential backoff between retry rounds: base * 2**(round-1),
    # capped, stretched by up to `jitter` via a seeded uniform draw —
    # deterministic for a given (seed, epoch, round).
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    backoff_jitter: float = 0.25
    backoff_seed: int = 0
    # Breaker: consecutive failed runs to trip; cooldown in supervised
    # epochs before a half-open probe, doubled per failed probe.
    breaker_threshold: int = 3
    breaker_cooldown: int = 4
    breaker_cooldown_cap: int = 64
    # Consecutive epochs of infrastructure failure that pin one lane to
    # the serial path (poison-payload quarantine).
    quarantine_threshold: int = 2
    # Retained LaneFailure records (oldest dropped first).
    failure_log_limit: int = 256


@dataclass
class QuarantineRecord:
    """Dead-letter-style record of one quarantined (poison) lane."""

    lane: int
    epoch: int                    # epoch at which the lane was pinned
    failures: tuple[str, ...]     # the strikes that led here


# --------------------------------------------------------------------------
# The supervisor.
# --------------------------------------------------------------------------

class LaneSupervisor:
    """Supervised dispatch of an epoch's shard lanes.

    One instance lives on each :class:`~repro.chain.network.Network`
    and persists across epochs, carrying the breaker states, the
    quarantine set, and the bounded failure log.
    """

    def __init__(self, config: SuperviseConfig | None = None,
                 clock=None):
        self.config = config or SuperviseConfig()
        self.clock = clock or SystemClock()
        cfg = self.config
        self.breakers = {
            strategy: CircuitBreaker(strategy, cfg.breaker_threshold,
                                     cfg.breaker_cooldown,
                                     cfg.breaker_cooldown_cap)
            for strategy in ("process", "thread")}
        self.quarantined: dict[int, QuarantineRecord] = {}
        # lane -> failure strings from *consecutive* faulty epochs.
        self._strikes: dict[int, list[str]] = {}
        self.failures: deque[LaneFailure] = deque(
            maxlen=cfg.failure_log_limit)

    # -- admission (breaker ladder) -----------------------------------------

    def _admit(self, requested: str, net) -> str:
        """Walk the degradation ladder from the requested strategy to
        the first one whose breaker admits the run."""
        meters = net._meters
        ladder = ("process", "thread") if requested == "process" \
            else ("thread",)
        chosen = "serial"
        for strategy in ladder:
            breaker = self.breakers[strategy]
            before = breaker.state
            admitted = breaker.admits()
            if admitted and breaker.state == BREAKER_HALF_OPEN \
                    and before == BREAKER_OPEN:
                meters.breaker_probes.inc()
            if admitted:
                chosen = strategy
                break
        if chosen != requested:
            meters.degraded_epochs.inc()
            net.executor_fallback_details.append(
                f"supervise: {requested} breaker open; epoch "
                f"{net.epoch} degraded to {chosen}")
        self._export_breakers(meters)
        return chosen

    def _export_breakers(self, meters) -> None:
        for strategy, breaker in self.breakers.items():
            meters.breaker_state[strategy].set(
                BREAKER_GAUGE[breaker.state])

    # -- deterministic backoff ----------------------------------------------

    def backoff_delay(self, epoch: int, retry_round: int) -> float:
        """Delay before retry round ``retry_round`` (1-based) of
        ``epoch``: capped exponential base stretched by seeded jitter.
        Pure function of (config, epoch, round)."""
        cfg = self.config
        base = min(cfg.backoff_cap_s,
                   cfg.backoff_base_s * (2 ** (retry_round - 1)))
        rng = random.Random(cfg.backoff_seed * 1_000_003
                            + epoch * 8191 + retry_round)
        return base * (1.0 + cfg.backoff_jitter * rng.random())

    # -- fault payloads (chaos injection) -----------------------------------

    def _fault_payload(self, kind: FaultKind,
                       strategy: str) -> tuple[str, float] | None:
        d = self.config.deadline_s
        if kind is FaultKind.KILL_WORKER:
            return (("kill-process" if strategy == "process"
                     else "kill-thread"), 0.0)
        if kind is FaultKind.HANG_WORKER:
            # Finite (not an infinite loop) so a thread-pool worker
            # eventually frees its slot; well past the deadline so the
            # watchdog always fires first.
            return ("hang", d * 2.0 + 0.25)
        if kind is FaultKind.SLOW_LANE:
            # Lags but stays inside the deadline: must NOT trip the
            # watchdog (no false-positive timeouts).
            return ("slow", min(d * 0.25, 1.0))
        return None

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, net, failure: LaneFailure) -> None:
        self.failures.append(failure)
        net._meters.lane_failures[failure.kind].inc()
        net.executor_fallback_details.append(f"supervise: {failure}")

    def _update_quarantine(self, net, lanes, infra_failures) -> None:
        """Advance per-lane strike counts; pin lanes that failed
        ``quarantine_threshold`` epochs in a row."""
        cfg = self.config
        meters = net._meters
        for lane, _ in lanes:
            if lane in self.quarantined:
                continue
            failure = infra_failures.get(lane)
            if failure is None:
                self._strikes.pop(lane, None)
                continue
            strikes = self._strikes.setdefault(lane, [])
            strikes.append(str(failure))
            if len(strikes) >= cfg.quarantine_threshold:
                self.quarantined[lane] = QuarantineRecord(
                    lane, net.epoch, tuple(strikes))
                self._strikes.pop(lane, None)
                meters.quarantine_additions.inc()
                net.executor_fallback_details.append(
                    f"supervise: lane {lane} quarantined to the serial "
                    f"path after {cfg.quarantine_threshold} consecutive "
                    f"faulty epochs")
        meters.quarantine_size.set(len(self.quarantined))

    # -- the supervised run --------------------------------------------------

    def run(self, net, lanes: list[tuple[int, list]], gas_limit: int,
            strategy: str) -> dict[int, LaneResult] | None:
        """Run the epoch's lanes under supervision.

        Returns ``{lane: LaneResult}`` on success or ``None`` when the
        whole epoch must fall back to the caller's serial loop (breaker
        ladder bottomed out, or an unrecoverable coordinator-side
        error).  Individual lane failures never surface here — they
        are retried in the pool and, as a last resort, re-executed
        serially *inside* this call, so sibling lanes keep their
        results.
        """
        strategy = self._admit(strategy, net)
        if strategy == "serial":
            return None
        resident = getattr(net, "_resident_tracker", None) is not None
        with net.tracer.span(f"supervise {strategy}"):
            try:
                if resident:
                    return self._run_supervised_resident(
                        net, lanes, gas_limit, strategy)
                return self._run_supervised(net, lanes, gas_limit,
                                            strategy)
            except Exception as exc:   # coordinator-side surprise
                net.executor_fallback_details.append(
                    f"supervise: {strategy}: {type(exc).__name__}: "
                    f"{exc!r}")
                self.breakers[strategy].record_failure()
                self._export_breakers(net._meters)
                return None

    def _run_supervised(self, net, lanes, gas_limit,
                        strategy) -> dict[int, LaneResult] | None:
        from ..core.parallel import (
            kill_process_pool, reset_process_pool, shared_process_pool,
            shared_thread_pool,
        )
        meters = net._meters
        ship_modules = strategy == "thread"

        worker_faults = (net.injector.worker_faults(net.epoch)
                         if net.injector is not None else {})

        def make_task(lane, attempt):
            # A fresh snapshot per attempt: a timed-out thread attempt
            # may still be running, and must never share payload forks
            # or an interpreter with its replacement.
            task = build_lane_task(net, lane, queues[lane], gas_limit,
                                   ship_modules=ship_modules)
            if ship_modules and attempt > 0:
                task.runtime_cache = {}
            if attempt == 0:
                kind = worker_faults.get(lane)
                if kind is not None:
                    task.worker_fault = self._fault_payload(kind,
                                                            strategy)
            return task

        queues = dict(lanes)
        results: dict[int, LaneResult] = {}
        inline: dict[int, str] = {}        # lane -> reason
        attempts = {lane: 0 for lane in queues}
        infra_seen = False                 # any infra failure (breaker)
        # Lanes that never recovered in the pool this epoch (quarantine
        # strikes).  Collateral victims of a broken pool that succeed
        # on retry are NOT strikes — only the lane that keeps failing.
        strike_failures: dict[int, LaneFailure] = {}
        pending = []
        for lane, _ in lanes:
            if lane in self.quarantined:
                inline[lane] = "quarantined"
            else:
                pending.append(lane)

        round_no = 0
        while pending:
            round_no += 1
            if round_no > 1:
                delay = self.backoff_delay(net.epoch, round_no - 1)
                meters.supervise_backoff_ms.observe(delay * 1000.0)
                self.clock.sleep(delay)
            pool = (shared_thread_pool(net.lane_workers) if ship_modules
                    else shared_process_pool(net.lane_workers))
            futures = {}
            failures: dict[int, LaneFailure] = {}
            for lane in sorted(pending):
                try:
                    task = make_task(lane, attempts[lane])
                    if strategy == "process" and net.metrics.enabled:
                        meters.payload_bytes.inc(len(pickle.dumps(task)))
                    futures[lane] = pool.submit(run_lane_task, task)
                except pickle.PickleError as exc:
                    failures[lane] = LaneFailure(
                        lane, LaneFailureKind.PICKLE, strategy,
                        net.epoch, attempts[lane], repr(exc))
                except Exception as exc:
                    failures[lane] = LaneFailure(
                        lane, LaneFailureKind.POOL_BROKEN, strategy,
                        net.epoch, attempts[lane],
                        f"submit failed: {type(exc).__name__}: {exc!r}")

            replies = self._await_replies(net, strategy, futures,
                                          attempts, failures)
            for lane, result in replies.items():
                if result.footprint_escapes:
                    self._record(net, LaneFailure(
                        lane, LaneFailureKind.FOOTPRINT_ESCAPE,
                        strategy, net.epoch, attempts[lane],
                        "; ".join(result.footprint_escapes)))
                    inline[lane] = "footprint-escape"
                else:
                    results[lane] = result

            # Watchdog: reap a pool that a hang or death has wedged
            # before the retry round resubmits into it.
            if strategy == "process" and failures:
                kinds = {f.kind for f in failures.values()}
                if LaneFailureKind.TIMEOUT in kinds:
                    kill_process_pool()
                    meters.pool_rebuilds.inc()
                elif kinds & {LaneFailureKind.WORKER_DEATH,
                              LaneFailureKind.POOL_BROKEN}:
                    reset_process_pool()
                    meters.pool_rebuilds.inc()

            pending = []
            if self._triage(net, failures, attempts, inline,
                            strike_failures, pending):
                infra_seen = True

        # Last resort: re-execute irrecoverable lanes serially in the
        # coordinator, from fresh fault-free snapshots.  Sibling lanes'
        # pool results stay untouched (the per-lane fallback bugfix).
        if not self._inline_rescue(net, queues, gas_limit, strategy,
                                   inline, attempts, results):
            return None

        for lane in attempts:
            meters.supervise_attempts.observe(attempts[lane] + 1)
        self._update_quarantine(net, lanes, strike_failures)
        self._finish_breakers(net, strategy, infra_seen)
        return results

    def _await_replies(self, net, strategy, futures, attempts,
                       failures) -> dict[int, object]:
        """Collect one round's futures under the shared per-lane
        deadline.

        Returns ``{lane: reply}``, in lane order, for the lanes that
        answered in time — what a reply means is the caller's business
        — and classifies every other lane into ``failures``.
        """
        cfg = self.config
        clock = self.clock
        replies = {}
        start = clock.monotonic()
        deadline = start + cfg.deadline_s
        for lane in sorted(futures):
            future = futures[lane]
            remaining = max(0.0, deadline - clock.monotonic())
            try:
                replies[lane] = future.result(timeout=remaining)
            except FutureTimeout:
                if strategy == "thread":
                    # Dequeue a not-yet-started thread task.  For
                    # processes the caller's kill (whole pool or slot)
                    # reaps everything; cancelling here would race its
                    # own reaper.
                    future.cancel()
                failures[lane] = LaneFailure(
                    lane, LaneFailureKind.TIMEOUT, strategy,
                    net.epoch, attempts[lane],
                    f"no result within {cfg.deadline_s:.3g}s")
            except WorkerKilled as exc:
                failures[lane] = LaneFailure(
                    lane, LaneFailureKind.WORKER_DEATH, strategy,
                    net.epoch, attempts[lane], str(exc))
            except BrokenExecutor as exc:
                failures[lane] = LaneFailure(
                    lane, LaneFailureKind.WORKER_DEATH, strategy,
                    net.epoch, attempts[lane],
                    f"{type(exc).__name__}: {exc}")
            except pickle.PickleError as exc:
                failures[lane] = LaneFailure(
                    lane, LaneFailureKind.PICKLE, strategy,
                    net.epoch, attempts[lane], repr(exc))
            except Exception as exc:
                failures[lane] = LaneFailure(
                    lane, LaneFailureKind.POOL_BROKEN, strategy,
                    net.epoch, attempts[lane],
                    f"{type(exc).__name__}: {exc!r}")
            else:
                if clock.monotonic() - start > cfg.deadline_s / 2:
                    net._meters.slow_lanes.inc()
        return replies

    def _triage(self, net, failures, attempts, inline, strike_failures,
                pending) -> list[int]:
        """Settle one round's failed lanes: record each, then send it
        to the inline rescue (``inline``), back to the pool
        (``pending``) or — when it never recovered — to the quarantine
        strikes.  Returns the lanes that failed on infrastructure."""
        infra = []
        for lane in sorted(failures):
            failure = failures[lane]
            self._record(net, failure)
            if failure.kind in INFRA_FAILURES:
                infra.append(lane)
            attempts[lane] += 1
            if failure.kind is LaneFailureKind.PICKLE:
                inline[lane] = "pickle"    # a retry cannot fix it
                strike_failures[lane] = failure
            elif attempts[lane] <= self.config.max_lane_retries:
                net._meters.lane_retries.inc()
                pending.append(lane)
            else:
                inline[lane] = "retries-exhausted"
                if failure.kind in INFRA_FAILURES:
                    strike_failures[lane] = failure
        return infra

    def _inline_rescue(self, net, queues, gas_limit, strategy, inline,
                       attempts, results) -> bool:
        """Re-execute irrecoverable lanes serially in the coordinator,
        sliced first, unsliced on a footprint escape.  Returns False
        only when an *unsliced* payload still escapes — the epoch then
        falls back to the caller's whole-serial loop."""
        meters = net._meters
        ship_modules = strategy == "thread"

        def rescue_task(lane, sliced):
            saved = net.slice_payloads
            if not sliced:
                net.slice_payloads = False
            try:
                task = build_lane_task(net, lane, queues[lane],
                                       gas_limit,
                                       ship_modules=ship_modules)
            finally:
                net.slice_payloads = saved
            if ship_modules:
                # Never share an interpreter with a pool attempt that
                # may still be limping along in the background.
                task.runtime_cache = {}
            return task

        for lane in sorted(inline):
            sliced = inline[lane] != "footprint-escape"
            result = run_lane_task(rescue_task(lane, sliced))
            if result.footprint_escapes and sliced:
                self._record(net, LaneFailure(
                    lane, LaneFailureKind.FOOTPRINT_ESCAPE, strategy,
                    net.epoch, attempts[lane],
                    "; ".join(result.footprint_escapes)))
                result = run_lane_task(rescue_task(lane, sliced=False))
            if result.footprint_escapes:   # unsliced: cannot happen
                net.executor_fallback_details.append(
                    f"supervise: lane {lane} escaped an unsliced "
                    f"payload; epoch falls back to serial")
                return False
            meters.lane_rescues.inc()
            results[lane] = result
        return True

    def _finish_breakers(self, net, strategy, infra_seen: bool) -> None:
        """Record the run's breaker outcome and export gauge states."""
        meters = net._meters
        breaker = self.breakers[strategy]
        before = breaker.state
        if infra_seen:
            breaker.record_failure()
        else:
            breaker.record_success()
        if breaker.state != before:
            if breaker.state == BREAKER_OPEN:
                meters.breaker_trips.inc()
                net.executor_fallback_details.append(
                    f"supervise: {strategy} breaker opened for "
                    f"{breaker.cooldown} epochs (epoch {net.epoch})")
            elif breaker.state == BREAKER_CLOSED \
                    and before == BREAKER_HALF_OPEN:
                meters.breaker_recoveries.inc()
                net.executor_fallback_details.append(
                    f"supervise: {strategy} breaker recovered "
                    f"(epoch {net.epoch})")
        self._export_breakers(meters)

    # -- the resident-worker run ---------------------------------------------

    def _run_supervised_resident(self, net, lanes, gas_limit,
                                 strategy) -> dict[int, LaneResult] | None:
        """Supervised dispatch onto resident shard workers.

        Same deadline/retry/watchdog/breaker semantics as
        :meth:`_run_supervised`, but tasks are
        :class:`~repro.chain.resident.ResidentEpochTask` messages to
        per-lane slots: only the queue ships per epoch, plus a one-time
        install for lanes the tracker does not believe current.  Two
        failure modes are new: a :class:`ResidentStale` reply (worker
        restarted or missed a sync) retries once with an install
        attached, and the process watchdog reaps single *slots* — every
        replica living in a killed slot is forgotten so the next epoch
        reinstalls it from authoritative state.
        """
        from ..core.parallel import get_resident_pool
        from .resident import (
            ResidentEpochTask, ResidentStale, build_install_task,
            run_resident_epoch,
        )
        meters = net._meters
        ship_modules = strategy == "thread"
        tracker = net._resident_tracker

        # Fold setup-time changes (create_account, deploy) into a
        # version bump before dispatching on top of them, and observe
        # how long ago the previous commit's async sync push started —
        # the coordinator-side measure of pipeline overlap.
        if net.metrics.enabled and tracker.last_push_ns:
            meters.pipeline_overlap_ns.observe(
                max(0, time.perf_counter_ns() - tracker.last_push_ns))
            tracker.last_push_ns = 0
        tracker.flush_out_of_band(net)
        version = tracker.version

        worker_faults = (net.injector.worker_faults(net.epoch)
                         if net.injector is not None else {})
        pool = get_resident_pool(strategy, net.lane_workers)
        queues = dict(lanes)
        results: dict[int, LaneResult] = {}
        inline: dict[int, str] = {}        # lane -> reason
        attempts = {lane: 0 for lane in queues}
        infra_seen = False
        strike_failures: dict[int, LaneFailure] = {}
        force_install: set[int] = set()    # attach an install next send
        stale_retried: set[int] = set()    # one stale retry per lane
        pending = []
        for lane, _ in lanes:
            if lane in self.quarantined:
                inline[lane] = "quarantined"
            else:
                pending.append(lane)
                if tracker.installed.get((strategy, lane)) != version:
                    force_install.add(lane)

        def make_task(lane, attempt):
            install = None
            if lane in force_install:
                install = build_install_task(net, lane, ship_modules)
                (meters.resident_reinstalls
                 if attempt > 0 or lane in stale_retried
                 else meters.resident_installs).inc()
            task = ResidentEpochTask(
                gen=tracker.gen, lane=lane, epoch=net.epoch,
                version=version, queue=queues[lane],
                gas_limit=gas_limit, install=install,
                metrics_enabled=net.metrics.enabled)
            if attempt == 0:
                kind = worker_faults.get(lane)
                if kind is not None:
                    task.worker_fault = self._fault_payload(kind,
                                                            strategy)
            return task

        round_no = 0
        while pending:
            round_no += 1
            if round_no > 1:
                delay = self.backoff_delay(net.epoch, round_no - 1)
                meters.supervise_backoff_ms.observe(delay * 1000.0)
                self.clock.sleep(delay)
            futures = {}
            failures: dict[int, LaneFailure] = {}
            for lane in sorted(pending):
                try:
                    task = make_task(lane, attempts[lane])
                    if strategy == "process" and net.metrics.enabled \
                            and task.install is not None:
                        meters.resident_install_bytes.inc(
                            len(pickle.dumps(task)))
                    futures[lane] = pool.submit(lane, run_resident_epoch,
                                                task)
                except pickle.PickleError as exc:
                    failures[lane] = LaneFailure(
                        lane, LaneFailureKind.PICKLE, strategy,
                        net.epoch, attempts[lane], repr(exc))
                except Exception as exc:
                    failures[lane] = LaneFailure(
                        lane, LaneFailureKind.POOL_BROKEN, strategy,
                        net.epoch, attempts[lane],
                        f"submit failed: {type(exc).__name__}: {exc!r}")

            replies = self._await_replies(net, strategy, futures,
                                          attempts, failures)
            pending = []
            for lane, result in replies.items():
                if isinstance(result, ResidentStale):
                    # Restarted worker, evicted replica, or a sync
                    # push that never landed: never wrong, just
                    # behind.  One retry with an install attached;
                    # a second stale means the slot is churning —
                    # rescue inline and let the next epoch install.
                    meters.resident_stale.inc()
                    tracker.installed.pop((strategy, lane), None)
                    net.executor_fallback_details.append(
                        f"supervise: lane {lane} resident replica "
                        f"stale (found v{result.found_version}, "
                        f"want v{version}); reinstalling")
                    if lane in stale_retried:
                        inline[lane] = "resident-stale"
                    else:
                        stale_retried.add(lane)
                        force_install.add(lane)
                        meters.lane_retries.inc()
                        pending.append(lane)
                else:
                    results[lane] = result
                    tracker.installed[(strategy, lane)] = version

            # Watchdog: reap wedged/broken *slots* (not the whole
            # pool), and forget every replica that lived in them.
            if strategy == "process" and failures:
                acted_slots: set[int] = set()
                for lane in sorted(failures):
                    kind = failures[lane].kind
                    slot = pool.slot_for(lane)
                    if slot in acted_slots:
                        continue
                    if kind is LaneFailureKind.TIMEOUT:
                        acted_slots.add(slot)
                        pool.kill_slot(lane)
                        meters.pool_rebuilds.inc()
                    elif kind in (LaneFailureKind.WORKER_DEATH,
                                  LaneFailureKind.POOL_BROKEN):
                        acted_slots.add(slot)
                        pool.reset_slot(lane)
                        meters.pool_rebuilds.inc()
                if acted_slots:
                    for key in [k for k in tracker.installed
                                if k[0] == strategy
                                and pool.slot_for(k[1]) in acted_slots]:
                        del tracker.installed[key]

            for lane in self._triage(net, failures, attempts, inline,
                                     strike_failures, pending):
                infra_seen = True
                # Whatever the worker was holding is suspect.
                tracker.installed.pop((strategy, lane), None)
                force_install.add(lane)

        if not self._inline_rescue(net, queues, gas_limit, strategy,
                                   inline, attempts, results):
            return None

        for lane in attempts:
            meters.supervise_attempts.observe(attempts[lane] + 1)
        self._update_quarantine(net, lanes, strike_failures)
        self._finish_breakers(net, strategy, infra_seen)
        return results
