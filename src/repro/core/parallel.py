"""Parallel contract analysis and shared executor pools.

The deployment pipeline is embarrassingly parallel across contracts —
each ``run_pipeline`` call is a pure function of one source text — so
a miner catching up on a block of deployments (or this repo's own
benchmarks re-analysing the corpus) can fan the work out over a
process pool.  :func:`analyze_corpus` does exactly that, with a
content-addressed :class:`~repro.core.cache.SummaryCache` in front so
only cache *misses* are shipped to the pool.

This module also owns the lazily-created, process-wide executor pools
that the sharded network simulator reuses for its parallel shard
lanes (:mod:`repro.chain.lanes`): pools are expensive to spin up, so
every Network instance in a process shares them.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

from ..obs.metrics import NS_BUCKETS, NULL_REGISTRY
from .cache import CacheStats, GLOBAL_CACHE, SummaryCache
from .pipeline import DeploymentResult

EXECUTORS = ("serial", "thread", "process")


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` env override, else CPU count.

    Unset or empty means no override; any other value must be a
    positive integer (a typo must not silently become ``cpu_count``).
    """
    env = os.environ.get("REPRO_WORKERS", "")
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers <= 0:
        raise ValueError(
            f"REPRO_WORKERS must be a positive integer, got {env!r}")
    return workers


# --------------------------------------------------------------------------
# Shared pools (reused across Network instances and corpus analyses).
# --------------------------------------------------------------------------

_pool_lock = threading.Lock()
_process_pool: ProcessPoolExecutor | None = None
_process_pool_workers = 0
_thread_pool: ThreadPoolExecutor | None = None


def shared_process_pool(workers: int | None = None) -> ProcessPoolExecutor:
    """The process pool, created lazily and grown on demand."""
    global _process_pool, _process_pool_workers
    wanted = workers or default_workers()
    with _pool_lock:
        if _process_pool is None or _process_pool_workers < wanted:
            if _process_pool is not None:
                _process_pool.shutdown(wait=False, cancel_futures=True)
            _process_pool = ProcessPoolExecutor(max_workers=wanted)
            _process_pool_workers = wanted
        return _process_pool


def shared_thread_pool(workers: int | None = None) -> ThreadPoolExecutor:
    global _thread_pool
    with _pool_lock:
        if _thread_pool is None:
            _thread_pool = ThreadPoolExecutor(
                max_workers=workers or max(4, default_workers()),
                thread_name_prefix="repro-lane")
        return _thread_pool


def reset_process_pool() -> None:
    """Discard a (possibly broken) process pool; next use recreates it."""
    global _process_pool, _process_pool_workers
    with _pool_lock:
        if _process_pool is not None:
            _process_pool.shutdown(wait=False, cancel_futures=True)
        _process_pool = None
        _process_pool_workers = 0


def kill_process_pool() -> None:
    """Forcibly reap the process pool, SIGKILLing its workers.

    ``reset_process_pool`` asks workers to exit, which a *hung* worker
    never does — its process would linger (and on a small machine keep
    a core busy) long after the pool object is discarded.  The lane
    supervisor calls this instead when a worker blows its deadline:
    kill the worker processes outright, then let the next
    :func:`shared_process_pool` call build a fresh pool.
    """
    global _process_pool, _process_pool_workers
    with _pool_lock:
        pool = _process_pool
        _process_pool = None
        _process_pool_workers = 0
    if pool is None:
        return
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.kill()
        except (OSError, ValueError):  # already gone
            pass
    # No cancel_futures: the pool's own broken-pool reaper sets an
    # exception on every pending future once the kills land, and
    # cancelling them first would make that raise in its thread.
    pool.shutdown(wait=False)


# --------------------------------------------------------------------------
# Resident lane slots (repro.chain.resident).
# --------------------------------------------------------------------------

class ResidentSlotPool:
    """Per-lane single-worker executor slots for resident shard workers.

    Why not one big pool: a resident replica lives in whichever worker
    installed it, so a lane's every message (installs, epoch tasks,
    sync pushes) must land on *that* worker.  A slot is a lazily
    created one-worker executor; ``lane % n_slots`` pins each lane to
    a slot, giving both worker affinity and per-lane FIFO ordering — a
    sync push enqueued before the next epoch's task is applied before
    it, which is what makes fire-and-forget syncs safe.

    ``kill_slot`` / ``reset_slot`` are the watchdog hooks: they discard
    one slot (SIGKILLing a hung slot's process) without touching its
    siblings, so reaping a wedged lane no longer costs every worker's
    warm state.
    """

    def __init__(self, kind: str, n_slots: int):
        self.kind = kind            # "thread" | "process"
        self._lock = threading.Lock()
        self._slots: list = [None] * max(1, n_slots)

    @property
    def n_slots(self) -> int:
        return len(self._slots)

    def slot_for(self, lane: int) -> int:
        return lane % len(self._slots)

    def grow(self, n_slots: int) -> None:
        """Widen the slot table (never shrinks).  Lanes whose mapping
        shifts simply look stale to their new worker and reinstall."""
        with self._lock:
            if n_slots > len(self._slots):
                self._slots.extend(
                    [None] * (n_slots - len(self._slots)))

    def _slot(self, index: int):
        with self._lock:
            executor = self._slots[index]
            if executor is None:
                if self.kind == "process":
                    executor = ProcessPoolExecutor(max_workers=1)
                else:
                    executor = ThreadPoolExecutor(
                        max_workers=1,
                        thread_name_prefix=f"repro-resident-{index}")
                self._slots[index] = executor
            return executor

    def submit(self, lane: int, fn, *args):
        return self._slot(self.slot_for(lane)).submit(fn, *args)

    def kill_slot(self, lane: int) -> None:
        """Forcibly reap one slot, SIGKILLing its worker process (a
        hung worker never honours a polite shutdown)."""
        index = self.slot_for(lane)
        with self._lock:
            executor = self._slots[index]
            self._slots[index] = None
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.kill()
            except (OSError, ValueError):  # already gone
                pass
        executor.shutdown(wait=False)

    def reset_slot(self, lane: int) -> None:
        """Discard one (possibly broken) slot; next use recreates it."""
        index = self.slot_for(lane)
        with self._lock:
            executor = self._slots[index]
            self._slots[index] = None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        with self._lock:
            slots, self._slots = self._slots, [None] * len(self._slots)
        for executor in slots:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)


_resident_pools: dict[str, ResidentSlotPool] = {}


def get_resident_pool(kind: str, slots: int | None = None
                      ) -> ResidentSlotPool:
    """The process-wide resident slot pool for ``kind`` ("thread" or
    "process"), created lazily and grown in place when a wider network
    asks for more slots."""
    wanted = slots or (default_workers() if kind == "process"
                       else max(4, default_workers()))
    with _pool_lock:
        pool = _resident_pools.get(kind)
        if pool is None:
            pool = ResidentSlotPool(kind, wanted)
            _resident_pools[kind] = pool
    if wanted > pool.n_slots:
        pool.grow(wanted)
    return pool


@atexit.register
def _shutdown_pools() -> None:  # pragma: no cover - interpreter exit
    global _process_pool, _thread_pool
    if _process_pool is not None:
        _process_pool.shutdown(wait=False, cancel_futures=True)
        _process_pool = None
    if _thread_pool is not None:
        _thread_pool.shutdown(wait=False, cancel_futures=True)
        _thread_pool = None
    for pool in list(_resident_pools.values()):
        pool.shutdown()
    _resident_pools.clear()


# --------------------------------------------------------------------------
# Parallel corpus analysis.
# --------------------------------------------------------------------------

@dataclass
class CorpusAnalysis:
    """The result of one :func:`analyze_corpus` run."""

    results: dict[str, DeploymentResult] = dc_field(default_factory=dict)
    wall_s: float = 0.0
    workers: int = 1
    executor: str = "serial"
    analyzed: int = 0          # pipeline runs actually performed
    cache_stats: CacheStats = dc_field(default_factory=CacheStats)
    fell_back: bool = False    # pool failed; completed serially
    fallback_error: str | None = None  # what the pool actually raised

    @property
    def n_contracts(self) -> int:
        return len(self.results)


def _analyze_one(item: tuple[str, str, bool]) -> tuple[str, DeploymentResult]:
    """Worker entry point: one pipeline run, via the worker's cache.

    Each worker process has its own ``GLOBAL_CACHE``, so duplicated
    sources inside one batch (token clones) are analysed once per
    worker at most.
    """
    name, source, with_analysis = item
    from .pipeline import run_pipeline_cached
    return name, run_pipeline_cached(source, name, with_analysis)


def analyze_corpus(sources: dict[str, str],
                   workers: int | None = None,
                   executor: str = "process",
                   cache: SummaryCache | None = None,
                   with_analysis: bool = True,
                   metrics=None) -> CorpusAnalysis:
    """Run the deployment pipeline over many contracts concurrently.

    ``sources`` maps contract names to source text.  The front cache
    (default: the process-wide one) is consulted first; only misses
    are dispatched, deduplicated by source text.  All results are
    installed into the cache, so a subsequent call is pure cache hits.

    ``executor`` is ``"process"`` (default; true CPU parallelism),
    ``"thread"`` (useful when results must share object identity with
    the caller), or ``"serial"``.  Pool failures (e.g. an unpicklable
    result) degrade to a serial run rather than raising.

    ``metrics`` optionally records ``corpus.*`` telemetry into a
    :class:`~repro.obs.metrics.MetricsRegistry`: contracts requested,
    front-cache hits, actual pipeline runs, pool fallbacks, and the
    sweep's wall time.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; "
                         f"expected one of {EXECUTORS}")
    cache = GLOBAL_CACHE if cache is None else cache
    workers = workers or default_workers()
    m = NULL_REGISTRY if metrics is None else metrics
    m_requested = m.counter("corpus.requested")
    m_front_hits = m.counter("corpus.front_cache_hits")
    m_runs = m.counter("corpus.pipeline_runs")
    m_fallbacks = m.counter("corpus.pool_fallbacks", deterministic=False)
    m_wall = m.histogram("corpus.wall_ns", NS_BUCKETS,
                         deterministic=False)
    t0 = time.perf_counter()
    out = CorpusAnalysis(workers=workers, executor=executor)

    # Front-cache pass: collect hits, dedupe misses by source text.
    misses: dict[str, list[str]] = {}   # source -> names wanting it
    for name, source in sources.items():
        hit = cache.lookup(source, with_analysis)
        if hit is not None:
            out.results[name] = hit
        else:
            misses.setdefault(source, []).append(name)

    def _serially(items):
        from .pipeline import run_pipeline
        return [(name, run_pipeline(source, name, wa))
                for name, source, wa in items]

    if executor == "serial" or workers <= 1 or len(misses) <= 1:
        computed = _serially([(names[0], source, with_analysis)
                              for source, names in misses.items()])
    else:
        items = [(names[0], source, with_analysis)
                 for source, names in misses.items()]
        try:
            pool = (shared_thread_pool(workers) if executor == "thread"
                    else shared_process_pool(workers))
            computed = list(pool.map(_analyze_one, items))
        except Exception as exc:
            if executor == "process":
                reset_process_pool()
            out.fell_back = True
            out.fallback_error = f"{type(exc).__name__}: {exc!r}"
            computed = _serially(items)

    by_first_name = dict(computed)
    for source, names in misses.items():
        result = by_first_name[names[0]]
        cache.put(source, result, with_analysis)
        for name in names:
            out.results[name] = result
    out.analyzed = len(misses)
    out.wall_s = time.perf_counter() - t0
    out.cache_stats = cache.stats.snapshot()
    m_requested.inc(len(sources))
    m_front_hits.inc(len(sources) - sum(len(n) for n in misses.values()))
    m_runs.inc(len(misses))
    if out.fell_back:
        m_fallbacks.inc()
    m_wall.observe(out.wall_s * 1e9)
    return out
