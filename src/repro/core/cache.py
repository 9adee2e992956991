"""Content-addressed cache of deployment-pipeline results.

Every contract-deploying transaction makes *every* miner run the full
parse → typecheck → analyse pipeline (Sec. 4.3), and the miner-side
signature validation repeats it once more.  But the pipeline is a pure
function of the source text, so its result can be cached under the
SHA-256 of the source — redeployments of a popular contract (the
common case on a real chain: token clones, proxy factories) and every
``validate_signature`` call then cost one hash instead of a re-parse
and a re-analysis.

Keys also fold in :data:`ANALYSIS_VERSION` and whether the analysis
phase ran, so bumping the version after any semantic change to the
analysis atomically invalidates every stale entry — a cached summary
can never outlive the code that produced it (see
:meth:`SummaryCache.set_version` and ``tests/test_summary_cache.py``).

Every lookup of one source after the first returns the *same*
:class:`~repro.core.pipeline.DeploymentResult` object.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

from ..obs.metrics import NS_BUCKETS, NULL_REGISTRY

# Bump on any change to parsing, type checking, or the sharding
# analysis that can alter a DeploymentResult.  Folded into every cache
# key, so old entries become unreachable immediately.
ANALYSIS_VERSION = "cosplit-analysis-1"


@dataclass
class CacheStats:
    """Hit/miss counters; ``snapshot()`` gives an immutable copy."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions)


class SummaryCache:
    """LRU cache of :class:`DeploymentResult`, keyed by source hash.

    ``maxsize`` bounds the number of retained results (LRU eviction);
    ``None`` disables the bound.

    ``metrics`` optionally attaches a
    :class:`~repro.obs.metrics.MetricsRegistry`: hits, misses and
    evictions then also land in ``pipeline.cache.*`` counters, and
    each actual pipeline run contributes its per-phase wall time to
    the ``pipeline.{parse,typecheck,analysis}_ns`` histograms.  With
    no registry the instrument handles are shared no-ops.
    """

    def __init__(self, maxsize: int | None = 512,
                 version: str = ANALYSIS_VERSION, metrics=None):
        self.maxsize = maxsize
        self.version = version
        self.stats = CacheStats()
        # key -> (version, DeploymentResult); ordered for LRU.
        self._entries: OrderedDict[str, tuple[str, object]] = OrderedDict()
        m = NULL_REGISTRY if metrics is None else metrics
        self._m_hits = m.counter("pipeline.cache.hits")
        self._m_misses = m.counter("pipeline.cache.misses")
        self._m_evictions = m.counter("pipeline.cache.evictions",
                                      deterministic=False)
        self._m_runs = m.counter("pipeline.runs")
        # Durations are wall-clock, hence never deterministic.
        self._m_parse_ns = m.histogram("pipeline.parse_ns", NS_BUCKETS,
                                       deterministic=False)
        self._m_typecheck_ns = m.histogram("pipeline.typecheck_ns",
                                           NS_BUCKETS, deterministic=False)
        self._m_analysis_ns = m.histogram("pipeline.analysis_ns",
                                          NS_BUCKETS, deterministic=False)

    # -- keys -----------------------------------------------------------------

    def key(self, source: str, with_analysis: bool = True) -> str:
        """The content address: version ⊕ analysis flag ⊕ source hash.

        Any single-character change to the source yields a different
        SHA-256, hence a different key — stale summaries cannot be
        returned for mutated code.
        """
        digest = hashlib.sha256()
        digest.update(self.version.encode())
        digest.update(b"\x00")
        digest.update(b"1" if with_analysis else b"0")
        digest.update(b"\x00")
        digest.update(source.encode())
        return digest.hexdigest()

    # -- lookup / insert ------------------------------------------------------

    def lookup(self, source: str, with_analysis: bool = True):
        """Return the cached result or ``None`` (counts hit/miss)."""
        key = self.key(source, with_analysis)
        entry = self._entries.get(key)
        if entry is None or entry[0] != self.version:
            self.stats.misses += 1
            self._m_misses.inc()
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self._m_hits.inc()
        return entry[1]

    def put(self, source: str, result, with_analysis: bool = True) -> None:
        key = self.key(source, with_analysis)
        self._entries[key] = (self.version, result)
        self._entries.move_to_end(key)
        self._evict()

    def get_or_compute(self, source: str, name: str = "<deploy>",
                       with_analysis: bool = True):
        """The cached result, computing (and caching) it on a miss
        (``stats.misses`` counts actual pipeline runs)."""
        from .pipeline import run_pipeline

        result = self.lookup(source, with_analysis)
        if result is None:
            result = run_pipeline(source, name, with_analysis)
            self._observe_run(result)
            self.put(source, result, with_analysis)
        return result

    def _observe_run(self, result) -> None:
        """Record one actual pipeline run's per-phase wall times."""
        self._m_runs.inc()
        timings = result.timings
        self._m_parse_ns.observe(timings.parse * 1e9)
        self._m_typecheck_ns.observe(timings.typecheck * 1e9)
        self._m_analysis_ns.observe(timings.analysis * 1e9)

    # -- maintenance ----------------------------------------------------------

    def set_version(self, version: str) -> int:
        """Switch to a new analysis version, flushing stale entries.

        Returns the number of entries purged.  Entries written under
        the old version would be unreachable anyway (the version is in
        the key); purging them eagerly releases the memory.
        """
        if version == self.version:
            return 0
        self.version = version
        stale = [k for k, (v, _) in self._entries.items() if v != version]
        for k in stale:
            del self._entries[k]
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()
        self.stats = CacheStats()

    def _evict(self) -> None:
        if self.maxsize is None:
            return
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._m_evictions.inc()

    def __len__(self) -> int:
        return len(self._entries)


# The process-wide default cache, shared by ``run_pipeline_cached``,
# ``validate_signature`` and ``Network.deploy``: a miner caches for
# itself.
GLOBAL_CACHE = SummaryCache()
