"""Property-style tests for the content-addressed SummaryCache.

The cache is only sound if (1) a hit is indistinguishable from a fresh
analysis, (2) *any* change to the source changes the key, and (3) no
entry survives an analysis-version bump.  Each property gets tested
directly against the real pipeline over corpus contracts.
"""

import pytest

from repro.contracts import CORPUS
from repro.core.cache import ANALYSIS_VERSION, GLOBAL_CACHE, SummaryCache
from repro.core.pipeline import run_pipeline, run_pipeline_cached

from .helpers import mutate_one_char

SOURCE = CORPUS["FungibleToken"]


# -- property 1: hits equal fresh analysis ---------------------------------

def test_cached_result_equals_fresh_analysis():
    cache = SummaryCache()
    cached = cache.get_or_compute(SOURCE, "FT")
    fresh = run_pipeline(SOURCE, "FT")
    assert set(cached.summaries) == set(fresh.summaries)
    for name in fresh.summaries:
        assert str(cached.summaries[name]) == str(fresh.summaries[name])


def test_second_lookup_returns_identical_object():
    cache = SummaryCache()
    first = cache.get_or_compute(SOURCE)
    second = cache.get_or_compute(SOURCE)
    assert second is first
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1


@pytest.mark.parametrize("name", ["FungibleToken", "NonfungibleToken",
                                  "Crowdfunding"])
def test_cached_signature_validation_agrees(name):
    """validate_signature through the cache == straight pipeline."""
    source = CORPUS[name]
    fresh = run_pipeline(source, name)
    via_cache = run_pipeline_cached(source, name, cache=SummaryCache())
    for selection in ([], list(fresh.summaries)[:1], list(fresh.summaries)):
        sig_a = fresh.signature(tuple(selection))
        sig_b = via_cache.signature(tuple(selection))
        assert sig_a.describe() == sig_b.describe()


# -- property 2: any single-character mutation invalidates the key ---------

@pytest.mark.parametrize("seed", range(40))
def test_single_char_mutation_changes_key(seed):
    cache = SummaryCache()
    mutated = mutate_one_char(SOURCE, seed)
    assert mutated != SOURCE
    assert cache.key(mutated) != cache.key(SOURCE)


def test_mutated_source_misses_after_original_cached():
    cache = SummaryCache()
    cache.get_or_compute(SOURCE)
    for seed in range(10):
        assert cache.lookup(mutate_one_char(SOURCE, seed)) is None


def test_analysis_flag_is_part_of_the_key():
    cache = SummaryCache()
    assert cache.key(SOURCE, with_analysis=True) != \
        cache.key(SOURCE, with_analysis=False)


# -- property 3: version bumps flush stale entries -------------------------

def test_version_bump_flushes_stale_entries():
    cache = SummaryCache()
    cache.get_or_compute(SOURCE)
    cache.get_or_compute(CORPUS["HelloWorld"])
    assert len(cache) == 2

    purged = cache.set_version(ANALYSIS_VERSION + "-next")
    assert purged == 2
    assert len(cache) == 0
    assert cache.lookup(SOURCE) is None          # recomputation required
    fresh = cache.get_or_compute(SOURCE)
    assert cache.lookup(SOURCE) is fresh

    assert cache.set_version(cache.version) == 0  # no-op bump purges nothing


# -- mechanics: LRU bound, stats -------------------------------------------

def test_lru_eviction_respects_maxsize():
    cache = SummaryCache(maxsize=2)
    names = ["HelloWorld", "FungibleToken", "Crowdfunding"]
    for name in names:
        cache.get_or_compute(CORPUS[name], name)
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.lookup(CORPUS["HelloWorld"]) is None     # oldest evicted
    assert cache.lookup(CORPUS["Crowdfunding"]) is not None


def test_global_cache_serves_validate_signature():
    from repro.core.pipeline import validate_signature

    result = run_pipeline(SOURCE, "FT")
    sig = result.signature(tuple(result.summaries)[:1])
    before = GLOBAL_CACHE.stats.snapshot()
    assert validate_signature(SOURCE, sig)
    after = GLOBAL_CACHE.stats
    assert after.lookups > before.lookups   # went through the cache
