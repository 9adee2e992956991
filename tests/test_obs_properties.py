"""Property tests for ``repro.obs`` (Hypothesis).

Laws the observability layer's correctness arguments lean on:

* ``Histogram.observe_many`` is ``observe`` in a loop, floats and all
  (the lanes record a block's gas in one call);
* span trees always nest: every child interval lies within its
  parent's, and every span is reachable from exactly one root;
* ``snapshot() → JSON → from_snapshot()`` is exact, which is what lets
  durable network snapshots carry telemetry across a crash.
"""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.obs import MetricsRegistry, Tracer
from repro.obs.metrics import Histogram

BOUNDS = (10, 100, 1_000, 10_000)

values = st.lists(
    st.integers(min_value=0, max_value=100_000), max_size=30)


def _hist(observations) -> Histogram:
    import threading
    h = Histogram("h", BOUNDS, deterministic=True,
                  lock=threading.RLock())
    for v in observations:
        h.observe(v)
    return h


def _state(h: Histogram):
    return (tuple(h.counts), h.count, h.sum)


class TestHistogramMergeLaws:
    @settings(max_examples=100, deadline=None)
    @given(values, st.lists(st.floats(min_value=0, max_value=1e6,
                                      allow_nan=False), max_size=30))
    def test_observe_many_is_observe_in_a_loop(self, xs, fs):
        # Floats too: the sum must add up in the same order.
        for seen, batch in ((xs, fs), (fs, xs), ([], xs)):
            batched = _hist(seen)
            batched.observe_many(batch)
            assert _state(batched) == _state(_hist(seen + batch))


# --------------------------------------------------------------------------
# Span nesting.
# --------------------------------------------------------------------------

# A tree shape: each entry is a (small) number of grandchildren under
# a sequence of children.
tree_shapes = st.recursive(
    st.just([]),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=20)


def _run_spans(tracer, shape, depth=0):
    for i, child in enumerate(shape):
        with tracer.span(f"s{depth}.{i}"):
            _run_spans(tracer, child, depth + 1)


def _check_nesting(span, seen):
    assert id(span) not in seen, "span reachable from two parents"
    seen.add(id(span))
    assert span.end_ns >= span.start_ns
    for child in span.children:
        assert span.start_ns <= child.start_ns
        assert child.end_ns <= span.end_ns
        _check_nesting(child, seen)


def _count(shape) -> int:
    return sum(1 + _count(child) for child in shape)


class TestSpanNesting:
    @settings(max_examples=60, deadline=None)
    @given(tree_shapes)
    def test_children_nest_within_parents(self, shape):
        tracer = Tracer()
        _run_spans(tracer, shape)
        seen: set[int] = set()
        for root in tracer.roots:
            _check_nesting(root, seen)
        # Every opened span is finished and reachable exactly once.
        assert len(seen) == _count(shape)

    @settings(max_examples=60, deadline=None)
    @given(tree_shapes)
    def test_single_root_when_wrapped(self, shape):
        tracer = Tracer()
        with tracer.span("root"):
            _run_spans(tracer, shape)
        assert len(tracer.roots) == 1


# --------------------------------------------------------------------------
# Snapshot round-trips.
# --------------------------------------------------------------------------

names = st.text(
    alphabet="abcdefgh.xyz_0123456789", min_size=1, max_size=12)


@st.composite
def registries(draw) -> MetricsRegistry:
    reg = MetricsRegistry()
    for name in draw(st.lists(names, max_size=5, unique=True)):
        reg.counter("c." + name, draw(st.booleans())) \
            .inc(draw(st.integers(min_value=0, max_value=10**9)))
    for name in draw(st.lists(names, max_size=3, unique=True)):
        g = reg.gauge("g." + name, draw(st.booleans()))
        if draw(st.booleans()):
            g.set(draw(st.integers(min_value=-10**6, max_value=10**6)))
    for name in draw(st.lists(names, max_size=3, unique=True)):
        h = reg.histogram("h." + name, BOUNDS, draw(st.booleans()))
        for v in draw(values):
            h.observe(v)
    return reg


class TestSnapshotRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(registries())
    def test_snapshot_json_restore_is_exact(self, reg):
        snap = reg.snapshot()
        restored = MetricsRegistry.from_snapshot(
            json.loads(json.dumps(snap)))
        assert restored.snapshot() == snap

    @settings(max_examples=80, deadline=None)
    @given(registries())
    def test_reset_to_own_snapshot_is_identity(self, reg):
        snap = reg.snapshot()
        reg.reset_to(snap)
        assert reg.snapshot() == snap

    @settings(max_examples=50, deadline=None)
    @given(registries(), registries())
    def test_merge_into_empty_equals_source(self, a, b):
        # Merging two registries into an empty one equals merging the
        # second into the first (counter/histogram addition, gauge
        # last-set-wins with unset sources skipped).
        empty = MetricsRegistry()
        empty.merge_snapshot(a.snapshot())
        empty.merge_snapshot(b.snapshot())
        a.merge_snapshot(b.snapshot())
        assert empty.snapshot() == a.snapshot()
