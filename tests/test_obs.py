"""Unit tests for the observability layer (``repro.obs``)."""

import json

import pytest

from repro.obs import (
    GAS_BUCKETS, NS_BUCKETS, NULL_REGISTRY, NULL_TRACER, MetricsRegistry,
    NullRegistry, NullTracer, Tracer,
)


# --------------------------------------------------------------------------
# Instruments.
# --------------------------------------------------------------------------

class TestCounter:
    def test_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")
        with pytest.raises(ValueError):
            reg.histogram("a", (1, 2))


class TestGauge:
    def test_set_flag(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        assert not g.set_
        g.set(7)
        assert g.set_ and g.value == 7

    def test_unset_gauge_does_not_transfer_on_merge(self):
        src, dst = MetricsRegistry(), MetricsRegistry()
        src.gauge("g")                       # registered, never set
        dst.gauge("g").set(42)
        dst.merge_snapshot(src.snapshot())
        assert dst.gauge("g").value == 42    # not stomped by the 0

    def test_set_gauge_transfers(self):
        src, dst = MetricsRegistry(), MetricsRegistry()
        src.gauge("g").set(3)
        dst.gauge("g").set(42)
        dst.merge_snapshot(src.snapshot())
        assert dst.gauge("g").value == 3


class TestHistogram:
    def test_bucketing(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", (10, 100))
        for v in (1, 10, 11, 1000):
            h.observe(v)
        # <=10 | <=100 | +Inf
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == 1022

    def test_unsorted_bounds_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", (100, 10))
        with pytest.raises(ValueError):
            reg.histogram("h2", ())

    def test_bounds_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            reg.histogram("h", (1, 2, 3))

    def test_merge_mismatched_bounds_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", (1, 2)).observe(1)
        b.histogram("h", (5, 6)).observe(5)
        with pytest.raises(ValueError):
            a.merge_snapshot(b.snapshot())

    def test_default_buckets_sorted(self):
        assert list(NS_BUCKETS) == sorted(NS_BUCKETS)
        assert list(GAS_BUCKETS) == sorted(GAS_BUCKETS)


# --------------------------------------------------------------------------
# Registry snapshots, merging, reset.
# --------------------------------------------------------------------------

class TestRegistry:
    def _filled(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("det").inc(3)
        reg.counter("wall", deterministic=False).inc(9)
        reg.gauge("size").set(2)
        reg.histogram("hist", (10, 100)).observe(50)
        return reg

    def test_snapshot_round_trip(self):
        reg = self._filled()
        snap = reg.snapshot()
        clone = MetricsRegistry.from_snapshot(
            json.loads(json.dumps(snap)))
        assert clone.snapshot() == snap

    def test_deterministic_snapshot_filters(self):
        snap = self._filled().deterministic_snapshot()
        assert "det" in snap["counters"]
        assert "wall" not in snap["counters"]

    def test_snapshot_is_sorted_and_json_stable(self):
        a = MetricsRegistry()
        a.counter("z").inc()
        a.counter("a").inc()
        b = MetricsRegistry()
        b.counter("a").inc()
        b.counter("z").inc()
        assert (json.dumps(a.snapshot(), sort_keys=True)
                == json.dumps(b.snapshot(), sort_keys=True))

    def test_merge_adds(self):
        a, b = self._filled(), self._filled()
        a.merge_snapshot(b.snapshot())
        assert a.counter("det").value == 6
        assert a.histogram("hist", (10, 100)).count == 2

    def test_reset_to_zeroes_missing_instruments(self):
        reg = self._filled()
        checkpoint = reg.snapshot()
        reg.counter("det").inc(100)
        reg.counter("new_since_checkpoint").inc(5)
        reg.reset_to(checkpoint)
        assert reg.counter("det").value == 3
        assert reg.counter("new_since_checkpoint").value == 0

    def test_to_text_mentions_every_instrument(self):
        text = self._filled().to_text()
        for name in ("det", "wall", "size", "hist"):
            assert name in text


class TestPrometheus:
    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("net.tx.committed").inc(7)
        reg.gauge("service.batch_size").set(2)
        h = reg.histogram("lane.gas", (10, 100))
        h.observe(5)
        h.observe(50)
        h.observe(5000)
        out = reg.to_prometheus()
        assert "# TYPE repro_net_tx_committed counter" in out
        assert "repro_net_tx_committed 7" in out
        assert "repro_service_batch_size 2" in out
        # Bucket counts are cumulative, with the +Inf total.
        assert 'repro_lane_gas_bucket{le="10"} 1' in out
        assert 'repro_lane_gas_bucket{le="100"} 2' in out
        assert 'repro_lane_gas_bucket{le="+Inf"} 3' in out
        assert "repro_lane_gas_count 3" in out
        assert out.endswith("\n")


# --------------------------------------------------------------------------
# Null implementations.
# --------------------------------------------------------------------------

class TestNullObjects:
    def test_null_registry_hands_out_shared_noop(self):
        c = NULL_REGISTRY.counter("x")
        assert c is NULL_REGISTRY.histogram("y", (1, 2))
        c.inc()
        c.observe(3)
        c.set(4)
        assert NULL_REGISTRY.snapshot() == \
            {"counters": {}, "gauges": {}, "histograms": {}}
        assert not NULL_REGISTRY.enabled
        assert isinstance(NULL_REGISTRY, NullRegistry)

    def test_null_tracer_span_is_shared_noop(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        with NULL_TRACER.span("a") as span:
            assert span is None
        assert NULL_TRACER.to_obj() == []
        assert NULL_TRACER.flame() == ""
        assert isinstance(NULL_TRACER, NullTracer)


# --------------------------------------------------------------------------
# Tracer.
# --------------------------------------------------------------------------

class TestTracer:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
            with tracer.span("sibling"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert [c.name for c in root.children] == ["child", "sibling"]
        for child in root.children:
            assert root.start_ns <= child.start_ns
            assert child.end_ns <= root.end_ns

    def test_to_obj_and_flame(self):
        tracer = Tracer()
        with tracer.span("epoch"):
            with tracer.span("lane 0"):
                pass
        (obj,) = tracer.to_obj()
        assert obj["name"] == "epoch"
        assert obj["children"][0]["name"] == "lane 0"
        assert obj["duration_ns"] >= obj["children"][0]["duration_ns"]
        flame = tracer.flame()
        assert "epoch" in flame and "lane 0" in flame

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                raise RuntimeError("boom")
        assert [r.name for r in tracer.roots] == ["root"]
        assert tracer.roots[0].end_ns >= tracer.roots[0].start_ns

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        tracer.clear()
        assert tracer.roots == []

    def test_a_span_closed_out_of_order_is_refused(self):
        tracer = Tracer()
        outer, inner = tracer.span("outer"), tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(AssertionError, match="out of order"):
            outer.__exit__(None, None, None)
