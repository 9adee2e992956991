"""Telemetry as a differential oracle.

The deterministic subset of the metrics registry (counters, gauges and
histograms registered without ``deterministic=False``) is required to
be a pure function of the submitted workload: byte-identical whether
the deployed contracts were analysed inline at deploy or found in a
summary cache filled beforehand, and across a crash + resume of a
durable run.  These tests enforce exactly that for all eight Fig. 14
workloads — any leak of process history into a deterministic
instrument (a lane counted twice, a cache hit counted as work, a
replay recording drift) shows up as a snapshot diff.
"""

import json

import pytest

from repro.chain.network import Network
from repro.contracts import CORPUS
from repro.core import cache as cache_module
from repro.core import pipeline
from repro.core.cache import SummaryCache
from repro.eval.chaos import run_durable
from repro.eval.telemetry import WORKLOAD_NAMES, run_instrumented
from repro.obs import MetricsRegistry
from repro.workloads import workload_by_name

RUN_PARAMS = dict(epochs=2, txns_per_epoch=36, n_users=24,
                  n_shards=4, seed=11)

DURABLE_PARAMS = dict(seed=3, shards=4, users=12, txns=10)

# What the Fig. 14 workloads deploy.
FIG14_SOURCES = {name: CORPUS[name] for name in sorted(
    {workload_by_name(w).contract_name for w in WORKLOAD_NAMES})}

# Where the deploy finds its summaries: analysed inline, or in a cache
# filled before the first deploy.
SUMMARY_SOURCES = ("inline", "prefilled")


def _with_summaries_from(source: str, monkeypatch) -> SummaryCache:
    """Give this process a fresh deploy cache — left empty for
    ``"inline"``, so each deploy runs the pipeline itself, or filled
    with every Fig. 14 contract for ``"prefilled"``."""
    fresh = SummaryCache()
    monkeypatch.setattr(cache_module, "GLOBAL_CACHE", fresh)
    monkeypatch.setattr(pipeline, "GLOBAL_CACHE", fresh)
    if source == "prefilled":
        for name, text in FIG14_SOURCES.items():
            fresh.get_or_compute(text, name)
        assert fresh.stats.misses == len(FIG14_SOURCES) > 1
    return fresh


def _fingerprint(workload: str) -> str:
    run = run_instrumented(workload=workload, **RUN_PARAMS)
    assert run.committed > 0
    # Every dispatched transaction is counted under exactly one reason
    # class (``net.dispatch.reason.*`` are part of the compared subset).
    counters = run.deterministic["counters"]
    assert sum(c["value"] for name, c in counters.items()
               if name.startswith("net.dispatch.reason.")) \
        == counters["net.tx.dispatched"]["value"] > 0
    return json.dumps(run.deterministic, sort_keys=True)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_counters_identical_across_summary_sources(workload, monkeypatch):
    """Runs whose deploy summaries were analysed inline or read from a
    prefilled cache record identical deterministic snapshots, byte for
    byte."""
    fingerprints = {}
    for source in SUMMARY_SOURCES:
        fresh = _with_summaries_from(source, monkeypatch)
        filled = fresh.stats.snapshot()
        fingerprints[source] = _fingerprint(workload)
        if source == "inline":
            assert fresh.stats.misses > 0       # analysed at deploy
        else:
            # Prefilled: the deploy ran no pipeline of its own.
            assert fresh.stats.misses == filled.misses
            assert fresh.stats.hits > filled.hits
    assert fingerprints["prefilled"] == fingerprints["inline"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_counters_identical_across_crash_resume(tmp_path, workload):
    """An interrupted durable run, resumed to completion, ends with the
    same deterministic snapshot as an uninterrupted run."""
    full = MetricsRegistry()
    run_durable(workload, data_dir=str(tmp_path / "full"), epochs=4,
                metrics=full, **DURABLE_PARAMS)

    # The "crash": the first process stops after 2 of the 4 epochs and
    # abandons the directory; a fresh registry resumes from the WAL.
    interrupted = MetricsRegistry()
    run_durable(workload, data_dir=str(tmp_path / "steps"), epochs=2,
                metrics=interrupted, **DURABLE_PARAMS)
    resumed = MetricsRegistry()
    result = run_durable(workload, data_dir=str(tmp_path / "steps"),
                         epochs=4, metrics=resumed, **DURABLE_PARAMS)

    assert result.resumed
    assert (json.dumps(resumed.deterministic_snapshot(), sort_keys=True)
            == json.dumps(full.deterministic_snapshot(), sort_keys=True))


def test_durable_counters_identical_across_summary_sources(tmp_path,
                                                           monkeypatch):
    """``net.commit.changed_locations`` only counts with a WAL (the
    change set is not cut without one), so the comparison above sees
    it at 0: compare it where it moves."""
    snapshots = {}
    for source in SUMMARY_SOURCES:
        _with_summaries_from(source, monkeypatch)
        registry = MetricsRegistry()
        run_durable("UD config", data_dir=str(tmp_path / source),
                    epochs=3, metrics=registry, **DURABLE_PARAMS)
        snapshots[source] = registry.deterministic_snapshot()
    counters = snapshots["inline"]["counters"]
    assert counters["net.commit.changed_locations"]["value"] > 0
    assert (json.dumps(snapshots["prefilled"], sort_keys=True)
            == json.dumps(snapshots["inline"], sort_keys=True))


def test_metrics_survive_mid_run_snapshot(tmp_path):
    """A forced durable snapshot mid-run embeds the registry; resume
    restores it and replay re-records only the epochs past it."""
    from repro.chain.transaction import payment

    alice, bob = "0x" + "a1" * 20, "0x" + "b0" * 20

    def epoch(n):
        return [payment(alice, bob, amount=1, nonce=n)]

    reg = MetricsRegistry()
    net = Network(2, data_dir=str(tmp_path), metrics=reg)
    net.create_account(alice)
    net.create_account(bob)
    net.process_epoch(epoch(1))
    net.snapshot()                 # registry state pinned here
    net.process_epoch(epoch(2))    # …and this epoch replays on resume
    expected = reg.deterministic_snapshot()
    assert expected["counters"]["net.epochs"]["value"] == 2
    net.close()

    restored = MetricsRegistry()
    net2 = Network.resume(str(tmp_path), metrics=restored)
    try:
        assert restored.deterministic_snapshot() == expected
        # The resumed network keeps counting where the dead one stopped.
        net2.process_epoch(epoch(3))
        assert restored.counter("net.epochs").value == 3
    finally:
        net2.close()


def test_disabled_network_records_nothing():
    """The default (no registry) network leaves the null registry
    empty and hands out the shared null tracer."""
    from repro.obs.metrics import NULL_REGISTRY
    from repro.obs.tracing import NULL_TRACER

    net = Network(2)
    assert net.metrics is NULL_REGISTRY
    assert net.tracer is NULL_TRACER
    a, b = "0x" + "aa" * 20, "0x" + "bb" * 20
    net.create_account(a)
    net.create_account(b)
    from repro.chain.transaction import payment
    net.process_epoch([payment(a, b, amount=1, nonce=1)])
    assert net.metrics.snapshot() == \
        {"counters": {}, "gauges": {}, "histograms": {}}


def test_view_change_rolls_back_lane_counters():
    """Counters recorded by a discarded epoch attempt do not leak into
    the committed totals: a run with an injected lane fault still
    counts each committed transaction exactly once, the lanes'
    included."""
    from repro.chain.faults import FaultEvent, FaultKind, FaultPlan
    from repro.eval.chaos import _run
    from repro.workloads import workload_by_name

    cls = workload_by_name("FT transfer")
    plan = FaultPlan([
        FaultEvent(epoch=e, kind=FaultKind.DELAY_MICROBLOCK, shard=0)
        for e in range(1, 5)
    ])
    clean_reg, faulty_reg = MetricsRegistry(), MetricsRegistry()
    _run(cls(n_users=16, txns_per_epoch=24, seed=5), 2, None, 4,
         metrics=clean_reg)
    _run(cls(n_users=16, txns_per_epoch=24, seed=5), 2, plan, 4,
         metrics=faulty_reg)

    clean_snap = clean_reg.deterministic_snapshot()
    faulty_snap = faulty_reg.deterministic_snapshot()
    clean, faulty = clean_snap["counters"], faulty_snap["counters"]
    # The chaos invariant: every submitted transaction still commits.
    assert (faulty["net.tx.committed"]["value"]
            == clean["net.tx.committed"]["value"])
    # And the faulty run really exercised the rollback path.
    assert faulty["net.view_changes"]["value"] > 0
    # Discarded attempts dispatched too; only the surviving one counts.
    for name in clean:
        if name.startswith("net.dispatch.reason."):
            assert faulty[name] == clean[name], name
    # The lanes of a discarded attempt executed too, the excluded
    # lane's queue re-ran on the DS lane, and the totals still read as
    # if every transaction ran once.
    lanes = sorted(name for name in clean if name.startswith("lane."))
    assert lanes == ["lane.gas.used", "lane.tx.executed", "lane.tx.failed",
                     "lane.tx.ok"]
    assert clean["lane.tx.executed"]["value"] > 0
    for name in lanes:
        assert faulty[name] == clean[name], name
    gas = "lane.gas_per_tx"
    assert clean_snap["histograms"][gas]["count"] \
        == clean["lane.tx.executed"]["value"]
    assert faulty_snap["histograms"][gas] == clean_snap["histograms"][gas]
