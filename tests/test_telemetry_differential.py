"""Telemetry as a differential oracle.

The deterministic subset of the metrics registry (counters, gauges and
histograms registered without ``deterministic=False``) is required to
be a pure function of the submitted workload: byte-identical whichever
executor analysed the deployed contracts (inline at deploy, or an
``analyze_corpus`` sweep on a thread or a process pool), and across a
crash + resume of a durable run.  These tests enforce exactly that for
all eight Fig. 14 workloads — any leak of process history into a
deterministic instrument (a lane counted twice, a cache hit counted as
work, a replay recording drift) shows up as a snapshot diff.
"""

import json

import pytest

from repro.chain.network import Network
from repro.contracts import CORPUS
from repro.core import cache as cache_module
from repro.core import pipeline
from repro.core.cache import SummaryCache
from repro.core.parallel import analyze_corpus
from repro.eval.chaos import run_durable
from repro.eval.telemetry import WORKLOAD_NAMES, run_instrumented
from repro.obs import MetricsRegistry
from repro.workloads import workload_by_name

RUN_PARAMS = dict(epochs=2, txns_per_epoch=36, n_users=24,
                  n_shards=4, seed=11)

DURABLE_PARAMS = dict(seed=3, shards=4, users=12, txns=10)

# What the Fig. 14 workloads deploy: more than one source, so a sweep
# really goes through the pool.
FIG14_SOURCES = {name: CORPUS[name] for name in sorted(
    {workload_by_name(w).contract_name for w in WORKLOAD_NAMES})}

ANALYSIS_EXECUTORS = ("serial", "thread", "process")


def _with_summaries_from(executor: str, monkeypatch) -> SummaryCache:
    """Give this process a fresh deploy cache, filled by a corpus sweep
    on ``executor`` — or, for ``"serial"``, left empty, so each deploy
    runs the pipeline inline."""
    fresh = SummaryCache()
    monkeypatch.setattr(cache_module, "GLOBAL_CACHE", fresh)
    monkeypatch.setattr(pipeline, "GLOBAL_CACHE", fresh)
    if executor != "serial":
        out = analyze_corpus(FIG14_SOURCES, workers=2, executor=executor,
                             cache=fresh)
        assert not out.fell_back, out.fallback_error
        assert out.analyzed == len(FIG14_SOURCES) > 1
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
def test_counters_identical_across_executors(workload, monkeypatch):
    """Runs whose deploy summaries were analysed inline, on a thread
    pool or on a process pool record identical deterministic
    snapshots, byte for byte."""
    fingerprints = {}
    for executor in ANALYSIS_EXECUTORS:
        fresh = _with_summaries_from(executor, monkeypatch)
        swept = fresh.stats.snapshot()
        fingerprints[executor] = _fingerprint(workload)
        if executor == "serial":
            assert fresh.stats.misses > 0       # analysed at deploy
        else:
            # Prefilled: the deploy ran no pipeline of its own.
            assert fresh.stats.misses == swept.misses
            assert fresh.stats.hits > swept.hits
    assert fingerprints["thread"] == fingerprints["serial"]
    assert fingerprints["process"] == fingerprints["serial"]


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


def test_durable_counters_identical_across_executors(tmp_path, monkeypatch):
    """``net.commit.changed_locations`` only counts with a WAL (the
    change set is not cut without one), so the executor comparison
    above sees it at 0: compare it where it moves."""
    snapshots = {}
    for executor in ("serial", "process"):
        _with_summaries_from(executor, monkeypatch)
        registry = MetricsRegistry()
        run_durable("UD config", data_dir=str(tmp_path / executor),
                    epochs=3, metrics=registry, **DURABLE_PARAMS)
        snapshots[executor] = registry.deterministic_snapshot()
    counters = snapshots["serial"]["counters"]
    assert counters["net.commit.changed_locations"]["value"] > 0
    assert (json.dumps(snapshots["process"], sort_keys=True)
            == json.dumps(snapshots["serial"], sort_keys=True))


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
    counts each committed transaction exactly once."""
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

    clean = clean_reg.deterministic_snapshot()["counters"]
    faulty = faulty_reg.deterministic_snapshot()["counters"]
    # The chaos invariant: every submitted transaction still commits.
    assert (faulty["net.tx.committed"]["value"]
            == clean["net.tx.committed"]["value"])
    # And the faulty run really exercised the rollback path.
    assert faulty["net.view_changes"]["value"] > 0
    # Discarded attempts dispatched too; only the surviving one counts.
    for name in clean:
        if name.startswith("net.dispatch.reason."):
            assert faulty[name] == clean[name], name
