"""Smoke test of the benchmark command (not part of the tier-1 suite):

    PYTHONPATH=src python -m pytest bench/test_bench_smoke.py -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench.workloads import WORKLOADS  # noqa: E402

UNITS = 5

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def run_pass(workload: str, trace: int):
    """A run of UNITS timed units: ``--seconds`` alone sizes a run."""
    seconds = UNITS / WORKLOADS[workload].units_per_second
    assert WORKLOADS[workload].units_for(seconds) == UNITS
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "7",
         "--seconds", repr(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170)


@pytest.mark.parametrize("workload", ["ft_transfer_1k", "svc_durable"])
@pytest.mark.parametrize("trace", [0, 1])
def test_pass_emits_every_declared_metric(workload, trace):
    proc = run_pass(workload, trace)
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == UNITS * (
        400 if workload == "ft_transfer_1k" else 100)
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # The durable workload's temp data_dir is gone.
    out = os.path.join(HERE, "out")
    assert not [d for d in os.listdir(out) if d.startswith("svc-")]


def test_trace_file_is_ndjson_with_nested_spans():
    assert run_pass("svc_durable", 1).returncode == 0
    path = os.path.join(HERE, "out", "trace-svc_durable.ndjson")
    with open(path, encoding="utf-8") as f:
        rows = [json.loads(line) for line in f]
    assert rows[0]["kind"] == "header"
    spans = rows[1:]
    by_id = {s["id"]: s for s in spans}
    names = {s["name"] for s in spans}
    assert {"unit", "service.tick", "network.epoch", "wal.barrier",
            "interpreter.run_transition", "mempool.submit"} <= names
    for s in spans:
        assert s["self_ns"] >= 0
        if s["parent"] >= 0:
            parent = by_id[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"]
            assert s["end_ns"] <= parent["end_ns"]
    assert [s["n"] for s in spans if s["name"] == "unit"] == list(range(UNITS))


def test_golden_mismatch_is_reported(tmp_path, monkeypatch):
    from bench import run
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(
        {"7": {"ft_transfer_1k": {"digest": "0" * 64, "committed": 3600}}}))
    monkeypatch.setattr(run, "GOLDEN", str(golden))
    check = {"digest": "f" * 64, "committed": 3600}
    problems = run.golden_mismatches("ft_transfer_1k", 7, check)
    assert len(problems) == 1 and "digest" in problems[0]
    # Other seeds have no golden entry; an empty check means the run
    # never reached the check point.
    assert run.golden_mismatches("ft_transfer_1k", 8, check) == []
    assert run.golden_mismatches("ft_transfer_1k", 8, {})


def test_missing_shim_target_warns_and_reads_zero(monkeypatch, capsys):
    """Later PRs will delete wrap targets; the traced pass must carry
    on, and restore what it did wrap."""
    from bench import layers
    from repro.chain.wal import WriteAheadLog
    original = WriteAheadLog.barrier
    monkeypatch.setattr(layers, "SHIMS", [
        ("ghost.module", "repro.chain.nowhere", None, "f", None, None),
        ("ghost.attr", "repro.chain.wal", "WriteAheadLog", "gone",
         None, None),
        ("wal.barrier", "repro.chain.wal", "WriteAheadLog", "barrier",
         None, None),
    ])
    rec = layers.Recorder()
    rec.install()
    try:
        assert rec.missing == ["ghost.module", "ghost.attr"]
        assert WriteAheadLog.barrier is not original
    finally:
        rec.uninstall()
    assert WriteAheadLog.barrier is original
    assert capsys.readouterr().err.count("not installed") == 2
    agg = layers.aggregate(layers.nest(rec.spans), [])
    assert agg == {}
