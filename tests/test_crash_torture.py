"""Crash torture: SIGKILL real subprocesses at WAL barriers and verify
resumed runs end byte-identical to uninterrupted ones.

These tests spawn ``python -m repro run`` subprocesses (see
repro.eval.chaos.run_crash_torture), so they are the slowest tier-1
tests; the parameters are deliberately tiny.
"""

import pytest

from repro.eval.chaos import (
    format_torture_report, run_crash_torture,
)
from repro.workloads.generators import ALL_WORKLOADS

TINY = dict(kills=1, epochs=2, users=8, txns=6, shards=3)


@pytest.mark.parametrize("workload",
                         [cls.name for cls in ALL_WORKLOADS])
def test_torture_all_workloads_fault_free(workload):
    outcome = run_crash_torture(workload, **TINY, rng_seed=11)
    assert outcome.passed, format_torture_report([outcome])
    assert outcome.kills + outcome.completed_early >= 1


def test_torture_under_fault_plan():
    outcome = run_crash_torture("FT transfer", kills=2, epochs=3,
                                users=10, txns=8, shards=3,
                                fault_seed=5, rng_seed=3)
    assert outcome.passed, format_torture_report([outcome])


def test_torture_thread_executor():
    outcome = run_crash_torture("NFT mint", **TINY, executor="thread",
                                rng_seed=7)
    assert outcome.passed, format_torture_report([outcome])


def test_torture_process_executor():
    outcome = run_crash_torture("UD bestow", **TINY,
                                executor="process", rng_seed=5)
    assert outcome.passed, format_torture_report([outcome])


def test_torture_torn_writes():
    """Force the torn-tail path specifically (mid-record SIGKILL)."""
    outcome = run_crash_torture("FT fund", **TINY, rng_seed=1,
                                torn_ratio=1.0)
    assert outcome.passed, format_torture_report([outcome])


def test_kill_past_a_delta_restore_point_resumes_across_it(
        tmp_path, monkeypatch):
    """A state big enough that the periodic restore point is a delta,
    and a SIGKILL placed after it: the resume path is base + delta +
    WAL suffix, and ends byte-identical to the uninterrupted run."""
    # Paged state writes base restore points only.
    monkeypatch.delenv("REPRO_STATE_BACKEND", raising=False)
    import json
    import signal

    from repro.eval.chaos import _spawn_run
    from repro.chain.store import DELTA_SUFFIX
    run = dict(workload="FT transfer", seed=0, epochs=8, shards=3,
               users=100, txns=6, fault_seed=None, executor=None)
    rc, out, err = _spawn_run(str(tmp_path / "expected"), **run)
    assert rc == 0, err
    data_dir = tmp_path / "tortured"
    # Setup takes 6 barriers, each epoch 2; the 4th epoch snapshots.
    rc, _, err = _spawn_run(str(data_dir), **run, crash_at_barrier=17)
    assert rc == -signal.SIGKILL, err
    assert any(p.name.endswith(DELTA_SUFFIX) for p in data_dir.iterdir())
    rc, resumed, err = _spawn_run(str(data_dir), **run)
    assert rc == 0, err
    resumed = json.loads(resumed)
    assert resumed["resumed"] and resumed["restored_deltas"] >= 1
    assert resumed["skipped_restore_points"] == {}
    assert resumed["fingerprint"] == json.loads(out)["fingerprint"]
