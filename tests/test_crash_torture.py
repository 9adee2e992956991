"""Crash torture: SIGKILL real subprocesses at WAL barriers and verify
resumed runs end byte-identical to uninterrupted ones.

These tests spawn ``python -m repro run`` subprocesses (see
repro.eval.chaos.run_crash_torture), so they are the slowest tier-1
tests; the parameters are deliberately tiny.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.chain.network import Network
from repro.chain.recovery import network_fingerprint
from repro.chain.store import DELTA_SUFFIX, SnapshotStore
from repro.eval.chaos import (
    _spawn_run, format_torture_report, run_crash_torture,
)
from repro.scilla.backend import paged_base
from repro.workloads.generators import ALL_WORKLOADS, FTTransfer

SRC = Path(__file__).resolve().parents[1] / "src"

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


def test_torture_torn_writes():
    """Force the torn-tail path specifically (mid-record SIGKILL)."""
    outcome = run_crash_torture("FT fund", **TINY, rng_seed=1,
                                torn_ratio=1.0)
    assert outcome.passed, format_torture_report([outcome])


def _kill_past_a_delta(tmp_path, state_backend=None):
    """A state big enough that the periodic restore point is a delta,
    and a SIGKILL placed after it: the resume path is base + delta +
    WAL suffix, and ends byte-identical to the uninterrupted run.  The
    resumed data dir's restore points, oldest first (``B`` / ``D``)."""
    run = dict(workload="FT transfer", seed=0, epochs=8, shards=3,
               users=100, txns=6, fault_seed=None,
               state_backend=state_backend)
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
    return "".join("D" if p.name.endswith(DELTA_SUFFIX) else "B"
                   for p in SnapshotStore(data_dir).paths())


def test_kill_past_a_delta_restore_point_resumes_across_it(tmp_path):
    _kill_past_a_delta(tmp_path)


def test_a_paged_run_killed_past_a_delta_resumes_across_it(tmp_path):
    """Paged state takes restore points by the same rule: the paged
    twin of the run above resumes across a delta too, and its retained
    restore points are the plain run's kinds."""
    plain = _kill_past_a_delta(tmp_path / "plain")
    paged = _kill_past_a_delta(tmp_path / "paged", state_backend="sqlite")
    assert paged == plain and "D" in paged
    # One sidecar per retained base, none per delta.
    store = SnapshotStore(tmp_path / "paged" / "tortured")
    assert len(store.backend_paths()) == plain.count("B")


def test_a_paged_run_killed_before_its_first_restore_point_resumes_paged(
        tmp_path):
    """Killed with only the WAL (and the live page store) on disk, a
    paged run resumes paged — the data dir says so, not the resuming
    process — and replays to the state the run had."""
    script = textwrap.dedent("""
        import sys
        from repro.chain.network import Network
        from repro.workloads.generators import FTTransfer
        net = Network(2, data_dir=sys.argv[1], snapshot_every=10**9,
                      crash_at_barrier=int(sys.argv[2]),
                      state_backend="sqlite")
        wl = FTTransfer(n_users=20, txns_per_epoch=8, seed=5)
        wl.setup(net)
        for epoch in range(1, 6):
            net.process_epoch(wl.transactions(epoch))
    """)
    wl = FTTransfer(n_users=20, txns_per_epoch=8, seed=5)
    twin = Network(2)
    wl.setup(twin)
    for epoch in range(1, 3):
        twin.process_epoch(wl.transactions(epoch))
    # Killed after the setup's barriers and two epochs' (an epoch
    # record and its commit each), counted on a plain durable twin.
    probe = Network(2, data_dir=str(tmp_path / "count"))
    FTTransfer(n_users=20, txns_per_epoch=8, seed=5).setup(probe)
    barriers = probe.wal.barriers + 4
    probe.close()
    data_dir = tmp_path / "paged"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(data_dir), str(barriers)],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert not SnapshotStore(data_dir).paths()
    assert (data_dir / "state.sqlite").exists()
    resumed = Network.resume(str(data_dir))
    try:
        assert resumed.state_backend is not None
        assert resumed.state_backend.kind == "sqlite"
        assert resumed.epoch == twin.epoch
        assert network_fingerprint(resumed) == network_fingerprint(twin)
        state = next(iter(resumed.contracts.values())).state
        assert any(paged_base(v) is not None for v in state.fields.values())
    finally:
        resumed.close()
