"""Chaos harness: run a workload twice — fault-free and under a seeded
:class:`~repro.chain.faults.FaultPlan` — and compare the final contract
states.

This is the executable form of the recovery argument: for
signature-routed workloads, every lane-level fault (crash, delayed or
dropped MicroBlock, corrupted or forged StateDelta) is repaired by the
view-change protocol, so the faulty run must end in *exactly* the
fault-free final state.  The report is deterministic: same seed, same
bytes.  Mempool churn intentionally changes the submitted workload, so
enabling it downgrades the verdict to a skip.

Only contract states are compared.  Account gas portions legitimately
diverge between the runs: a recovered transaction pays its gas on the
DS lane instead of its home shard, which moves value between portions
of the same account without changing any contract state.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import random
import tempfile
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from ..chain.faults import FaultPlan
from ..chain.network import Network, NetworkConfig
from ..chain.recovery import network_fingerprint
from ..obs.metrics import MetricsRegistry
from ..chain.store import SNAPSHOT_PREFIX
from ..chain.wal import SEGMENT_PREFIX
from ..workloads.generators import Workload, workload_by_name


@dataclass
class ChaosResult:
    seed: int
    epochs: int
    shards: int
    workload: str
    plan: FaultPlan
    baseline_fp: dict[str, str]
    faulty_fp: dict[str, str]
    epoch_lines: list[str] = dc_field(default_factory=list)
    fault_log: list[str] = dc_field(default_factory=list)
    injected: int = 0
    skipped: int = 0
    dropped_txns: int = 0
    deferred: int = 0
    churn: bool = False
    # Registry snapshots of the two runs (repro.obs) — the recovery
    # counters the report prints, machine-readable.
    baseline_metrics: dict = dc_field(default_factory=dict)
    faulty_metrics: dict = dc_field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return self.baseline_fp == self.faulty_fp

    @property
    def verdict(self) -> str:
        if self.churn:
            return ("SKIPPED — mempool churn changes the submitted "
                    "workload, so fault/no-fault equivalence is not "
                    "expected")
        if self.consistent:
            return ("CONSISTENT — the faulty run ended in the "
                    "fault-free final state")
        diverged = sorted(addr for addr in self.baseline_fp
                          if self.faulty_fp.get(addr)
                          != self.baseline_fp[addr])
        return f"DIVERGENT — contract state differs: {diverged}"


def _run(workload: Workload, epochs: int,
         plan: FaultPlan | None, shards: int,
         metrics: MetricsRegistry | None = None) -> Network:
    net = Network(shards, NetworkConfig(fault_plan=plan), metrics=metrics)
    workload.setup(net)
    for epoch in range(epochs):
        net.process_epoch(workload.transactions(epoch))
    return net


def run_chaos(seed: int = 0, epochs: int = 5, shards: int = 4,
              workload: str = "FT transfer", users: int = 24,
              txns: int = 40, churn: bool = False) -> ChaosResult:
    """Run the fault-free and faulty networks and diff their ends.

    The plan's window is ``epochs + 2`` from epoch 1, so it also
    covers the workload's preparation epoch(s) — recovery has to hold
    there too.
    """
    cls = workload_by_name(workload)
    plan = FaultPlan.random(
        seed, epochs=epochs + 2, n_shards=shards,
        churn_rate=0.25 if churn else 0.0)

    baseline_reg, faulty_reg = MetricsRegistry(), MetricsRegistry()
    baseline = _run(cls(n_users=users, txns_per_epoch=txns, seed=seed),
                    epochs, None, shards, metrics=baseline_reg)
    faulty = _run(cls(n_users=users, txns_per_epoch=txns, seed=seed),
                  epochs, plan, shards, metrics=faulty_reg)

    result = ChaosResult(
        seed=seed, epochs=epochs, shards=shards, workload=workload,
        plan=plan,
        baseline_fp=network_fingerprint(baseline),
        faulty_fp=network_fingerprint(faulty),
        churn=churn,
        baseline_metrics=baseline_reg.snapshot(),
        faulty_metrics=faulty_reg.snapshot(),
    )
    for block in faulty.blocks:
        stats = block.stats
        result.epoch_lines.append(
            f"epoch {block.epoch}: committed {stats.committed}"
            f"/{stats.dispatched}, view changes {stats.view_changes}, "
            f"recovered {stats.recovered}, reexecuted "
            f"{stats.reexecuted}, rejected deltas "
            f"{stats.rejected_deltas}, deferred {stats.deferred}")
        result.fault_log.extend(block.fault_log)
        result.deferred += stats.deferred
    injector = faulty.injector
    assert injector is not None
    result.injected = injector.injected
    result.skipped = injector.skipped
    result.dropped_txns = len(injector.dropped)
    return result


def format_chaos_report(result: ChaosResult) -> str:
    lines = [
        f"chaos report — seed {result.seed}, {result.epochs} epochs, "
        f"{result.shards} shards, workload {result.workload!r}",
        "",
        f"fault plan ({len(result.plan)} events):",
    ]
    plan_text = result.plan.describe()
    lines.extend("  " + line for line in plan_text.splitlines())
    lines.append("")
    lines.append("faulty run, per epoch:")
    lines.extend("  " + line for line in result.epoch_lines)
    if result.fault_log:
        lines.append("")
        lines.append("fault log:")
        lines.extend("  " + line for line in result.fault_log)
    lines.append("")
    lines.append(
        f"totals: {result.injected} tamperings injected, "
        f"{result.skipped} skipped, {result.dropped_txns} transactions "
        f"dropped by churn, {result.deferred} deferred")
    if result.faulty_metrics:
        base = result.baseline_metrics.get("counters", {})
        faulty = result.faulty_metrics.get("counters", {})
        lines.append("")
        lines.append("telemetry (faulty run, fault-free in parens):")
        for name in ("net.tx.committed", "net.view_changes",
                     "net.rejected_deltas", "net.tx.recovered",
                     "net.tx.reexecuted", "net.tx.deferred"):
            b = base.get(name, {}).get("value", 0)
            f = faulty.get(name, {}).get("value", 0)
            lines.append(f"  {name:24s} {f:>8d}  ({b})")
    lines.append(f"consistency: {result.verdict}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Durable workload runs (the WAL-backed sibling of run_chaos).
# --------------------------------------------------------------------------

@dataclass
class DurableRunResult:
    workload: str
    fingerprint: dict[str, str]
    epochs_done: int
    resumed: bool = False
    restarted: bool = False   # found a half-set-up dir and wiped it
    barriers: int = 0
    appends: int = 0
    # Restore points the resume rejected (file name -> reason), and how
    # many deltas the chain it restored from held.
    skipped_restore_points: dict[str, str] = dc_field(default_factory=dict)
    restored_deltas: int = 0


def _durable_files(data_dir: str) -> list[Path]:
    directory = Path(data_dir)
    if not directory.is_dir():
        return []
    return [p for p in directory.iterdir()
            if p.name.startswith((SEGMENT_PREFIX, SNAPSHOT_PREFIX))]


def _wipe(data_dir: str) -> None:
    for path in _durable_files(data_dir):
        path.unlink()


def run_durable(workload: str = "FT transfer", *,
                data_dir: str, seed: int = 0, epochs: int = 3,
                shards: int = 4, users: int = 12, txns: int = 10,
                fault_seed: int | None = None,
                snapshot_every: int = 4, keep_snapshots: int = 3,
                crash_at_barrier: int | None = None,
                crash_at_append: int | None = None,
                require_existing: bool = False,
                state_backend: str | None = None,
                metrics: MetricsRegistry | None = None
                ) -> DurableRunResult:
    """Run (or continue) one workload with WAL-backed durability.

    If ``data_dir`` already holds a log, the run resumes from it and
    continues the *same* deterministic transaction stream: the
    workload generator is rebuilt from its seed and fast-forwarded
    past the epochs the log already covers.  A directory whose setup
    never completed (no ``setup-complete`` note) is wiped and
    restarted — the WAL cannot resume halfway through workload-driven
    setup code.  Identical parameters therefore converge on the same
    final fingerprint no matter how many times the process is killed
    and relaunched (see :func:`run_crash_torture`).

    ``state_backend`` (``"sqlite"`` / ``"none"``) pages a fresh run's
    contract maps; a resumed or restarted run pages as its data dir
    says, and a data dir that says otherwise than an explicit
    ``state_backend`` is refused.
    """
    cls = workload_by_name(workload)
    plan = (FaultPlan.random(fault_seed, epochs=epochs + 2,
                             n_shards=shards)
            if fault_seed is not None else None)
    meta = {"kind": "meta", "workload": workload, "seed": seed,
            "shards": shards, "users": users, "txns": txns,
            "fault_seed": fault_seed}
    w = cls(n_users=users, txns_per_epoch=txns, seed=seed)

    resumed = restarted = False
    net = None
    if _durable_files(data_dir):
        net = Network.resume(data_dir, snapshot_every=snapshot_every,
                             keep_snapshots=keep_snapshots,
                             crash_at_barrier=crash_at_barrier,
                             crash_at_append=crash_at_append,
                             metrics=metrics)
        found_meta = next((n for n in net.wal_notes
                           if isinstance(n, dict)
                           and n.get("kind") == "meta"), None)
        if found_meta is not None and found_meta != meta:
            net.close()
            raise ValueError(
                f"{data_dir} belongs to a different run: logged "
                f"{found_meta}, requested {meta}")
        paged = net.state_backend is not None
        if state_backend not in (None, "sqlite" if paged else "none"):
            net.close()
            raise ValueError(
                f"{data_dir} holds a {'paged' if paged else 'plain'} "
                f"run; requested state backend {state_backend!r}")
        state_backend = "sqlite" if paged else None     # a restart too
        if any(isinstance(n, dict) and n.get("kind") == "setup-complete"
               for n in net.wal_notes):
            resumed = True
            # Fast-forward the generator: setup and the already-done
            # epochs are re-driven against a throwaway network purely
            # to advance the workload's internal state (rng, nonces,
            # token maps) — and to keep fresh tx_ids aligned with the
            # uninterrupted run's.
            shadow = Network(shards)
            w.setup(shadow)
            for e in range(net.epoch_tags.get("measure", 0)):
                w.transactions(e)
        else:
            net.close()
            _wipe(data_dir)
            net = None
            restarted = True
    elif require_existing:
        raise FileNotFoundError(
            f"nothing to resume: {data_dir} holds no WAL segments "
            f"or snapshots")

    if net is None:
        net = Network(shards, NetworkConfig(fault_plan=plan),
                      data_dir=data_dir, snapshot_every=snapshot_every,
                      keep_snapshots=keep_snapshots,
                      crash_at_barrier=crash_at_barrier,
                      crash_at_append=crash_at_append,
                      state_backend=state_backend, metrics=metrics)
        net.wal_note(meta)
        w.setup(net)
        net.wal_note({"kind": "setup-complete"})
        net.snapshot()

    for e in range(net.epoch_tags.get("measure", 0), epochs):
        net.process_epoch(w.transactions(e), wal_tag="measure")

    result = DurableRunResult(
        workload=workload,
        fingerprint=network_fingerprint(net),
        epochs_done=net.epoch_tags.get("measure", 0),
        resumed=resumed, restarted=restarted,
        barriers=net.wal.barriers, appends=net.wal.appends,
        skipped_restore_points=net.store.skipped,
        restored_deltas=net.restored_deltas)
    net.close()
    return result


# --------------------------------------------------------------------------
# Crash torture: SIGKILL at randomized WAL barriers, resume, compare.
# --------------------------------------------------------------------------

@dataclass
class TortureOutcome:
    workload: str
    fault_seed: int | None
    kills: int = 0             # subprocesses that died to SIGKILL
    completed_early: int = 0   # finished before reaching the kill point
    attempts: int = 0
    expected_fp: dict[str, str] = dc_field(default_factory=dict)
    final_fp: dict[str, str] = dc_field(default_factory=dict)
    detail: list[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (bool(self.expected_fp)
                and self.expected_fp == self.final_fp)


def _spawn_run(data_dir: str, workload: str, *, seed: int, epochs: int,
               shards: int, users: int, txns: int,
               fault_seed: int | None,
               crash_at_barrier: int | None = None,
               crash_at_append: int | None = None,
               state_backend: str | None = None
               ) -> tuple[int, str, str]:
    """Run ``repro run`` in a subprocess; returns (rc, stdout, stderr).

    A subprocess per attempt gives the kill a real process to destroy
    and gives every attempt a fresh transaction-id counter, so
    uninterrupted and resumed runs allocate identical ids.
    """
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "repro", "run",
           "--workload", workload, "--data-dir", data_dir,
           "--seed", str(seed), "--epochs", str(epochs),
           "--shards", str(shards), "--users", str(users),
           "--txns", str(txns), "--json"]
    if fault_seed is not None:
        cmd += ["--fault-seed", str(fault_seed)]
    if crash_at_barrier is not None:
        cmd += ["--crash-at-barrier", str(crash_at_barrier)]
    if crash_at_append is not None:
        cmd += ["--crash-at-append", str(crash_at_append)]
    if state_backend is not None:
        cmd += ["--state-backend", state_backend]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, env=env, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def run_crash_torture(workload: str = "FT transfer", *, kills: int = 3,
                      seed: int = 0, epochs: int = 3, shards: int = 4,
                      users: int = 12, txns: int = 10,
                      fault_seed: int | None = None,
                      rng_seed: int = 0,
                      torn_ratio: float = 0.25) -> TortureOutcome:
    """Kill-and-resume torture for one workload.

    An uninterrupted subprocess run establishes the expected
    fingerprint; then a fresh data directory is driven to completion
    through ``kills`` SIGKILLs at randomized WAL barriers (and the
    occasional torn mid-record write), resuming after each.  The final
    surviving fingerprint must match the uninterrupted one exactly.
    """
    rng = random.Random(rng_seed)
    outcome = TortureOutcome(workload=workload, fault_seed=fault_seed)
    params = dict(seed=seed, epochs=epochs, shards=shards, users=users,
                  txns=txns, fault_seed=fault_seed)

    with tempfile.TemporaryDirectory() as tmp:
        rc, out, err = _spawn_run(os.path.join(tmp, "expected"),
                                  workload, **params)
        if rc != 0:
            outcome.detail.append(
                f"uninterrupted run failed (rc {rc}): {err.strip()}")
            return outcome
        outcome.expected_fp = json.loads(out)["fingerprint"]

        data_dir = os.path.join(tmp, "tortured")
        remaining = kills
        while remaining > 0:
            outcome.attempts += 1
            if rng.random() < torn_ratio:
                crash = {"crash_at_append": rng.randint(3, 40)}
            else:
                crash = {"crash_at_barrier": rng.randint(1, 12)}
            rc, out, err = _spawn_run(data_dir, workload, **params,
                                      **crash)
            if rc == -signal.SIGKILL:
                outcome.kills += 1
                outcome.detail.append(f"killed at {crash}")
                remaining -= 1
            elif rc == 0:
                # The run finished before its kill point triggered —
                # the directory is complete; later resumes are no-ops.
                outcome.completed_early += 1
                outcome.detail.append(f"completed before {crash}")
                remaining -= 1
            else:
                outcome.detail.append(
                    f"attempt failed (rc {rc}): {err.strip()[-500:]}")
                outcome.final_fp = {}
                return outcome

        outcome.attempts += 1
        rc, out, err = _spawn_run(data_dir, workload, **params)
        if rc != 0:
            outcome.detail.append(
                f"final resume failed (rc {rc}): {err.strip()[-500:]}")
            return outcome
        outcome.final_fp = json.loads(out)["fingerprint"]
    return outcome


def format_torture_report(outcomes: list[TortureOutcome]) -> str:
    lines = ["crash torture — SIGKILL at WAL barriers, resume, compare",
             ""]
    for o in outcomes:
        faults = (f" [fault seed {o.fault_seed}]"
                  if o.fault_seed is not None else "")
        verdict = "PASS" if o.passed else "FAIL"
        lines.append(
            f"{verdict}  {o.workload!r}{faults}: "
            f"{o.kills} kills, {o.completed_early} early completions, "
            f"{o.attempts} attempts")
        if not o.passed:
            lines.extend("      " + d for d in o.detail)
    n_pass = sum(1 for o in outcomes if o.passed)
    lines.append("")
    lines.append(f"{n_pass}/{len(outcomes)} workload runs recovered "
                 f"to the uninterrupted fingerprint")
    return "\n".join(lines)
