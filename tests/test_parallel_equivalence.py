"""Differential oracle: parallel lane execution == serial execution.

The parallel epoch executors (``Network(executor="thread"|"process")``)
must be *observationally identical* to the serial loop: same final
state fingerprints, same per-epoch EpochStats, same receipts, same
fault log — for every workload of the throughput evaluation, with and
without injected faults.  Any divergence means lane isolation leaked.

Receipts are compared modulo ``tx_id`` (a process-global counter, so
two independently generated transaction streams never share ids).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chain.faults import FaultPlan
from repro.chain.network import EXECUTOR_STRATEGIES, Network
from repro.chain.recovery import network_fingerprint
from repro.workloads.generators import ALL_WORKLOADS, FTHammer

# The Fig. 14 battery plus the hot-key hammer: the one workload whose
# every lane IntMerges the same ``balances`` entry.
WORKLOADS = ALL_WORKLOADS + [FTHammer]
N_SHARDS = 4
EPOCHS = 3
PARALLEL = tuple(s for s in EXECUTOR_STRATEGIES if s != "serial")


def _workload(cls):
    return cls(n_users=16, txns_per_epoch=24, seed=11)


def _receipt_key(receipt):
    """Everything observable about a receipt except the global tx_id."""
    tx = receipt.tx
    return (tx.sender, tx.to, tx.nonce, tx.amount, tx.transition, tx.args,
            receipt.success, receipt.gas_used, receipt.shard, receipt.error,
            tuple(repr(e) for e in receipt.events))


def _observe(workload_cls, executor: str, fault_seed: int | None):
    """Run one workload end-to-end and collect every observable."""
    plan = (FaultPlan.random(fault_seed, epochs=EPOCHS, n_shards=N_SHARDS)
            if fault_seed is not None else None)
    net = Network(N_SHARDS, use_signatures=True, fault_plan=plan,
                  executor=executor)
    workload = _workload(workload_cls)
    workload.setup(net)
    blocks = [net.process_epoch(workload.transactions(epoch))
              for epoch in range(EPOCHS)]
    observation = {
        "fingerprint": network_fingerprint(net),
        "stats": [dataclasses.asdict(b.stats) for b in blocks],
        "fault_log": [b.fault_log for b in blocks],
        "excluded": [b.excluded_lanes for b in blocks],
        "receipts": [[_receipt_key(r) for r in b.all_receipts]
                     for b in blocks],
        "merged": [b.merged_locations for b in blocks],
        "balances": dict(sorted(net.accounts.items())),
    }
    return observation, net


@pytest.mark.parametrize("executor", PARALLEL)
@pytest.mark.parametrize("workload_cls", WORKLOADS,
                         ids=[c.__name__ for c in WORKLOADS])
def test_parallel_matches_serial(workload_cls, executor):
    serial, _ = _observe(workload_cls, "serial", fault_seed=None)
    parallel, net = _observe(workload_cls, executor, fault_seed=None)
    assert parallel == serial
    # The whole point: these epochs actually ran through the pool
    # (fault-free, no workload here triggers the serial fallback).
    assert net.executor == executor
    assert net.executor_fallbacks == 0


@pytest.mark.parametrize("executor", PARALLEL)
@pytest.mark.parametrize("workload_cls", WORKLOADS,
                         ids=[c.__name__ for c in WORKLOADS])
def test_parallel_matches_serial_under_faults(workload_cls, executor):
    serial, _ = _observe(workload_cls, "serial", fault_seed=11)
    parallel, _ = _observe(workload_cls, executor, fault_seed=11)
    assert parallel == serial


def test_fault_plan_actually_injects_faults():
    """Guard the oracle against vacuity: the seeded plan fires."""
    serial, _ = _observe(ALL_WORKLOADS[0], "serial", fault_seed=11)
    assert any(serial["fault_log"])
