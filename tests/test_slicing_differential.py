"""Differential oracle: footprint-sliced lane payloads == full
snapshots.

``Network(slice_payloads=True)`` ships each parallel lane only the
state components the lane's dispatched footprints name (plus stubs for
untargeted contracts); ``False`` ships full CoW forks.  The two must
be *observationally identical* — same state fingerprints, stats,
receipts, balances — for every workload of the throughput evaluation
under every executor.  Any divergence means the slicer dropped a
component some transition actually touches (and the worker-side escape
check missed it).

The activation guard at the bottom protects the oracle from vacuity:
sliced payloads must actually be built (not silently fall back to full
states or to the serial loop).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chain.network import EXECUTOR_STRATEGIES, Network
from repro.chain.recovery import network_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.workloads.generators import ALL_WORKLOADS

N_SHARDS = 4
EPOCHS = 3
PARALLEL = tuple(s for s in EXECUTOR_STRATEGIES if s != "serial")


def _workload(cls):
    return cls(n_users=16, txns_per_epoch=24, seed=11)


def _receipt_key(receipt):
    tx = receipt.tx
    return (tx.sender, tx.to, tx.nonce, tx.amount, tx.transition, tx.args,
            receipt.success, receipt.gas_used, receipt.shard, receipt.error,
            tuple(repr(e) for e in receipt.events))


def _observe(workload_cls, executor: str, sliced: bool):
    # resident=False: this file tests the per-epoch payload builder;
    # a resident install ships deliberately-unsliced payloads, which
    # would pollute the lane.payload.* accounting below.
    net = Network(N_SHARDS, use_signatures=True, executor=executor,
                  slice_payloads=sliced, resident=False)
    workload = _workload(workload_cls)
    workload.setup(net)
    blocks = [net.process_epoch(workload.transactions(epoch))
              for epoch in range(EPOCHS)]
    observation = {
        "fingerprint": network_fingerprint(net),
        "stats": [dataclasses.asdict(b.stats) for b in blocks],
        "receipts": [[_receipt_key(r) for r in b.all_receipts]
                     for b in blocks],
        "merged": [b.merged_locations for b in blocks],
        "balances": dict(sorted(net.accounts.items())),
    }
    return observation, net


@pytest.mark.parametrize("executor", EXECUTOR_STRATEGIES)
@pytest.mark.parametrize("workload_cls", ALL_WORKLOADS,
                         ids=[c.__name__ for c in ALL_WORKLOADS])
def test_sliced_matches_full_snapshot(workload_cls, executor):
    full, _ = _observe(workload_cls, executor, sliced=False)
    sliced, net = _observe(workload_cls, executor, sliced=True)
    assert sliced == full
    # No footprint escape forced a silent serial redo.
    assert net.executor_fallbacks == 0
    assert net.executor_fallback_details == []


@pytest.mark.parametrize("workload_cls", ALL_WORKLOADS,
                         ids=[c.__name__ for c in ALL_WORKLOADS])
def test_slicing_actually_activates(workload_cls):
    """Vacuity guard: every workload builds sliced or stub payloads
    (never a full state) once its parallel lanes run."""
    registry = MetricsRegistry()
    net = Network(N_SHARDS, use_signatures=True, executor="thread",
                  slice_payloads=True, metrics=registry, resident=False)
    workload = _workload(workload_cls)
    workload.setup(net)
    for epoch in range(EPOCHS):
        net.process_epoch(workload.transactions(epoch))
    counters = registry.snapshot()["counters"]
    sliced = counters["lane.payload.states_sliced"]["value"]
    full = counters["lane.payload.states_full"]["value"]
    assert sliced > 0
    assert full == 0
    assert net.executor_fallback_details == []
