"""Property tests (Hypothesis) for the resident-replica sync protocol.

Three laws the resident worker design leans on:

* **Reinstall = incremental sync.**  After any run, a replica that was
  installed once and then advanced only by per-commit syncs is
  indistinguishable (contract states, accounts, lane-relevant nonces)
  from one freshly installed from the authoritative coordinator state.
* **Syncs commute internally.**  A sync ships *absolute* values for
  disjoint locations, so applying its writes in any interleaving
  converges to the same replica state — the replica-level echo of the
  paper's commutativity argument for lane deltas.
* **Version gaps never corrupt.**  Applying syncs out of order, or
  with one missing, is *rejected* (the replica is dropped for
  reinstall) — it can never be silently absorbed into a wrong state.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.chain.lanes import instantiate_lane_network
from repro.chain.network import Network
from repro.chain.recovery import network_fingerprint
from repro.chain.resident import (
    ResidentSync, _Replica, _apply_sync, _store_replica,
    apply_resident_sync, build_install_task, resident_replica,
)
from repro.core.parallel import get_resident_pool
from repro.workloads.generators import FTTransfer

N_SHARDS = 4


def _observe(net, lane: int):
    """Everything a lane-`lane` replica is accountable for: contract
    states and balances, account rows, and nonce records (installs and
    syncs both ship whole rows, so the whole row is compared)."""
    return (
        network_fingerprint(net),
        dict(sorted(net.accounts.items())),
        dict(sorted(net.nonces.records.items())),
    )


def _drain_thread_slots(net) -> None:
    """Wait for every fire-and-forget sync push to finish: the slots
    are FIFO, so a barrier task per lane flushes the queues."""
    pool = get_resident_pool("thread", net.lane_workers)
    for lane in range(N_SHARDS):
        pool.submit(lane, int).result(timeout=30)


def _resident_run(epochs: int, txns: int, seed: int,
                  capture: list[ResidentSync] | None = None) -> Network:
    net = Network(N_SHARDS, use_signatures=True, executor="thread",
                  resident=True)
    if capture is not None:
        tracker = net._resident_tracker
        orig = tracker._push_sync

        def capturing_push(push_net, sync, targets):
            capture.append(sync)
            return orig(push_net, sync, targets)

        tracker._push_sync = capturing_push
    workload = FTTransfer(n_users=12, txns_per_epoch=txns, seed=seed)
    workload.setup(net)
    for epoch in range(epochs):
        net.process_epoch(workload.transactions(epoch))
    return net


@settings(max_examples=8, deadline=None)
@given(epochs=st.integers(min_value=2, max_value=4),
       txns=st.integers(min_value=8, max_value=20),
       seed=st.integers(min_value=0, max_value=2**16))
def test_incremental_sync_equals_reinstall(epochs, txns, seed):
    net = _resident_run(epochs, txns, seed)
    tracker = net._resident_tracker
    _drain_thread_slots(net)

    installed = [(key, version) for key, version in
                 tracker.installed.items() if key[0] == "thread"]
    assert installed, "vacuity: no replica survived the run"
    for (strategy, lane), version in installed:
        assert version == tracker.version
        replica = resident_replica(tracker.gen, lane)
        assert replica is not None
        fresh = instantiate_lane_network(
            build_install_task(net, lane, ship_modules=True))
        assert _observe(replica, lane) == _observe(fresh, lane)


def _shuffled_sync(sync: ResidentSync, rng) -> ResidentSync:
    """The same sync with every component's application order
    permuted (dicts replay in insertion order, so reshuffling the
    key order is a genuine interleaving change)."""
    def shuffled_dict(d):
        keys = list(d)
        rng.shuffle(keys)
        return {k: d[k] for k in keys}

    writes = list(sync.contract_writes)
    rng.shuffle(writes)
    return ResidentSync(
        prev_version=sync.prev_version, version=sync.version,
        contract_writes=writes,
        contract_balances=shuffled_dict(sync.contract_balances),
        accounts=shuffled_dict(sync.accounts),
        nonces=shuffled_dict(sync.nonces))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       shuffle_seed=st.randoms(use_true_random=False))
def test_shuffled_sync_application_converges(seed, shuffle_seed):
    lane = 0
    captured: list[ResidentSync] = []
    net = _resident_run(3, 12, seed, capture=captured)
    assert captured, "vacuity: the run pushed no syncs"

    # Two manual replicas pinned at the version the first captured
    # sync starts from (installs must not share payload objects).
    base_version = captured[0].prev_version
    in_order = instantiate_lane_network(
        build_install_task(net, lane, ship_modules=True))
    shuffled = instantiate_lane_network(
        build_install_task(net, lane, ship_modules=True))
    # The install reflects the *final* authoritative state; re-applying
    # the run's syncs must be idempotent (absolute values), so both
    # replicas converge to it no matter the interleaving.
    for sync in captured:
        _apply_sync(in_order, lane, sync)
        _apply_sync(shuffled, lane, _shuffled_sync(sync, shuffle_seed))

    authoritative = instantiate_lane_network(
        build_install_task(net, lane, ship_modules=True))
    assert _observe(in_order, lane) == _observe(authoritative, lane)
    assert _observe(shuffled, lane) == _observe(authoritative, lane)
    assert base_version < captured[-1].version


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       data=st.data())
def test_version_gap_is_rejected_not_absorbed(seed, data):
    lane = 0
    captured: list[ResidentSync] = []
    net = _resident_run(4, 10, seed, capture=captured)
    assert len(captured) >= 2, "vacuity: need at least two syncs"
    tracker = net._resident_tracker

    # A private replica keyed away from the live run's, pinned at the
    # first captured sync's starting version.
    gen = tracker.gen + 1_000_000
    replica_net = instantiate_lane_network(
        build_install_task(net, lane, ship_modules=True))
    _store_replica((gen, lane),
                   _Replica(replica_net, captured[0].prev_version))

    skip = data.draw(st.integers(min_value=0,
                                 max_value=len(captured) - 2),
                     label="index of the dropped sync")
    for i, sync in enumerate(captured):
        if i == skip:
            continue            # the lost sync: never delivered
        applied = apply_resident_sync(gen, lane, sync)
        if i < skip:
            assert applied
        else:
            # The first sync after the gap is rejected and the replica
            # dropped; everything later finds no replica at all.
            assert not applied
            assert resident_replica(gen, lane) is None