"""Differential oracles for service mode.

1. **Committed-replay equivalence**: a saturated ServiceLoop under
   FLOOD bursts, consumer stalls, gas deferrals, and load shedding
   commits a transaction stream whose serial, fault-free, unlimited-gas
   replay produces byte-identical contract state.  Ownership +
   commutativity analysis is exactly the licence for this claim — the
   overload machinery may reorder, defer, shed, and batch arbitrarily,
   but it must never change what the committed transactions compute.

2. **Crash + resume loses no admitted transaction**: admissions are
   WAL-journaled (``svc-admit``) before the epoch that drains them, so
   killing the process mid-service and resuming restores exactly the
   pending set, and finishing the run converges to the same state as a
   never-crashed twin.

3. **Overload soak**: at ~2x sustainable offered load the pool's
   occupancy stays bounded by its capacity, every submission still
   ends in exactly one terminal state, and the committed replay still
   matches.
"""

import os
import resource

import pytest

from repro.chain.consensus import CostModel
from repro.chain.mempool import MempoolConfig
from repro.chain.network import Network, NetworkConfig
from repro.chain.recovery import network_fingerprint
from repro.chain.service import ServiceConfig, ServiceLoop
from repro.eval.service import replay_committed, run_service
from repro.workloads import FTTransfer

TIGHT_COST = CostModel(gas_per_second=25_000.0, consensus_base_s=2.0,
                       consensus_per_node2_s=0.01,
                       shard_gas_limit=300, ds_gas_limit=300)


class TestCommittedReplay:
    def test_flood_and_stall_run_replays_byte_identical(self):
        run = run_service(population=2000, ticks=8, txns_per_tick=100,
                          capacity=350, shards=4, seed=11,
                          flood_rate=0.4, stall_rate=0.25,
                          fault_seed=3, record_committed=True)
        assert run.report.partition_ok
        assert run.report.stalled_ticks > 0
        assert run.report.committed > 0
        assert network_fingerprint(run.net) == replay_committed(run)

    def test_deferral_and_shed_run_replays_byte_identical(self):
        # Tight gas limits force heavy deferral; the small capacity
        # makes the re-admissions overflow, so the shed path runs too.
        run = run_service(population=150, ticks=8, txns_per_tick=60,
                          capacity=48, shards=2, seed=4,
                          cost_model=TIGHT_COST, max_deferrals=6,
                          record_committed=True, drain_ticks=96)
        r = run.report
        assert r.partition_ok
        assert r.readmitted > 0
        assert r.shed + r.dead_lettered > 0
        assert network_fingerprint(run.net) == replay_committed(run)

    def test_replay_requires_recording(self):
        run = run_service(population=100, ticks=2, txns_per_tick=10,
                          capacity=60, shards=2)
        with pytest.raises(ValueError, match="record_committed"):
            replay_committed(run)


def _service_net(data_dir=None, **config):
    # A huge snapshot interval keeps resume on the pure WAL-replay
    # path, which is the machinery under test here; snapshot-embedded
    # pools are covered by test_store's round-trip.
    return Network(2, NetworkConfig(**config), data_dir=data_dir,
                   snapshot_every=1000)


class TestCrashResume:
    def test_resume_restores_exact_pending_set_and_converges(self, tmp_path):
        # FTTransfer pre-funds its users in setup, so committed state
        # is a pure sum of transfers — insensitive to how the crash
        # re-partitions the epochs.
        seed = 5

        # Uninterrupted twin.
        twin_wl = FTTransfer(n_users=12, txns_per_epoch=20, seed=seed)
        twin = _service_net()
        twin_wl.setup(twin)
        twin_loop = ServiceLoop(
            twin, config=ServiceConfig(batch_max=8),
            pool_config=MempoolConfig(capacity=256, per_sender=128))
        twin_batches = [twin_wl.transactions(t) for t in (1, 2, 3)]
        for batch in twin_batches[:2]:
            for tx in batch:
                twin_loop.submit(tx)
            twin_loop.tick()
        for tx in twin_batches[2]:
            twin_loop.submit(tx)
        twin_loop.drain_remaining(max_ticks=64)

        # Crashed run: same traffic, killed after two ticks.
        wl = FTTransfer(n_users=12, txns_per_epoch=20, seed=seed)
        data_dir = str(tmp_path / "svc")
        net1 = _service_net(data_dir=data_dir)
        wl.setup(net1)
        loop1 = ServiceLoop(
            net1, config=ServiceConfig(batch_max=8),
            pool_config=MempoolConfig(capacity=256, per_sender=128))
        batches = [wl.transactions(t) for t in (1, 2, 3)]
        for batch in batches[:2]:
            for tx in batch:
                assert loop1.submit(tx).admitted
            loop1.tick()
        loop1.sync()
        pending_at_crash = [(e.tx.sender, e.tx.nonce)
                            for e in loop1.mempool.pending_entries()]
        assert pending_at_crash      # the crash interrupts real work
        del loop1, net1              # vanish without close()

        net2 = Network.resume(data_dir)
        assert net2.restored_mempool   # WAL recovered the pending set
        loop2 = ServiceLoop(
            net2, config=ServiceConfig(batch_max=8),
            pool_config=MempoolConfig(capacity=256, per_sender=128))
        restored = [(e.tx.sender, e.tx.nonce)
                    for e in loop2.mempool.pending_entries()]
        assert sorted(restored) == sorted(pending_at_crash)

        # Finish the interrupted life: same third batch, drain, close.
        for tx in batches[2]:
            receipt = loop2.submit(tx)
            assert receipt.admitted, receipt
        loop2.drain_remaining(max_ticks=64)
        pool = loop2.mempool
        assert pool.occupancy == 0 and not pool.inflight
        assert pool.accounted() == pool.counters["submitted"]
        assert network_fingerprint(net2) == network_fingerprint(twin)
        net2.close()

    def test_unsynced_admissions_ride_the_next_epoch_barrier(self, tmp_path):
        # No explicit sync(): admissions buffered at tick time are
        # journaled before the epoch record, whose barrier makes both
        # durable together.
        data_dir = str(tmp_path / "svc2")
        wl = FTTransfer(n_users=8, txns_per_epoch=12, seed=9)
        net1 = _service_net(data_dir=data_dir)
        wl.setup(net1)
        loop1 = ServiceLoop(
            net1, config=ServiceConfig(batch_max=6),
            pool_config=MempoolConfig(capacity=64, per_sender=64))
        for tx in wl.transactions(1):
            loop1.submit(tx)
        loop1.tick()        # drains 6; journals all 12 admissions
        pending = [(e.tx.sender, e.tx.nonce)
                   for e in loop1.mempool.pending_entries()]
        assert len(pending) == 6
        del loop1, net1

        net2 = Network.resume(data_dir)
        loop2 = ServiceLoop(net2)
        restored = [(e.tx.sender, e.tx.nonce)
                    for e in loop2.mempool.pending_entries()]
        assert sorted(restored) == sorted(pending)
        net2.close()


class TestOverloadSoak:
    def test_2x_overload_stays_bounded_and_exact(self):
        # The FIG14 cost model sustains on the order of 200 commits
        # per tick at 2 shards; offer ~2x that and cap the pool well
        # below the backlog the run accumulates.
        run = run_service(population=50_000, ticks=10,
                          txns_per_tick=400, capacity=300, shards=2,
                          seed=13, record_committed=True,
                          drain_ticks=96)
        r = run.report
        assert r.partition_ok
        assert r.max_occupancy <= 300            # pool memory bounded
        assert r.backpressured > 0               # the door pushed back
        assert r.committed > 0
        # The client's buffer is bounded too: everything offered is
        # accounted for — submitted, still buffered, or shed
        # client-side.  (Retries make submitted >= unique offered.)
        assert r.client_dropped + r.unsubmitted + r.submitted >= \
            r.generated
        assert network_fingerprint(run.net) == replay_committed(run)

        ceiling_mb = os.environ.get("REPRO_SOAK_RSS_MB")
        if ceiling_mb:
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            assert rss_mb < float(ceiling_mb), \
                f"soak RSS {rss_mb:.0f} MiB over ceiling {ceiling_mb}"
