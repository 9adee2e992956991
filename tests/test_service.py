"""Service-loop tests: continuous mempool-drained epochs, degradation
under overload, stall/flood fault modes, honest TPS accounting for
partial batches, and the serve/loadgen CLI pair."""

import io
import json

import pytest

from repro.chain.consensus import CostModel
from repro.chain.faults import FaultEvent, FaultKind, FaultPlan
from repro.chain.mempool import AdmissionStatus, MempoolConfig
from repro.chain.network import Network, NetworkConfig
from repro.chain.service import ServiceConfig, ServiceLoop
from repro.chain.transaction import Transaction, payment, used_runs
from repro.chain.wal import read_wal
from repro.cli import main
from repro.eval.service import (
    format_service, iter_stream, run_service, write_stream,
)
from repro.scilla.values import pad_address
from repro.workloads import ScaledFTTransfer

# Small gas limits so a modest batch already saturates a lane and the
# deferral path engages (the default model commits hundreds per lane).
TIGHT_COST = CostModel(gas_per_second=25_000.0, consensus_base_s=2.0,
                       consensus_per_node2_s=0.01,
                       shard_gas_limit=300, ds_gas_limit=300)


def make_net(n_shards=2, data_dir=None, snapshot_every=8, metrics=None,
             **config) -> Network:
    return Network(n_shards, NetworkConfig(**config), data_dir=data_dir,
                   snapshot_every=snapshot_every, metrics=metrics)


def make_loop(net, **kwargs) -> ServiceLoop:
    pool_cfg = kwargs.pop("pool_config",
                          MempoolConfig(capacity=256, per_sender=128))
    return ServiceLoop(net, config=ServiceConfig(**kwargs),
                       pool_config=pool_cfg)


class TestServiceLoop:
    def test_submit_drain_commit_cycle(self):
        net = make_net()
        wl = ScaledFTTransfer(population=100, txns_per_epoch=30)
        wl.setup(net)
        loop = make_loop(net, batch_max=20)
        receipts = [loop.submit(tx) for tx in wl.transactions(1)]
        assert all(r.admitted for r in receipts)
        reports = loop.run(4)
        committed = sum(r.committed for r in reports)
        assert committed > 0
        assert loop.mempool.occupancy == 0
        assert loop.mempool.accounted() == \
            loop.mempool.counters["submitted"]

    def test_auto_fund_creates_unknown_senders(self):
        net = make_net()
        wl = ScaledFTTransfer(population=100, txns_per_epoch=10)
        wl.setup(net)
        loop = make_loop(net)
        txs = wl.transactions(1)
        users = {t.sender for t in txs} - {wl.admin}
        for tx in txs:
            loop.submit(tx)
        assert users <= set(net.accounts)

    def test_auto_fund_funds_one_sender_once_whatever_its_spelling(
            self, tmp_path):
        # ``accounts`` is keyed by the canonical address: an upper-case
        # or short spelling used to look unknown at every admission and
        # was re-funded (a fresh 10^12 and one WAL record) each time.
        # Auto-funded senders are logged as one ``accounts`` record per
        # journal flush.
        for sender in ("0x" + "AB" * 20, "0x12"):
            data_dir = tmp_path / sender
            net = make_net(data_dir=data_dir)
            loop = make_loop(net)
            to = "0x" + "cd" * 20
            before = net.wal.appends
            balances = []
            for nonce in range(1, 4):
                assert loop.submit(
                    payment(sender, to, 10**11, nonce)).admitted
                assert loop.tick().committed == 1
                balances.append(net.balance(sender))
            fee = 10**12 - 10**11 - balances[0]
            assert 0 <= fee < 10**6
            assert balances == [10**12 - n * (10**11 + fee)
                                for n in (1, 2, 3)]
            assert net.balance(to) == 3 * 10**11
            net.wal.barrier()
            funded = [r for r in read_wal(data_dir)[before:]
                      if r.type in ("account", "accounts")]
            assert [(r.type, r.data["addresses"]) for r in funded] == \
                [("accounts", [pad_address(sender)])]

    def test_idle_tick_charges_modeled_time(self):
        net = make_net()
        loop = make_loop(net)
        report = loop.tick()
        assert report.idle
        assert loop.idle_ticks == 1
        assert net.idle_seconds["serve"] > 0
        assert loop.tps == 0.0

    def test_stall_consumer_freezes_a_tick(self):
        plan = FaultPlan([FaultEvent(1, FaultKind.STALL_CONSUMER)])
        net = make_net(fault_plan=plan)
        wl = ScaledFTTransfer(population=50, txns_per_epoch=10)
        wl.setup(net)
        loop = make_loop(net)
        for tx in wl.transactions(1):
            loop.submit(tx)
        occupancy = loop.mempool.occupancy
        epoch_before = net.epoch
        report = loop.tick()                 # tick 1: stalled
        assert report.stalled and report.drained == 0
        assert loop.mempool.occupancy == occupancy
        assert net.epoch == epoch_before     # no epoch ran
        report = loop.tick()                 # tick 2: drains normally
        assert not report.stalled and report.drained > 0

    def test_flood_multiplier_is_seeded_and_bounded(self):
        plan = FaultPlan.random(seed=5, epochs=20, n_shards=2,
                                crash_rate=0, delay_rate=0,
                                drop_rate=0, corrupt_rate=0,
                                forge_rate=0, flood_rate=1.0)
        from repro.chain.faults import FaultInjector
        inj = FaultInjector(plan)
        mults = [inj.flood_multiplier(t) for t in range(1, 21)]
        assert all(2 <= m <= 4 for m in mults)
        again = FaultInjector(FaultPlan.random(
            seed=5, epochs=20, n_shards=2, crash_rate=0, delay_rate=0,
            drop_rate=0, corrupt_rate=0, forge_rate=0, flood_rate=1.0))
        assert mults == [again.flood_multiplier(t)
                         for t in range(1, 21)]

    def test_zero_rate_plans_do_not_disturb_old_rng_streams(self):
        # FLOOD/STALL draws are guarded: a plan generated with zero
        # service-fault rates must equal one generated before those
        # parameters existed (same seed, same events).
        a = FaultPlan.random(seed=11, epochs=10, n_shards=3)
        b = FaultPlan.random(seed=11, epochs=10, n_shards=3,
                             flood_rate=0.0, stall_rate=0.0)
        assert [str(e) for e in a.events] == [str(e) for e in b.events]

    def test_deferral_readmission_and_dead_letter(self):
        net = make_net(cost_model=TIGHT_COST)
        wl = ScaledFTTransfer(population=60, txns_per_epoch=40)
        wl.setup(net)
        loop = make_loop(net, batch_max=40, max_deferrals=50)
        for tx in wl.transactions(1):
            loop.submit(tx)
        loop.drain_remaining(max_ticks=32)
        pool = loop.mempool
        assert pool.counters["readmitted"] > 0
        assert pool.counters["committed"] > 0
        assert pool.accounted() == pool.counters["submitted"]

        # Same load with no deferral budget: dead-letters instead.
        net2 = make_net(cost_model=TIGHT_COST)
        wl2 = ScaledFTTransfer(population=60, txns_per_epoch=40)
        wl2.setup(net2)
        loop2 = make_loop(net2, batch_max=40, max_deferrals=0)
        for tx in wl2.transactions(1):
            loop2.submit(tx)
        loop2.drain_remaining(max_ticks=32)
        assert loop2.mempool.counters["dead-lettered"] > 0
        assert loop2.mempool.accounted() == \
            loop2.mempool.counters["submitted"]

    @pytest.mark.parametrize("snapshot_every", [1, 1000])
    def test_deferred_transactions_survive_a_crash_before_the_next_flush(
            self, tmp_path, snapshot_every):
        # A deferral's re-admission is journaled at the *next* tick; a
        # crash before it used to lose the transaction: replay popped
        # every epoch input, and a restore point cut inside the epoch
        # (snapshot_every=1) held inflight entries nowhere.
        def serve(net):
            return make_loop(net, batch_max=40, max_deferrals=50)
        net = make_net(cost_model=TIGHT_COST, data_dir=tmp_path,
                       snapshot_every=snapshot_every)
        wl = ScaledFTTransfer(population=60, txns_per_epoch=40)
        wl.setup(net)
        loop = serve(net)
        for tx in wl.transactions(1):
            assert loop.submit(tx).admitted
        report = loop.tick()
        assert report.deferred > 0 and report.dead_lettered == 0
        pending = sorted((e.tx.tx_id, e.deferrals)
                         for e in loop.mempool.pending_entries())
        assert len(pending) == report.deferred
        assert {deferrals for _, deferrals in pending} == {1}
        del loop, net                   # vanish without sync() or close()

        resumed = Network.resume(str(tmp_path))
        loop = serve(resumed)
        assert sorted((e.tx.tx_id, e.deferrals)
                      for e in loop.mempool.pending_entries()) == pending
        loop.drain_remaining(max_ticks=32)
        pool = loop.mempool
        assert pool.counters["committed"] > 0
        assert pool.occupancy == 0 and not pool.inflight
        assert pool.accounted() == pool.counters["submitted"]
        resumed.close()

    def test_a_shed_at_admission_survives_a_crash(self, tmp_path):
        # A better-paying newcomer evicting a queue tail inside
        # Mempool.submit is a shed: its client was told so, and a crash
        # must not make the victim pending (and committable) again.
        net = make_net(data_dir=tmp_path)
        loop = make_loop(net, pool_config=MempoolConfig(
            capacity=2, per_sender=8, high_water=1.0, low_water=0.5))
        to = "0x" + "cd" * 20
        txs = [Transaction(f"0x{i:040x}", to, 1, amount=1,
                           gas_limit=1_000, gas_price=price)
               for i, price in ((1, 1), (2, 1), (3, 2))]
        assert all(loop.submit(tx).admitted for tx in txs)
        loop.sync()
        pending = sorted(e.tx.tx_id for e in loop.mempool.pending_entries())
        assert pending == [txs[0].tx_id, txs[2].tx_id]
        assert loop.mempool.counters["shed"] == 1
        del loop, net                   # vanish without close()

        resumed = Network.resume(str(tmp_path))
        loop = make_loop(resumed)
        pool = loop.mempool
        assert sorted(e.tx.tx_id for e in pool.pending_entries()) == pending
        assert pool.accounted() == pool.counters["submitted"]
        resumed.close()

    def test_short_and_full_spellings_are_one_sender(self):
        # Two payments from one sender, written "0x12" and in full in
        # every combination: the same receipts, one account, one nonce
        # record.
        to, full = "0x" + "cd" * 20, pad_address("0x12")
        outcomes = []
        for spellings in (("0x12", "0x12"), ("0x12", full), (full, "0x12")):
            net = make_net()
            loop = make_loop(net)
            admitted = [loop.submit(Transaction(
                sender, to, nonce, amount=10, gas_limit=1_000,
                tx_id=900 + nonce))
                for nonce, sender in enumerate(spellings, 1)]
            assert loop.tick().committed == 2
            assert set(net.accounts) == {full, to}
            assert {s: used_runs(row) for s, row
                    in net.nonces.records.items()} == {full: [[1, 2]]}
            outcomes.append((admitted, [
                (r.tx, r.success, r.gas_used)
                for r in net.blocks[-1].all_receipts]))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_batch_shrinks_under_saturation_and_recovers(self):
        # Sustained overload: every tick offers another 40, the tight
        # gas limit commits only a handful, and deferrals re-enter, so
        # occupancy pins above the high-water mark and the batch must
        # shrink toward the observed commit rate.
        net = make_net(cost_model=TIGHT_COST)
        wl = ScaledFTTransfer(population=80, txns_per_epoch=40)
        wl.setup(net)
        loop = make_loop(
            net, batch_max=16, batch_min=4,
            pool_config=MempoolConfig(capacity=200, per_sender=512,
                                      high_water=0.5, low_water=0.3))
        sizes = []
        for tick in range(1, 9):
            for tx in wl.transactions(tick):
                receipt = loop.submit(tx)
                if receipt.status is AdmissionStatus.BACKPRESSURE:
                    break
            loop.tick()
            sizes.append(loop.batch_size)
        assert min(sizes) < 16          # shrank under pressure
        loop.drain_remaining(max_ticks=128)
        loop.tick()                     # idle ticks past pressure:
        loop.tick()                     # multiplicative recovery
        loop.tick()
        assert loop.batch_size == 16

    def test_batch_max_is_a_ceiling_under_backlog_too(self):
        # batch_max below batch_min's default (8): a backlog past the
        # pool's low-water mark (60) used to lift the batch to
        # batch_min, draining 4, 8, 8, 4, ...
        net = make_net()
        wl = ScaledFTTransfer(population=100, txns_per_epoch=80)
        wl.setup(net)
        loop = make_loop(net, batch_max=4, pool_config=MempoolConfig(
            capacity=100, per_sender=128))
        assert all(loop.submit(tx).admitted for tx in wl.transactions(1))
        drained = [loop.tick().drained for _ in range(6)]
        assert drained == [4] * 6

    @pytest.mark.parametrize("field, value", [
        ("batch_max", 0), ("batch_max", -1), ("batch_min", 0),
        ("max_deferrals", -1)])
    def test_config_refuses_out_of_range_knobs(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})


class TestHonestTps:
    def test_partial_batches_do_not_inflate_average_tps(self):
        # A mempool-drained epoch with 3 transactions must not be
        # priced as if the epoch were free: tag-filtered average_tps
        # divides the same modeled seconds a full epoch pays.
        net = make_net()
        wl = ScaledFTTransfer(population=30, txns_per_epoch=3)
        wl.setup(net)
        loop = make_loop(net)
        for tx in wl.transactions(1):
            loop.submit(tx)
        loop.drain_remaining(max_ticks=8)
        served = net.average_tps(tag="serve")
        assert served == pytest.approx(loop.tps)
        assert 0 < served < 2.0         # a lane can do far more

    def test_idle_ticks_lower_served_tps(self):
        net = make_net()
        wl = ScaledFTTransfer(population=30, txns_per_epoch=6)
        wl.setup(net)
        loop = make_loop(net)
        for tx in wl.transactions(1):
            loop.submit(tx)
        loop.drain_remaining(max_ticks=8)
        busy = loop.tps
        loop.run(3)                     # idle ticks, nothing to drain
        assert loop.tps < busy
        assert net.average_tps(tag="serve") == pytest.approx(loop.tps)

    def test_tags_partition_the_blocks(self):
        net = make_net()
        wl = ScaledFTTransfer(population=30, txns_per_epoch=6)
        wl.setup(net)                   # setup epochs carry tag "epoch"
        loop = make_loop(net)
        for tx in wl.transactions(1):
            loop.submit(tx)
        loop.drain_remaining(max_ticks=8)
        tags = {b.tag for b in net.blocks}
        assert "serve" in tags
        assert net.average_tps(tag="serve") != net.average_tps() or \
            len(tags) == 1

    def test_epoch_stats_record_offered_and_carried(self):
        net = make_net()
        wl = ScaledFTTransfer(population=30, txns_per_epoch=6)
        wl.setup(net)
        block = net.process_epoch(wl.transactions(1))
        assert block.stats.offered == block.stats.dispatched == 6


class TestHarness:
    def test_run_service_report_partitions(self):
        run = run_service(population=300, ticks=4, txns_per_tick=40,
                          capacity=160, shards=2)
        r = run.report
        assert r.partition_ok
        assert r.committed > 0
        assert r.generated == r.submitted - r.backpressured - \
            sum(r.rejected.values()) + r.client_dropped + r.unsubmitted \
            or r.generated >= r.committed   # retries resubmit
        assert "tx/s" in format_service(r)

    def test_latency_quantiles_are_populated(self):
        run = run_service(population=300, ticks=4, txns_per_tick=40,
                          capacity=160, shards=2)
        r = run.report
        assert r.p99_latency_ticks >= r.p50_latency_ticks > 0
        assert r.p99_latency_ms >= r.p50_latency_ms > 0

    def test_stream_round_trip(self):
        buf = io.StringIO()
        header = write_stream(buf, population=100, ticks=3,
                              txns_per_tick=20, seed=3)
        assert header["total_txns"] > 0
        buf.seek(0)
        run = run_service(stream=iter_stream(buf), shards=2,
                          capacity=120)
        assert run.report.partition_ok
        assert run.report.committed > 0

    def test_stream_rejects_garbage(self):
        with pytest.raises(ValueError):
            iter_stream(io.StringIO(""))
        with pytest.raises(ValueError):
            iter_stream(io.StringIO('{"kind": "nonsense"}\n'))


class TestCli:
    @pytest.mark.parametrize("batch_max", ["0", "-2"])
    def test_serve_refuses_a_batch_max_below_one(self, capsys, batch_max):
        # `serve --batch-max 0` used to commit nothing, report every
        # tick idle with work pending, and exit 0.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--ticks", "2", "--txns", "5",
                  "--batch-max", batch_max])
        assert exc.value.code == 2
        assert "at least one transaction" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, what", [
        ("--capacity", "a mempool"), ("--per-sender", "a sender's queue")])
    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_serve_refuses_a_pool_bound_below_one(self, capsys, flag, what,
                                                  bound):
        # Both used to end in MempoolConfig's ValueError traceback.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--ticks", "2", "--txns", "5", flag, bound])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: {what} takes at least one transaction" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("txns", ["0", "-3"])
    def test_serve_refuses_fewer_than_one_txn_per_tick(self, capsys, txns):
        # `serve --txns 0` without --capacity used to end in
        # MempoolConfig's ValueError traceback (capacity 8 x 0).
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--ticks", "2", "--txns", txns])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--txns: a tick takes at least one transaction" in err
        assert "Traceback" not in err

    def test_serve_json(self, capsys):
        rc = main(["serve", "--population", "200", "--ticks", "3",
                   "--txns", "30", "--shards", "2", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["partition_ok"] is True
        assert out["committed"] > 0

    def test_loadgen_then_serve_stream(self, tmp_path, capsys):
        stream = tmp_path / "load.jsonl"
        assert main(["loadgen", "--out", str(stream), "--population",
                     "150", "--ticks", "3", "--txns", "25"]) == 0
        capsys.readouterr()
        rc = main(["serve", "--stream", str(stream), "--shards", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "partition OK" in out
