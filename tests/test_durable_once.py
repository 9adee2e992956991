"""The durable service path writes each thing once.

* **Restore points (version 3)** encode a value under its field's
  declared type — a primitive as its literal, a map of primitives as
  two columns, accounts and nonce records as columns — and must resume
  to exactly the live network whatever the state holds: scalars, flat
  and nested maps, ADT values, emptied and overwritten maps, deletes,
  nonce sets with gaps, several lanes per sender.
* **The WAL** holds a transaction's body in one record, as one
  positional row: the admission record when the service pool journaled
  it, the ``epoch`` record otherwise; an ``epoch`` record that names a
  body nothing holds stops the resume.  Auto-funded senders are one
  ``accounts`` record per flush.
* **Metering** reads the mempool's own counts at ``drain`` and when a
  tick settles, so at every tick boundary the registry equals a
  recount of the transactions themselves.
"""

import copy
import tempfile
from collections import Counter
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.chain import recovery
from repro.chain.mempool import (
    AdmissionStatus, MempoolConfig, TICK_BUCKETS,
)
from repro.chain.network import Network
from repro.chain.recovery import network_fingerprint, state_accumulator
from repro.chain.service import ServiceConfig, ServiceLoop
from repro.chain.store import SnapshotStore
from repro.chain.transaction import Transaction, call, payment
from repro.chain.wal import (
    WALError, WALRecord, _encode, _segment_files, read_wal,
)
from repro.obs import MetricsRegistry
from repro.scilla.values import StringVal, addr, pad_address, uint
from repro.workloads import ScaledFTTransfer

from .test_service import TIGHT_COST, make_loop, make_net

ONCE = """scilla_version 0

library Once

contract Once
(
  admin: ByStr20
)

field total : Uint128 = Uint128 0
field label : String = ""
field balances : Map ByStr20 Uint128 = Emp ByStr20 Uint128
field allowances : Map ByStr20 (Map ByStr20 Uint128) =
  Emp ByStr20 (Map ByStr20 Uint128)
field flags : Map ByStr20 Bool = Emp ByStr20 Bool
field notes : Map ByStr20 (Option Uint128) =
  Emp ByStr20 (Option Uint128)

transition SetBalance (v: Uint128)
  balances[_sender] := v
end

transition DropBalance ()
  delete balances[_sender]
end

transition Allow (spender: ByStr20, v: Uint128)
  allowances[_sender][spender] := v
end

transition Disallow (spender: ByStr20)
  delete allowances[_sender][spender]
end

transition Flag ()
  t = True;
  flags[_sender] := t
end

transition Unflag ()
  delete flags[_sender]
end

transition Note (v: Uint128)
  s = Some {Uint128} v;
  notes[_sender] := s
end

(* Whole-field writes: not shardable, run on the DS lane. *)
transition ClearBalances ()
  e = Emp ByStr20 Uint128;
  balances := e
end

transition SetTotal (v: Uint128)
  total := v
end

transition SetLabel (s: String)
  label := s
end
"""

ADMIN = "0x" + "ad" * 20
ONCE_ADDR = "0x" + "c1" * 20
USERS = ["0x" + f"{i:040x}" for i in range(1, 6)]
SHARDED = ("SetBalance", "DropBalance", "Allow", "Disallow", "Flag",
           "Unflag", "Note")


# --------------------------------------------------------------------------
# (1) Restore points: a base and two deltas resume to the live network.
# --------------------------------------------------------------------------

user_ix = st.integers(0, len(USERS) - 1)
gap = st.integers(0, 2)     # nonces skipped before this transaction's
once_op = st.one_of(
    st.tuples(st.sampled_from(["SetBalance", "Note", "SetTotal"]),
              user_ix, gap, st.integers(0, 2**70)),
    st.tuples(st.sampled_from(["DropBalance", "Flag", "Unflag",
                               "ClearBalances"]), user_ix, gap),
    st.tuples(st.just("Allow"), user_ix, gap, user_ix,
              st.integers(0, 9)),
    st.tuples(st.just("Disallow"), user_ix, gap, user_ix),
    st.tuples(st.just("SetLabel"), user_ix, gap,
              st.text(max_size=6)),
)
once_epochs = st.lists(st.lists(once_op, max_size=8), min_size=1,
                       max_size=3)


def once_tx(op, nonces: dict) -> Transaction:
    name, sender, skipped, *rest = op
    sender = USERS[sender]
    nonces[sender] = nonce = nonces.get(sender, 0) + 1 + skipped
    if name in ("SetBalance", "Note", "SetTotal"):
        args = {"v": uint(rest[0])}
    elif name == "Allow":
        args = {"spender": addr(USERS[rest[0]]), "v": uint(rest[1])}
    elif name == "Disallow":
        args = {"spender": addr(USERS[rest[0]])}
    elif name == "SetLabel":
        args = {"s": StringVal(rest[0])}
    else:
        args = {}
    return call(sender, ONCE_ADDR, name, args, nonce=nonce)


def restored_view(net: Network) -> dict:
    return {
        "fingerprint": network_fingerprint(net),
        "accumulators": {a: state_accumulator(c.state)
                         for a, c in net.contracts.items()},
        "accounts": dict(net.accounts),
        "nonces": copy.deepcopy(net.nonces.records),
    }


@settings(max_examples=30, deadline=None)
@given(once_epochs, once_epochs, once_epochs)
def test_base_and_two_deltas_resume_to_the_live_network(first, second,
                                                        third):
    with tempfile.TemporaryDirectory() as data_dir, \
            mock.patch.object(recovery, "DELTA_FOLD_DIVISOR", 0):
        net = Network(3, data_dir=data_dir, snapshot_every=10**9)
        for user in (ADMIN, *USERS):
            net.create_account(user)
        net.deploy(ONCE, ONCE_ADDR, {"admin": addr(ADMIN)},
                   sharded_transitions=SHARDED)
        nonces: dict = {}
        for epochs in (first, second, third):
            for ops in epochs:
                net.process_epoch([once_tx(op, nonces) for op in ops])
            net.snapshot()
        kinds = ["D" if p.name.endswith(".delta.json") else "B"
                 for p in SnapshotStore(data_dir).paths()]
        assert kinds == ["B", "D", "D"]
        live = restored_view(net)
        net.close()

        resumed = Network.resume(data_dir)
        assert resumed.restored_deltas == 2
        assert restored_view(resumed) == live
        resumed.close()


def test_delta_rows_follow_the_declared_type(tmp_path):
    """One delta, read as JSON: primitives as literals in columns, a
    deleted entry as null, everything else as a self-describing row."""
    with mock.patch.object(recovery, "DELTA_FOLD_DIVISOR", 0):
        net = Network(3, data_dir=str(tmp_path), snapshot_every=10**9)
        for user in (ADMIN, *USERS):
            net.create_account(user)
        net.deploy(ONCE, ONCE_ADDR, {"admin": addr(ADMIN)},
                   sharded_transitions=SHARDED)
        nonces: dict = {}
        net.process_epoch([once_tx(("SetBalance", i, 0, 10 + i), nonces)
                           for i in range(3)])
        net.snapshot()
        net.process_epoch([once_tx(op, nonces) for op in (
            ("SetBalance", 0, 1, 99), ("DropBalance", 1, 0),
            ("Allow", 2, 0, 3, 7), ("Flag", 3, 0), ("SetTotal", 4, 2, 5),
            ("SetTotal", 0, 0, 6),
        )])
        net.snapshot()
        net.close()
    delta = SnapshotStore(tmp_path).load_newest()
    assert delta["version"] == 4 and "parent" in delta
    writes = delta["contracts"][ONCE_ADDR]["writes"]
    assert dict(zip(writes["balances"]["k"], writes["balances"]["v"])) \
        == {USERS[0]: 99, USERS[1]: None}
    assert writes["balances"]["rows"] == []
    (path, value), = writes["allowances"]["rows"]
    assert [k["v"] for k in path] == [USERS[2], USERS[3]]
    assert value == {"t": "Uint128", "v": "7"}
    assert writes["flags"]["k"] == [] and \
        writes["flags"]["rows"][0][1]["c"] == "True"
    assert writes["total"]["rows"] == [[[], {"t": "Uint128", "v": "6"}]]
    # Nonce records: used nonces as runs (user 0 skipped 2), one
    # high-water mark per lane the sender ran on (user 0: a shard, DS).
    senders = delta["nonces"]["sender"]
    assert sorted(senders) == USERS
    used = dict(zip(senders, delta["nonces"]["used"]))
    assert used[USERS[0]] == [[1, 1], [3, 4]] and used[USERS[1]] == [[1, 2]]
    assert used[USERS[4]] == [[3, 3]]
    row = senders.index(USERS[0])
    assert delta["nonces"]["last_global"][row] == 4
    assert sorted(column[row] for column
                  in delta["nonces"]["last_lane"].values()
                  if column[row] is not None) == [3, 4]
    assert set(delta["accounts"]) == {"address", "balance", "portions"}


# --------------------------------------------------------------------------
# (2)-(4) The WAL: one body per transaction, ids in epoch records, one
# ``accounts`` record per flush.
# --------------------------------------------------------------------------

def service_net(data_dir, **kwargs) -> Network:
    kwargs.setdefault("snapshot_every", 10**9)
    return make_net(data_dir=str(data_dir), **kwargs)


def bodies(record: WALRecord) -> list[int]:
    """The ids of the transactions whose body ``record`` carries (a
    row's first column)."""
    if record.type == "svc-admit":
        return [row[0] for row in record.data]
    if record.type == "epoch":
        return [tx[0] for tx in record.data["txns"]
                if isinstance(tx, list)]
    return []


def test_a_body_is_in_one_record_between_two_commits(tmp_path):
    # Tight gas: some of every batch is deferred and re-admitted, and
    # 25 a tick against batches of 20 leaves some waiting a tick.
    net = service_net(tmp_path, cost_model=TIGHT_COST)
    wl = ScaledFTTransfer(population=80, txns_per_epoch=25)
    wl.setup(net)
    start = net.wal.last_seq
    loop = make_loop(net, batch_max=20, max_deferrals=50)
    for tick in range(1, 7):
        for tx in wl.transactions(tick):
            loop.submit(tx)
        loop.tick()
    loop.sync()
    assert loop.mempool.counters["readmitted"] > 0
    net.close()

    journaled: set[int] = set()
    window: Counter = Counter()
    epochs = 0
    for record in read_wal(tmp_path):
        if record.seq <= start:
            continue
        window.update(bodies(record))
        if record.type == "svc-admit":
            journaled.update(bodies(record))
        elif record.type == "epoch":
            epochs += 1
            named = [tx for tx in record.data["txns"]
                     if isinstance(tx, int)]
            assert named and len(named) == len(record.data["txns"])
            assert set(named) <= journaled
        elif record.type == "commit":
            assert set(window.values()) <= {1}, window.most_common(3)
            window.clear()
    assert epochs == 6


def test_direct_process_epoch_still_logs_bodies(tmp_path):
    net = service_net(tmp_path)
    wl = ScaledFTTransfer(population=40, txns_per_epoch=10)
    wl.setup(net)
    loop = make_loop(net)        # a pool is attached; nothing in it
    txns = wl.transactions(1)
    net.process_epoch(txns)
    record = [r for r in read_wal(tmp_path) if r.type == "epoch"][-1]
    assert bodies(record) == [tx.tx_id for tx in txns]
    expected = network_fingerprint(net)
    del loop
    net.close()
    resumed = Network.resume(str(tmp_path))
    assert network_fingerprint(resumed) == expected
    resumed.close()


def test_an_epoch_naming_an_unheld_body_stops_the_resume(tmp_path):
    net = service_net(tmp_path)
    wl = ScaledFTTransfer(population=40, txns_per_epoch=10)
    wl.setup(net)
    loop = make_loop(net)
    txns = wl.transactions(1)
    for tx in txns:
        loop.submit(tx)
    assert loop.tick().committed > 0
    net.close()

    # The same log, its admission record emptied.
    (segment,) = _segment_files(tmp_path)
    records = [WALRecord(r.seq, r.type, [])
               if r.type == "svc-admit" else r
               for r in read_wal(tmp_path)]
    segment.write_bytes(b"".join(map(_encode, records)))
    epoch = next(r for r in records if r.type == "epoch"
                 and r.data["tag"] == "serve")
    with pytest.raises(WALError) as caught:
        Network.resume(str(tmp_path))
    assert f"record {epoch.seq}" in str(caught.value)
    assert f"transaction {txns[0].tx_id}," in str(caught.value)


def test_new_senders_of_a_tick_are_one_accounts_record(tmp_path):
    net = service_net(tmp_path)
    start = net.wal.last_seq
    loop = make_loop(net)
    to = "0x" + "cd" * 20
    spellings = ["0x" + "AB" * 20, "0x" + "ab" * 20, "0x12", "0x0012",
                 "0x" + "ef" * 20]
    canonical = list(dict.fromkeys(map(pad_address, spellings)))
    assert len(canonical) == 3
    nonce_of: Counter = Counter()
    for sender in spellings:
        nonce_of[pad_address(sender)] += 1      # one queue per address
        assert loop.submit(payment(
            sender, to, 10**9, nonce_of[pad_address(sender)])).admitted
    loop.tick()
    # A second tick with no new sender logs no second record.
    assert loop.submit(payment(spellings[-1], to, 10**9, 2)).admitted
    loop.tick()
    balances = {a: net.balance(a) for a in canonical}
    assert all(10**12 - 3 * 10**9 < b < 10**12 for b in balances.values())
    net.close()

    records = [r for r in read_wal(tmp_path) if r.seq > start]
    funded = [r for r in records if r.type in ("account", "accounts")]
    assert [(r.type, r.data["addresses"]) for r in funded] == \
        [("accounts", canonical)]
    first_epoch = next(r for r in records if r.type == "epoch")
    assert funded[0].seq < first_epoch.seq
    resumed = Network.resume(str(tmp_path))
    assert {a: resumed.balance(a) for a in canonical} == balances
    resumed.close()


# --------------------------------------------------------------------------
# (5) Metering: the registry equals a recount at every tick boundary.
# --------------------------------------------------------------------------

def test_registry_equals_a_recount_after_every_tick(tmp_path):
    metrics = MetricsRegistry()
    net = service_net(tmp_path, cost_model=TIGHT_COST, metrics=metrics,
                      snapshot_every=3)
    wl = ScaledFTTransfer(population=80, txns_per_epoch=30)
    wl.setup(net)
    loop = ServiceLoop(
        net, config=ServiceConfig(batch_max=30, max_deferrals=1),
        pool_config=MempoolConfig(capacity=48, per_sender=128,
                                  high_water=1.0, low_water=0.5))
    pool = loop.mempool

    counts: Counter = Counter()
    admit_tick: dict[int, int] = {}
    latencies: list[int] = []
    rich = iter(f"0x{n:040x}" for n in range(0x9000, 0x9100))

    def offer(tx: Transaction) -> None:
        full = pool.occupancy >= pool.config.capacity
        receipt = loop.submit(tx)
        if receipt.admitted:
            counts["admitted"] += 1
            counts["terminal.shed"] += full     # it took a tail's place
            admit_tick[tx.tx_id] = loop.tick_index
        elif receipt.status is AdmissionStatus.BACKPRESSURE:
            counts["backpressured"] += 1
        else:
            counts["rejected"] += 1

    for tick in range(1, 13):
        for tx in wl.transactions(tick):
            offer(tx)
        if pool.occupancy >= pool.config.capacity:
            # Full: a better-paying newcomer sheds the worst tail.
            offer(Transaction(next(rich), wl.admin, nonce=1, amount=1,
                              gas_limit=1_000, gas_price=7))
        admitted_at_drain = counts["admitted"]
        points = len(net.store.paths())
        report = loop.tick()
        counts["readmitted"] += report.deferred
        counts["terminal.committed"] += report.committed
        counts["terminal.failed"] += report.failed
        counts["terminal.dead-lettered"] += report.dead_lettered
        counts["terminal.dropped"] += report.dropped
        counts["terminal.shed"] += report.shed
        if report.epoch is not None:
            latencies += [tick - admit_tick[r.tx.tx_id]
                          for r in net.blocks[-1].all_receipts
                          if not r.deferred]

        snap = metrics.deterministic_snapshot()
        recount = {f"mempool.{name}": counts[name] for name in (
            "admitted", "readmitted", "rejected", "backpressured",
            "terminal.committed", "terminal.failed", "terminal.shed",
            "terminal.dead-lettered", "terminal.dropped")}
        recount["service.ticks"] = tick
        assert {name: snap["counters"][name]["value"]
                for name in recount} == recount, tick
        gauges = {"mempool.occupancy": pool.occupancy,
                  "mempool.senders": pool.senders,
                  "mempool.saturation_permille":
                      round(1000 * pool.occupancy / 48),
                  "mempool.backpressure_active":
                      int(pool.backpressure_active),
                  "service.batch_size": loop.batch_size}
        assert {name: snap["gauges"][name]["value"]
                for name in gauges} == gauges, tick
        hist = snap["histograms"]["mempool.latency_ticks"]
        assert (hist["count"], hist["sum"]) == \
            (len(latencies), sum(latencies)), tick
        assert hist["counts"][:3] == [
            sum(1 for n in latencies if lo < n <= hi)
            for lo, hi in zip((-1, *TICK_BUCKETS), TICK_BUCKETS[:3])]

        if len(net.store.paths()) > points:
            # Written inside this tick's epoch: every admission up to
            # its drain, no outcome of the tick itself.
            image = net.store.load_newest()["metrics"]["counters"]
            assert image["mempool.admitted"]["value"] == admitted_at_drain
            assert image["mempool.terminal.committed"]["value"] == \
                counts["terminal.committed"] - report.committed

    assert counts["readmitted"] and counts["terminal.dead-lettered"]
    assert counts["terminal.shed"] and counts["rejected"]
    assert len(net.store.paths()) > 0
    assert pool.accounted() == pool.counters["submitted"]
    net.close()
