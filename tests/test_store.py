"""Snapshot store tests: round-trips, atomicity, digests, retention."""

import json
import shutil
from pathlib import Path

import pytest

from repro.chain import Network, NetworkConfig, call
from repro.chain.faults import FaultEvent, FaultKind, FaultPlan
from repro.chain.recovery import network_fingerprint
from repro.chain.serialization import transaction_to_obj
from repro.chain.store import (
    SnapshotError, SnapshotStore, network_from_snapshot,
    snapshot_network,
)
from repro.contracts import CORPUS
from repro.scilla.values import IntVal, StringVal, addr, uint
from repro.scilla import types as ty

FIXTURE = Path(__file__).parent / "fixtures" / "restore_point_v4"
TOKEN = "0x" + "c0" * 20
ADMIN = "0x" + "ad" * 20
USERS = ["0x" + f"{i:040x}" for i in range(1, 13)]


def ft_network(data_dir=None, snapshot_every=8, **config) -> Network:
    net = Network(3, NetworkConfig(**config), data_dir=data_dir,
                  snapshot_every=snapshot_every)
    net.create_account(ADMIN)
    for u in USERS:
        net.create_account(u)
    net.deploy(CORPUS["FungibleToken"], TOKEN, {
        "contract_owner": addr(ADMIN), "name": StringVal("T"),
        "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(0),
    }, sharded_transitions=("Mint", "Transfer", "TransferFrom"))
    txns = [call(ADMIN, TOKEN, "Mint",
                 {"recipient": addr(u), "amount": uint(1000)},
                 nonce=i + 1)
            for i, u in enumerate(USERS)]
    net.process_epoch(txns, unlimited=True)
    return net


def transfer_round(nonce=1):
    return [call(u, TOKEN, "Transfer",
                 {"to": addr(USERS[(i + 5) % len(USERS)]),
                  "amount": uint(i + 1)}, nonce=nonce)
            for i, u in enumerate(USERS)]


# -- network <-> snapshot object ----------------------------------------------

def test_a_parent_written_restore_point_resumes_and_saves_the_same_rows(
        tmp_path):
    """``fixtures/restore_point_v4`` is a version-4 base written before
    accounts and nonce records became rows: a durable FT transfer run
    (``Network(2, data_dir=…)``, ``FTTransfer(n_users=6,
    txns_per_epoch=4, seed=7)``, two epochs, then one epoch holding a
    transfer whose sender skipped a nonce and a payment from an
    unfunded sender), saved with ``net.snapshot()``.  It resumes, and a
    fresh save holds the same ``accounts`` and ``nonces`` sections —
    the gap, the lazily created zero-balance account, the lanes no
    sender used (absent) included."""
    shutil.copytree(FIXTURE, tmp_path / "data")
    (saved,) = FIXTURE.glob("snap-*.json")
    fixture = json.loads(saved.read_text())["snapshot"]
    assert fixture["version"] == 4
    net = Network.resume(str(tmp_path / "data"))
    try:
        fresh = json.loads(json.dumps(
            snapshot_network(net, wal_seq=fixture["wal_seq"])))
    finally:
        net.close()
    assert "parent" not in fresh
    # Written with the five settings since deleted, at their defaults.
    assert {"carry_backlog", "max_retries", "retry_backoff", "shard_size",
            "ds_size"} <= set(fixture["config"])
    assert (net.n_shards, net.config) == (2, NetworkConfig())
    assert fresh["config"] == NetworkConfig().to_obj(2)
    assert fresh["accounts"] == fixture["accounts"]
    assert fresh["nonces"] == fixture["nonces"]
    assert net.balance("0x" + "5e" * 20) == 0
    used = dict(zip(fixture["nonces"]["sender"], fixture["nonces"]["used"]))
    assert used[f"0x{0x1000:040x}"] == [[1, 3], [5, 5]]


def test_snapshot_roundtrip_preserves_state_and_future():
    net = ft_network()
    net.process_epoch(transfer_round())
    obj = json.loads(json.dumps(snapshot_network(net, wal_seq=42)))
    restored = network_from_snapshot(obj)

    assert restored.epoch == net.epoch
    assert network_fingerprint(restored) == network_fingerprint(net)
    assert restored.accounts == net.accounts
    assert restored.nonces.records == net.nonces.records
    # The lanes' write table is derived again from the source.
    assert restored.contracts[TOKEN].writes_per_call == \
        net.contracts[TOKEN].writes_per_call != {}

    # The decisive property: both networks process the *same* next
    # epoch identically.
    nxt = transfer_round(nonce=2)
    net.process_epoch(nxt)
    restored.process_epoch(
        [tx for tx in nxt])
    assert network_fingerprint(restored) == network_fingerprint(net)


def test_snapshot_carries_backlog_dead_letter_and_counters():
    """The one deferral queue is the service pool: a restore point
    carries its pending entries with their deferral counts, and the
    epoch tags."""
    from repro.chain.consensus import CostModel
    from repro.chain.service import ServiceConfig, ServiceLoop
    tiny = CostModel(shard_gas_limit=150, ds_gas_limit=150)
    net = ft_network(cost_model=tiny)
    loop = ServiceLoop(net, config=ServiceConfig(max_deferrals=1))
    for tx in transfer_round():
        assert loop.submit(tx).admitted
    loop.run(2)
    assert loop.mempool.counters["dead-lettered"]
    for nonce in (2, 3):        # a deferred round, then a fresh one
        loop.tick()
        for tx in transfer_round(nonce=nonce):
            assert loop.submit(tx).admitted
    pending = [(e.tx.tx_id, e.deferrals)
               for e in loop.mempool.pending_entries()]
    assert {deferrals for _, deferrals in pending} == {0, 1}
    net.epoch_tags["measure"] = 3

    restored = network_from_snapshot(
        json.loads(json.dumps(snapshot_network(net, wal_seq=1))))
    assert [(e.tx.tx_id, e.deferrals)
            for e in restored.restored_mempool.values()] == pending
    assert restored.epoch_tags == net.epoch_tags


@pytest.mark.parametrize("section", ["backlog", "dead_letter"])
def test_a_restore_point_holding_a_backlog_is_refused(section):
    """Older builds wrote ``backlog`` and ``dead_letter`` sections; empty
    ones are ignored, a non-empty one cannot be resumed and says so."""
    net = ft_network()
    obj = json.loads(json.dumps(snapshot_network(net, wal_seq=1)))
    tx = transfer_round()[0]
    obj[section] = []
    assert network_fingerprint(network_from_snapshot(obj)) == \
        network_fingerprint(net)
    obj[section] = [[transaction_to_obj(tx), 1, 3]
                    if section == "backlog" else transaction_to_obj(tx)]
    with pytest.raises(SnapshotError, match=repr(section)):
        network_from_snapshot(obj)


def test_snapshot_carries_fault_plan_and_injector_counters():
    plan = FaultPlan([FaultEvent(2, FaultKind.CRASH_SHARD, 0)], seed=9)
    net = ft_network(fault_plan=plan)
    net.process_epoch(transfer_round())
    assert net.blocks[-1].excluded_lanes  # the fault fired

    restored = network_from_snapshot(
        json.loads(json.dumps(snapshot_network(net, wal_seq=1))))
    assert restored.injector is not None
    assert restored.injector.plan.seed == 9
    assert restored.injector.plan.events == plan.events
    assert restored.injector.injected == net.injector.injected
    assert restored.injector.skipped == net.injector.skipped


def test_snapshot_version_guard():
    net = ft_network()
    obj = snapshot_network(net, wal_seq=0)
    obj["version"] = 99
    with pytest.raises(SnapshotError, match="version"):
        network_from_snapshot(obj)


def test_a_data_dir_from_an_older_build_is_refused_by_version(tmp_path):
    # Version 3 is the only format read: an older restore point is not
    # corruption to fall back past, resume names it and stops.
    net = ft_network(data_dir=tmp_path, snapshot_every=1)
    net.process_epoch(transfer_round())
    net.close()
    store = SnapshotStore(tmp_path)
    for path in store.paths():
        body = json.loads(path.read_text())["snapshot"]
        body["version"] = 2
        path.unlink()
        store.save(body)
    with pytest.raises(SnapshotError, match="version 2"):
        Network.resume(str(tmp_path))


# -- durable storage ----------------------------------------------------------

def test_store_save_load_newest(tmp_path):
    net = ft_network()
    store = SnapshotStore(tmp_path)
    store.save(snapshot_network(net, wal_seq=10))
    net.process_epoch(transfer_round())
    store.save(snapshot_network(net, wal_seq=20))

    obj = store.load_newest()
    assert obj["wal_seq"] == 20
    assert obj["epoch"] == net.epoch
    assert len(store.paths()) == 2


def test_store_skips_tampered_snapshot(tmp_path):
    net = ft_network()
    store = SnapshotStore(tmp_path)
    store.save(snapshot_network(net, wal_seq=10))
    net.process_epoch(transfer_round())
    newest = store.save(snapshot_network(net, wal_seq=20))

    body = json.loads(newest.read_text())
    body["snapshot"]["epoch"] += 1  # tamper without fixing the digest
    newest.write_text(json.dumps(body))
    obj = store.load_newest()
    assert obj["wal_seq"] == 10  # fell back to the older valid one

    newest.write_text("not json at all")
    assert store.load_newest()["wal_seq"] == 10


def test_store_no_snapshot_returns_none(tmp_path):
    assert SnapshotStore(tmp_path).load_newest() is None


def test_store_save_leaves_no_temp_files(tmp_path):
    net = ft_network()
    store = SnapshotStore(tmp_path)
    store.save(snapshot_network(net, wal_seq=1))
    assert not [p for p in tmp_path.iterdir()
                if p.name.endswith(".tmp")]


def test_store_retention(tmp_path):
    net = ft_network()
    store = SnapshotStore(tmp_path, keep=2)
    for seq in (1, 2, 3, 4):
        store.save(snapshot_network(net, wal_seq=seq))
    deleted = store.compact()
    assert len(deleted) == 2
    remaining = store.paths()
    assert len(remaining) == 2
    assert store.load_newest()["wal_seq"] == 4


def test_store_keep_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        SnapshotStore(tmp_path, keep=0)
