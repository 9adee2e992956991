"""Durability integration tests: logged runs, resume, replay checks.

The in-process half of the crash-safety story (the out-of-process
SIGKILL half lives in tests/test_crash_torture.py): a durable network
must behave exactly like a plain one, a closed data dir must resume
into an equivalent network, and replay must refuse logs that do not
reproduce their recorded commits.
"""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.chain import Network, NetworkConfig, call, payment
from repro.chain.consensus import CostModel
from repro.chain.faults import FaultEvent, FaultKind, FaultPlan
from repro.chain.recovery import network_fingerprint
from repro.chain.store import SnapshotStore
from repro.chain.wal import (
    WALError, WALRecord, WriteAheadLog, _encode, _segment_files,
    read_wal,
)
from repro.contracts import CORPUS
from repro.scilla.values import IntVal, StringVal, addr, uint
from repro.scilla import types as ty
from repro.workloads.generators import workload_by_name

TOKEN = "0x" + "c0" * 20
ADMIN = "0x" + "ad" * 20
USERS = ["0x" + f"{i:040x}" for i in range(1, 13)]


def build_and_run(epochs=3, data_dir=None, config=None,
                  **durable_kwargs) -> Network:
    net = Network(3, config,
                  **({"data_dir": str(data_dir), **durable_kwargs}
                     if data_dir is not None else {}))
    net.create_account(ADMIN)
    for u in USERS:
        net.create_account(u)
    net.deploy(CORPUS["FungibleToken"], TOKEN, {
        "contract_owner": addr(ADMIN), "name": StringVal("T"),
        "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(0),
    }, sharded_transitions=("Mint", "Transfer", "TransferFrom"))
    net.process_epoch(
        [call(ADMIN, TOKEN, "Mint",
              {"recipient": addr(u), "amount": uint(1000)}, nonce=i + 1)
         for i, u in enumerate(USERS)], unlimited=True)
    for e in range(epochs):
        net.process_epoch(transfer_round(nonce=e + 1),
                          wal_tag="measure")
    return net


def transfer_round(nonce=1):
    return [call(u, TOKEN, "Transfer",
                 {"to": addr(USERS[(i + 5) % len(USERS)]),
                  "amount": uint(i + 1)}, nonce=nonce)
            for i, u in enumerate(USERS)]


# -- durability off by default ------------------------------------------------

def test_data_dir_none_touches_no_disk_and_matches(tmp_path):
    plain = build_and_run()
    assert plain.wal is None and plain.store is None
    durable = build_and_run(data_dir=tmp_path)
    assert network_fingerprint(durable) == network_fingerprint(plain)
    assert durable.epoch == plain.epoch
    durable.close()
    assert _segment_files(Path(tmp_path))  # the log really exists


def test_fresh_dir_guard(tmp_path):
    build_and_run(data_dir=tmp_path).close()
    with pytest.raises(WALError, match="use Network.resume"):
        Network(3, data_dir=str(tmp_path))


def test_resume_empty_dir_fails(tmp_path):
    with pytest.raises(WALError, match="nothing to resume"):
        Network.resume(str(tmp_path))


# -- clean-close resume -------------------------------------------------------

def test_resume_clean_close_equivalent_and_continues(tmp_path):
    reference = build_and_run(epochs=4)

    build_and_run(epochs=2, data_dir=tmp_path).close()
    net = Network.resume(str(tmp_path))
    assert net.epoch_tags == {"epoch": 1, "measure": 2}
    for e in range(2, 4):
        net.process_epoch(transfer_round(nonce=e + 1),
                          wal_tag="measure")
    assert network_fingerprint(net) == network_fingerprint(reference)
    net.close()

    # A second resume replays the continued log too.
    again = Network.resume(str(tmp_path))
    assert network_fingerprint(again) == network_fingerprint(reference)
    again.close()


@pytest.mark.parametrize("state_backend", [None, "sqlite"],
                         ids=["dict", "sqlite"])
def test_resume_from_snapshot_plus_wal_suffix(tmp_path, state_backend):
    reference = build_and_run(epochs=4)
    net = build_and_run(epochs=2, data_dir=tmp_path,
                        snapshot_every=10**9, state_backend=state_backend)
    net.snapshot()  # snapshot now …
    net.process_epoch(transfer_round(nonce=3), wal_tag="measure")
    net.process_epoch(transfer_round(nonce=4), wal_tag="measure")
    net.close()     # … leaving two epochs only in the WAL

    resumed = Network.resume(str(tmp_path))
    assert network_fingerprint(resumed) == \
        network_fingerprint(reference)
    assert resumed.epoch_tags == {"epoch": 1, "measure": 4}
    assert (resumed.state_backend is None) is (state_backend is None)
    resumed.close()


def test_resume_from_wal_only_after_snapshots_deleted(tmp_path):
    reference = build_and_run(epochs=3)
    net = build_and_run(epochs=3, data_dir=tmp_path,
                        snapshot_every=10**9)
    net.close()
    for snap in SnapshotStore(tmp_path).paths():
        snap.unlink()
    resumed = Network.resume(str(tmp_path))
    assert network_fingerprint(resumed) == \
        network_fingerprint(reference)
    resumed.close()


def test_snapshot_compacts_wal_and_bounds_replay(tmp_path):
    net = build_and_run(epochs=6, data_dir=tmp_path, snapshot_every=2,
                        keep_snapshots=2)
    net.close()
    store = SnapshotStore(tmp_path)
    # Retention held: the newest two restore points, plus — when the
    # older of them is a delta — the base it builds on.
    names = [p.name for p in store.paths()]
    assert len(names) == (3 if names[-2].endswith(".delta.json") else 2)
    newest = store.load_newest()
    # Every surviving WAL record is at or past the newest snapshot's
    # horizon minus one segment (compaction never splits a segment).
    segments = _segment_files(Path(tmp_path))
    assert segments
    records = read_wal(tmp_path)
    if records:
        assert records[-1].seq >= newest["wal_seq"]
    resumed = Network.resume(str(tmp_path))
    assert network_fingerprint(resumed) == network_fingerprint(net)
    resumed.close()


def test_wal_notes_survive_resume(tmp_path):
    net = build_and_run(epochs=1, data_dir=tmp_path)
    net.wal_note({"kind": "marker", "n": 1})
    net.snapshot()
    net.wal_note({"kind": "marker", "n": 2})
    net.close()
    resumed = Network.resume(str(tmp_path))
    markers = [n for n in resumed.wal_notes
               if isinstance(n, dict) and n.get("kind") == "marker"]
    assert markers == [{"kind": "marker", "n": 1},
                       {"kind": "marker", "n": 2}]
    resumed.close()


def test_resume_under_fault_plan_matches(tmp_path):
    plan = FaultPlan.random(3, epochs=6, n_shards=3)
    reference = build_and_run(epochs=4,
                              config=NetworkConfig(fault_plan=plan))
    net = build_and_run(epochs=2, data_dir=tmp_path,
                        config=NetworkConfig(fault_plan=plan))
    net.close()
    resumed = Network.resume(str(tmp_path))
    for e in range(2, 4):
        resumed.process_epoch(transfer_round(nonce=e + 1),
                              wal_tag="measure")
    assert network_fingerprint(resumed) == \
        network_fingerprint(reference)
    resumed.close()


# -- torn tails and divergence detection --------------------------------------

def test_resume_after_torn_tail_drops_the_torn_epoch(tmp_path):
    net = build_and_run(epochs=2, data_dir=tmp_path,
                        snapshot_every=10**9)
    net.close()
    # Tear the last record (the final commit) in half.
    (segment,) = _segment_files(Path(tmp_path))
    blob = segment.read_bytes()
    records = read_wal(tmp_path)
    last_frame = _encode(records[-1])
    assert blob.endswith(last_frame)
    segment.write_bytes(blob[:-len(last_frame) // 2])

    resumed = Network.resume(str(tmp_path))
    # The commit record was torn but the epoch's inputs were already
    # durable — replay re-executed them, losing nothing.
    assert resumed.epoch_tags == {"epoch": 1, "measure": 2}
    assert network_fingerprint(resumed) == network_fingerprint(net)
    resumed.close()


def test_commit_record_is_on_disk_when_the_epoch_returns(tmp_path):
    """A crash right after ``process_epoch`` returns — the data dir
    copied while the log is still open, no close and no later barrier
    — finds the epoch's commit record: the commit append carries its
    own fsync, so an epoch costs two barriers (inputs, commit)."""
    live, image = tmp_path / "live", tmp_path / "image"
    net = build_and_run(epochs=1, data_dir=live, snapshot_every=10**9)
    barriers = net.wal.barriers
    net.process_epoch(transfer_round(nonce=2), wal_tag="measure")
    assert net.wal.barriers == barriers + 2
    shutil.copytree(live, image)
    last = read_wal(image)[-1]
    assert (last.type, last.data["epoch"]) == ("commit", net.epoch)
    resumed = Network.resume(str(image))
    assert resumed.epoch_tags == {"epoch": 1, "measure": 2}
    assert network_fingerprint(resumed) == network_fingerprint(net)
    resumed.close()
    net.close()


def test_replay_rejects_divergent_commit_digest(tmp_path):
    net = build_and_run(epochs=2, data_dir=tmp_path,
                        snapshot_every=10**9)
    net.close()
    # Rewrite the final commit record with a forged digest (correctly
    # framed and CRC'd, so only the semantic check can catch it).
    (segment,) = _segment_files(Path(tmp_path))
    blob = segment.read_bytes()
    last = read_wal(tmp_path)[-1]
    assert last.type == "commit"
    forged = WALRecord(last.seq, "commit",
                       {**last.data, "digest": "0" * 64})
    segment.write_bytes(blob[:-len(_encode(last))] + _encode(forged))

    with pytest.raises(WALError, match="diverged"):
        Network.resume(str(tmp_path))


def test_replay_rejects_out_of_step_epoch_record(tmp_path):
    net = build_and_run(epochs=1, data_dir=tmp_path,
                        snapshot_every=10**9)
    net.close()
    (segment,) = _segment_files(Path(tmp_path))
    records = read_wal(tmp_path)
    rewritten = []
    for r in records:
        if r.type == "epoch":
            r = WALRecord(r.seq, "epoch",
                          {**r.data, "epoch": r.data["epoch"] + 7})
        rewritten.append(r)
    segment.write_bytes(b"".join(_encode(r) for r in rewritten))
    with pytest.raises(WALError, match="out of step"):
        Network.resume(str(tmp_path))


def test_replay_rejects_unknown_record_type(tmp_path):
    net = build_and_run(epochs=1, data_dir=tmp_path)
    net.wal.append("mystery", {})
    net.close()
    with pytest.raises(WALError, match="unknown WAL record type"):
        Network.resume(str(tmp_path))


# -- the logged configuration ------------------------------------------------

NON_DEFAULT = {
    "use_signatures": False,
    "cost_model": CostModel(shard_gas_limit=123_456),
    "strict_nonces": True,
    "overflow_guard": True,
    "fault_plan": FaultPlan([FaultEvent(9, FaultKind.CRASH_SHARD, 1)],
                            seed=4),
}


def rewrite_wal(data_dir, change) -> None:
    """Re-frame every record of a one-segment log through ``change``."""
    (segment,) = _segment_files(Path(data_dir))
    segment.write_bytes(b"".join(_encode(change(r))
                                 for r in read_wal(data_dir)))


@pytest.mark.parametrize("field", [f.name for f in
                                   dataclasses.fields(NetworkConfig)])
def test_every_config_field_is_logged_and_resumed(tmp_path, field):
    """A field added to ``NetworkConfig`` without serialisation (or
    without a value here) fails this test."""
    config = NetworkConfig(**{field: NON_DEFAULT[field]})
    assert config != NetworkConfig()
    Network(3, config, data_dir=tmp_path).close()
    (init,) = read_wal(tmp_path)
    assert NetworkConfig.from_obj(init.data) == (3, config)

    resumed = Network.resume(str(tmp_path))         # from the init record
    assert (resumed.n_shards, resumed.config) == (3, config)
    resumed.snapshot()
    resumed.close()
    base = SnapshotStore(tmp_path).load_newest()
    assert "parent" not in base
    assert NetworkConfig.from_obj(base["config"]) == (3, config)
    again = Network.resume(str(tmp_path))           # from the base
    assert again.config == config
    again.close()


@pytest.mark.parametrize("key, value", [("shard_size", 7), ("ds_size", 4)])
def test_a_record_with_other_committee_sizes_is_refused(tmp_path, key,
                                                        value):
    obj = NetworkConfig().to_obj(3)
    assert NetworkConfig.from_obj({**obj, "shard_size": 5,
                                   "ds_size": 10}) == (3, NetworkConfig())
    with pytest.raises(ValueError, match=key):
        NetworkConfig.from_obj({**obj, key: value})
    Network(3, data_dir=tmp_path).close()
    rewrite_wal(tmp_path, lambda r: WALRecord(
        r.seq, r.type, {**r.data, key: value}))
    with pytest.raises(ValueError, match=key):
        Network.resume(str(tmp_path))


def test_an_old_log_that_carried_a_transaction_stops_at_its_commit(
        tmp_path):
    """``carry_backlog`` / ``max_retries`` / ``retry_backoff`` in an
    older build's init record are read and ignored.  That build logged
    an epoch's fresh submissions only and retried deferred ones from a
    network-side backlog: replayed now, the retried transactions are
    missing, and the epoch's commit record stops the resume."""
    tiny = CostModel(shard_gas_limit=150, ds_gas_limit=150)
    net = build_and_run(epochs=1, data_dir=tmp_path, snapshot_every=10**9,
                        config=NetworkConfig(cost_model=tiny))
    block = net.blocks[-1]
    carried = [r.tx for r in block.all_receipts if r.deferred]
    assert carried
    net.process_epoch(carried)         # what the backlog retried
    fingerprint = network_fingerprint(net)
    net.close()
    old_keys = {"carry_backlog": True, "max_retries": 16,
                "retry_backoff": 1.0, "shard_size": 5, "ds_size": 10}

    def old_init(record):
        if record.type != "init":
            return record
        return WALRecord(record.seq, "init", {**record.data, **old_keys})
    rewrite_wal(tmp_path, old_init)
    resumed = Network.resume(str(tmp_path))
    assert resumed.config == NetworkConfig(cost_model=tiny)
    assert network_fingerprint(resumed) == fingerprint
    resumed.close()

    last_epoch = max(r.seq for r in read_wal(tmp_path) if r.type == "epoch")

    def backlog_epoch(record):
        if record.seq != last_epoch:
            return record
        return WALRecord(record.seq, "epoch", {**record.data, "txns": []})
    rewrite_wal(tmp_path, backlog_epoch)
    with pytest.raises(WALError, match="diverged at epoch 3"):
        Network.resume(str(tmp_path))


FEE_FIXTURE = Path(__file__).parent / "fixtures" / "wal_before_fee_rule"


def test_a_log_from_before_the_fee_rule_is_refused_by_name(tmp_path):
    """``fixtures/wal_before_fee_rule`` was written by a build that
    left a failed payment's fee unpaid: two 1 000-funded users, a
    payment of 100 in epoch 1 and one of 10**6 in epoch 2.  Replayed
    now, that payment would cost its sender 50 more, and the commit
    digest (contract state only) would not say so; the epoch records
    carry no fee rule, and the resume stops at the first one."""
    shutil.copytree(FEE_FIXTURE, tmp_path, dirs_exist_ok=True)
    with pytest.raises(WALError,
                       match=r"record 4 \(epoch 1\).*fee rule None"):
        Network.resume(str(tmp_path))


def test_a_failed_payment_resumes_to_the_fee_it_paid(tmp_path):
    a, b = USERS[0], USERS[1]
    net = Network(2, data_dir=str(tmp_path), snapshot_every=10**9)
    net.create_account(a, 1000)
    net.create_account(b, 1000)
    net.process_epoch([payment(a, b, 100, nonce=1)])
    block = net.process_epoch([payment(a, b, 10**6, nonce=2)])
    assert [(r.success, r.gas_used) for r in block.all_receipts] == \
        [(False, 50)]
    accounts = dict(net.accounts)
    net.close()
    assert all(r.data["fees"] == "deposit"
               for r in read_wal(tmp_path) if r.type == "epoch")
    resumed = Network.resume(str(tmp_path))
    assert dict(resumed.accounts) == accounts
    assert resumed.accounts[a][0] == 1000 - 150 - 50
    resumed.close()


# -- a refused deployment ---------------------------------------------------

_FT_PARAMS = {
    "contract_owner": addr(ADMIN), "name": StringVal("U"),
    "symbol": StringVal("U"), "decimals": IntVal(6, ty.UINT32),
    "init_supply": uint(0),
}
_REFUSED_DEPLOYS = {
    "parse": ("contract Broken (", {}),
    "missing-parameter": (CORPUS["FungibleToken"],
                          {k: v for k, v in _FT_PARAMS.items()
                           if k != "symbol"}),
}


@pytest.mark.parametrize("why", sorted(_REFUSED_DEPLOYS))
def test_a_refused_deploy_logs_nothing_and_resumes(tmp_path, why):
    """A deployment the pipeline or the parameter check refuses raises
    before its record is logged: the directory resumes into the network
    without it, and a later epoch commits on both alike."""
    from repro.scilla.errors import ScillaError
    source, params = _REFUSED_DEPLOYS[why]
    net = build_and_run(epochs=1, data_dir=tmp_path, snapshot_every=10**9)
    types = [r.type for r in read_wal(tmp_path)]
    with pytest.raises(ScillaError):
        net.deploy(source, "0x" + "c1" * 20, params)
    assert [r.type for r in read_wal(tmp_path)] == types
    net.process_epoch(transfer_round(nonce=2))
    net.close()
    resumed = Network.resume(str(tmp_path))
    assert network_fingerprint(resumed) == network_fingerprint(net)
    assert dict(resumed.accounts) == dict(net.accounts)
    resumed.close()


def test_a_log_holding_a_refused_deploy_stops_at_it_by_name(tmp_path):
    """Older builds logged a deployment before checking it; such a log
    stops at that record with a ``WALError`` naming it."""
    net = build_and_run(epochs=1, data_dir=tmp_path, snapshot_every=10**9)
    net.wal.append("deploy", {
        "source": "contract Broken (", "address": "0x" + "c1" * 20,
        "params": {}, "sharded_transitions": None, "weak_reads": "auto",
        "balance": 0, "allow_commutativity": True,
        "proposed_signature": None})
    seq = net.wal.last_seq
    net.close()
    with pytest.raises(WALError, match=rf"log record {seq} deploys .*"
                                       rf"ParseError"):
        Network.resume(str(tmp_path))


# -- typed durability errors (injected disk failures) -------------------------

def test_wal_append_oserror_raises_walerror_and_poisons_log(tmp_path):
    wal = WriteAheadLog(tmp_path)
    wal.append("note", {"n": 1})
    wal.barrier()

    class FailingHandle:
        def write(self, data):
            raise OSError(28, "No space left on device")

        def flush(self):
            pass

        def close(self):
            pass
    wal._handle = FailingHandle()
    with pytest.raises(WALError, match="append failed.*OSError"):
        wal.append("note", {"n": 2})
    # The log is poisoned: every later call fails cleanly.
    with pytest.raises(WALError, match="closed"):
        wal.append("note", {"n": 3})
    with pytest.raises(WALError, match="closed"):
        wal.barrier()
    # The on-disk log is intact up to the last complete record.
    assert [r.data for r in read_wal(tmp_path)] == [{"n": 1}]


def test_wal_barrier_fsync_oserror_raises_walerror(tmp_path,
                                                   monkeypatch):
    wal = WriteAheadLog(tmp_path)
    wal.append("note", {"n": 1})
    import os as os_mod

    def failing_fsync(fd):
        raise OSError(5, "Input/output error")
    monkeypatch.setattr(os_mod, "fsync", failing_fsync)
    with pytest.raises(WALError, match="barrier fsync failed"):
        wal.barrier()
    monkeypatch.undo()
    assert [r.data for r in read_wal(tmp_path)] == [{"n": 1}]


def test_snapshot_save_oserror_raises_storeerror(tmp_path,
                                                 monkeypatch):
    from repro.chain.store import StoreError
    store = SnapshotStore(tmp_path)
    good = {"epoch": 1, "wal_seq": 5, "payload": "ok"}
    store.save({"epoch": 1, "wal_seq": 5, "payload": "ok"})

    import os as os_mod

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(os_mod, "replace", failing_replace)
    with pytest.raises(StoreError, match="snapshot write failed"):
        store.save({"epoch": 2, "wal_seq": 9, "payload": "doomed"})
    monkeypatch.undo()
    # No temp litter; the previous snapshot set is intact and loadable.
    assert not list(tmp_path.glob("*.tmp"))
    assert [p.name for p in store.paths()] \
        == [store._path(1, 5).name]
    assert store.load_newest() == good


def test_network_survives_snapshot_disk_failure_and_resumes(
        tmp_path, monkeypatch):
    from repro.chain.store import SnapshotError, StoreError
    net = build_and_run(epochs=1, data_dir=tmp_path, snapshot_every=1)

    import os as os_mod
    real_fsync = os_mod.fsync

    def failing_fsync(fd):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(os_mod, "fsync", failing_fsync)
    with pytest.raises(SnapshotError):
        net.snapshot()
    monkeypatch.setattr(os_mod, "fsync", real_fsync)

    # The epoch had already committed to the WAL: a fresh process
    # resumes to the same state despite the failed snapshot.
    expected = network_fingerprint(net)
    net.close()
    resumed = Network.resume(str(tmp_path))
    assert network_fingerprint(resumed) == expected
    resumed.close()


def _under_two_hash_seeds(tmp_path, monkeypatch, argv):
    """``repro *argv`` run in a subprocess under PYTHONHASHSEED 0 and 1,
    each from its own directory: the two (stdout, directory) pairs."""
    import subprocess
    import sys
    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).parents[1] / "src"))
    runs = []
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        cwd = tmp_path / f"hash-seed-{seed}"
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                              cwd=cwd, capture_output=True,
                              stdin=subprocess.DEVNULL, timeout=600)
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append((proc.stdout, cwd))
    return runs


def test_every_durable_byte_is_the_same_under_two_hash_seeds(
        tmp_path, monkeypatch):
    """`repro run --workload "FT transfer" --users 100 --txns 6
    --epochs 10` writes a base and two delta restore points and three
    WAL segments, and `repro serve --ticks 24` three restore points
    and three segments; under PYTHONHASHSEED 0 and 1 every file is the
    same byte for byte (a restore point once listed a signature's joins
    and a delta's rows in set order, and a served one embedded
    wall-clock histograms)."""
    for argv, restore_points, deltas in [
            (["run", "--workload", "FT transfer", "--seed", "0",
              "--epochs", "10", "--shards", "4", "--users", "100",
              "--txns", "6", "--json"], 3, 2),
            (["serve", "--ticks", "24", "--txns", "100", "--population",
              "500", "--shards", "2"], 3, 0)]:
        legs = tmp_path / argv[0]
        legs.mkdir()
        files = [{p.name: p.read_bytes() for p in sorted(cwd.glob("data/*"))}
                 for _, cwd in _under_two_hash_seeds(
                     legs, monkeypatch, [*argv, "--data-dir", "data"])]
        names = files[0].keys()
        assert sum(name.startswith("snap-") for name in names) == \
            restore_points
        assert sum(".delta." in name for name in names) == deltas
        assert names == files[1].keys()
        for name in names:
            assert files[0][name] == files[1][name], (argv[0], name)


@pytest.mark.parametrize("argv", [
    ["metrics", "--epochs", "2", "--json", "--deterministic-only"],
    ["chaos", "--seed", "7", "--epochs", "3"]], ids=["metrics", "chaos"])
def test_deterministic_reports_are_the_same_under_two_hash_seeds(
        tmp_path, monkeypatch, argv):
    (first, _), (second, _) = _under_two_hash_seeds(tmp_path, monkeypatch,
                                                    argv)
    assert first and first == second
