"""The two oracles of O(touched) durability.

**The digest oracle.**  A durable network keeps one accumulator per
contract and advances it from each epoch's change set
(``recovery.ChangeLedger``); ``state_accumulator`` recomputes it from
scratch and is its specification.  After *every* epoch — of all eight
Fig. 14 workloads, and of Hypothesis-generated sequences over a
contract with depth-1 and depth-2 maps — the two must agree, and
accumulators must be equal exactly when ``state_fingerprint`` is.

**The restore-point oracle.**  A base, the deltas chained on it and the
WAL suffix must resume to what an uninterrupted run holds: fingerprint,
accounts, nonce tables, epoch tags, notes, deterministic telemetry —
whatever the rebase rule decided, and with any one restore point
corrupted.

Each oracle is a plain function raising ``AssertionError``, so the
mutation checks at the bottom can show that breaking the production
code (dropping the DS-lane source, the balance term, the empty-map
case) makes it fail.
"""

import copy
import hashlib
import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.chain import recovery
from repro.chain.faults import FaultEvent, FaultKind, FaultPlan
from repro.chain.network import Network, NetworkConfig
from repro.chain.recovery import (
    ChangeLedger, network_fingerprint, state_accumulator,
    state_fingerprint,
)
from repro.chain.store import SnapshotError, SnapshotStore
from repro.chain.transaction import call
from repro.chain.wal import (
    WALError, _encode, _segment_files, read_wal,
)
from repro.contracts import CORPUS
from repro.obs import MetricsRegistry
from repro.scilla import types as ty
from repro.scilla.state import MISSING, ContractState
from repro.scilla.values import IntVal, MapVal, StringVal, addr, uint
from repro.workloads.generators import ALL_WORKLOADS

from .test_durability import build_and_run, transfer_round

GRID = """scilla_version 0

library Grid

let one_msg = fun (msg: Message) =>
  let nil_msg = Nil {Message} in
  Cons {Message} msg nil_msg

contract Grid
(
  admin: ByStr20
)

field counts : Map ByStr20 Uint128 = Emp ByStr20 Uint128
field grid : Map ByStr20 (Map Uint32 Uint128) =
  Emp ByStr20 (Map Uint32 Uint128)
field flag : Uint128 = Uint128 0
field pot : Uint128 = Uint128 0

(* Commutative: IntMerge, any shard may contribute. *)
transition Add (to: ByStr20, n: Uint128)
  c <- counts[to];
  new_c = match c with
          | Some x => builtin add x n
          | None => n
          end;
  counts[to] := new_c
end

(* Owned nested writes: sharded by sender. *)
transition Put2 (k: Uint32, v: Uint128)
  grid[_sender][k] := v
end

transition Del2 (k: Uint32)
  delete grid[_sender][k]
end

(* Writes, then fails. *)
transition Fail (k: Uint32, v: Uint128)
  grid[_sender][k] := v;
  flag := v;
  e = { _exception : "Always" };
  throw e
end

transition Deposit ()
  accept;
  p <- pot;
  new_p = builtin add p _amount;
  pot := new_p
end

(* Everything below is unsummarisable or not selected: DS-routed and
   written in place on the merged state. *)
transition DelRow ()
  delete grid[_sender]
end

transition SetRow (k: Uint32, v: Uint128)
  emp = Emp Uint32 Uint128;
  row = builtin put emp k v;
  grid[_sender] := row
end

transition Both (k: Uint32, v: Uint128)
  emp = Emp Uint32 Uint128;
  grid[_sender] := emp;
  grid[_sender][k] := v
end

transition SetFlag (v: Uint128)
  flag := v
end

transition DsPut2 (owner: ByStr20, k: Uint32, v: Uint128)
  grid[owner][k] := v
end

transition DsDel2 (owner: ByStr20, k: Uint32)
  delete grid[owner][k]
end

transition DsFail (owner: ByStr20, k: Uint32, v: Uint128)
  grid[owner][k] := v;
  delete grid[owner];
  e = { _exception : "Always" };
  throw e
end

transition Payout (to: ByStr20, amount: Uint128)
  p <- pot;
  new_p = builtin sub p amount;
  pot := new_p;
  msg = { _tag : "Paid"; _recipient : to; _amount : amount };
  msgs = one_msg msg;
  send msgs
end
"""

ADMIN = "0x" + "ad" * 20
GRID_ADDR = "0x" + "c1" * 20
TOKEN_ADDR = "0x" + "c2" * 20
USERS = ["0x" + f"{i:040x}" for i in range(1, 6)]
SHARDED = ("Add", "Put2", "Del2", "Fail", "Deposit")


def u32(n: int) -> IntVal:
    return IntVal(n, ty.UINT32)


# --------------------------------------------------------------------------
# The digest oracle.
# --------------------------------------------------------------------------

def assert_incremental_matches_scratch(net: Network) -> None:
    """The ledger's accumulators against a from-scratch recomputation,
    and against ``state_accumulator`` — the spec — contract by
    contract."""
    scratch = ChangeLedger(net)
    assert net._ledger.fields == scratch.fields
    assert net._ledger.accumulators(net) == {
        a: f"{state_accumulator(c.state):064x}"
        for a, c in sorted(net.contracts.items())}


def plain_state(balance=0, **fields) -> ContractState:
    return ContractState("0x" + "c0" * 20, fields, {}, balance=balance)


def str_map(pairs, value_type=ty.UINT128) -> MapVal:
    m = MapVal(ty.STRING, value_type)
    for k, v in pairs:
        m.entries[StringVal(k)] = v
    return m


def exactness_pairs():
    """(what differs, state a, state b, equal?) — every distinction
    ``_canonical`` draws, one at a time."""
    inner = ty.MapType(ty.STRING, ty.UINT128)
    return [
        ("nothing", plain_state(f=uint(1)), plain_state(f=uint(1)), True),
        ("map insertion order",
         plain_state(m=str_map([("a", uint(1)), ("b", uint(2))])),
         plain_state(m=str_map([("b", uint(2)), ("a", uint(1))])), True),
        ("nested insertion order",
         plain_state(m=str_map([("r", str_map([("a", uint(1)),
                                               ("b", uint(2))]))], inner)),
         plain_state(m=str_map([("r", str_map([("b", uint(2)),
                                               ("a", uint(1))]))], inner)),
         True),
        ("scalar value", plain_state(f=uint(1)), plain_state(f=uint(2)),
         False),
        ("scalar type", plain_state(f=uint(1)),
         plain_state(f=IntVal(1, ty.UINT32)), False),
        ("balance", plain_state(balance=1, f=uint(1)),
         plain_state(balance=2, f=uint(1)), False),
        ("entry value", plain_state(m=str_map([("a", uint(1))])),
         plain_state(m=str_map([("a", uint(2))])), False),
        ("entry key", plain_state(m=str_map([("a", uint(1))])),
         plain_state(m=str_map([("b", uint(1))])), False),
        ("entry presence", plain_state(m=str_map([("a", uint(1))])),
         plain_state(m=str_map([])), False),
        ("empty nested map vs absent key",
         plain_state(m=str_map([("r", str_map([]))], inner)),
         plain_state(m=str_map([], inner)), False),
        ("nested value",
         plain_state(m=str_map([("r", str_map([("a", uint(1))]))], inner)),
         plain_state(m=str_map([("r", str_map([("a", uint(2))]))], inner)),
         False),
        ("which field holds it", plain_state(f=uint(1), g=uint(2)),
         plain_state(f=uint(2), g=uint(1)), False),
        ("empty map field vs no field", plain_state(m=str_map([])),
         plain_state(), False),
        ("key/value framing",
         plain_state(m=str_map([("a", StringVal("b|c"))], ty.STRING)),
         plain_state(m=str_map([("a|b", StringVal("c"))], ty.STRING)),
         False),
    ]


def assert_exactness_contract() -> None:
    for what, a, b, equal in exactness_pairs():
        fingerprints = state_fingerprint(a) == state_fingerprint(b)
        accumulators = state_accumulator(a) == state_accumulator(b)
        assert fingerprints == equal, what
        assert accumulators == equal, what


def test_equal_accumulators_iff_equal_fingerprints():
    assert_exactness_contract()


# -- state level: arbitrary locations, arbitrary depths ------------------------

KEYS = [StringVal(c) for c in "abc"]
leaf = st.integers(0, 3).map(uint)
row = st.dictionaries(st.sampled_from(KEYS), leaf, max_size=3).map(
    lambda d: str_map([(k.value, v) for k, v in d.items()]))
state_ops = st.lists(st.one_of(
    st.tuples(st.just("scalar"), leaf),
    st.tuples(st.just("flat"), st.sampled_from(KEYS),
              st.one_of(leaf, st.just(MISSING))),
    st.tuples(st.just("nested"), st.sampled_from(KEYS),
              st.sampled_from(KEYS), st.one_of(leaf, st.just(MISSING))),
    st.tuples(st.just("row"), st.sampled_from(KEYS),
              st.one_of(row, st.just(MISSING))),
    st.tuples(st.just("whole"), row),
), max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.lists(state_ops, min_size=1, max_size=4))
def test_commit_matches_scratch_on_arbitrary_writes(epochs):
    """``ChangeLedger.commit`` fed the written locations and the
    pre-epoch fork ≡ a from-scratch recomputation: scalars, flat and
    nested entries, deletes that leave empty maps behind, re-creation,
    whole-entry and whole-field overwrites, writes at two depths."""
    from types import SimpleNamespace
    nested = ty.MapType(ty.STRING, ty.MapType(ty.STRING, ty.UINT128))
    state = ContractState(
        "0x" + "c0" * 20,
        {"s": uint(0), "flat": str_map([]),
         "deep": MapVal(ty.STRING, nested.value)},
        {"s": ty.UINT128, "flat": ty.MapType(ty.STRING, ty.UINT128),
         "deep": nested})
    net = SimpleNamespace(
        contracts={state.address: SimpleNamespace(state=state)})
    ledger = ChangeLedger(net)
    for ops in epochs:
        pre, keys = state.fork(), set()
        for op in ops:
            key = {"scalar": ("s", ()), "flat": ("flat", op[1:2]),
                   "nested": ("deep", op[1:3]), "row": ("deep", op[1:2]),
                   "whole": ("flat", ())}[op[0]]
            value = op[-1]
            if isinstance(value, MapVal):
                value = value.copy()
            state.write(key, value)
            keys.add(key)
        ledger.commit(net, {state.address: pre}, {state.address: keys},
                      set(), set())
        assert ledger.fields == ChangeLedger(net).fields


# -- all eight Fig. 14 workloads ------------------------------------------------

def run_fig14(cls, data_dir) -> Network:
    net = Network(4, data_dir=str(data_dir), snapshot_every=2)
    w = cls(n_users=16, txns_per_epoch=24, seed=11)
    w.setup(net)
    assert_incremental_matches_scratch(net)
    for epoch in range(4):
        net.process_epoch(w.transactions(epoch))
        assert_incremental_matches_scratch(net)
    return net


@pytest.mark.parametrize("cls", ALL_WORKLOADS, ids=lambda c: c.name)
def test_fig14_incremental_matches_scratch_every_epoch(tmp_path, cls):
    net = run_fig14(cls, tmp_path / "serial")
    expected = network_fingerprint(net)
    net.close()
    resumed = Network.resume(str(tmp_path / "serial"))
    assert network_fingerprint(resumed) == expected
    assert_incremental_matches_scratch(resumed)
    resumed.close()


# -- Hypothesis sequences over depth-1 and depth-2 maps -------------------------

def grid_network(data_dir, fault_plan=None, **kwargs) -> Network:
    net = Network(3, NetworkConfig(fault_plan=fault_plan),
                  data_dir=str(data_dir), **kwargs)
    net.create_account(ADMIN)
    for user in USERS:
        net.create_account(user)
    net.deploy(GRID, GRID_ADDR, {"admin": addr(ADMIN)},
               sharded_transitions=SHARDED)
    return net


user_ix = st.integers(0, len(USERS) - 1)
small = st.integers(0, 2)
grid_op = st.one_of(
    st.tuples(st.just("Add"), user_ix, user_ix, st.integers(1, 5)),
    st.tuples(st.sampled_from(["Put2", "Fail", "SetRow", "Both"]),
              user_ix, small, st.integers(0, 5)),
    st.tuples(st.sampled_from(["Del2", "DelRow", "Deposit"]), user_ix,
              small),
    st.tuples(st.just("SetFlag"), user_ix, st.integers(0, 5)),
    st.tuples(st.sampled_from(["DsPut2", "DsFail"]), user_ix, user_ix,
              small, st.integers(0, 5)),
    st.tuples(st.just("DsDel2"), user_ix, user_ix, small),
    st.tuples(st.just("Payout"), user_ix, user_ix, st.integers(0, 3)),
)
grid_epochs = st.lists(st.lists(grid_op, max_size=8), min_size=1,
                       max_size=5)


def grid_tx(op, nonces: dict) -> "Transaction":
    name, sender, *rest = op
    sender = USERS[sender]
    nonces[sender] = nonce = nonces.get(sender, 0) + 1
    args, amount = {}, 0
    if name == "Add":
        args = {"to": addr(USERS[rest[0]]), "n": uint(rest[1])}
    elif name in ("Put2", "Fail", "SetRow", "Both"):
        args = {"k": u32(rest[0]), "v": uint(rest[1])}
    elif name == "Del2":
        args = {"k": u32(rest[0])}
    elif name == "Deposit":
        amount = 10 * (rest[0] + 1)
    elif name == "SetFlag":
        args = {"v": uint(rest[0])}
    elif name in ("DsPut2", "DsFail"):
        args = {"owner": addr(USERS[rest[0]]), "k": u32(rest[1]),
                "v": uint(rest[2])}
    elif name == "DsDel2":
        args = {"owner": addr(USERS[rest[0]]), "k": u32(rest[1])}
    elif name == "Payout":
        args = {"to": addr(USERS[rest[0]]), "amount": uint(rest[1])}
    return call(sender, GRID_ADDR, name, args, nonce=nonce,
                amount=amount)


def observable(net: Network) -> dict:
    """What the restore-point oracle compares."""
    return {
        "fingerprint": network_fingerprint(net),
        "accounts": dict(net.accounts),
        "nonces": copy.deepcopy(net.nonces.records),
        "epoch": net.epoch,
        "epoch_tags": dict(net.epoch_tags),
        "notes": list(net.wal_notes),
        "metrics": (net.metrics.deterministic_snapshot()
                    if net.metrics.enabled else None),
    }


def drive_grid(tmp_path: Path, epochs, deploy_at: int,
               byzantine_at: int) -> None:
    """One generated run: every epoch checks the digest oracle, the
    end checks the restore-point oracle (base + deltas + WAL suffix ≡
    the live network)."""
    plan = FaultPlan([FaultEvent(byzantine_at + 1, FaultKind.CORRUPT_DELTA,
                                 shard)
                      for shard in range(3)])
    net = grid_network(tmp_path, snapshot_every=2, fault_plan=plan,
                       metrics=MetricsRegistry())
    nonces: dict = {}
    for index, ops in enumerate(epochs):
        if index == deploy_at:
            net.deploy(CORPUS["FungibleToken"], TOKEN_ADDR, {
                "contract_owner": addr(ADMIN), "name": StringVal("T"),
                "symbol": StringVal("T"),
                "decimals": IntVal(6, ty.UINT32),
                "init_supply": uint(5)}, sharded_transitions=("Transfer",))
        net.process_epoch([grid_tx(op, nonces) for op in ops])
        assert_incremental_matches_scratch(net)
    expected = observable(net)
    net.close()
    resumed = Network.resume(str(tmp_path), metrics=MetricsRegistry())
    try:
        assert observable(resumed) == expected
        assert_incremental_matches_scratch(resumed)
    finally:
        resumed.close()


@settings(max_examples=40, deadline=None)
@given(grid_epochs, st.integers(0, 5), st.integers(0, 4))
def test_generated_sequences_hold_both_oracles(tmp_path_factory, epochs,
                                               deploy_at, byzantine_at):
    drive_grid(tmp_path_factory.mktemp("grid"), epochs, deploy_at,
               byzantine_at)


DS_IN_PLACE = [
    # Sharded writes and IntMerge from several shards, a failing tx ...
    [("Put2", 0, 1, 5), ("Add", 1, 2, 5), ("Add", 2, 2, 7),
     ("Add", 3, 2, 1), ("Fail", 4, 1, 5), ("Deposit", 3, 1)],
    # ... then the DS lane in place: a delete that leaves grid[u0]
    # empty, a nested write into a fresh row, a failing transaction
    # whose rollback re-journals, a payout moving the balance.
    [("DsDel2", 1, 0, 1), ("DsPut2", 1, 3, 2, 4), ("DsFail", 2, 3, 2, 9),
     ("SetFlag", 3, 9), ("Payout", 4, 0, 3)],
    # Delete then re-create; whole-entry overwrite; two depths at once.
    [("DelRow", 3), ("DsPut2", 0, 3, 0, 1), ("SetRow", 1, 2, 2),
     ("Both", 2, 1, 1), ("Put2", 0, 2, 2)],
    [("Del2", 0, 2), ("DsDel2", 1, 2, 1)],
]


def test_pinned_sequence_covers_the_ds_lane(tmp_path):
    """The shapes the issue names, pinned (Hypothesis explores around
    them): after the second epoch ``grid[u0]`` is an *empty* nested
    map, left by an in-place DS-lane delete."""
    net = grid_network(tmp_path / "probe")
    nonces: dict = {}
    for ops in DS_IN_PLACE[:2]:
        block = net.process_epoch([grid_tx(op, nonces) for op in ops])
    assert block.stats.to_ds == len(DS_IN_PLACE[1])
    state = net.contracts[GRID_ADDR].state
    assert state.read(("grid", (addr(USERS[0]),))).entries == {}
    assert state.balance == 20 - 3
    net.close()
    drive_grid(tmp_path / "full", DS_IN_PLACE, deploy_at=2,
               byzantine_at=0)


def test_view_change_leaves_no_trace_in_the_change_set(tmp_path):
    """A byzantine delta discards the attempt: the retried epoch's
    change set (and so the digest and the dirty set) is the surviving
    attempt's alone."""
    plan = FaultPlan([FaultEvent(2, FaultKind.CORRUPT_DELTA, shard)
                      for shard in range(3)])
    faulty = grid_network(tmp_path / "faulty", fault_plan=plan)
    clean = grid_network(tmp_path / "clean")
    for net in (faulty, clean):
        nonces: dict = {}
        for ops in DS_IN_PLACE[:2]:
            block = net.process_epoch([grid_tx(op, nonces)
                                       for op in ops])
            assert_incremental_matches_scratch(net)
    assert block.stats.view_changes == 0
    assert faulty.blocks[-1].stats.view_changes > 0
    assert faulty._ledger.digest(faulty) == clean._ledger.digest(clean)
    faulty.close()
    clean.close()


# --------------------------------------------------------------------------
# The restore-point oracle.
# --------------------------------------------------------------------------

def kinds(data_dir) -> str:
    """The retained restore points, oldest first: ``B`` or ``D``."""
    return "".join("D" if p.name.endswith(".delta.json") else "B"
                   for p in SnapshotStore(data_dir).paths())


def token_run(data_dir=None, epochs=8, **kwargs) -> Network:
    """A token network big enough that a two-epoch interval touches a
    fraction of it (60 holders, 12 senders per epoch)."""
    net = Network(3, **({"data_dir": str(data_dir), **kwargs}
                        if data_dir is not None else kwargs))
    holders = ["0x" + f"{i:040x}" for i in range(1, 61)]
    net.create_account(ADMIN)
    for holder in holders:
        net.create_account(holder)
    net.deploy(CORPUS["FungibleToken"], TOKEN_ADDR, {
        "contract_owner": addr(ADMIN), "name": StringVal("T"),
        "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(0),
    }, sharded_transitions=("Mint", "Transfer", "TransferFrom"))
    net.process_epoch(
        [call(ADMIN, TOKEN_ADDR, "Mint",
              {"recipient": addr(h), "amount": uint(1000)}, nonce=i + 1)
         for i, h in enumerate(holders)], unlimited=True)
    net.wal_note({"kind": "setup-complete"})
    for epoch in range(epochs):
        senders = holders[:12]
        net.process_epoch(
            [call(s, TOKEN_ADDR, "Transfer",
                  {"to": addr(holders[(i + 7 * epoch) % 60]),
                   "amount": uint(i + 1)}, nonce=epoch + 1)
             for i, s in enumerate(senders)], wal_tag="measure")
    return net


@pytest.mark.parametrize("divisor, expected", [
    (10**9, "BBB"),     # every point a base (keep = 3)
    (0, "BDDD"),        # never: one base, then only deltas
    (None, None),       # the default rule: a mix
])
def test_chain_resumes_to_the_uninterrupted_run(tmp_path, monkeypatch,
                                                divisor, expected):
    if divisor is not None:
        monkeypatch.setattr(recovery, "DELTA_FOLD_DIVISOR", divisor)
    twin = token_run(tmp_path / "twin", snapshot_every=10**9,
                     metrics=MetricsRegistry())
    reference = observable(twin)
    twin.close()
    tmp_path = tmp_path / "run"
    net = token_run(tmp_path, snapshot_every=2, metrics=MetricsRegistry())
    net.close()
    if expected is not None:
        assert kinds(tmp_path)[-len(expected):] == expected
    else:
        assert "BD" in kinds(tmp_path) and "DB" in kinds(tmp_path)
    resumed = Network.resume(str(tmp_path), metrics=MetricsRegistry())
    assert resumed.restored_deltas == len(kinds(tmp_path).split("B")[-1])
    assert observable(resumed) == reference
    assert_incremental_matches_scratch(resumed)
    # A resumed network's first restore point is a base.
    resumed.process_epoch([], wal_tag="drain")
    resumed.snapshot()
    assert kinds(tmp_path)[-1] == "B"
    resumed.close()


def test_restore_point_after_a_deploy_is_a_base(tmp_path, monkeypatch):
    monkeypatch.setattr(recovery, "DELTA_FOLD_DIVISOR", 0)
    net = token_run(tmp_path, epochs=5, snapshot_every=2)
    assert kinds(tmp_path) == "BDD"
    net.deploy(GRID, GRID_ADDR, {"admin": addr(ADMIN)},
               sharded_transitions=SHARDED)
    net.process_epoch([])
    net.snapshot()
    assert kinds(tmp_path)[-1] == "B"
    expected = network_fingerprint(net)
    net.close()
    resumed = Network.resume(str(tmp_path))
    assert network_fingerprint(resumed) == expected
    resumed.close()


def test_delta_with_a_mismatched_parent_link_is_rejected(tmp_path,
                                                         monkeypatch):
    """Swap the base under a delta for another valid base: the digest
    the delta's link names no longer matches, so the delta (and
    everything chained on it) is rejected, not applied."""
    monkeypatch.setattr(recovery, "DELTA_FOLD_DIVISOR", 0)
    net = token_run(tmp_path, epochs=5, snapshot_every=2,
                    keep_snapshots=8)
    expected = network_fingerprint(net)
    net.close()
    store = SnapshotStore(tmp_path)
    base, first_delta, _ = store.paths()
    obj = store.load_newest()
    assert obj["parent"][0] == first_delta.name
    # Re-save the base's content: same name, valid, other digest.
    body = json.loads(base.read_text())["snapshot"]
    body["notes"] = body["notes"] + ["rewritten"]
    base.unlink()
    assert store.save(body) == base
    chain = store.load_chain()
    assert len(chain) == 1 and "parent" not in chain[0]
    assert set(store.skipped) == {p.name for p in store.paths()[1:]}
    # The WAL still reaches back to the oldest retained restore point.
    resumed = Network.resume(str(tmp_path), keep_snapshots=8)
    assert network_fingerprint(resumed) == expected
    assert len(resumed.store.skipped) == 2
    resumed.close()


# -- satellite: retained restore points can be fallen back to -------------------

def truncate(path: Path, by: int = 20) -> None:
    path.write_bytes(path.read_bytes()[:-by])


@pytest.mark.parametrize("divisor, victim, shape", [
    (10**9, -1, "BBB"),     # the newest, a base
    (0, -1, "BDD"),         # the newest, a delta
    (0, -2, "BDD"),         # mid-chain
])
def test_resume_falls_back_past_a_corrupt_restore_point(
        tmp_path, monkeypatch, divisor, victim, shape):
    """The regression: ``keep_snapshots - 1`` older restore points used
    to be dead weight, because the WAL was compacted to the newest."""
    monkeypatch.setattr(recovery, "DELTA_FOLD_DIVISOR", divisor)
    twin = build_and_run(epochs=6)
    net = build_and_run(epochs=6, data_dir=tmp_path, snapshot_every=2,
                        keep_snapshots=3)
    net.close()
    assert kinds(tmp_path) == shape
    paths = SnapshotStore(tmp_path).paths()
    truncate(paths[victim])
    metrics = MetricsRegistry()
    resumed = Network.resume(str(tmp_path), metrics=metrics)
    assert network_fingerprint(resumed) == network_fingerprint(twin)
    # Loud, not silent: the rejected files are named, with reasons.
    rejected = {p.name for p in paths[victim:]}
    assert set(resumed.store.skipped) == rejected
    assert "not a restore-point file" in \
        resumed.store.skipped[paths[victim].name]
    assert metrics.gauge("net.resume.skipped_restore_points").value \
        == len(rejected)
    resumed.process_epoch(transfer_round(nonce=7), wal_tag="measure")
    resumed.close()


def test_compaction_keeps_what_retained_restore_points_build_on(
        tmp_path, monkeypatch):
    monkeypatch.setattr(recovery, "DELTA_FOLD_DIVISOR", 0)
    net = build_and_run(epochs=8, data_dir=tmp_path, snapshot_every=2,
                        keep_snapshots=2)
    net.close()
    # keep=2 retains the newest two deltas — and the whole chain under
    # them, without which neither could be restored.
    assert kinds(tmp_path) == "BDDD"
    store = SnapshotStore(tmp_path, keep=2)
    # ... and the WAL reaches back to the base, so even a corrupt first
    # delta (taking both kept ones with it) leaves a way to recover.
    assert read_wal(tmp_path)[0].seq <= store.wal_floor() + 1
    assert f"{store.wal_floor():010d}" in store.paths()[0].name
    truncate(store.paths()[1])
    resumed = Network.resume(str(tmp_path), keep_snapshots=2)
    assert network_fingerprint(resumed) == network_fingerprint(net)
    assert len(resumed.store.skipped) == 3
    resumed.close()


def test_repeated_snapshot_at_one_sequence_is_a_base(tmp_path,
                                                     monkeypatch):
    """Names carry epoch and WAL sequence: a delta with nothing logged
    since its parent would sort before it (or overwrite it)."""
    monkeypatch.setattr(recovery, "DELTA_FOLD_DIVISOR", 0)
    net = token_run(tmp_path, epochs=3, snapshot_every=2)
    assert kinds(tmp_path) == "BD"
    net.snapshot()
    net.snapshot()
    assert kinds(tmp_path) == "BDB"
    net.process_epoch([])
    net.snapshot()
    assert kinds(tmp_path) == "BDBD"
    expected = network_fingerprint(net)
    net.close()
    resumed = Network.resume(str(tmp_path))
    assert resumed.restored_deltas == 1
    assert network_fingerprint(resumed) == expected
    resumed.close()


def test_unknown_snapshot_version_is_not_treated_as_corruption(tmp_path):
    net = build_and_run(epochs=2, data_dir=tmp_path, snapshot_every=2)
    net.close()
    store = SnapshotStore(tmp_path)
    newest = store.paths()[-1]
    body = json.loads(newest.read_text())["snapshot"]
    body["version"] = 99
    newest.unlink()
    store.save(body)
    with pytest.raises(SnapshotError, match="version 99"):
        Network.resume(str(tmp_path))


def test_embedded_accumulators_are_checked_on_adoption(tmp_path):
    net = build_and_run(epochs=2, data_dir=tmp_path, snapshot_every=2)
    net.close()
    store = SnapshotStore(tmp_path)
    newest = store.paths()[-1]
    body = json.loads(newest.read_text())["snapshot"]
    body["accumulators"] = {a: "0" * 64 for a in body["accumulators"]}
    newest.unlink()
    store.save(body)
    with pytest.raises(SnapshotError, match="accumulators"):
        Network.resume(str(tmp_path))


def test_resume_counts_its_two_full_recomputations(tmp_path):
    metrics = MetricsRegistry()
    net = build_and_run(epochs=3, data_dir=tmp_path, snapshot_every=2,
                        metrics=metrics)
    net.close()
    counters = metrics.snapshot()["counters"]
    assert counters["net.digest.full_recomputes"]["value"] == 0
    assert counters["net.commit.changed_locations"]["value"] > 0
    assert counters["net.snapshot.bases"]["value"] \
        + counters["net.snapshot.deltas"]["value"] == 2
    resumed_metrics = MetricsRegistry()
    Network.resume(str(tmp_path), metrics=resumed_metrics).close()
    assert resumed_metrics.counter(
        "net.digest.full_recomputes").value == 2


def test_commit_records_without_a_scheme_are_refused(tmp_path):
    """Only builds before the incremental digest wrote commit records
    without a ``scheme``, and their epoch records name no fee rule, so
    replay never reaches such a commit; one forged into a current log
    is refused by name rather than checked some other way."""
    net = build_and_run(epochs=2, data_dir=tmp_path,
                        snapshot_every=10**9)
    net.close()
    (segment,) = _segment_files(Path(tmp_path))
    rewritten = []
    for record in read_wal(tmp_path):
        if record.type == "commit":
            assert record.data.pop("scheme") == 1
        rewritten.append(record)
    segment.write_bytes(b"".join(_encode(r) for r in rewritten))
    with pytest.raises(WALError, match="names no digest scheme"):
        Network.resume(str(tmp_path))


# --------------------------------------------------------------------------
# Mutation checks: break the production code, the oracles must notice.
# --------------------------------------------------------------------------

def test_mutant_without_the_ds_lane_source_fails_the_oracle(
        tmp_path, monkeypatch):
    cut = Network._cut_changes

    def without_ds_logs(self, outcome, checkpoint):
        outcome.ds_logs = {}
        return cut(self, outcome, checkpoint)
    monkeypatch.setattr(Network, "_cut_changes", without_ds_logs)
    with pytest.raises(AssertionError):
        drive_grid(tmp_path, DS_IN_PLACE, deploy_at=9, byzantine_at=9)


def test_mutant_without_the_balance_term_fails_the_oracle(monkeypatch):
    monkeypatch.setattr(recovery, "_with_balance",
                        lambda state, fields: fields)
    with pytest.raises(AssertionError, match="balance"):
        assert_exactness_contract()


def test_mutant_without_the_empty_map_case_fails_the_oracle(monkeypatch):
    monkeypatch.setattr(
        recovery, "_term", lambda text: 0 if text.endswith("String|r{")
        else int.from_bytes(hashlib.sha256(text.encode()).digest(), "big"))
    with pytest.raises(AssertionError, match="empty nested map"):
        assert_exactness_contract()
