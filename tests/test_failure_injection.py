"""Failure injection: the safety nets must catch deliberate misuse.

* A *wrong* dispatch (two shards mutating the same owned component)
  must be caught by the DS merge as a conflict, never silently merged.
* A tampered signature must be rejected by miner validation.
* A malicious join claim (OwnOverwrite field declared IntMerge) must
  either conflict or be caught at validation.
* Deep nesting, empty epochs, and zero-shard corner cases behave.
"""

import pytest

from repro.chain import Network, call
from repro.chain.delta import compute_delta, merge_deltas
from repro.core.joins import JoinKind, MergeConflict
from repro.contracts import CORPUS
from repro.scilla.interpreter import Interpreter, TxContext
from repro.scilla.parser import parse_module
from repro.scilla.values import IntVal, StringVal, addr, uint
from repro.scilla import types as ty

ADMIN = "0x" + "ad" * 20
ALICE = "0x" + "a1" * 20
BOB = "0x" + "b0" * 20

FT_PARAMS = {"contract_owner": addr(ADMIN), "name": StringVal("T"),
             "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
             "init_supply": uint(0)}


def _two_shard_runs(join_kind):
    """Execute two conflicting overwrites in two 'shards' by hand,
    bypassing the dispatcher, and try to merge."""
    module = parse_module(CORPUS["UD_registry"], "UD")
    interp = Interpreter(module)
    base = interp.deploy("0xc0", {"initial_admin": addr(ADMIN),
                                  "initial_registrar": addr(ADMIN)})
    from repro.scilla.values import ByStrVal
    node = ByStrVal("0x" + "11" * 32, ty.PrimType("ByStr32"))
    deltas = []
    for shard, owner in ((0, ALICE), (1, BOB)):
        local = base.fork()
        r = interp.run_transition(
            local, "Bestow",
            {"node": node, "owner": addr(owner), "resolver": addr(owner)},
            TxContext(sender=ADMIN))
        assert r.success
        deltas.append(compute_delta(
            "0xc0", shard, base, local, [r.write_log],
            {f: join_kind for f in base.fields}))
    return base, deltas


def test_mis_sharded_overwrites_raise_merge_conflict():
    base, deltas = _two_shard_runs(JoinKind.OWN_OVERWRITE)
    with pytest.raises(MergeConflict) as ei:
        merge_deltas(base, deltas)
    assert ei.value.contract == "0xc0"
    assert set(ei.value.shards) == {0, 1}
    assert ei.value.key is not None


def test_malicious_intmerge_claim_on_addresses_fails_loudly():
    """Declaring an address-valued field IntMerge cannot silently
    corrupt (or drop) writes: delta computation rejects non-integer
    locations outright."""
    with pytest.raises(MergeConflict) as ei:
        _two_shard_runs(JoinKind.INT_MERGE)
    assert ei.value.contract == "0xc0"
    assert ei.value.key is not None
    assert len(ei.value.shards) == 1


def test_tampered_selection_rejected_by_miners():
    from repro.core.pipeline import run_pipeline, validate_signature
    from repro.core.signature import ShardingSignature
    source = CORPUS["NonfungibleToken"]
    result = run_pipeline(source, "NFT")
    honest = result.signature(("Mint", "Transfer"))
    # Claim the unshardable Approve is covered by Mint's constraints.
    forged = ShardingSignature(
        honest.contract, honest.selected + ("Approve",),
        {**honest.constraints,
         "Approve": honest.constraints["Mint"]},
        honest.joins, honest.weak_reads)
    assert not validate_signature(source, forged)


def test_empty_epoch_is_fine():
    net = Network(3)
    block = net.process_epoch([])
    assert block.n_committed == 0
    assert block.epoch_seconds > 0


def test_single_shard_network_degenerates_gracefully():
    net = Network(1)
    net.create_account(ADMIN)
    net.create_account(ALICE)
    net.deploy(CORPUS["FungibleToken"], "0xc0", dict(FT_PARAMS),
               sharded_transitions=("Mint", "Transfer"))
    block = net.process_epoch([
        call(ADMIN, "0xc0", "Mint",
             {"recipient": addr(ALICE), "amount": uint(5)}, nonce=1)],
        unlimited=True)
    assert block.n_committed == 1


def test_unknown_transition_call_fails_cleanly():
    net = Network(2)
    net.create_account(ADMIN)
    net.deploy(CORPUS["FungibleToken"], "0xc0", dict(FT_PARAMS),
               sharded_transitions=("Mint",))
    block = net.process_epoch([
        call(ADMIN, "0xc0", "NoSuchTransition", {}, nonce=1)],
        unlimited=True)
    (receipt,) = block.all_receipts
    assert not receipt.success


def test_deeply_nested_maps_through_chain():
    src = """
    scilla_version 0
    contract Deep (o: ByStr20)
    field d : Map ByStr20 (Map String (Map Uint32 Uint128)) =
      Emp ByStr20 (Map String (Map Uint32 Uint128))
    transition Put (a: ByStr20, b: String, c: Uint32, v: Uint128)
      d[a][b][c] := v
    end
    transition Bump (a: ByStr20, b: String, c: Uint32, v: Uint128)
      cur_opt <- d[a][b][c];
      nv = match cur_opt with
           | Some cur => builtin add cur v
           | None => v
           end;
      d[a][b][c] := nv
    end
    """
    net = Network(3)
    net.create_account(ALICE)
    net.deploy(src, "0xdd", {"o": addr(ADMIN)},
               sharded_transitions=("Bump",))
    c = IntVal(3, ty.UINT32)
    txns = [call(ALICE, "0xdd", "Bump",
                 {"a": addr(ALICE), "b": StringVal("k"), "c": c,
                  "v": uint(i + 1)}, nonce=i + 1)
            for i in range(3)]
    block = net.process_epoch(txns, unlimited=True)
    assert block.n_committed == 3
    state = net.contracts[_pad("0xdd")].state
    leaf = state.fields["d"].entries[addr(ALICE)] \
        .entries[StringVal("k")].entries[c]
    assert leaf == uint(6)


def _pad(a):
    return "0x" + a[2:].rjust(40, "0").lower()
