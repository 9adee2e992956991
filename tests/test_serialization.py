"""Wire-format round-trip tests (values, deltas, txns, signatures).

Round trips must be *byte-identical*, not merely equal: WAL replay and
snapshot digests hash the serialised form, so any canonicalisation
drift between a write and a later re-write would read as corruption.
"""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.chain.delta import DeltaEntry, StateDelta
from repro.chain.serialization import (
    delta_from_json, delta_to_json, signature_from_json,
    signature_to_json, signature_to_obj, state_from_obj, state_to_obj,
    transaction_from_obj, transaction_from_json, transaction_to_json,
    transaction_to_obj, value_from_json, value_to_json,
)
from repro.chain.transaction import call, payment
from repro.core.joins import JoinKind
from repro.core.pipeline import run_pipeline
from repro.core.signature import signatures_equal
from repro.contracts import CORPUS, EVAL_CONTRACTS
from repro.scilla.state import MISSING
from repro.scilla import types as ty
from repro.scilla.values import (
    ADTVal, BNumVal, IntVal, MapVal, StringVal, addr, bool_val, none,
    pair, sint, some, type_of_value, uint, values_equal,
)

VALUES = [
    uint(0),
    uint(2**127),
    StringVal("hello\nworld"),
    BNumVal(123),
    addr("0xab"),
    bool_val(True),
    some(uint(5), ty.UINT128),
    none(ty.UINT128),
    pair(uint(1), StringVal("x"), ty.UINT128, ty.STRING),
]


@pytest.mark.parametrize("value", VALUES, ids=str)
def test_value_roundtrip(value):
    assert value_from_json(value_to_json(value)) == value


def test_map_value_roundtrip():
    m = MapVal(ty.BYSTR20, ty.UINT128,
               {addr("0x01"): uint(1), addr("0x02"): uint(2)})
    out = value_from_json(value_to_json(m))
    assert out.entries == m.entries
    assert out.key_type == m.key_type


def test_nested_map_roundtrip():
    inner = MapVal(ty.STRING, ty.UINT128, {StringVal("a"): uint(1)})
    outer = MapVal(ty.BYSTR20, ty.MapType(ty.STRING, ty.UINT128),
                   {addr("0x01"): inner})
    out = value_from_json(value_to_json(outer))
    assert out.entries[addr("0x01")].entries == inner.entries


@given(st.integers(0, 2**128 - 1))
def test_value_roundtrip_property(n):
    assert value_from_json(value_to_json(uint(n))) == uint(n)


# -- arbitrary value shapes (hypothesis) --------------------------------------

def _wire_bytes(value):
    return json.dumps(value_to_json(value), sort_keys=True)


_scalars = st.one_of(
    st.integers(0, 2**128 - 1).map(uint),
    st.integers(-2**31, 2**31 - 1).map(lambda n: sint(n, 32)),
    st.text(max_size=12).map(StringVal),
    st.integers(0, 2**64).map(BNumVal),
    st.integers(0, 2**160 - 1).map(lambda n: addr(f"0x{n:040x}")),
    st.booleans().map(bool_val),
)


def _compound(children):
    def to_map(payload):
        keys, value = payload
        out = MapVal(ty.BYSTR20, type_of_value(value))
        for n in sorted(keys):
            out.entries[addr(f"0x{n:040x}")] = value
        return out
    return st.one_of(
        children.map(lambda v: some(v, type_of_value(v))),
        children.map(lambda v: none(type_of_value(v))),
        st.tuples(children, children).map(
            lambda ab: pair(ab[0], ab[1], type_of_value(ab[0]),
                            type_of_value(ab[1]))),
        st.tuples(st.sets(st.integers(0, 2**32), max_size=3),
                  children).map(to_map),
    )


arbitrary_values = st.recursive(_scalars, _compound, max_leaves=8)


@given(arbitrary_values)
def test_any_value_shape_roundtrips_byte_identical(value):
    wire = _wire_bytes(value)
    back = value_from_json(json.loads(wire))
    assert values_equal(back, value)
    assert _wire_bytes(back) == wire


@given(st.lists(st.tuples(st.integers(0, 2**32),
                          st.integers(-10**6, 10**6),
                          st.booleans()), max_size=6))
def test_delta_roundtrip_byte_identical(entries):
    delta = StateDelta.from_entries("0xc0", 1, [
        DeltaEntry(("bal" if merge else "own", (addr(f"0x{k:040x}"),)),
                   JoinKind.INT_MERGE if merge else JoinKind.OWN_OVERWRITE,
                   int_diff=diff if merge else 0,
                   typ=ty.UINT128 if merge else None,
                   new_value=MISSING if (not merge and diff < 0)
                   else uint(abs(diff)))
        for k, diff, merge in entries])
    wire = delta_to_json(delta)
    back = delta_from_json(wire)
    assert back == delta
    assert list(back.entries) == list(delta.entries)
    assert delta_to_json(back) == wire


@given(st.integers(0, 2**64), st.integers(0, 2**32),
       st.integers(0, 2**160 - 1))
def test_transaction_obj_roundtrip_preserves_tx_id(amount, nonce, to):
    """WAL replay routes unconstrained calls by ``tx_id % n_shards``,
    so the persisted form must carry the id through exactly."""
    tx = call("0xaa", f"0x{to:040x}", "Transfer",
              {"to": addr("0xbb"), "amount": uint(amount)},
              nonce=nonce, amount=amount)
    obj = json.loads(json.dumps(transaction_to_obj(tx)))
    back = transaction_from_obj(obj)
    assert back.tx_id == tx.tx_id
    assert transaction_to_obj(back) == transaction_to_obj(tx)


def test_delta_roundtrip():
    delta = StateDelta.from_entries("0xc0", 2, [
        DeltaEntry(("bal", (addr("0x01"),)), JoinKind.INT_MERGE,
                   int_diff=-5, typ=ty.UINT128),
        DeltaEntry(("owners", (uint(7),)), JoinKind.OWN_OVERWRITE,
                   new_value=addr("0x02")),
        DeltaEntry(("owners", (uint(8),)), JoinKind.OWN_OVERWRITE,
                   new_value=MISSING),  # deletion
    ])
    out = delta_from_json(delta_to_json(delta))
    assert out.contract == delta.contract
    assert out.shard == delta.shard
    assert out == delta
    assert list(out.entries) == list(delta.entries)


def test_transaction_roundtrip_call():
    tx = call("0xaa", "0xc0", "Transfer",
              {"to": addr("0xbb"), "amount": uint(5)}, nonce=7,
              amount=3)
    out = transaction_from_json(transaction_to_json(tx))
    assert out.sender == tx.sender
    assert out.transition == tx.transition
    assert out.args_dict() == tx.args_dict()
    assert out.nonce == 7 and out.amount == 3


def test_transaction_roundtrip_payment():
    tx = payment("0xaa", "0xbb", amount=9, nonce=2)
    out = transaction_from_json(transaction_to_json(tx))
    assert not out.is_contract_call
    assert out.amount == 9


@pytest.mark.parametrize("name", sorted(EVAL_CONTRACTS))
def test_signature_roundtrip_eval_contracts(name):
    """The signature a deployer submits over the wire is exactly the
    one the miner validates."""
    result = run_pipeline(CORPUS[name], name)
    sig = result.signature(EVAL_CONTRACTS[name])
    out = signature_from_json(signature_to_json(sig))
    assert signatures_equal(sig, out)
    assert out.weak_reads == sig.weak_reads
    # Byte-identical: a re-serialised signature hashes the same.
    assert json.dumps(signature_to_obj(out), sort_keys=True) == \
        json.dumps(signature_to_obj(sig), sort_keys=True)


def test_signature_roundtrip_with_bot():
    result = run_pipeline(CORPUS["NonfungibleToken"], "NFT")
    sig = result.signature(("Approve",))
    out = signature_from_json(signature_to_json(sig))
    assert signatures_equal(sig, out)


def test_real_epoch_deltas_roundtrip():
    """Deltas produced by an actual sharded epoch survive the wire."""
    from repro.chain import Network, call
    net = Network(3)
    admin = "0x" + "ad" * 20
    users = ["0x" + f"{i:040x}" for i in range(1, 9)]
    net.create_account(admin)
    for u in users:
        net.create_account(u)
    net.deploy(CORPUS["FungibleToken"], "0x" + "c0" * 20, {
        "contract_owner": addr(admin), "name": StringVal("T"),
        "symbol": StringVal("T"),
        "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(0),
    }, sharded_transitions=EVAL_CONTRACTS["FungibleToken"])
    block = net.process_epoch([
        call(admin, "0x" + "c0" * 20, "Mint",
             {"recipient": addr(u), "amount": uint(7)}, nonce=i + 1)
        for i, u in enumerate(users)
    ], unlimited=True)
    for mb in block.microblocks:
        for delta in mb.deltas:
            wire = delta_to_json(delta)
            assert delta_from_json(wire) == delta

    # The post-epoch contract state (the durable snapshot payload)
    # must round-trip byte-identically, including its fingerprint.
    from repro.chain.recovery import state_fingerprint
    state = net.contracts["0x" + "c0" * 20].state
    obj = json.loads(json.dumps(state_to_obj(state)))
    back = state_from_obj(obj)
    assert state_fingerprint(back) == state_fingerprint(state)
    assert json.dumps(state_to_obj(back), sort_keys=True) == \
        json.dumps(state_to_obj(state), sort_keys=True)
    assert back.field_types == state.field_types
