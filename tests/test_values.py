"""Runtime-value tests, including canonicalisation properties."""

import copy
import itertools
import json
import pickle
import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.chain.dispatch import key_token, value_from_token
from repro.chain.serialization import (
    transaction_from_obj, transaction_to_obj, value_from_json, value_to_json,
)
from repro.chain.transaction import Transaction, call
from repro.contracts import CORPUS
from repro.scilla.errors import EvalError, ScillaError
from repro.scilla.interpreter import OutMsg
from repro.scilla import types as ty
from repro.scilla.values import (
    ADTVal, BNumVal, ByStrVal, Env, IntVal, MapVal, MsgVal, StringVal, addr,
    bool_val, canonical, cons, list_to_value, nil, none, pair, some,
    type_of_value, uint, value_to_list, values_equal,
)

from .test_compiled_equivalence import deploy_pair, variants


def test_int_bounds_enforced_at_construction():
    with pytest.raises(EvalError):
        IntVal(-1, ty.UINT128)
    with pytest.raises(EvalError):
        IntVal(2**32, ty.UINT32)


def test_addr_pads_and_lowercases():
    a = addr("0xAB")
    assert a.hex == "0x" + "0" * 38 + "ab"
    assert a.nbytes == 20


def test_bool_helpers():
    assert bool_val(True).constructor == "True"
    assert bool_val(False).constructor == "False"


def test_option_and_list_builders():
    v = some(uint(5), ty.UINT128)
    assert v.constructor == "Some"
    assert none(ty.UINT128).constructor == "None"
    lst = list_to_value([uint(1), uint(2)], ty.UINT128)
    assert value_to_list(lst) == [uint(1), uint(2)]
    assert value_to_list(nil(ty.UINT128)) == []


def test_type_of_value():
    assert type_of_value(uint(1)) == ty.UINT128
    assert type_of_value(StringVal("x")) == ty.STRING
    assert type_of_value(BNumVal(3)) == ty.BNUM
    assert type_of_value(some(uint(1), ty.UINT128)) == \
        ty.ADTType("Option", (ty.UINT128,))
    m = MapVal(ty.BYSTR20, ty.UINT128)
    assert type_of_value(m) == ty.MapType(ty.BYSTR20, ty.UINT128)


def test_values_equal_on_maps_ignores_insertion_order():
    a = MapVal(ty.STRING, ty.UINT128,
               {StringVal("x"): uint(1), StringVal("y"): uint(2)})
    b = MapVal(ty.STRING, ty.UINT128,
               {StringVal("y"): uint(2), StringVal("x"): uint(1)})
    assert values_equal(a, b)
    b.entries[StringVal("y")] = uint(3)
    assert not values_equal(a, b)


def test_env_lookup_walks_parents():
    env = Env().bind("a", uint(1)).bind("b", uint(2))
    assert env.lookup("a") == uint(1)
    assert env.lookup("b") == uint(2)
    assert env.lookup("c") is None


def test_env_shadowing():
    env = Env().bind("a", uint(1)).bind("a", uint(2))
    assert env.lookup("a") == uint(2)


# -- canonicalisation: total on storable values, stable, injective-ish ----------

_prim_values = st.one_of(
    st.integers(0, 2**64).map(uint),
    st.text(max_size=8).map(StringVal),
    st.integers(0, 10**9).map(BNumVal),
    st.integers(0, 2**80).map(lambda n: addr(hex(n))),
    st.booleans().map(bool_val),
)


@given(_prim_values)
def test_canonical_is_deterministic(v):
    assert canonical(v) == canonical(v)


@given(_prim_values, _prim_values)
def test_canonical_distinguishes_unequal_values(a, b):
    if not values_equal(a, b):
        assert canonical(a) != canonical(b)


@given(st.lists(st.integers(0, 100), max_size=6))
def test_canonical_map_is_order_insensitive(keys):
    a = MapVal(ty.UINT128, ty.UINT128)
    b = MapVal(ty.UINT128, ty.UINT128)
    for k in keys:
        a.entries[uint(k)] = uint(k * 2)
    for k in reversed(keys):
        b.entries[uint(k)] = uint(k * 2)
    assert canonical(a) == canonical(b)


def test_canonical_nested_structures():
    inner = pair(uint(1), StringVal("x"), ty.UINT128, ty.STRING)
    lst = cons(inner, nil(ty.UINT128), ty.UINT128)
    c = canonical(lst)
    assert c["c"] == "Cons"
    assert c["a"][0]["c"] == "Pair"


def test_canonical_rejects_closures():
    from repro.scilla.values import Closure
    from repro.scilla.ast import Var
    closure = Closure("x", ty.UINT128, Var("x"), Env())
    with pytest.raises(EvalError):
        canonical(closure)


# -- the value contract --------------------------------------------------------
#
# The six immutable data values are named tuples (and ``PrimType`` a
# ``str``): hashing and equality are the tuple's, field-wise over
# ``(payload, typ)``, and run in C.  docs/LANGUAGE.md, "Runtime values".

SIX = (IntVal, StringVal, ByStrVal, BNumVal, ADTVal, MsgVal)


def test_equal_values_hash_equal():
    assert uint(7) == IntVal(7, ty.PrimType("Uint128"))
    assert hash(uint(7)) == hash(IntVal.checked(7, ty.PrimType("Uint128")))
    assert IntVal.checked(7, ty.UINT128) == uint(7)
    a = ByStrVal("0x" + "ab" * 20, ty.BYSTR20)
    assert a == addr("0x" + "AB" * 20) and hash(a) == hash(addr(a.hex))
    assert hash(ty.PrimType("Uint32")) == hash(ty.UINT32)
    assert {uint(7): "x"}[IntVal(7, ty.UINT128)] == "x"


def test_one_payload_under_two_types_is_two_keys():
    narrow, wide = IntVal(7, ty.UINT32), uint(7)
    assert narrow != wide and not narrow == wide
    assert len({narrow, wide}) == 2
    assert {narrow: "narrow", wide: "wide"}[wide] == "wide"
    short = ByStrVal("0xab", ty.PrimType("ByStr1"))
    loose = ByStrVal("0xab", ty.PrimType("ByStr"))
    assert short != loose and {short: 1, loose: 2}[short] == 1


def test_no_value_class_defines_hash_or_eq_or_carries_a_dict():
    # The vacuity guard: re-adding a Python-level ``__eq__`` (or an
    # instance dict) must fail here, not in a benchmark.
    for cls in SIX:
        assert cls.__hash__ is tuple.__hash__, cls
        assert cls.__eq__ is tuple.__eq__ and cls.__ne__ is tuple.__ne__, cls
        assert cls.__slots__ == () and issubclass(cls, tuple)
    for v in (uint(1), StringVal("x"), addr("0x01"), BNumVal(1),
              bool_val(True), MsgVal(())):
        assert not hasattr(v, "__dict__")
    assert sys.getsizeof(uint(1)) <= 64


def test_an_outgoing_message_is_a_plain_tuple():
    # Every FT Transfer sends one: built by one ``tuple.__new__`` in
    # compiled code, so no Python-level constructor, hash or equality,
    # and no instance dict.
    msg = OutMsg("RecipientAcceptTransfer", "0x" + "01" * 20, 0,
                 (("sender", addr("0x" + "02" * 20)), ("amount", uint(5))))
    assert issubclass(OutMsg, tuple) and not hasattr(msg, "__dict__")
    assert OutMsg.__hash__ is tuple.__hash__ and OutMsg.__eq__ is tuple.__eq__
    assert tuple.__new__(OutMsg, tuple(msg)) == msg
    assert (msg.tag, msg.amount) == ("RecipientAcceptTransfer", 0)
    assert OutMsg("T", "0x01", 1).params == ()
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        clone = pickle.loads(pickle.dumps(msg, protocol))
        assert clone == msg and type(clone) is OutMsg
        assert hash(clone) == hash(msg)


def test_hashes_survive_pickling_and_nest_in_adts():
    key = ("balances", (addr("0x" + "01" * 20), uint(3)))
    table = {key: 1}
    assert pickle.loads(pickle.dumps(table))[key] == 1
    clone = pickle.loads(pickle.dumps(key))
    assert clone == key and hash(clone) == hash(key)
    both = pair(uint(3), addr("0x" + "01" * 20), ty.UINT128, ty.BYSTR20)
    assert hash(both) == hash(pickle.loads(pickle.dumps(both)))
    assert {some(uint(1), ty.UINT128): "x"}[some(uint(1), ty.UINT128)] == "x"


def test_values_of_two_classes_never_compare_equal():
    # Pinned by a test, not by an ``__eq__``: arity or payload class
    # differs for every one of the 15 pairs.
    lookalikes = {
        IntVal: [IntVal(5, ty.UINT128), IntVal(5, ty.UINT32)],
        StringVal: [StringVal("5"), StringVal("0x05")],
        ByStrVal: [ByStrVal("0x05", ty.prim("ByStr1")),
                   ByStrVal("0x05", ty.BYSTR)],
        BNumVal: [BNumVal(5)],
        ADTVal: [bool_val(True), some(uint(5), ty.UINT128)],
        MsgVal: [MsgVal(()), MsgVal((("5", uint(5)),))],
    }
    assert set(lookalikes) == set(SIX)
    pairs = list(itertools.combinations(SIX, 2))
    assert len(pairs) == 15
    for one, other in pairs:
        for a in lookalikes[one]:
            for b in lookalikes[other]:
                assert a != b and not a == b and len({a, b}) == 2, (a, b)


def test_construction_validates_and_only_checked_and_unpickling_skip_it():
    with pytest.raises(EvalError, match="integer 4294967296 out of bounds "
                                        "for Uint32"):
        IntVal(2**32, ty.UINT32)
    with pytest.raises(EvalError, match="integer -1 out of bounds for "
                                        "Uint128"):
        IntVal(value=-1, typ=ty.UINT128)
    with pytest.raises(EvalError, match="malformed byte string 'ab'"):
        ByStrVal("ab", ty.BYSTR20)
    # Parity with the dataclasses these replace: a pickle restores the
    # fields without running the constructor, so a value crossing a lane
    # boundary does not pay ``int_bounds`` again.
    wide = IntVal.checked(2**200, ty.UINT32)
    bare = tuple.__new__(ByStrVal, ("ab", ty.BYSTR20))
    for odd in (wide, bare):
        clone = pickle.loads(pickle.dumps(odd))
        assert clone == odd and type(clone) is type(odd)


# str(v), repr(v), repr(canonical(v)) as printed by the frozen dataclasses
# these classes replace: digests and error messages embed them.
_PINNED = [
    (uint(7), "Uint128 7", "IntVal(value=7, typ=PrimType(name='Uint128'))",
     "{'t': 'Uint128', 'v': 7}"),
    (IntVal(-3, ty.INT32), "Int32 -3",
     "IntVal(value=-3, typ=PrimType(name='Int32'))",
     "{'t': 'Int32', 'v': -3}"),
    (StringVal("hi"), '"hi"', "StringVal(value='hi')",
     "{'t': 'String', 'v': 'hi'}"),
    (StringVal(""), '""', "StringVal(value='')", "{'t': 'String', 'v': ''}"),
    (addr("0xAB"), "0x00000000000000000000000000000000000000ab",
     "ByStrVal(hex='0x00000000000000000000000000000000000000ab', "
     "typ=PrimType(name='ByStr20'))",
     "{'t': 'ByStr20', 'v': '0x00000000000000000000000000000000000000ab'}"),
    (ByStrVal("0xab", ty.prim("ByStr")), "0xab",
     "ByStrVal(hex='0xab', typ=PrimType(name='ByStr'))",
     "{'t': 'ByStr', 'v': '0xab'}"),
    (BNumVal(5), "BNum 5", "BNumVal(value=5)", "{'t': 'BNum', 'v': 5}"),
    (bool_val(True), "True",
     "ADTVal(adt='Bool', constructor='True', targs=(), args=())",
     "{'t': 'Bool', 'c': 'True', 'a': []}"),
    (some(uint(1), ty.UINT128), "(Some Uint128 1)",
     "ADTVal(adt='Option', constructor='Some', "
     "targs=(PrimType(name='Uint128'),), "
     "args=(IntVal(value=1, typ=PrimType(name='Uint128')),))",
     "{'t': 'Option', 'c': 'Some', 'a': [{'t': 'Uint128', 'v': 1}]}"),
    (none(ty.BYSTR20), "None",
     "ADTVal(adt='Option', constructor='None', "
     "targs=(PrimType(name='ByStr20'),), args=())",
     "{'t': 'Option', 'c': 'None', 'a': []}"),
    (list_to_value([StringVal("a"), StringVal("b")], ty.STRING),
     '(Cons "a" (Cons "b" Nil))',
     "ADTVal(adt='List', constructor='Cons', "
     "targs=(PrimType(name='String'),), args=(StringVal(value='a'), "
     "ADTVal(adt='List', constructor='Cons', "
     "targs=(PrimType(name='String'),), args=(StringVal(value='b'), "
     "ADTVal(adt='List', constructor='Nil', "
     "targs=(PrimType(name='String'),), args=())))))",
     "{'t': 'List', 'c': 'Cons', 'a': [{'t': 'String', 'v': 'a'}, "
     "{'t': 'List', 'c': 'Cons', 'a': [{'t': 'String', 'v': 'b'}, "
     "{'t': 'List', 'c': 'Nil', 'a': []}]}]}"),
    (MsgVal((("_tag", StringVal("t")), ("_amount", uint(0)))),
     '{_tag: "t"; _amount: Uint128 0}',
     "MsgVal(fields=(('_tag', StringVal(value='t')), "
     "('_amount', IntVal(value=0, typ=PrimType(name='Uint128')))))",
     "{'t': 'Msg', 'v': [('_tag', {'t': 'String', 'v': 't'}), "
     "('_amount', {'t': 'Uint128', 'v': 0})]}"),
]


@pytest.mark.parametrize("v, text, rep, canon", _PINNED,
                         ids=[row[1] for row in _PINNED])
def test_str_repr_and_canonical_are_the_dataclass_strings(v, text, rep,
                                                          canon):
    assert (str(v), repr(v), repr(canonical(v))) == (text, rep, canon)
    assert type(canonical(v)["t"]) is str


# -- round trips: pickle, the JSON wire form, the analysis' key tokens ---------

def _ints(name):
    typ = ty.prim(name)
    return st.integers(*ty.int_bounds(typ)).map(lambda n: IntVal(n, typ))


_atoms = st.one_of(
    st.sampled_from(sorted(ty.INT_TYPE_NAMES)).flatmap(_ints),
    st.text(max_size=6).map(StringVal),
    st.tuples(st.sampled_from(["ByStr20", "ByStr32", "ByStr", "ByStr64"]),
              st.binary(max_size=6)).map(
        lambda nb: ByStrVal("0x" + nb[1].hex(), ty.prim(nb[0]))),
    st.integers(0, 10**9).map(BNumVal),
)
_storable = st.recursive(_atoms, lambda inner: st.one_of(
    inner.map(lambda v: some(v, type_of_value(v))),
    st.lists(inner, max_size=3).map(
        lambda vs: list_to_value(vs, ty.STRING)),
    st.tuples(inner, inner).map(
        lambda ab: pair(*ab, type_of_value(ab[0]), type_of_value(ab[1]))),
), max_leaves=6)
_messages = st.lists(
    st.tuples(st.sampled_from(["_tag", "_amount", "x", "y"]), _storable),
    max_size=3).map(lambda fields: MsgVal(tuple(fields)))


def _prim_types(v):
    """Every PrimType a value carries as ``typ`` or a type argument."""
    if isinstance(v, (IntVal, ByStrVal)):
        yield v.typ
    elif isinstance(v, ADTVal):
        yield from (t for t in v.targs if isinstance(t, ty.PrimType))
        for arg in v.args:
            yield from _prim_types(arg)
    elif isinstance(v, MsgVal):
        for _, field in v.fields:
            yield from _prim_types(field)


def _assert_same(clone, v):
    assert clone == v and hash(clone) == hash(v)
    # A plain tuple of the fields would pass ``==``; the repr names the
    # class at every level.
    assert repr(clone) == repr(v) and type(clone) is type(v)
    for typ in _prim_types(clone):
        if typ in ty._PRIMS:
            assert typ is ty.prim(typ.name)


@given(st.one_of(_storable, _messages))
def test_pickle_round_trip(v):
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        _assert_same(pickle.loads(pickle.dumps(v, protocol)), v)
    _assert_same(copy.deepcopy(v), v)


@given(_storable)
def test_json_round_trip(v):
    wire = json.dumps(value_to_json(v))
    _assert_same(value_from_json(json.loads(wire)), v)


@given(_atoms)
def test_key_token_round_trip(v):
    _assert_same(value_from_token(key_token(v)), v)


# -- a message and a transaction's arguments: two columns each -----------------
#
# ``MsgVal`` is ``(names, values)`` and a ``Transaction`` keeps
# ``arg_names`` / ``arg_values``; both are still built from and read as
# ``(name, value)`` pairs.

def test_a_message_is_its_names_and_its_values():
    pairs = (("_eventname", StringVal("Minted")), ("amount", uint(5)))
    msg = MsgVal(pairs)
    assert msg.names == ("_eventname", "amount")
    assert msg.values == (StringVal("Minted"), uint(5))
    assert msg.fields == pairs and msg.get("amount") == uint(5)
    assert msg.get("missing") is None and MsgVal(()).get("x") is None
    # The first field of a repeated name, as a walk of the pairs found.
    assert MsgVal((("x", uint(1)), ("x", uint(2)))).get("x") == uint(1)
    # Compiled code builds one over a constant names tuple, no frame.
    assert tuple.__new__(MsgVal, (msg.names, msg.values)) == msg
    assert MsgVal(list(pairs)) == msg and MsgVal(pairs[::-1]) != msg


def _events(run):
    """The events of ``run()`` (a finished run), none if it raised."""
    try:
        return run().events
    except ScillaError:
        return []


def test_compiled_and_interpreted_events_are_equal_messages():
    """Every corpus transition, run compiled and interpreted on states
    kept in lockstep: each event is the same ``MsgVal`` — equal, equal
    hash, the same ``str`` / ``repr`` / ``canonical`` — and a compiled
    event site hands every call the same names tuple."""
    # (contract, transition, event name) -> the names tuple
    names_of: dict[tuple, tuple] = {}
    seen = 0
    for name in sorted(CORPUS):
        interp, compiled, reference = deploy_pair(name)
        rng = random.Random(name)
        for _ in range(2):
            for comp in interp.contract.transitions:
                for args, ctx in variants(comp, interp.adts, rng, 3):
                    got = _events(lambda: interp.run_transition(
                        compiled, comp.name, dict(args), ctx))
                    want = _events(lambda: interp.interpret_transition(
                        reference, comp.name, dict(args), ctx))
                    assert got == want, (name, comp.name)
                    for event, ref in zip(got, want):
                        assert type(event) is type(ref) is MsgVal
                        assert hash(event) == hash(ref)
                        assert (str(event), repr(event),
                                canonical(event)) == (
                            str(ref), repr(ref), canonical(ref))
                        assert MsgVal(event.fields) == event
                        site = (name, comp.name, event.get("_eventname"))
                        assert names_of.setdefault(
                            site, event.names) is event.names, site
                        seen += 1
    # Vacuity floor: the corpus declares 52 event names; 49 are reached.
    events = {site[::2] for site in names_of}
    assert seen >= 150 and len(events) >= 45, (seen, len(events))


def test_a_transaction_built_from_pairs_round_trips():
    """The row, ``repr``, pickle, ``==`` and ``hash`` of a transaction
    are what they were while it held a tuple of pairs."""
    pairs = (("to", addr("0x01")), ("amount", uint(5)))
    tx = Transaction("0xAB", "0xc0", 3, 7, 900, 2, "Transfer", pairs,
                     tx_id=41)
    assert tx.args == pairs and tx.args_dict() == dict(pairs)
    assert tx.arg_names == ("to", "amount")
    assert tx.arg_values == (addr("0x01"), uint(5))
    assert repr(tx) == (
        "Transaction(sender='0x00000000000000000000000000000000000000ab', "
        "to='0x00000000000000000000000000000000000000c0', nonce=3, "
        "amount=7, gas_limit=900, gas_price=2, transition='Transfer', "
        "args=(('to', ByStrVal(hex='0x000000000000000000000000000000000000"
        "0001', typ=PrimType(name='ByStr20'))), ('amount', IntVal(value=5, "
        "typ=PrimType(name='Uint128')))), tx_id=41)")
    row = transaction_to_obj(tx)
    assert json.dumps(row) == (
        '[41, "0x00000000000000000000000000000000000000ab", '
        '"0x00000000000000000000000000000000000000c0", 3, 7, 900, 2, '
        '"Transfer", [["to", {"t": "ByStr20", "v": '
        '"0x0000000000000000000000000000000000000001"}], '
        '["amount", {"t": "Uint128", "v": "5"}]]]')
    clones = [transaction_from_obj(json.loads(json.dumps(row))),
              copy.deepcopy(tx)] + [
        pickle.loads(pickle.dumps(tx, protocol))
        for protocol in (2, pickle.HIGHEST_PROTOCOL)]
    for clone in clones:
        assert clone == tx and hash(clone) == hash(tx)
        assert clone.args == pairs and repr(clone) == repr(tx)
    assert call("0xab", "0xc0", "Transfer", dict(pairs)).args == pairs
    # Argument order and every repeated name are kept, as pairs kept
    # them; ``args_dict`` is last-wins.
    assert Transaction("0xab", "0xc0", 3, 7, 900, 2, "Transfer",
                       pairs[::-1], tx_id=41) != tx
    twice = (("x", uint(1)), ("x", uint(2)))
    dup = Transaction("0xab", "0xc0", 1, transition="T", args=twice)
    assert dup.args == twice and dup.args_dict() == {"x": uint(2)}
    assert transaction_from_obj(transaction_to_obj(dup)) == dup
    bare = Transaction("0xab", "0xcd", 1, 5)
    assert bare.args == () and bare.arg_names == bare.arg_values == ()
