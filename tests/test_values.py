"""Runtime-value tests, including canonicalisation properties."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.scilla.errors import EvalError
from repro.scilla import types as ty
from repro.scilla.values import (
    ADTVal, BNumVal, ByStrVal, Env, IntVal, MapVal, StringVal, addr,
    bool_val, canonical, cons, list_to_value, nil, none, pair, some,
    type_of_value, uint, value_to_list, values_equal,
)


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


# -- the hash contract of the primitive values ---------------------------------
#
# ``IntVal``, ``ByStrVal`` and ``PrimType`` hash their payload only
# (state keys are hashed ~40 times per transaction); equality is the
# generated one and still compares the type.

def test_equal_values_hash_equal():
    assert uint(7) == IntVal(7, ty.PrimType("Uint128"))
    assert hash(uint(7)) == hash(IntVal.checked(7, ty.PrimType("Uint128")))
    a = ByStrVal("0x" + "ab" * 20, ty.BYSTR20)
    assert a == addr("0x" + "AB" * 20) and hash(a) == hash(addr(a.hex))
    assert hash(ty.PrimType("Uint32")) == hash(ty.UINT32)
    assert {uint(7): "x"}[IntVal(7, ty.UINT128)] == "x"


def test_one_payload_under_two_types_collides_but_stays_unequal():
    narrow, wide = IntVal(7, ty.UINT32), uint(7)
    assert hash(narrow) == hash(wide) and narrow != wide
    assert len({narrow, wide}) == 2
    assert {narrow: "narrow", wide: "wide"}[wide] == "wide"
    short = ByStrVal("0xab", ty.PrimType("ByStr1"))
    assert short != ByStrVal("0xab", ty.PrimType("ByStr"))


def test_hashes_survive_pickling_and_nest_in_adts():
    import pickle
    key = ("balances", (addr("0x" + "01" * 20), uint(3)))
    table = {key: 1}
    assert pickle.loads(pickle.dumps(table))[key] == 1
    clone = pickle.loads(pickle.dumps(key))
    assert clone == key and hash(clone) == hash(key)
    both = pair(uint(3), addr("0x" + "01" * 20), ty.UINT128, ty.BYSTR20)
    assert hash(both) == hash(pickle.loads(pickle.dumps(both)))
    assert {some(uint(1), ty.UINT128): "x"}[some(uint(1), ty.UINT128)] == "x"
