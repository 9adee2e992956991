"""Type-representation tests: substitution, bounds, storability."""

import copy
import json
import pickle

import pytest

from repro.scilla import types as ty
from repro.scilla.types import (
    ADTType, FunType, MapType, PolyFun, PrimType, TypeVar, free_tvars,
    int_bounds, is_int_type, is_signed, is_storable, is_unsigned,
    substitute,
)


def test_int_type_predicates():
    assert is_int_type(ty.UINT128)
    assert is_unsigned(ty.UINT128)
    assert is_signed(ty.INT32)
    assert not is_int_type(ty.STRING)


def test_int_bounds():
    assert int_bounds(ty.UINT32) == (0, 2**32 - 1)
    assert int_bounds(ty.INT32) == (-(2**31), 2**31 - 1)
    assert int_bounds(ty.UINT256)[1] == 2**256 - 1


def test_int_bounds_rejects_non_int():
    with pytest.raises(ValueError):
        int_bounds(ty.STRING)


def test_int_bounds_rejects_the_bare_name_and_other_types():
    # A PrimType equals its name, but only a PrimType has bounds.
    for not_a_prim in ("Uint128", TypeVar("Uint128"), ADTType("Uint128")):
        with pytest.raises(ValueError):
            int_bounds(not_a_prim)


def test_prim_type_is_its_name_as_a_str():
    # Hash and equality are ``str``'s own, so every type tag inside a
    # runtime value hashes and compares in C (docs/LANGUAGE.md,
    # "Runtime values"); re-adding a Python-level one must fail here.
    assert PrimType.__hash__ is str.__hash__
    assert PrimType.__eq__ is str.__eq__ and PrimType.__ne__ is str.__ne__
    assert PrimType.__str__ is str.__str__
    assert not hasattr(ty.UINT128, "__dict__")
    fresh = PrimType(name="Uint128")
    assert fresh is not ty.UINT128
    assert fresh == ty.UINT128 and hash(fresh) == hash(ty.UINT128)
    assert {ty.UINT128: "x"}[fresh] == "x"
    assert ty.UINT128 != ty.UINT32 and ty.BYSTR != PrimType("ByStr1")
    # The documented consequence: it equals the plain string too ...
    assert ty.UINT128 == "Uint128" and hash(ty.UINT128) == hash("Uint128")
    # ... but no other kind of type that happens to share the name.
    assert ty.UINT128 != TypeVar("Uint128") and TypeVar("Uint128") != fresh
    assert ty.UINT128 != ADTType("Uint128")
    assert isinstance(ty.UINT128, ty.ScillaType)


def test_prim_type_renders_as_the_dataclass_did():
    t = ty.UINT128
    assert repr(t) == "PrimType(name='Uint128')"
    assert (str(t), f"{t}", "%s" % t, t.name) == ("Uint128",) * 4
    assert type(t.name) is str and type(str(t)) is str
    assert repr(MapType(ty.BYSTR20, t)) == (
        "MapType(key=PrimType(name='ByStr20'), "
        "value=PrimType(name='Uint128'))")
    assert json.dumps({"t": str(t)}) == '{"t": "Uint128"}'


def test_prim_types_unpickle_to_the_shared_instance():
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        for name, shared in ty._PRIMS.items():
            assert pickle.loads(pickle.dumps(shared, protocol)) is shared
            assert ty.prim(name) is shared
        # Not a well-known name: equal, same class, nothing to share.
        odd = pickle.loads(pickle.dumps(PrimType("ByStr7"), protocol))
        assert odd == PrimType("ByStr7") and type(odd) is PrimType
        nested = MapType(ty.BYSTR20, ADTType("Option", (ty.UINT128,)))
        clone = pickle.loads(pickle.dumps(nested, protocol))
        assert clone == nested and clone.key is ty.BYSTR20
        assert clone.value.targs[0] is ty.UINT128
    assert copy.deepcopy(ty.UINT64) is ty.UINT64


def test_bystr_width():
    assert ty.bystr_width(ty.BYSTR20) == 20
    assert ty.bystr_width(PrimType("ByStr")) is None


def test_type_rendering():
    t = MapType(ty.BYSTR20, MapType(ty.BYSTR20, ty.UINT128))
    assert str(t) == "Map ByStr20 (Map ByStr20 Uint128)"
    f = FunType(ty.UINT128, FunType(ty.UINT128, ty.BOOL))
    assert str(f) == "Uint128 -> Uint128 -> Bool"
    o = ADTType("Option", (ty.UINT128,))
    assert str(o) == "Option Uint128"


def test_substitute_in_adt_and_map():
    t = MapType(TypeVar("'A"), ADTType("Option", (TypeVar("'A"),)))
    out = substitute(t, {"'A": ty.UINT128})
    assert out == MapType(ty.UINT128, ADTType("Option", (ty.UINT128,)))


def test_substitute_respects_polyfun_shadowing():
    t = PolyFun("'A", FunType(TypeVar("'A"), TypeVar("'B")))
    out = substitute(t, {"'A": ty.UINT128, "'B": ty.STRING})
    # 'A is bound by the PolyFun; only 'B substitutes.
    assert out == PolyFun("'A", FunType(TypeVar("'A"), ty.STRING))


def test_free_tvars():
    t = FunType(TypeVar("'A"), PolyFun("'B", TypeVar("'B")))
    assert free_tvars(t) == {"'A"}


def test_storability():
    assert is_storable(ty.UINT128)
    assert is_storable(MapType(ty.BYSTR20, ty.UINT128))
    assert is_storable(ADTType("Option", (ty.UINT128,)))
    assert not is_storable(FunType(ty.UINT128, ty.UINT128))
    assert not is_storable(MapType(ty.BYSTR20,
                                   FunType(ty.UINT128, ty.UINT128)))
    assert not is_storable(ty.MESSAGE)
    assert not is_storable(TypeVar("'A"))


def test_builtin_adts_registered():
    assert set(ty.BUILTIN_ADTS) == {"Bool", "Option", "List", "Pair",
                                    "Nat"}
    assert ty.OPTION_ADT.constructor("Some").arg_types == \
        (TypeVar("'A"),)
    with pytest.raises(KeyError):
        ty.BOOL_ADT.constructor("Maybe")
