"""Contract-state and write-log tests, with property-based rollback."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.scilla.state import ContractState, MISSING, WriteLog, _Missing
from repro.scilla import types as ty
from repro.scilla.values import MapVal, StringVal, uint


def fresh_state() -> ContractState:
    return ContractState(
        address="0x01",
        fields={
            "n": uint(0),
            "m": MapVal(ty.STRING, ty.UINT128),
            "nested": MapVal(ty.STRING, ty.MapType(ty.STRING, ty.UINT128)),
        },
        field_types={
            "n": ty.UINT128,
            "m": ty.MapType(ty.STRING, ty.UINT128),
            "nested": ty.MapType(ty.STRING,
                                 ty.MapType(ty.STRING, ty.UINT128)),
        },
    )


def snapshot(state: ContractState):
    from repro.scilla.values import canonical
    return {k: canonical(v) for k, v in state.fields.items()}


def test_read_write_whole_field():
    s = fresh_state()
    s.write(("n", ()), uint(5))
    assert s.read(("n", ())) == uint(5)


def test_map_get_missing():
    s = fresh_state()
    assert isinstance(s.read(("m", (StringVal("x"),))), _Missing)


def test_map_put_and_delete():
    s = fresh_state()
    key = ("m", (StringVal("x"),))
    s.write(key, uint(1))
    assert s.read(key) == uint(1)
    s.write(key, MISSING)
    assert isinstance(s.read(key), _Missing)


def test_nested_map_autovivifies():
    s = fresh_state()
    key = ("nested", (StringVal("a"), StringVal("b")))
    s.write(key, uint(9))
    assert s.read(key) == uint(9)
    # The intermediate map exists now.
    assert StringVal("a") in s.fields["nested"].entries


def test_copy_is_deep_for_maps():
    s = fresh_state()
    s.write(("m", (StringVal("x"),)), uint(1))
    c = s.fork()
    c.write(("m", (StringVal("x"),)), uint(2))
    assert s.read(("m", (StringVal("x"),))) == uint(1)


def test_writelog_rollback_scalar():
    s = fresh_state()
    log = WriteLog()
    log.record(s, ("n", ()), uint(7))
    s.write(("n", ()), uint(7))
    log.rollback(s)
    assert s.read(("n", ())) == uint(0)


def test_writelog_rollback_restores_overwritten_entry():
    s = fresh_state()
    key = ("m", (StringVal("x"),))
    s.write(key, uint(1))
    log = WriteLog()
    log.record(s, key, uint(2))
    s.write(key, uint(2))
    log.rollback(s)
    assert s.read(key) == uint(1)


def test_writelog_rollback_removes_created_nested_prefix():
    s = fresh_state()
    key = ("nested", (StringVal("a"), StringVal("b")))
    log = WriteLog()
    log.record(s, key, uint(1))
    s.write(key, uint(1))
    log.rollback(s)
    assert not s.fields["nested"].entries


def test_writelog_first_undo_wins():
    s = fresh_state()
    key = ("n", ())
    log = WriteLog()
    for v in (1, 2, 3):
        log.record(s, key, uint(v))
        s.write(key, uint(v))
    log.rollback(s)
    assert s.read(key) == uint(0)


# -- property: arbitrary write sequences roll back exactly --------------------

_keys = st.sampled_from(["a", "b", "c"])
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("scalar"), st.integers(0, 100)),
        st.tuples(st.just("put"), st.tuples(_keys, st.integers(0, 100))),
        st.tuples(st.just("del"), _keys),
        st.tuples(st.just("nest"), st.tuples(_keys, _keys,
                                             st.integers(0, 100))),
    ),
    max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(_ops)
def test_rollback_restores_exact_state(ops):
    s = fresh_state()
    # Seed some pre-existing entries so deletes/overwrites are exercised.
    s.write(("m", (StringVal("a"),)), uint(10))
    s.write(("nested", (StringVal("a"), StringVal("a"))), uint(20))
    before = snapshot(s)
    log = WriteLog()
    for op, payload in ops:
        if op == "scalar":
            key, value = ("n", ()), uint(payload)
        elif op == "put":
            k, v = payload
            key, value = ("m", (StringVal(k),)), uint(v)
        elif op == "del":
            key, value = ("m", (StringVal(payload),)), MISSING
        else:
            k1, k2, v = payload
            key, value = ("nested", (StringVal(k1), StringVal(k2))), uint(v)
        log.record(s, key, value)
        s.write(key, value)
    log.rollback(s)
    assert snapshot(s) == before
