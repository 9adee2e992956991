"""The bulk store ≡ a store per row, in the overlay and in the merge.

``OverlayDict.update(rows)`` must equal ``overlay[key] = value`` for
each row in order — entries and iteration order, ``len`` and every
fold decision — over dict bases with tombstones and with child maps,
below, at and across the fold threshold.  ``merge_deltas`` stores a
column's one-key rows with one ``update``; ``merge_deltas_reference``
(tests/helpers.py) stores them one at a time.  Both must build the
same state, count the same changed locations, make the same
privatisations and folds and raise the same overflow, on Fig. 14-mix
deltas and on hand-built columns the epochs never produce.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.chain import network as network_mod
from repro.chain.delta import DeltaEntry, StateDelta, merge_deltas
from repro.core.joins import JoinKind, MergeOverflow
from repro.scilla import types as ty
from repro.scilla import values
from repro.scilla.state import MISSING, ContractState
from repro.scilla.values import (
    IntVal, MapVal, OverlayDict, StringVal, canonical, uint,
)

from .helpers import merge_deltas_reference
from .test_delta_validation import mix_network

INT, OWN = JoinKind.INT_MERGE, JoinKind.OWN_OVERWRITE


def _threshold(n: int) -> int:
    return n // values.OVERLAY_FOLD_DIVISOR + values.OVERLAY_FOLD_SLACK


def _folds() -> tuple[int, int]:
    return values.OVERLAY_FOLDS, values.OVERLAY_FOLDED_ENTRIES


# -- OverlayDict.update ≡ __setitem__ per row ----------------------------------

_KEYS = [StringVal(f"k{i}") for i in range(400)]
_CHILD = MapVal(ty.STRING, ty.UINT128)


def _value(i: int):
    return _CHILD if i < 0 else uint(i)


def _state(overlay: OverlayDict) -> tuple:
    # The stored fold budget is the recount it replaces.
    assert overlay._room == _threshold(len(overlay.base)) - (
        len(overlay.over) + len(overlay.dead))
    return (list(overlay._flat().items()), len(overlay),
            type(overlay.base) is dict, len(overlay.over), len(overlay.dead))


# One overlay's history: ("set", key, value) / ("pop", key); a negative
# value stores a child map.  Keys below 60 are mostly base keys, so pops
# leave tombstones that later rows store over.
_key = st.integers(0, 59) | st.integers(0, 399)
_op = st.one_of(
    st.tuples(st.just("set"), _key, st.integers(-1, 9)),
    st.tuples(st.just("pop"), _key))


def _apply(overlay: OverlayDict, op) -> None:
    if op[0] == "set":
        overlay[_KEYS[op[1]]] = _value(op[2])
    else:
        overlay.pop(_KEYS[op[1]], None)


@settings(max_examples=300, deadline=None)
@given(size=st.sampled_from([0, 40, 300]),
       fill=st.integers(0, 110),
       history=st.lists(_op, max_size=12),
       rows=st.lists(st.tuples(_key, st.integers(-1, 9)), max_size=90),
       after=st.lists(_op, max_size=8),
       held=st.booleans())
def test_update_equals_a_store_per_row(size, fill, history, rows, after,
                                       held):
    """``fill`` new keys first puts the pending count anywhere from
    none to past the threshold (64 + ``size // 8``), so the rows land
    below, at or across it; ``history`` leaves tombstones and children;
    ``after`` checks that both sides keep deciding folds alike."""
    sides = []
    for _ in range(2):
        overlay = OverlayDict({_KEYS[i]: uint(i) for i in range(size)})
        keep = overlay.base if held else None   # a second holder: folds copy
        for i in range(fill):
            overlay[StringVal(f"fill{i}")] = uint(i)
        for op in history:
            _apply(overlay, op)
        sides.append((overlay, keep))
    (bulk, _), (per_row, _) = sides
    assert _state(bulk) == _state(per_row)
    batch = {_KEYS[k]: _value(v) for k, v in rows}
    before = _folds()
    bulk.update(batch)
    bulk_folds = tuple(b - a for a, b in zip(before, _folds()))
    before = _folds()
    for key, value in batch.items():
        per_row[key] = value
    assert tuple(b - a for a, b in zip(before, _folds())) == bulk_folds
    assert _state(bulk) == _state(per_row)
    for op in after:
        before = _folds()
        _apply(bulk, op)
        moved = tuple(b - a for a, b in zip(before, _folds()))
        before = _folds()
        _apply(per_row, op)
        assert tuple(b - a for a, b in zip(before, _folds())) == moved
        assert _state(bulk) == _state(per_row)


@pytest.mark.parametrize("pending", [-2, -1, 0, 1, 2])
def test_update_folds_exactly_where_the_rows_cross_the_threshold(pending):
    """Rows whose last new key leaves ``pending`` rows past the
    threshold (a tombstone stored over, an overwritten base key and new
    keys): the bulk store folds iff the per-row one does, and into the
    same base."""
    size = 160
    limit = _threshold(size)
    results = []
    for bulk in (True, False):
        overlay = OverlayDict({_KEYS[i]: uint(i) for i in range(size)})
        overlay.pop(_KEYS[0])                         # a tombstone
        rows = {StringVal(f"new{i}"): uint(i)
                for i in range(limit - 3 + pending)}
        rows[_KEYS[5]] = uint(99)          # overwrites a base key: pending
        rows[_KEYS[0]] = uint(98)          # over the tombstone: live again
        before = _folds()
        if bulk:
            overlay.update(rows)
        else:
            for key, value in rows.items():
                overlay[key] = value
        results.append((_state(overlay),
                        tuple(b - a for a, b in zip(before, _folds()))))
    assert results[0] == results[1]
    assert (results[0][1][0] > 0) == (pending > 0)


# -- merge_deltas ≡ merge_deltas_reference -------------------------------------

def _ordered(value):
    """A value with every map's entries in *iteration* order."""
    if isinstance(value, MapVal):
        return [(canonical(k), _ordered(v)) for k, v in value.entries.items()]
    return canonical(value)


def _image(state: ContractState) -> list:
    return [(name, _ordered(value), type(getattr(value, "entries", None)))
            for name, value in state.fields.items()]


def _counters() -> tuple[int, int, int]:
    return (values.COW_COPIES, values.OVERLAY_FOLDS,
            values.OVERLAY_FOLDED_ENTRIES)


def _outcome(merge, base, deltas):
    before = _counters()
    try:
        merged, changed = merge(base, deltas)
        seen = ("merged", _image(merged), changed)
    except MergeOverflow as exc:
        seen = ("overflow", str(exc), exc.key, exc.shards)
    return seen, tuple(b - a for a, b in zip(before, _counters()))


def assert_merges_alike(base, make):
    """The merge and its specification, each on its own fork of
    ``base`` and its own ``make()`` of the deltas (a whole-field row's
    map is stored, not copied); returns what they saw."""
    image = _image(base)
    want = _outcome(merge_deltas_reference, base, make())
    got = _outcome(merge_deltas, base, make())
    assert got == want
    assert _image(base) == image        # the parent, untouched
    return got[0]


def test_every_mix_merge_equals_the_specification(monkeypatch):
    """Every merge of three Fig. 14-mix epochs, as the network calls it."""
    merged = []
    merge = network_mod.merge_deltas

    def checked(base, deltas):
        merged.append(assert_merges_alike(base, lambda: deltas))
        return merge(base, deltas)
    monkeypatch.setattr(network_mod, "merge_deltas", checked)
    mix_network(use_signatures=True)
    assert len(merged) >= 14 and all(m[0] == "merged" for m in merged)
    assert sum(m[2] for m in merged) >= 200


NESTED = ty.MapType(ty.STRING, ty.MapType(ty.STRING, ty.UINT128))


def _map(entries: dict, value_type=ty.UINT128) -> MapVal:
    m = MapVal(ty.STRING, value_type)
    for k, v in entries.items():
        m.entries[StringVal(k)] = v
    return m


def hand_state(size: int) -> ContractState:
    """Maps of ``size`` entries: ``bal`` (IntMerge), ``own``
    (overwritten), ``nest`` (a map of maps) and the scalar ``total``;
    forked once, as an epoch-start state is."""
    names = [f"k{i}" for i in range(size)]
    state = ContractState("0xc", {
        "bal": _map({k: uint(i) for i, k in enumerate(names)}),
        "own": _map({k: uint(1) for k in names}),
        "nest": _map({k: _map({"x": uint(1)}) for k in names[:20]},
                     NESTED.value),
        "total": uint(7),
    }, {"bal": ty.MapType(ty.STRING, ty.UINT128),
        "own": ty.MapType(ty.STRING, ty.UINT128), "nest": NESTED,
        "total": ty.UINT128})
    return state.fork()


def _own(name, keys, value):
    return DeltaEntry((name, tuple(StringVal(k) for k in keys)), OWN,
                      new_value=value)


def _int(name, keys, diff, typ=ty.UINT128):
    return DeltaEntry((name, tuple(StringVal(k) for k in keys)), INT,
                      int_diff=diff, typ=typ)


def _deltas(*shards):
    return [StateDelta.from_entries("0xc", shard, entries)
            for shard, entries in enumerate(shards)]


def _unfolded(room: int) -> MapVal:
    """An owned map whose overlay has ``room`` new keys left before it
    folds: the stores before an overflow fold it."""
    m = _map({f"b{i}": uint(i) for i in range(8)})
    m.entries = OverlayDict(m.entries)
    for i in range(_threshold(8) - room):
        m.entries[StringVal(f"p{i}")] = uint(i)
    return m


def _overwrites(n: int) -> list:
    """``n`` one-key overwrites of ``own``: old keys, new keys and
    deletes of both."""
    rows = []
    for i in range(n):
        key = f"k{i}" if i % 2 else f"new{i}"
        rows.append(_own("own", (key,), MISSING if i % 5 == 0 else uint(i)))
    return rows


CASES = {
    "deletes": lambda: _deltas(
        [_own("own", ("k1",), MISSING), _own("own", ("k2",), uint(5)),
         _own("own", ("nowhere",), MISSING), _own("own", ("k3",), MISSING),
         _own("own", ("fresh",), uint(1))]),
    "whole-field rows": lambda: _deltas(
        [_own("own", (), _map({"z": uint(3), "k1": uint(4)})),
         _own("own", ("k1",), uint(9)), _own("own", ("y",), uint(2)),
         _own("total", (), uint(8))]),
    "one-key rows of a map of maps": lambda: _deltas(
        [_own("nest", ("k1",), _map({"y": uint(2)})),
         _own("nest", ("k2",), MISSING),
         _own("nest", ("new",), _map({})),
         _own("nest", ("k3", "x"), uint(5)),
         _own("nest", ("k4", "w"), MISSING)]),
    "two-lane IntMerge totals": lambda: _deltas(
        [_int("bal", ("k1",), 5), _int("bal", ("k2",), -1),
         _int("bal", ("new",), 3), _own("own", ("k1",), uint(0))],
        [_int("bal", ("k2",), 4), _int("bal", ("k1",), -2),
         _int("bal", ("other",), 1), _own("own", ("k2",), uint(0))]),
    "overwrites and totals in one field": lambda: _deltas(
        [_own("bal", ("k1",), uint(70)), _int("bal", ("k2",), 2)],
        [_int("bal", ("k3",), 3), _own("bal", ("n",), uint(1))]),
    "an overflow mid-column": lambda: _deltas(
        [_int("bal", ("k1",), 1), _int("bal", ("k2",), -3),
         _int("bal", ("k3",), -1), _int("bal", ("k4",), -9)],
        [_int("bal", ("k2",), -1), _int("bal", ("k5",), 2)]),
    "an overflow of a new key": lambda: _deltas(
        [_int("bal", ("k1",), 1), _int("bal", ("new",), -1)]),
    "many overwrites": lambda: _deltas(_overwrites(150)),
    "an overflow after a whole-field write": lambda: _deltas(
        [_own("bal", (), _unfolded(0))],
        [_int("bal", ("k1",), 1), _int("bal", ("k2",), -10**6)]),
    "many totals over two lanes": lambda: _deltas(
        [_int("bal", (f"k{i}",), 1) for i in range(0, 160, 2)],
        [_int("bal", (f"k{i}",), 2) for i in range(1, 160, 2)]
        + [_int("bal", ("k0",), 1)]),
}


@pytest.mark.parametrize("size", [20, 700])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_hand_built_merge_equals_the_specification(case, size):
    """Each case on a small state (the many-row cases fold first: the
    entries are a plain dict) and a large one (they stay overlays)."""
    seen = assert_merges_alike(hand_state(size), CASES[case])
    if "overflow" in case:
        assert seen[0] == "overflow"
    else:
        assert seen[0] == "merged"


def test_an_overflow_names_the_first_location_in_row_order():
    (seen, _) = _outcome(merge_deltas, hand_state(20),
                         CASES["an overflow mid-column"]())
    assert seen[0] == "overflow"
    assert seen[2] == ("bal", (StringVal("k2"),)) and seen[3] == (0, 1)


def test_the_stores_before_an_overflow_are_made_as_row_by_row():
    """A total stored into an owned overlay with no room left folds it;
    the overflow after it leaves that fold counted, as a merge storing
    row by row does."""
    seen, moved = _outcome(merge_deltas, hand_state(20),
                           CASES["an overflow after a whole-field write"]())
    assert seen[0] == "overflow" and seen[3] == (1,)
    assert moved[1] == 1


def test_a_merge_over_a_held_overlay_equals_the_specification():
    """An epoch-start state whose maps are overlays with pending rows
    and tombstones (the commit fold blocked): every merge privatises a
    copy of the overlay, below and across the threshold."""
    state = hand_state(300)
    for i in range(0, 40, 3):
        state.write(("own", (StringVal(f"k{i}"),)), MISSING)
        state.write(("bal", (StringVal(f"p{i}"),)), uint(i))
    state = state.fork()
    assert type(state.fields["own"].entries) is OverlayDict
    limit = _threshold(300)
    for n in (limit // 4, limit + 10):
        deltas = _deltas(_overwrites(n),
                         [_int("bal", (f"k{i}",), 1) for i in range(n)])
        assert assert_merges_alike(state, lambda: deltas)[0] == "merged"
