"""Property tests for the state journal and copy-on-write forks.

Three laws the state engine rests on:

* **Journal identity** — for any write sequence, ``rollback_to(mark)``
  restores the exact pre-mark state, and releasing a committed mark
  truncates without disturbing outstanding older marks.
* **Nested marks** — inner rollbacks compose with outer ones: undoing
  to an inner mark then to an outer one equals undoing straight to the
  outer one.
* **CoW isolation** — writes through a fork never leak into the
  source (or vice versa), at any nesting depth and through forks of
  forks, even though the fork is O(fields) and shares every entry
  container at birth; and an overlaid map is observationally a plain
  dict (order, ``len``, ``==``, pickle), whenever its overlay folds.

* **The owned write** — ``owned_write`` is ``WriteLog.record`` followed
  by ``ContractState.write``, its two-walk specification, in everything
  either leaves behind: undo log, write set, journal entries, CoW
  privatisations, state, errors — over plain, overlaid and paged maps.

Plus the O(1)-take guard: marking the journal must not materialise a
single CoW copy nor touch any map entry.
"""

from __future__ import annotations

import contextlib
import copy
import pickle
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

import pytest

from repro.scilla import types as ty, values as scilla_values
import repro.scilla.backend as backend_mod
from repro.scilla.backend import MemoryBackend, adopt
from repro.scilla.errors import ExecError
from repro.scilla.state import (
    ContractState, JournalError, MISSING, StateJournal, WriteLog,
    owned_write,
)
from repro.scilla.values import MapVal, StringVal, canonical, uint


def fresh_state(journal: StateJournal | None = None) -> ContractState:
    state = ContractState(
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
    state.journal = journal
    return state


def snapshot(state: ContractState):
    return ({k: canonical(v) for k, v in state.fields.items()},
            state.balance)


# One abstract operation: (kind, field/key path, value).
def _apply(state: ContractState, op) -> None:
    kind, key, value = op
    if kind == "field":
        state.write(("n", ()), uint(value))
    elif kind == "put":
        state.write(key, uint(value))
    elif kind == "delete":
        state.write(key, MISSING)
    else:  # balance
        state.balance = value


_KEYS = st.one_of(
    st.tuples(st.just("m"),
              st.tuples(st.sampled_from([StringVal(c) for c in "abcd"]))),
    st.tuples(st.just("nested"),
              st.tuples(st.sampled_from([StringVal(c) for c in "ab"]),
                        st.sampled_from([StringVal(c) for c in "xy"]))),
)

_OPS = st.one_of(
    st.tuples(st.just("field"), st.none(), st.integers(0, 50)),
    st.tuples(st.just("put"), _KEYS, st.integers(0, 50)),
    st.tuples(st.just("delete"), _KEYS, st.just(0)),
    st.tuples(st.just("balance"), st.none(), st.integers(0, 50)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_OPS, max_size=20))
def test_rollback_restores_premark_state(ops):
    journal = StateJournal()
    state = fresh_state(journal)
    _apply(state, ("put", ("m", (StringVal("a"),)), 1))
    before = snapshot(state)
    mark = journal.mark()
    for op in ops:
        _apply(state, op)
    journal.rollback_to(mark)
    assert snapshot(state) == before
    # Idempotent: a second rollback is a no-op.
    journal.rollback_to(mark)
    assert snapshot(state) == before


@settings(max_examples=60, deadline=None)
@given(st.lists(_OPS, max_size=10), st.lists(_OPS, max_size=10))
def test_nested_marks_compose(outer_ops, inner_ops):
    journal = StateJournal()
    state = fresh_state(journal)
    base = snapshot(state)
    outer = journal.mark()
    for op in outer_ops:
        _apply(state, op)
    middle = snapshot(state)
    inner = journal.mark()
    for op in inner_ops:
        _apply(state, op)
    journal.rollback_to(inner)
    assert snapshot(state) == middle
    journal.rollback_to(outer)
    assert snapshot(state) == base


# -- CoW forks vs. a plain-dict model ---------------------------------------
#
# Worlds are (ContractState, model) pairs; the model is nested plain
# dicts driven by the same operations, so it also fixes the *order*
# entries must iterate in (``builtin to_list`` / ``size`` are
# contract-visible).  Forks add worlds; every world must equal its own
# model at the end, whatever the others did and whenever overlays fold.

_FLAT = [StringVal(c) for c in "abcd"]
_OUTER = [StringVal(c) for c in "ab"]
_INNER = [StringVal(c) for c in "xy"]

_WORLD_OPS = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(_FLAT), st.integers(0, 50)),
    st.tuples(st.just("remove"), st.sampled_from(_FLAT), st.just(0)),
    st.tuples(st.just("nput"),
              st.tuples(st.sampled_from(_OUTER), st.sampled_from(_INNER)),
              st.integers(0, 50)),
    st.tuples(st.just("nremove"),
              st.tuples(st.sampled_from(_OUTER), st.sampled_from(_INNER)),
              st.just(0)),
    st.tuples(st.just("ndrop"), st.sampled_from(_OUTER), st.just(0)),
    # MapVal.copy() + put, as ``builtin put`` on a loaded field does,
    # stored back whole.
    st.tuples(st.just("store"), st.sampled_from(_FLAT), st.integers(0, 50)),
    st.tuples(st.just("fork"), st.none(), st.just(0)),
)


def _apply_world(state: ContractState, model: dict, op) -> None:
    kind, key, value = op
    if kind == "put":
        state.write(("m", (key,)), uint(value))
        model["m"][key] = value
    elif kind == "remove":
        state.write(("m", (key,)), MISSING)
        model["m"].pop(key, None)
    elif kind == "nput":
        state.write(("nested", key), uint(value))
        model["nested"].setdefault(key[0], {})[key[1]] = value
    elif kind == "nremove":
        state.write(("nested", key), MISSING)
        if key[0] in model["nested"]:
            model["nested"][key[0]].pop(key[1], None)
    elif kind == "ndrop":
        state.write(("nested", (key,)), MISSING)
        model["nested"].pop(key, None)
    else:  # store
        updated = state.fields["m"].copy()
        updated.put(key, uint(value))
        state.write(("m", ()), updated)
        model["m"][key] = value


def _model_map(model: dict, nested: bool) -> MapVal:
    if nested:
        return MapVal(ty.STRING, ty.MapType(ty.STRING, ty.UINT128),
                      {k: _model_map(v, False) for k, v in model.items()})
    return MapVal(ty.STRING, ty.UINT128,
                  {k: uint(v) for k, v in model.items()})


def _assert_world_matches(state: ContractState, model: dict) -> None:
    for name in ("m", "nested"):
        got = state.fields[name]
        want = _model_map(model[name], name == "nested")
        assert list(got.entries) == list(want.entries)          # order
        assert list(got.entries.items()) == list(want.entries.items())
        assert len(got.entries) == len(want.entries)
        assert got == want and want == got
        assert scilla_values.values_equal(got, want)
        assert canonical(got) == canonical(want)
        for k, child in want.entries.items():
            assert k in got.entries
            assert got.entries[k] == child
            if name == "nested":
                assert list(got.entries[k].entries) == list(child.entries)
        thawed = pickle.loads(pickle.dumps(got))
        assert type(thawed.entries) is dict
        assert list(thawed.entries.items()) == list(want.entries.items())


@contextlib.contextmanager
def fold_slack(slack: int):
    """Overlay fold threshold override: -1 folds on every write to a
    small map, a huge value never folds."""
    old = scilla_values.OVERLAY_FOLD_SLACK
    scilla_values.OVERLAY_FOLD_SLACK = slack
    try:
        yield
    finally:
        scilla_values.OVERLAY_FOLD_SLACK = old


def _run_worlds(steps, slack: int) -> int:
    """Drive the worlds under one fold threshold, check each against
    its model, and return how many CoW privatisations it took."""
    root = fresh_state()
    model = {"m": {}, "nested": {}}
    for op in (("put", _FLAT[0], 7), ("put", _FLAT[1], 9),
               ("nput", (_OUTER[0], _INNER[0]), 8)):
        _apply_world(root, model, op)
    worlds = [(root, model)]
    before = scilla_values.COW_COPIES
    with fold_slack(slack):
        for who, op in steps:
            state, model = worlds[who % len(worlds)]
            if op[0] == "fork":
                # Fork of a fork, at any depth; both sides keep going.
                worlds.append((state.fork(), copy.deepcopy(model)))
            else:
                _apply_world(state, model, op)
        # Writes never leaked between forks, in either direction, and
        # every observable of each map equals the plain dict's.
        for state, model in worlds:
            _assert_world_matches(state, model)
    return scilla_values.COW_COPIES - before


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), _WORLD_OPS), max_size=40))
def test_cow_fork_never_leaks_writes(steps):
    # Never folding, the shipped threshold, folding on every write:
    # same contents, same order — and the same privatisation count, so
    # not even the CoW counter can tell when a fold happened.
    copies = {_run_worlds(steps, slack)
              for slack in (10**9, scilla_values.OVERLAY_FOLD_SLACK, -1)}
    assert len(copies) == 1


# -- the owned write ≡ record + write ------------------------------------------

_SK = [StringVal(c) for c in "abc"]
_INNER_MAPS = st.dictionaries(st.sampled_from("xy"), st.integers(0, 9), max_size=2)
_SEEDS = st.fixed_dictionaries({
    "m": st.dictionaries(st.sampled_from("abc"), st.integers(0, 9),
                         max_size=3),
    "nested": st.dictionaries(st.sampled_from("abc"), _INNER_MAPS, max_size=3)})
# (location, value): an int, None to delete, a dict for a whole inner
# map (a map-valued new value, and later a map-valued pre-image).  The
# last two locations are ill-formed and must fail alike.
_WRITES = st.one_of(
    st.tuples(st.just(("n", ())), st.integers(0, 9)),
    st.tuples(st.tuples(st.just("m"), st.tuples(st.sampled_from(_SK))),
              st.one_of(st.none(), st.integers(0, 9))),
    st.tuples(st.tuples(st.just("nested"), st.tuples(st.sampled_from(_SK))),
              st.one_of(st.none(), _INNER_MAPS)),
    st.tuples(st.tuples(st.just("nested"), st.tuples(
        st.sampled_from(_SK), st.sampled_from([StringVal(c) for c in "xy"]))),
        st.one_of(st.none(), st.integers(0, 9))),
    st.tuples(st.tuples(st.just("m"), st.tuples(
        st.sampled_from(_SK), st.sampled_from(_SK))), st.integers(0, 9)),
    st.tuples(st.just(("n", (_SK[0],))), st.one_of(st.none(), st.integers(0, 9))),
)


def _inner_map(entries: dict) -> MapVal:
    return MapVal(ty.STRING, ty.UINT128,
                  {StringVal(k): uint(v) for k, v in entries.items()})


def _write_world(kind: str, seed: dict):
    """A state of the given container kind holding ``seed``, plus
    whatever must stay alive (and unchanged) beside it."""
    state = fresh_state()
    flat = {StringVal(k): uint(v) for k, v in seed["m"].items()}
    nested = {StringVal(k): _inner_map(v) for k, v in seed["nested"].items()}
    if kind == "paged":
        backend = MemoryBackend()
        flat = adopt(backend, flat)
        nested = adopt(backend, nested)
    state.fields["m"].entries = flat
    state.fields["nested"].entries = nested
    if kind == "overlay":           # a fork of a fork: everything shared
        parent = state.fork()
        return parent.fork(), (state, parent)
    return state, ()


def _plain(value):
    return "MISSING" if value is MISSING else canonical(value)


def _spec_write(state, log, key, value) -> None:
    log.record(state, key, value)
    state.write(key, value)


@settings(max_examples=200, deadline=None)
@given(seed=_SEEDS, kind=st.sampled_from(["plain", "overlay", "paged"]),
       journaled=st.booleans(),
       txns=st.lists(st.tuples(st.lists(_WRITES, max_size=6), st.booleans()),
                     max_size=4))
@mock.patch.object(backend_mod, "PAGE_CACHE", 2)
def test_owned_write_is_record_then_write(seed, kind, journaled, txns):
    traces = []
    for write in (owned_write, _spec_write):
        state, kin = _write_world(kind, seed)
        kin_before = [snapshot(s) for s in kin]
        journal = state.journal = StateJournal() if journaled else None
        mark = journal.mark() if journaled else None
        trace = []
        for writes, roll_back in txns:
            log = WriteLog()
            copies = scilla_values.COW_COPIES
            for key, value in writes:
                value = MISSING if value is None else \
                    _inner_map(value) if isinstance(value, dict) else \
                    uint(value)
                try:
                    write(state, log, key, value)
                except ExecError as exc:
                    trace.append(str(exc))
            trace.append((
                [(k, _plain(v)) for k, v in log.undo.items()],
                [(k, _plain(v)) for k, v in log.writes.items()],
                scilla_values.COW_COPIES - copies, snapshot(state),
                journaled and [(e[2], _plain(e[3]))
                               for e in journal.entries]))
            if roll_back:
                try:
                    log.rollback(state)
                except ExecError as exc:    # an ill-formed location's undo
                    trace.append(str(exc))
                trace.append(snapshot(state))
        if journaled:
            try:
                journal.rollback_to(mark)
            except ExecError as exc:        # likewise
                trace.append(str(exc))
            trace.append(snapshot(state))
        assert [snapshot(s) for s in kin] == kin_before
        traces.append(trace)
    assert traces[0] == traces[1]


def test_owned_write_flags_a_captured_map_shared():
    """A map-valued pre-image may sit in a frozen base other forks
    read.  Rollback puts that very object back into this fork's
    overlay, so it must come back flagged ``_cow`` — or the next write
    through it would land in the parent's map."""
    for write in (owned_write, _spec_write):
        state, kin = _write_world(
            "overlay", {"m": {}, "nested": {"a": {"x": 1}}})
        kin_before = [snapshot(s) for s in kin]
        log = WriteLog()
        write(state, log, ("nested", (_SK[0],)), MISSING)
        captured = log.undo["nested", (_SK[0],)]
        assert captured is kin[0].fields["nested"].entries[_SK[0]]
        assert captured._cow
        log.rollback(state)
        state.write(("nested", (_SK[0], StringVal("x"))), uint(7))
        assert [snapshot(s) for s in kin] == kin_before


def test_release_truncates_only_below_oldest_outstanding_mark():
    journal = StateJournal()
    state = fresh_state(journal)
    older = journal.mark()
    _apply(state, ("field", None, 1))
    newer = journal.mark()
    _apply(state, ("field", None, 2))
    journal.release(newer)            # older still outstanding
    journal.rollback_to(older)        # must still be able to undo
    assert state.fields["n"] == uint(0)
    journal.release(older)
    assert journal.depth == 0


def test_rollback_to_released_mark_raises():
    journal = StateJournal()
    state = fresh_state(journal)
    mark = journal.mark()
    _apply(state, ("field", None, 3))
    journal.release(mark)
    with pytest.raises(JournalError):
        journal.rollback_to(mark)


def test_mark_is_o1_no_cow_copies_no_entries_touched():
    """Taking a rollback point must not copy anything, however large
    the state — the property the checkpoint bench smoke guards at
    network level."""
    journal = StateJournal()
    state = fresh_state(journal)
    big = state.fields["m"]
    for i in range(10_000):
        big.entries[StringVal(f"k{i}")] = uint(i)
    before = scilla_values.COW_COPIES
    marks = [journal.mark() for _ in range(100)]
    assert scilla_values.COW_COPIES == before
    assert journal.depth == 0
    for m in reversed(marks):
        journal.release(m)


def test_fork_is_o_fields_single_write_materialises_once():
    state = fresh_state()
    big = state.fields["m"]
    for i in range(10_000):
        big.entries[StringVal(f"k{i}")] = uint(i)
    before = scilla_values.COW_COPIES
    fork = state.fork()
    assert scilla_values.COW_COPIES == before   # fork itself copies nothing
    fork.write(("m", (StringVal("k1"),)), uint(999))
    assert scilla_values.COW_COPIES == before + 1
    assert state.read(("m", (StringVal("k1"),))) == uint(1)
    # A second write to the now-owned map does not copy again.
    fork.write(("m", (StringVal("k2"),)), uint(998))
    assert scilla_values.COW_COPIES == before + 1
