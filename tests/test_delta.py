"""State-delta and three-way-merge tests, with the PCM laws
property-checked (invariant 2 of DESIGN.md).

A delta is one column per changed field (``FieldDelta``); the tests
hold it, row for row, to per-location references: the read-diff the
fold replaced, and a merge that looks at one location at a time."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.joins import JoinKind, MergeConflict, MergeOverflow, int_delta
from repro.chain.delta import (
    DeltaEntry, StateDelta, _values_same, compute_delta, merge_deltas,
)
from repro.chain.serialization import delta_from_json, delta_to_json
from repro.scilla.state import ContractState, MISSING, WriteLog, _Missing
from repro.scilla import types as ty
from repro.scilla.values import IntVal, MapVal, StringVal, canonical, uint

INT, OWN = JoinKind.INT_MERGE, JoinKind.OWN_OVERWRITE


def token_state(**balances) -> ContractState:
    m = MapVal(ty.STRING, ty.UINT128)
    for k, v in balances.items():
        m.entries[StringVal(k)] = uint(v)
    return ContractState(
        "0xc", {"bal": m, "supply": uint(sum(balances.values()))},
        {"bal": ty.MapType(ty.STRING, ty.UINT128), "supply": ty.UINT128})


JOINS = {"bal": INT, "supply": INT}
OVERWRITE = {"bal": OWN, "supply": OWN}


def delta_between(base, final, joins, shard=0, keys=None):
    if keys is None:
        keys = {("bal", (k,))
                for k in set(base.fields["bal"].entries)
                | set(final.fields["bal"].entries)}
        keys.add(("supply", ()))
    log = WriteLog({key: base.read(key) for key in keys},
                   {key: final.read(key) for key in keys})
    return compute_delta("0xc", shard, base, final, [log], joins)


def test_compute_delta_int_diffs():
    base = token_state(a=10, b=5)
    final = base.fork()
    final.write(("bal", (StringVal("a"),)), uint(7))
    final.write(("bal", (StringVal("c"),)), uint(3))
    d = delta_between(base, final, JOINS)
    diffs = {e.key: e.int_diff for e in d.entries}
    assert diffs[("bal", (StringVal("a"),))] == -3
    assert diffs[("bal", (StringVal("c"),))] == 3
    # Untouched entries produce no delta entries.
    assert ("bal", (StringVal("b"),)) not in diffs
    # One column: the field's kind and integer type, rows by key path.
    [column] = d.columns
    assert (column.field, column.kind, column.typ) == ("bal", INT,
                                                       ty.UINT128)
    assert column.rows == {(StringVal("a"),): -3, (StringVal("c"),): 3}


def test_zero_diff_entries_omitted():
    base = token_state(a=10)
    final = base.fork()
    d = delta_between(base, final, JOINS)
    assert len(d) == 0
    assert d.columns == []


def test_merge_sums_int_deltas_from_multiple_shards():
    base = token_state(a=10)
    f1 = base.fork()
    f1.write(("bal", (StringVal("a"),)), uint(14))   # +4 in shard 0
    f2 = base.fork()
    f2.write(("bal", (StringVal("a"),)), uint(13))   # +3 in shard 1
    d1 = delta_between(base, f1, JOINS, shard=0)
    d2 = delta_between(base, f2, JOINS, shard=1)
    merged, changed = merge_deltas(base, [d1, d2])
    assert merged.read(("bal", (StringVal("a"),))) == uint(17)
    assert changed == 2


def test_merge_creates_absent_entries():
    base = token_state()
    f1 = base.fork()
    f1.write(("bal", (StringVal("x"),)), uint(5))
    d1 = delta_between(base, f1, JOINS)
    merged, _ = merge_deltas(base, [d1])
    assert merged.read(("bal", (StringVal("x"),))) == uint(5)


def test_merge_overwrite_and_delete():
    base = token_state(a=1, b=2)
    f1 = base.fork()
    f1.write(("bal", (StringVal("a"),)), uint(9))
    f1.write(("bal", (StringVal("b"),)), MISSING)
    d1 = delta_between(base, f1, OVERWRITE)
    merged, _ = merge_deltas(base, [d1])
    assert merged.read(("bal", (StringVal("a"),))) == uint(9)
    assert merged.read(("bal", (StringVal("b"),))) is MISSING


def test_conflicting_overwrites_detected():
    base = token_state(a=1)
    f1, f2 = base.fork(), base.fork()
    f1.write(("bal", (StringVal("a"),)), uint(2))
    f2.write(("bal", (StringVal("a"),)), uint(3))
    d1 = delta_between(base, f1, OVERWRITE, shard=0)
    d2 = delta_between(base, f2, OVERWRITE, shard=1)
    with pytest.raises(MergeConflict) as ei:
        merge_deltas(base, [d1, d2])
    # The conflict is structured: it names the contract, the state
    # location, and the shards that clashed.
    assert ei.value.contract == "0xc"
    assert ei.value.key == ("bal", (StringVal("a"),))
    assert set(ei.value.shards) == {0, 1}


def test_overwrite_vs_intmerge_same_key_detected():
    base = token_state(a=1)
    d1 = StateDelta.from_entries("0xc", 0, [DeltaEntry(
        ("bal", (StringVal("a"),)), OWN, new_value=uint(5))])
    d2 = StateDelta.from_entries("0xc", 1, [DeltaEntry(
        ("bal", (StringVal("a"),)), INT, int_diff=1, typ=ty.UINT128)])
    with pytest.raises(MergeConflict) as ei:
        merge_deltas(base, [d1, d2])
    assert ei.value.contract == "0xc"
    assert set(ei.value.shards) == {0, 1}
    with pytest.raises(MergeConflict) as ei:
        merge_deltas(base, [d2, d1])
    assert ei.value.key == ("bal", (StringVal("a"),))
    assert set(ei.value.shards) == {0, 1}


def test_merge_leaves_base_untouched():
    base = token_state(a=1)
    f1 = base.fork()
    f1.write(("bal", (StringVal("a"),)), uint(6))
    merged, _ = merge_deltas(base, [delta_between(base, f1, JOINS)])
    assert base.read(("bal", (StringVal("a"),))) == uint(1)
    assert merged is not base


def test_an_overflowing_total_names_every_contributing_shard():
    """Each shard's diff is in bounds on its own; the sum is not."""
    top = 2**128 - 1
    base = token_state(a=top - 10, b=1)
    deltas = []
    for shard, (da, db) in enumerate(((6, 1), (0, 2), (7, 0))):
        final = base.fork()
        final.write(("bal", (StringVal("a"),)), uint(top - 10 + da))
        final.write(("bal", (StringVal("b"),)), uint(1 + db))
        deltas.append(delta_between(base, final, JOINS, shard=shard))
    with pytest.raises(MergeOverflow) as ei:
        merge_deltas(base, deltas)
    assert ei.value.key == ("bal", (StringVal("a"),))
    assert ei.value.shards == (0, 2)    # shard 1 left ``a`` alone


# -- PCM laws: merge is commutative and associative -----------------------------

_shard_writes = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.integers(-5, 50),
    max_size=4,
)


def _apply_shard(base, writes, shard):
    final = base.fork()
    for k, dv in writes.items():
        key = ("bal", (StringVal(k),))
        old = base.read(key)
        old_v = old.value if old is not MISSING and not isinstance(
            old, type(MISSING)) else 0
        new_v = max(0, old_v + dv)
        final.write(key, uint(new_v))
    return delta_between(base, final, JOINS, shard=shard,
                         keys={("bal", (StringVal(k),)) for k in writes})


@settings(max_examples=50, deadline=None)
@given(_shard_writes, _shard_writes, _shard_writes)
def test_merge_order_independent(w1, w2, w3):
    """⊎ is commutative and associative: any delta ordering merges to
    the same state (invariant 2)."""
    base = token_state(a=20, b=20, c=20, d=20)
    deltas = [_apply_shard(base, w, i)
              for i, w in enumerate((w1, w2, w3))]
    import itertools
    results = []
    for perm in itertools.permutations(deltas):
        merged, _ = merge_deltas(base, list(perm))
        results.append({
            str(k): v.value
            for k, v in merged.fields["bal"].entries.items()})
    assert all(r == results[0] for r in results)


# -- deltas folded from write logs ≡ deltas read back ----------------------------
#
# ``compute_delta`` builds a lane's delta from the write logs of its
# successful transactions and reads state only
# where the fold is not exact.  The oracle below is the read-diff it
# replaced: every touched location read from the lane-final and the
# epoch-start state, one row per location, in field-then-key order.

def _key_sort(key):
    name, keys = key
    return (name, tuple(str(k) for k in keys))


def read_diff_rows(contract, shard, base, final, touched, joins):
    rows = []
    for key in sorted(touched, key=_key_sort):
        kind = joins.get(key[0], OWN)
        new = final.read(key)
        old = base.read(key)
        if kind is INT:
            if not isinstance(new, (IntVal, _Missing)) or \
                    not isinstance(old, (IntVal, _Missing)):
                raise MergeConflict(
                    f"IntMerge declared for non-integer location {key}",
                    contract=contract, key=key, shards=(shard,))
            diff = int_delta(old, new)
            if diff == 0:
                continue
            typ = (new if isinstance(new, IntVal) else old).typ
            rows.append(DeltaEntry(key, kind, int_diff=diff, typ=typ))
        else:
            if _values_same(old, new):
                continue
            rows.append(DeltaEntry(key, kind, new_value=new))
    return rows


NESTED = ty.MapType(ty.STRING, ty.MapType(ty.STRING, ty.UINT128))
FOLD_JOINS = {"n": INT, "bal": INT}


def _map(entries: dict, value_type=ty.UINT128) -> MapVal:
    m = MapVal(ty.STRING, value_type)
    for k, v in entries.items():
        m.entries[StringVal(k)] = v if isinstance(v, MapVal) else uint(v)
    return m


def nested_state() -> ContractState:
    """A scalar and a map merged as integers, a map and a nested map
    overwritten by their owner."""
    inner = ty.MapType(ty.STRING, ty.UINT128)
    return ContractState("0xc", {
        "n": uint(4), "bal": _map({"a": 3, "b": 0}),
        "own": _map({"a": 1}),
        "nest": _map({"a": _map({"a": 1, "b": 2}), "b": _map({})}, inner),
    }, {"n": ty.UINT128, "bal": ty.MapType(ty.STRING, ty.UINT128),
        "own": ty.MapType(ty.STRING, ty.UINT128), "nest": NESTED})


_k = st.sampled_from(["a", "b", "c"])
_v = st.integers(0, 4)
_small_map = st.dictionaries(_k, _v, max_size=2)
# (field, key path, value): None deletes, a dict writes a whole map.
_op = st.one_of(
    st.tuples(st.sampled_from(["bal", "own"]), st.tuples(_k),
              st.one_of(st.none(), _v)),
    st.tuples(st.just("nest"), st.tuples(_k, _k), st.one_of(st.none(), _v)),
    # A whole subtree deleted or replaced (a prefix of deeper writes).
    st.tuples(st.just("nest"), st.tuples(_k), st.one_of(st.none(),
                                                        _small_map)),
    st.tuples(st.just("n"), st.just(()), _v),
    st.tuples(st.just("own"), st.just(()), _small_map),
)
_txn = st.tuples(st.lists(_op, min_size=1, max_size=4), st.booleans())


def _run(state, log, op) -> None:
    """One write, recorded and applied as the interpreter does."""
    field, path, value = op
    key = (field, tuple(StringVal(k) for k in path))
    if isinstance(value, dict):
        value = _map(value)
    elif value is not None:
        value = uint(value)
    log.record(state, key, MISSING if value is None else value)
    state.write(key, MISSING if value is None else value)


def _entry_view(rows):
    return [(e.key, e.kind, e.int_diff, e.typ,
             "MISSING" if e.new_value is MISSING
             else canonical(e.new_value)) for e in rows]


@settings(max_examples=400, deadline=None)
@given(st.lists(_txn, min_size=1, max_size=6))
# A logged map goes stale: the failing transaction writes into it,
# then its rollback copies it up and undoes the write in the copy.
@example([([("nest", ("b",), {})], True),
          ([("nest", ("b", "a"), 0), ("nest", ("b",), None)], False)])
@example([([("nest", ("b",), {"a": 0})], True),
          ([("nest", ("b",), None)], False),
          ([("nest", ("b", "a"), None)], False)])
def test_folded_delta_equals_read_diff(txns):
    """Prefix creation, delete then re-insert, a whole-field write then
    an entry write, a write back to the original value, map-valued
    writes, failing transactions in between: row for row the same
    delta — kinds, integer types, zero diffs dropped, deletions, nested
    paths, whole-field writes, mixed-depth fields — one column per
    field in the lane's write order, and the same merged state."""
    base = nested_state()
    final = base.fork()
    logs = []
    for ops, succeeds in txns:
        log = WriteLog()
        for op in ops:
            _run(final, log, op)
        if succeeds:
            logs.append(log)
        else:
            log.rollback(final)     # failed chains fold nothing
    written = list(dict.fromkeys(key for log in logs for key in log.writes))
    want = read_diff_rows("0xc", 0, base, final, written, FOLD_JOINS)
    got = compute_delta("0xc", 0, base, final, logs, FOLD_JOINS)
    assert _entry_view(got.entries) == _entry_view(want)
    assert len(got) == len(got.entries) == len(want)
    # A map-valued entry carries the lane-final object itself: the
    # logged one may be a stale twin (copied up since by a write
    # through it that a failing transaction then rolled back).
    for g, w in zip(got.entries, want):
        assert g.new_value is w.new_value or \
            not isinstance(w.new_value, MapVal)
    # Columns: one per changed field, in the order the lane first wrote
    # the fields, its rows in the order the lane first wrote them.
    order = {key: i for i, key in enumerate(written)}
    names = [column.field for column in got.columns]
    assert names == sorted(set(names), key=lambda name: min(
        i for (field, _), i in order.items() if field == name))
    for column in got.columns:
        assert column.kind is FOLD_JOINS.get(column.field, OWN)
        assert column.typ == (ty.UINT128 if column.kind is INT else None)
        at = [order[column.field, path] for path in column.rows]
        assert at == sorted(at) and column.rows

    def merged(delta):
        state, _ = merge_deltas(base, [delta])
        return {name: canonical(v) for name, v in state.fields.items()}
    assert merged(got) == merged(StateDelta.from_entries("0xc", 0, want))


def test_fold_takes_the_prefix_pre_image_not_the_in_transaction_one():
    """``m[c][a] := 1; m[c][a] := 2`` with ``m[c]`` absent logs the
    absent prefix ``m[c]`` first and then ``undo[m[c][a]] = 1`` — an
    in-transaction value.  The location's pre-image is MISSING, so the
    entry is a creation, whichever transaction of the lane wrote it."""
    key = ("nest", (StringVal("c"), StringVal("a")))
    for split in (False, True):
        base = nested_state()
        final = base.fork()
        logs = [WriteLog()]
        _run(final, logs[-1], ("nest", ("c", "a"), 1))
        if split:
            logs.append(WriteLog())
        _run(final, logs[-1], ("nest", ("c", "a"), 2))
        assert logs[-1].undo[key] == uint(1)
        delta = compute_delta("0xc", 0, base, final, logs, {})
        assert list(delta.entries) == [DeltaEntry(key, OWN,
                                                  new_value=uint(2))]


# -- the merge ≡ a merge one location at a time ---------------------------------
#
# The reference gathers every shard's row per location: a location
# overwritten by two shards, or overwritten and merged into, is a
# conflict naming the shards with a row there; an IntMerge location's
# total is the epoch-start value plus every diff, out of its type's
# bounds an overflow naming the shards that contributed.

POOL = ["a", "b", "c", "d", "e"]
SMALL = ty.UINT32
TOP = 2**32 - 1


def merge_state(bal: dict, n: int) -> ContractState:
    small = MapVal(ty.STRING, SMALL)
    for k, v in bal.items():
        small.entries[StringVal(k)] = IntVal(v, SMALL)
    inner = ty.MapType(ty.STRING, ty.UINT128)
    return ContractState("0xc", {
        "bal": small, "n": IntVal(n, SMALL), "own": _map({"a": 1, "b": 2}),
        "flag": uint(0),
        "nest": _map({"a": _map({"x": 1}), "c": _map({"x": 2})}, inner),
    }, {"bal": ty.MapType(ty.STRING, SMALL), "n": SMALL,
        "own": ty.MapType(ty.STRING, ty.UINT128), "flag": ty.UINT128,
        "nest": NESTED})


@st.composite
def merge_case(draw):
    """An epoch-start state and 2–5 shards' deltas: IntMerge into a
    map and a scalar of ``Uint32`` (each diff in bounds alone), owned
    overwrites and deletions in a map, a scalar and a map of maps
    (whole subtrees under ``a`` / ``b``, entries under ``c`` / ``d``),
    and now and then a row claiming the other kind for ``bal``."""
    near = st.one_of(st.integers(0, 9), st.integers(TOP - 9, TOP))
    bal = draw(st.dictionaries(st.sampled_from(POOL), near))
    base = merge_state(bal, draw(near))
    deltas = []
    for shard in range(draw(st.integers(2, 5))):
        rows = []

        def bump(key, old):
            diff = draw(st.integers(-old, TOP - old).filter(bool))
            rows.append(DeltaEntry(key, INT, int_diff=diff, typ=SMALL))
        for k in draw(st.lists(st.sampled_from(POOL), unique=True,
                               max_size=3)):
            bump(("bal", (StringVal(k),)), bal.get(k, 0))
        if draw(st.booleans()):
            bump(("n", ()), base.fields["n"].value)
        def mine(k):
            """Mostly a key only this shard writes, now and then one
            any shard may."""
            return k if draw(st.integers(0, 5)) == 0 else f"{k}{shard}"
        if draw(st.integers(0, 7)) == 0:
            k = draw(st.sampled_from(POOL))
            rows.append(DeltaEntry(("bal", (StringVal(k),)), OWN,
                                   new_value=IntVal(draw(_v), SMALL)))
        for k in draw(st.lists(st.sampled_from(POOL), unique=True,
                               max_size=2)):
            value = draw(st.one_of(st.none(), _v))
            rows.append(DeltaEntry(
                ("own", (StringVal(mine(k)),)), OWN,
                new_value=MISSING if value is None else uint(value)))
        if draw(st.integers(0, 7)) == 0:
            rows.append(DeltaEntry(("flag", ()), OWN,
                                   new_value=uint(draw(_v))))
        for k in draw(st.lists(st.sampled_from("ab"), unique=True,
                               max_size=1)):
            value = draw(st.one_of(st.none(), _small_map))
            rows.append(DeltaEntry(
                ("nest", (StringVal(mine(k)),)), OWN,
                new_value=MISSING if value is None else _map(value)))
        for k, j in draw(st.lists(st.tuples(st.sampled_from("cd"), _k),
                                  unique=True, max_size=2)):
            value = draw(st.one_of(st.none(), _v))
            rows.append(DeltaEntry(
                ("nest", (StringVal(k), StringVal(mine(j)))), OWN,
                new_value=MISSING if value is None else uint(value)))
        deltas.append(StateDelta.from_entries("0xc", shard, rows))
    return base, deltas


def reference_merge(base, deltas):
    """``(conflicts, overflows, state)``: location -> shards for the
    first two, the merged state when both are empty."""
    writes, sums, typs = {}, {}, {}
    for delta in deltas:
        for e in delta.entries:
            if e.kind is INT:
                sums.setdefault(e.key, []).append((delta.shard, e.int_diff))
                typs[e.key] = e.typ
            else:
                writes.setdefault(e.key, []).append((delta.shard,
                                                     e.new_value))
    conflicts = {}
    for key, rows in writes.items():
        owners = {shard for shard, _ in rows}
        if len(owners) > 1 or key in sums:
            conflicts[key] = owners | {s for s, _ in sums.get(key, ())}
    if conflicts:
        return conflicts, {}, None
    state = base.fork()
    for key in sorted(writes, key=_key_sort):
        [(_, value)] = writes[key]
        state.write(key, value)
    overflows = {}
    for key, parts in sums.items():
        old = base.read(key)
        total = (old.value if isinstance(old, IntVal) else 0) \
            + sum(diff for _, diff in parts)
        lo, hi = ty.int_bounds(typs[key])
        if not lo <= total <= hi:
            overflows[key] = {shard for shard, _ in parts}
        else:
            state.write(key, IntVal(total, typs[key]))
    return {}, overflows, None if overflows else state


def _fields(state):
    return {name: canonical(v) for name, v in state.fields.items()}


@settings(max_examples=300, deadline=None)
@given(merge_case())
def test_merge_equals_the_per_location_reference(case):
    base, deltas = case
    before = _fields(base)
    conflicts, overflows, want = reference_merge(base, deltas)
    if conflicts or overflows:
        expected = conflicts or overflows
        with pytest.raises(MergeConflict) as ei:
            merge_deltas(base, deltas)
        assert isinstance(ei.value, MergeOverflow) == (not conflicts)
        assert ei.value.contract == "0xc"
        assert ei.value.key in expected
        assert set(ei.value.shards) == expected[ei.value.key]
    else:
        merged, changed = merge_deltas(base, deltas)
        assert changed == sum(len(delta) for delta in deltas)
        assert _fields(merged) == _fields(want)
    assert _fields(base) == before


@settings(max_examples=100, deadline=None)
@given(merge_case())
def test_the_entries_view_round_trips_through_the_wire(case):
    for delta in case[1]:
        wire = delta_to_json(delta)
        back = delta_from_json(wire)
        assert list(back.entries) == list(delta.entries)
        assert back == delta
        assert delta_to_json(back) == wire


# -- the merge folds first: same state as the overlay path ----------------------

def _ordered(value):
    """A value with every map's entries in *iteration* order."""
    if isinstance(value, MapVal):
        return [(canonical(k), _ordered(v)) for k, v in value.entries.items()]
    return canonical(value)


def _image(state: ContractState) -> str:
    return repr([(name, _ordered(v)) for name, v in state.fields.items()])


def _merge_by_writes(base, deltas):
    """``merge_deltas`` through the general write path, which never
    announces its write count: every privatised map is an overlay.
    Same order: field by field, overwrites, then IntMerge totals."""
    merged = base.fork()
    fields: dict = {}
    for delta in deltas:
        for column in delta.columns:
            fields.setdefault(column.field, []).append(column)
    for name, columns in fields.items():
        totals: dict = {}
        for column in columns:
            for path, payload in column.rows.items():
                if column.kind is INT:
                    totals[path] = totals.get(path, 0) + payload
                    typ = column.typ
                else:
                    merged.write((name, path), payload)
        for path, diff in totals.items():
            old = base.read((name, path))
            merged.write((name, path), IntVal(
                (old.value if isinstance(old, IntVal) else 0) + diff, typ))
    return merged


def _fold_first_deltas(state, rng, n):
    """Two shards' deltas of ``n`` entries per field: IntMerge into
    ``bal`` (old and new keys, some from both shards), overwrites,
    deletions and creations in ``own``, and in ``nest`` whole subtrees
    replaced or deleted (one key) and entries beneath others (two)."""
    def keys_of(name, fresh):
        old = [k.value for k in state.fields[name].entries]
        return rng.sample(old, n - fresh) + [
            f"{name}{rng.randrange(10**9)}" for _ in range(fresh)]

    shards = ([], [])
    for k in keys_of("bal", n // 4):
        for shard in rng.sample((0, 1), rng.choice((1, 1, 2))):
            shards[shard].append(DeltaEntry(
                ("bal", (StringVal(k),)), INT,
                int_diff=rng.randrange(1, 9), typ=ty.UINT128))
    for k in keys_of("own", n // 4):
        gone = rng.random() < 0.3
        shards[0].append(DeltaEntry(
            ("own", (StringVal(k),)), OWN,
            new_value=MISSING if gone else uint(rng.randrange(100))))
    for i, k in enumerate(keys_of("nest", n // 4)):
        if i % 2:
            key, new = (StringVal(k), StringVal("x")), uint(i)
        else:
            key, new = (StringVal(k),), rng.choice(
                (MISSING, _map({"y": i}), _map({})))
        shards[1].append(DeltaEntry(("nest", key), OWN, new_value=new))
    return [StateDelta.from_entries("0xc", shard, entries)
            for shard, entries in enumerate(shards)]


def _maps(value, out: list) -> list:
    """Every map reachable from ``value``, the value itself first."""
    if isinstance(value, MapVal):
        out.append(value)
        for child in value.entries.values():
            _maps(child, out)
    return out


def test_two_merges_of_one_delta_share_no_map_and_leave_it_as_it_was():
    """A merge never writes through a map a delta holds: a whole-field
    map row goes in as a copy.  Two merges of one hand-built delta
    (``own`` replaced by ``{z}``, then ``own[k1] := 9``) return states
    that share no map with each other or with the delta, whose map
    still holds ``{z}`` alone — also after a write through either."""
    base = ContractState("0xc", {"own": _map({"a": 1})},
                         {"own": ty.MapType(ty.STRING, ty.UINT128)})
    whole = _map({"z": 5})
    delta = StateDelta.from_entries("0xc", 0, [
        DeltaEntry(("own", ()), OWN, new_value=whole),
        DeltaEntry(("own", (StringVal("k1"),)), OWN, new_value=uint(9))])
    before = canonical(whole)
    a, _ = merge_deltas(base, [delta])
    b, _ = merge_deltas(base, [delta])
    in_a = {id(m) for m in _maps(a.fields["own"], [])}
    assert not in_a & {id(m) for m in _maps(b.fields["own"], [whole])}
    assert canonical(whole) == before
    want = canonical(_map({"z": 5, "k1": 9}))
    assert canonical(a.fields["own"]) == canonical(b.fields["own"]) == want
    a.write(("own", (StringVal("k2"),)), uint(1))
    assert canonical(b.fields["own"]) == want
    assert canonical(whole) == before


def test_merge_folds_first_into_the_state_the_overlay_path_builds():
    import random
    from repro.scilla import values
    size = 400
    limit = size // values.OVERLAY_FOLD_DIVISOR + values.OVERLAY_FOLD_SLACK
    rng = random.Random(19)
    names = [f"k{i}" for i in range(size)]
    state = ContractState("0xc", {
        "bal": _map({k: i for i, k in enumerate(names)}),
        "own": _map({k: 1 for k in names}),
        "nest": _map({k: _map({"x": 1}) for k in names},
                     ty.MapType(ty.STRING, ty.UINT128)),
    }, {"bal": ty.MapType(ty.STRING, ty.UINT128),
        "own": ty.MapType(ty.STRING, ty.UINT128), "nest": NESTED})
    want = state.fork()
    # Below the threshold, above it (the shared container an overlay
    # with pending writes), above it again (a plain dict), below.
    for n in (limit // 3, limit + 30, limit + 30, limit // 3):
        deltas = _fold_first_deltas(state, rng, n)
        before = _image(state)
        folds = values.OVERLAY_FOLDS, values.OVERLAY_FOLDED_ENTRIES
        copies = values.COW_COPIES
        merged, changed = merge_deltas(state, deltas)
        got_copies = values.COW_COPIES - copies
        folds = (values.OVERLAY_FOLDS - folds[0],
                 values.OVERLAY_FOLDED_ENTRIES - folds[1])
        assert changed == sum(len(d) for d in deltas)
        assert _image(state) == before      # the parent, byte for byte
        copies = values.COW_COPIES
        want = _merge_by_writes(want, deltas)
        assert got_copies == values.COW_COPIES - copies
        assert _image(merged) == _image(want)
        assert _image(state) == before
        flat = [type(merged.fields[f].entries) is dict
                for f in ("bal", "own", "nest")]
        # A map of maps folds first like any other map.
        assert flat == [n > limit] * 3
        if n > limit:
            assert folds[0] >= 2 and folds[1] >= 2 * size
        state = merged


# -- the epoch path reads columns ----------------------------------------------

def test_the_epoch_path_builds_no_delta_entry(monkeypatch, tmp_path):
    """Between dispatch and the returned block — lanes, deltas,
    validation, merge, a durable commit's change set — no
    ``DeltaEntry`` is built; the ``entries`` view builds them."""
    from repro.chain.network import Network
    from repro.obs.metrics import MetricsRegistry
    from repro.workloads.generators import FTTransfer, NFTTransfer
    net = Network(4, data_dir=str(tmp_path), metrics=MetricsRegistry())
    workloads = [cls(n_users=24, txns_per_epoch=40, seed=5)
                 for cls in (FTTransfer, NFTTransfer)]
    for workload in workloads:
        workload.setup(net)
    built = []
    new = DeltaEntry.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(DeltaEntry, "__new__", staticmethod(counting))
    for epoch in range(2):
        block = net.process_epoch([tx for workload in workloads
                                   for tx in workload.transactions(epoch)])
    net.close()
    deltas = [delta for mb in block.microblocks for delta in mb.deltas]
    kinds = {column.kind for delta in deltas for column in delta.columns}
    assert kinds == {INT, OWN} and built == []
    rows = [entry for delta in deltas for entry in delta.entries]
    assert len(built) == len(rows) == sum(map(len, deltas)) > 0


# -- a lane's fold-first privatisation ---------------------------------------
# A shard lane's fork carries, per map field, the one-key writes its
# queue's transitions make (``ContractState.fork(writes)``); the first
# write privatises with that count, as the merge's does.


def _lane_writes(state, rng, n):
    """``n`` one-key writes into ``bal`` (old and new keys, deletions,
    rewrites) and as many into the map of maps ``nest``."""
    old = [k.value for k in state.fields["bal"].entries]
    for i in range(n):
        k = rng.choice(old) if i % 3 else f"new{rng.randrange(10**6)}"
        yield ("bal", (StringVal(k),)), (
            MISSING if i % 7 == 0 else uint(rng.randrange(10**6)))
        yield ("nest", (StringVal(k),)), (
            MISSING if i % 5 == 0 else _map({"y": i}))


def test_a_hinted_lane_fork_writes_the_dict_the_overlay_path_builds():
    import random
    from repro.scilla import values
    from repro.scilla.state import owned_write
    size = 400
    limit = size // values.OVERLAY_FOLD_DIVISOR + values.OVERLAY_FOLD_SLACK
    names = [f"k{i}" for i in range(size)]
    state = ContractState("0xc", {
        "bal": _map({k: i for i, k in enumerate(names)}),
        "nest": _map({k: _map({"x": 1}) for k in names},
                     ty.MapType(ty.STRING, ty.UINT128)),
    }, {"bal": ty.MapType(ty.STRING, ty.UINT128), "nest": NESTED})
    before = _image(state)
    for n in (limit // 3, limit + 30):
        writes = list(_lane_writes(state, random.Random(n), n))
        forks = []
        for hint in ({"bal": n, "nest": n}, None):
            fork = state.fork(hint)
            copies = values.COW_COPIES
            log = WriteLog()
            for key, value in writes:
                owned_write(fork, log, key, value)
            assert values.COW_COPIES - copies == 2   # one per written map
            forks.append(fork)
        hinted, plain = forks
        assert _image(hinted) == _image(plain)      # entries and order
        assert _image(state) == before              # the epoch-start state
        assert type(plain.fields["bal"].entries) is not dict
        # Past the threshold the lane writes a plain dict, a map of maps
        # too.
        assert [type(hinted.fields[f].entries) is dict
                for f in ("bal", "nest")] == [n > limit] * 2
        # The count is spent on the first privatisation.
        assert hinted.fields["bal"]._writes == 0


def _ft_lane(hinted: bool):
    """An FT network over 100 holders and the largest shard lane of
    400 transfers, whose 2 writes per call pass ``balances``' fold
    threshold; unhinted, the contract's write table is empty."""
    from repro.chain import Network
    from repro.chain.dispatch import DS
    from repro.workloads.generators import FTTransfer
    workload = FTTransfer(n_users=100, txns_per_epoch=400)
    net = Network(4, state_backend="none")
    workload.setup(net)
    contract = net.contracts[workload.contract_addr]
    assert contract.writes_per_call["Transfer"] == {"balances": 2}
    if not hinted:
        contract.writes_per_call = {}
    lanes: dict = {}
    for tx in workload.transactions(0):
        lanes.setdefault(net.dispatcher.dispatch(tx).shard, []).append(tx)
    lanes.pop(DS, None)
    shard = max(lanes, key=lambda s: len(lanes[s]))
    return workload, net, contract, shard, lanes[shard]


def test_a_hinted_lane_runs_as_the_unhinted_one_and_shares_no_state():
    from repro.scilla import values
    images = []
    for hinted in (True, False):
        workload, net, contract, shard, queue = _ft_lane(hinted)
        balances = contract.state.fields["balances"]
        limit = (len(balances.entries) // values.OVERLAY_FOLD_DIVISOR
                 + values.OVERLAY_FOLD_SLACK)
        assert 2 * len(queue) > limit
        before = _image(contract.state)
        copies = values.COW_COPIES
        mb, local, touched, deferred = net._run_lane(shard, queue, 10**9)
        assert values.COW_COPIES - copies == 1
        assert all(r.success for r in mb.receipts) and not deferred
        assert _image(contract.state) == before
        entries = local[contract.address].fields["balances"].entries
        assert (type(entries) is dict) is hinted
        images.append((_image(local[contract.address]),
                       [(r.success, r.gas_used) for r in mb.receipts]))
    assert images[0] == images[1]


def test_a_lane_whose_hinted_calls_all_fail_privatises_nothing():
    from repro.chain.transaction import call
    from repro.scilla import values
    workload, net, contract, shard, queue = _ft_lane(True)
    # The same calls, each for more than any holder has: every one
    # fails before its first write.
    broke = [call(tx.sender, tx.to, "Transfer",
                  {**tx.args_dict(), "amount": uint(10**15)},
                  nonce=tx.nonce) for tx in queue]
    assert {net.dispatcher.dispatch(tx).shard for tx in broke} == {shard}
    before = _image(contract.state)
    copies = values.COW_COPIES
    mb, local, touched, _ = net._run_lane(shard, broke, 10**9)
    assert not any(r.success for r in mb.receipts) and not touched
    assert values.COW_COPIES == copies
    fork = local[contract.address].fields["balances"]
    assert fork._cow and fork.entries is contract.state.fields[
        "balances"].entries
    assert _image(contract.state) == before


# -- the commit folds an overlay into the base it alone holds ------------------
# At commit every map field's overlay folds *in place* into its dict
# base when nothing else holds that base (``MapVal.fold_pending``), so
# the next epoch starts from a flat map with nothing pending.  Anything
# else holding the base — a pre-epoch state, a fork, an outstanding
# checkpoint — keeps the overlay, and what it holds, as they are.

def _ft_net(txns: int = 40, **net_kwargs):
    """An FT network over 2 000 holders whose merges (2 writes per
    transfer) stay under ``balances``' fold threshold, so the merge
    writes through an overlay."""
    from repro.chain import Network
    from repro.scilla import values
    from repro.workloads.generators import FTTransfer
    workload = FTTransfer(n_users=2_000, txns_per_epoch=txns, seed=11)
    net_kwargs.setdefault("state_backend", "none")
    net = Network(4, **net_kwargs)
    workload.setup(net)
    contract = net.contracts[workload.contract_addr]
    limit = (len(contract.state.fields["balances"].entries)
             // values.OVERLAY_FOLD_DIVISOR + values.OVERLAY_FOLD_SLACK)
    assert 2 * txns < limit
    return workload, net, contract


def _pending(contract) -> int:
    from repro.scilla.values import OverlayDict
    entries = contract.state.fields["balances"].entries
    if type(entries) is dict:
        return 0
    assert type(entries) is OverlayDict
    return len(entries.over) + len(entries.dead)


def test_the_commit_leaves_each_map_flat_and_nothing_tells():
    """Epoch after epoch the merged ``balances`` overlay folds into its
    base at commit — rows written, not the map copied — and a network
    whose commit folds are all blocked (every pre-epoch state held)
    reads the same: entries, iteration order, fingerprint,
    privatisations."""
    from repro.chain.recovery import fingerprint_digest
    from repro.scilla import values
    (wl, net, contract), (ref_wl, ref, ref_contract) = _ft_net(), _ft_net()
    held = []
    for epoch in range(5):
        batch, ref_batch = wl.transactions(epoch), ref_wl.transactions(epoch)
        copies, folds = values.COW_COPIES, values.OVERLAY_FOLDED_ENTRIES
        assert net.process_epoch(batch).n_committed == len(batch)
        copies = values.COW_COPIES - copies
        folded = values.OVERLAY_FOLDED_ENTRIES - folds
        held.append(ref_contract.state)
        ref_copies = values.COW_COPIES
        ref_folds = values.OVERLAY_FOLDED_ENTRIES
        assert ref.process_epoch(ref_batch).n_committed == len(ref_batch)
        assert values.COW_COPIES - ref_copies == copies
        assert _pending(contract) == 0
        assert 0 < folded <= 2 * len(batch)         # rows, not 2 001
        # There the overlay stays pending until the merge's count
        # passes the threshold (epoch 4), and then the map is copied.
        assert (_pending(ref_contract) > 0
                or values.OVERLAY_FOLDED_ENTRIES - ref_folds > 2_000)
        assert _image(contract.state) == _image(ref_contract.state)
        assert fingerprint_digest(net) == fingerprint_digest(ref)


@pytest.mark.parametrize("holder", ["state", "fork"])
def test_anything_else_holding_the_base_blocks_the_commit_fold(holder):
    wl, net, contract = _ft_net()
    net.process_epoch(wl.transactions(0))
    assert _pending(contract) == 0
    before = _image(contract.state)
    held = {"state": lambda: contract.state,
            "fork": lambda: contract.state.fork()}[holder]()
    net.process_epoch(wl.transactions(1))
    assert _pending(contract) > 0
    assert _image(held) == before
    del held
    net.process_epoch(wl.transactions(2))
    assert _pending(contract) == 0


def test_an_untouched_contract_folds_in_place_at_commit():
    """A contract no transaction of the epoch touches is not
    reinstalled, so nothing the epoch holds pins its base: its pending
    overlay folds in place at commit, and its contents stay as they
    were."""
    from repro.chain.recovery import fingerprint_digest
    from repro.chain.transaction import payment
    from repro.scilla import values
    wl, net, contract = _ft_net()
    fork = contract.state.fork()        # the first commit cannot fold
    net.process_epoch(wl.transactions(0))
    pending = _pending(contract)
    assert pending > 0
    del fork
    before, digest = _image(contract.state), fingerprint_digest(net)
    payer, payee = wl.users[:2]
    funds = net.balance(payer)
    batch = [payment(payer, payee, 5, nonce=wl.next_nonce(payer))]
    folded = values.OVERLAY_FOLDED_ENTRIES
    assert net.process_epoch(batch).n_committed == 1
    assert _pending(contract) == 0
    assert values.OVERLAY_FOLDED_ENTRIES - folded == pending  # in place
    assert _image(contract.state) == before
    assert fingerprint_digest(net) == digest
    assert net.balance(payer) < funds


def test_a_durable_network_folds_at_commit(tmp_path):
    """A durable epoch pins its pre-epoch states for the commit
    digest's pre-images; they go once read, so its maps fold too."""
    wl, net, contract = _ft_net(data_dir=str(tmp_path))
    for epoch in range(3):
        net.process_epoch(wl.transactions(epoch))
        assert _pending(contract) == 0
    net.close()


def test_a_map_of_maps_folds_at_commit_and_a_paged_map_keeps_its_overlay():
    """The commit fold over a base nothing else holds: a map whose
    values are maps folds like a flat one (its children move into the
    base), and a paged map keeps its overlay (its fold is the commit's
    write-back)."""
    from repro.scilla.backend import MemoryBackend, adopt
    from repro.scilla.values import OverlayDict

    def sole(value_type, entries, key, value):
        shared = MapVal(ty.STRING, value_type, entries)
        mine = shared.copy()
        mine.put(StringVal(key), value)
        del shared                  # the overlay is its base's only holder
        return mine

    flat = sole(ty.UINT128, {StringVal("a"): uint(1)}, "b", uint(2))
    nested = sole(ty.MapType(ty.STRING, ty.UINT128),
                  {StringVal("a"): _map({"x": 1})}, "b", _map({"y": 2}))
    paged = MapVal(ty.STRING, ty.UINT128,
                   adopt(MemoryBackend(), {StringVal("a"): uint(1)}))
    paged.put(StringVal("b"), uint(2))
    for value, folds in ((flat, True), (nested, True), (paged, False)):
        before = _ordered(value)
        assert type(value.entries) is OverlayDict and value.entries.over
        assert value.fold_pending() is folds
        assert (type(value.entries) is dict) is folds
        assert _ordered(value) == before
