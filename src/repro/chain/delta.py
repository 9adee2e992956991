"""State deltas and the DS committee's three-way merge (Sec. 4.3).

Each shard accumulates, per contract, the changes its transactions
made relative to the epoch-start state.  For ``IntMerge`` fields the
delta is the *signed integer difference*; for ``OwnOverwrite`` fields
it is the final value (or a deletion marker).  The DS committee merges
all shard deltas into the epoch-start state; because ownership
constraints made the deltas logically disjoint, the merge is a total,
deterministic, commutative and associative operation — the partial
commutative monoid of Sec. 2.3.

A delta is held the way the committee merges it, a field at a time:
one :class:`FieldDelta` column per changed field, mapping key paths to
payloads (docs/STATE.md, "Deltas from write logs").
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

from ..core.joins import JoinKind, MergeConflict, MergeOverflow, int_delta
from ..scilla import types as ty
from ..scilla.state import (
    ContractState, MISSING, StateKey, WriteLog, _Missing, owned_entries,
)
from ..scilla.values import IntVal, MapVal, Value

_INT = JoinKind.INT_MERGE
_OWN = JoinKind.OWN_OVERWRITE


@dataclass(slots=True)
class FieldDelta:
    """One field's changes in a shard's delta: a column of rows from
    key path (``()`` for the whole field) to payload — the signed
    difference from the epoch-start value under ``IntMerge``, whose
    integer type ``typ`` is the field's; the new value (``MISSING``:
    deleted) under ``OwnOverwrite``."""

    field: str
    kind: JoinKind
    typ: ty.PrimType | None = None
    rows: dict = dc_field(default_factory=dict)


class DeltaEntry(NamedTuple):
    """One changed location, as :attr:`StateDelta.entries` yields it."""

    key: StateKey
    kind: JoinKind
    # OwnOverwrite payload: the new value (MISSING = deleted).
    new_value: Value | _Missing = MISSING
    # IntMerge payload: the signed difference and the integer type.
    int_diff: int = 0
    typ: ty.PrimType | None = None


@dataclass
class StateDelta:
    """All changes one shard made to one contract during an epoch."""

    contract: str
    shard: int
    columns: list[FieldDelta] = dc_field(default_factory=list)

    def __len__(self) -> int:
        return sum(len(column.rows) for column in self.columns)

    @property
    def entries(self) -> DeltaEntries:
        """The rows as :class:`DeltaEntry` tuples, field then key
        string order: for fault injection, tests and tools.  The epoch
        path reads the columns."""
        return DeltaEntries(self)

    @classmethod
    def from_entries(cls, contract: str, shard: int,
                     entries) -> StateDelta:
        """The delta holding ``entries``: a column per (field, kind),
        in order of first appearance — so a forged row that claims the
        other join kind lands in a column of its own."""
        delta = cls(contract, shard)
        columns: dict[tuple[str, JoinKind], FieldDelta] = {}
        for entry in entries:
            name, keys = entry.key
            column = columns.get((name, entry.kind))
            if column is None:
                column = columns[name, entry.kind] = FieldDelta(
                    name, entry.kind)
                delta.columns.append(column)
            if entry.kind is _INT:
                column.typ = column.typ or entry.typ
                column.rows[keys] = entry.int_diff
            else:
                column.rows[keys] = entry.new_value
        return delta


class DeltaEntries:
    """Read-only sized view of a delta's rows (:attr:`StateDelta.entries`)."""

    __slots__ = ("_delta",)

    def __init__(self, delta: StateDelta):
        self._delta = delta

    def __len__(self) -> int:
        return len(self._delta)

    def __iter__(self):
        rows = []
        for column in self._delta.columns:
            name, kind, typ = column.field, column.kind, column.typ
            for path, payload in column.rows.items():
                if kind is _INT:
                    rows.append(DeltaEntry((name, path), kind, MISSING,
                                           payload, typ))
                else:
                    rows.append(DeltaEntry((name, path), kind, payload))
        rows.sort(key=lambda entry: _location_sort(entry.key))
        return iter(rows)


def _location_sort(key: StateKey):
    """Field name, then the key path as strings: flat, which orders as
    the nested ``(name, (str, ...))`` does, and without a generator for
    the one-key paths that are nearly all of them."""
    name, keys = key
    if len(keys) == 1:
        return name, str(keys[0])
    return name, *[str(k) for k in keys]


def compute_delta(contract: str, shard: int, base: ContractState,
                  final: ContractState, logs: list[WriteLog],
                  joins: dict[str, JoinKind]) -> StateDelta:
    """The shard's delta against the epoch-start state, folded from
    the write logs of the lane's *successful* transactions, in order.

    Only written locations are inspected, so the cost is proportional
    to activity rather than state size — matching the paper's
    per-changed-field merge cost accounting.  A location's new value
    is its last logged write and its old value its earliest undo entry
    — MISSING if a proper prefix of it was logged (an intermediate map
    was absent; the location's own entry is then an in-lane value).
    Both are read back from ``base`` and ``final`` instead for a field
    written at two key depths (a write through a prefix changes what
    lies under it) and for a map-valued location (a logged ``MapVal``
    may be stale): docs/STATE.md, "Deltas from write logs".  Rows fill
    their field's column in the lane's write order.
    """
    first, last = {}, {}   # location -> earliest pre-image / last value
    for log in logs:
        last.update(log.writes)
    for log in reversed(logs):
        first.update(log.undo)
    shapes = [name for name, _ in {(name, len(keys)) for name, keys in last}]
    mixed = {name for name in shapes if shapes.count(name) > 1}
    columns: dict[str, FieldDelta] = {}
    for key, new in last.items():
        name, keys = key
        if name in mixed:
            old = new = None    # read back below
        elif len(keys) > 1 and any((name, keys[:i]) in first
                                   for i in range(1, len(keys))):
            old = MISSING
        else:
            old = first[key]
        if old is None or type(old) is MapVal or type(new) is MapVal:
            new = final.read(key)
            old = base.read(key)
        column = columns.get(name)
        if column is None:
            column = columns[name] = FieldDelta(name, joins.get(name, _OWN))
        if column.kind is _INT:
            if not isinstance(new, (IntVal, _Missing)) or \
                    not isinstance(old, (IntVal, _Missing)):
                raise MergeConflict(
                    f"IntMerge declared for non-integer location {key}",
                    contract=contract, key=key, shards=(shard,))
            diff = int_delta(old, new)
            if diff:
                column.rows[keys] = diff
                if column.typ is None:
                    column.typ = (new if type(new) is IntVal else old).typ
        elif not _values_same(old, new):
            column.rows[keys] = new
    return StateDelta(contract, shard,
                      [column for column in columns.values() if column.rows])


def merge_deltas(base: ContractState,
                 deltas: list[StateDelta]) -> tuple[ContractState, int]:
    """Three-way merge: epoch-start state ⊎ all shard deltas, a field
    at a time (fork, write, and the caller rebinds).

    Returns the merged state and the number of changed locations (the
    unit in which Sec. 5.2.2 reports merge cost).  Raises
    :class:`MergeConflict` if two shards overwrote the same location,
    or one overwrote a location another merged into — impossible under
    a valid signature, by construction — and :class:`MergeOverflow` if
    an IntMerge total leaves its type's bounds.
    """
    merged = base.fork()
    changed = 0
    fields: dict[str, list] = {}    # field -> [(shard, column), ...]
    for delta in deltas:
        shard = delta.shard
        for column in delta.columns:
            changed += len(column.rows)
            group = fields.get(column.field)
            if group is None:
                fields[column.field] = [(shard, column)]
            else:
                group.append((shard, column))
    contract = deltas[0].contract if deltas else base.address
    for group in fields.values():
        if len(group) > 1:
            _check_disjoint(contract, group)
    for name, group in fields.items():
        _merge_field(contract, base, merged, name, group)
    return merged, changed


def _check_disjoint(contract: str, group: list) -> None:
    """Raise the :class:`MergeConflict` of one field's columns, if any:
    a location overwritten by two shards, or overwritten and merged
    into.  Only set operations on the row keys unless one is found."""
    seen: set = set()
    clash = False
    for _, column in group:
        if column.kind is _OWN:
            clash = clash or not seen.isdisjoint(column.rows)
            seen.update(column.rows)
    if not seen:
        return
    for _, column in group:
        if column.kind is _INT and not seen.isdisjoint(column.rows):
            clash = True
    if not clash:
        return
    overwriters: dict[tuple, set] = {}
    mergers: dict[tuple, set] = {}
    for shard, column in group:
        into = overwriters if column.kind is _OWN else mergers
        for path in column.rows:
            into.setdefault(path, set()).add(shard)
    name = group[0][1].field
    conflicts = [(name, path) for path, shards in overwriters.items()
                 if len(shards) > 1 or path in mergers]
    if not conflicts:
        return      # one shard's rows in two columns: no other writer
    key = min(conflicts, key=_location_sort)
    path = key[1]
    shards = tuple(sorted(overwriters[path] | mergers.get(path, set())))
    if path in mergers:
        raise MergeConflict(
            f"shards {shards} both overwrote and merged into {key}",
            contract=contract, key=key, shards=shards)
    raise MergeConflict(f"shards {shards} all overwrote {key}",
                        contract=contract, key=key, shards=shards)


def _merge_field(contract: str, base: ContractState, merged: ContractState,
                 name: str, group: list) -> None:
    """Write one field's columns into ``merged``: overwrites (a
    whole-field value first), then the IntMerge totals.  One-key rows
    store into the field's privatised entries, resolved once for the
    field's whole row count (docs/STATE.md §1, the fold-first rule)."""
    writes = 0
    overwrites, merges = [], []
    for shard, column in group:
        writes += len(column.rows)
        if column.kind is _OWN:
            overwrites.append(column)
        else:
            merges.append((shard, column))
    entries = None
    resolved = False
    for column in overwrites:
        if () in column.rows:
            merged.write((name, ()), column.rows[()])
    for column in overwrites:
        for path, value in column.rows.items():
            if len(path) == 1:
                if not resolved:
                    entries = owned_entries(merged, name, writes)
                    resolved = True
                if entries is not None:
                    if value is MISSING:
                        entries.pop(path[0], None)
                    else:
                        entries[path[0]] = value
                    continue
            elif not path:
                continue        # written above
            merged.write((name, path), value)
    if not merges:
        return
    if len(merges) == 1:
        totals = merges[0][1].rows
    else:
        totals = dict(merges[0][1].rows)
        for _, column in merges[1:]:
            for path, diff in column.rows.items():
                totals[path] = totals.get(path, 0) + diff
    typ = merges[0][1].typ
    lo, hi = ty.int_bounds(typ)
    make = IntVal.checked
    base_get = None
    for path, diff in totals.items():
        if len(path) == 1:
            if not resolved:
                entries = owned_entries(merged, name, writes)
                resolved = True
            if entries is not None:
                if base_get is None:
                    base_get = base.fields[name].entries.get
                old = base_get(path[0])
                total = (0 if old is None else old.value) + diff
                if not lo <= total <= hi:
                    _overflow(contract, name, path, total, typ, merges)
                entries[path[0]] = make(total, typ)
                continue
        old = base.read((name, path))
        total = (old.value if type(old) is IntVal else 0) + diff
        if not lo <= total <= hi:
            _overflow(contract, name, path, total, typ, merges)
        merged.write((name, path), make(total, typ))


def _overflow(contract: str, name: str, path: tuple, total: int, typ,
              merges: list) -> None:
    """Raise the :class:`MergeOverflow` of one location, naming every
    shard that contributed to it."""
    key = (name, path)
    raise MergeOverflow(
        f"IntMerge total {total} at {key} is out of bounds for {typ}",
        contract=contract, key=key,
        shards=tuple(shard for shard, column in merges
                     if path in column.rows))


def _values_same(a: Value | _Missing, b: Value | _Missing) -> bool:
    if isinstance(a, _Missing) or isinstance(b, _Missing):
        return isinstance(a, _Missing) and isinstance(b, _Missing)
    if isinstance(a, MapVal) and isinstance(b, MapVal):
        return a.entries == b.entries
    return a == b
