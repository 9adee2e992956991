"""State deltas and the DS committee's three-way merge (Sec. 4.3).

Each shard accumulates, per contract, the changes its transactions
made relative to the epoch-start state.  For ``IntMerge`` fields the
delta is the *signed integer difference*; for ``OwnOverwrite`` fields
it is the final value (or a deletion marker).  The DS committee merges
all shard deltas into the epoch-start state; because ownership
constraints made the deltas logically disjoint, the merge is a total,
deterministic, commutative and associative operation — the partial
commutative monoid of Sec. 2.3.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import takewhile
from typing import NamedTuple

from ..core.joins import (
    JoinKind, MergeConflict, apply_int_delta, int_delta,
)
from ..scilla.state import (
    ContractState, MISSING, StateKey, WriteLog, _Missing, owned_entries,
)
from ..scilla.values import IntVal, MapVal, Value


class DeltaEntry(NamedTuple):
    """One changed state location in a shard's delta."""

    key: StateKey
    kind: JoinKind
    # OwnOverwrite payload: the new value (MISSING = deleted).
    new_value: Value | _Missing = MISSING
    # IntMerge payload: the signed difference from the epoch-start value,
    # plus a template value carrying the integer type.
    int_diff: int = 0
    template: Value | None = None


@dataclass
class StateDelta:
    """All changes one shard made to one contract during an epoch."""

    contract: str
    shard: int
    entries: list[DeltaEntry] = dc_field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


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
    may be stale): docs/STATE.md, "Deltas from write logs".
    """
    first, last = {}, {}   # location -> earliest pre-image / last value
    for log in logs:
        last.update(log.writes)
    for log in reversed(logs):
        first.update(log.undo)
    shapes = [name for name, _ in {(name, len(keys)) for name, keys in last}]
    mixed = {name for name in shapes if shapes.count(name) > 1}
    delta = StateDelta(contract, shard)
    for key, new in sorted(last.items(), key=_item_sort):
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
        kind = joins.get(name, JoinKind.OWN_OVERWRITE)
        if kind is JoinKind.INT_MERGE:
            if not isinstance(new, (IntVal, _Missing)) or \
                    not isinstance(old, (IntVal, _Missing)):
                raise MergeConflict(
                    f"IntMerge declared for non-integer location {key}",
                    contract=contract, key=key, shards=(shard,))
            diff = int_delta(old, new)
            if diff == 0:
                continue
            template = new if isinstance(new, IntVal) else old
            assert isinstance(template, IntVal)
            delta.entries.append(
                DeltaEntry(key, kind, MISSING, diff, template))
        else:
            if _values_same(old, new):
                continue
            delta.entries.append(DeltaEntry(key, kind, new))
    return delta


def merge_deltas(base: ContractState,
                 deltas: list[StateDelta]) -> tuple[ContractState, int]:
    """Three-way merge: epoch-start state ⊎ all shard deltas.

    Returns the merged state and the number of changed locations (the
    unit in which Sec. 5.2.2 reports merge cost).  Raises
    :class:`MergeConflict` if two shards overwrote the same location —
    impossible under a valid signature, by construction.
    """
    merged = base.fork()
    overwritten: dict[StateKey, int] = {}
    int_accum: dict[StateKey, list] = {}   # key -> [summed diff, template]
    fresh: list = [0, None]
    changed = 0
    # Map field -> (its entries in ``base``, its privatised entries in
    # ``merged``), resolved on the field's first one-key location
    # instead of two walks per entry; None for a field that is no map.
    leaves: dict[str, tuple | None] = {}
    # Entries per field: the merge knows a field's write count before
    # its first write, so a fold that is due happens first.
    writes = Counter(entry.key[0] for delta in deltas
                     for entry in delta.entries)

    def leaf(key: StateKey) -> tuple | None:
        name, keys = key
        if len(keys) != 1:
            return None
        if name not in leaves:
            owned = owned_entries(merged, name, writes[name])
            leaves[name] = None if owned is None else (
                base.fields[name].entries, owned)
        return leaves[name]

    for delta in deltas:
        shard = delta.shard
        changed += len(delta.entries)
        for entry in delta.entries:
            key = entry.key
            if entry.kind is JoinKind.INT_MERGE:
                assert entry.template is not None
                slot = int_accum.setdefault(key, fresh)
                if slot is fresh:
                    # First sighting — the only one an overwrite can
                    # precede: one that follows raises below.
                    fresh = [0, None]
                    if overwritten and key in overwritten:
                        raise MergeConflict(
                            f"shard {shard} merges into {key} "
                            f"overwritten by shard {overwritten[key]}",
                            contract=delta.contract, key=key,
                            shards=(overwritten[key], shard))
                slot[0] += entry.int_diff
                slot[1] = entry.template
            else:
                prev = overwritten.get(key)
                if prev is not None and prev != shard:
                    raise MergeConflict(
                        f"shards {prev} and {shard} both overwrote {key}",
                        contract=delta.contract, key=key,
                        shards=(prev, shard))
                if key in int_accum:
                    raise MergeConflict(
                        f"shard {shard} overwrites {key} "
                        f"also merged into by another shard",
                        contract=delta.contract, key=key,
                        shards=(*_shards_merging(deltas, key, entry),
                                shard))
                overwritten[key] = shard
                pair = leaf(key)
                if pair is None:
                    merged.write(key, entry.new_value)
                elif entry.new_value is MISSING:
                    pair[1].pop(key[1][0], None)
                else:
                    pair[1][key[1][0]] = entry.new_value
    for key, (diff, template) in int_accum.items():
        pair = leaf(key)
        if pair is None:
            merged.write(key, apply_int_delta(base.read(key), diff, template))
        else:
            k = key[1][0]
            pair[1][k] = apply_int_delta(pair[0].get(k, MISSING), diff,
                                         template)
    return merged, changed


def _shards_merging(deltas: list[StateDelta], key: StateKey,
                    until: DeltaEntry) -> list[int]:
    """Shards with an IntMerge entry for ``key`` ahead of ``until``."""
    ahead = takewhile(lambda pair: pair[1] is not until,
                      ((d.shard, e) for d in deltas for e in d.entries))
    return [shard for shard, entry in ahead
            if entry.kind is JoinKind.INT_MERGE and entry.key == key]


def _item_sort(item):
    """Field name, then the key path as strings: flat, which orders as
    the nested ``(name, (str, ...))`` does, and without a generator for
    the one-key paths that are nearly all of them."""
    name, keys = item[0]
    if len(keys) == 1:
        return name, str(keys[0])
    return name, *[str(k) for k in keys]


def _values_same(a: Value | _Missing, b: Value | _Missing) -> bool:
    if isinstance(a, _Missing) or isinstance(b, _Missing):
        return isinstance(a, _Missing) and isinstance(b, _Missing)
    if isinstance(a, MapVal) and isinstance(b, MapVal):
        return a.entries == b.entries
    return a == b
