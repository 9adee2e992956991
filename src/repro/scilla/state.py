"""Mutable contract state and write tracking.

The contract state maps field names to runtime values.  Map-typed
fields hold :class:`~repro.scilla.values.MapVal`, possibly nested.
The interpreter mutates state in place but records an *undo log* so a
failed transition can roll back, and a *write set* so the chain
substrate can compute per-shard state deltas without diffing whole
maps.

Copies are structural (copy-on-write): :meth:`ContractState.fork` is
O(number of fields), sharing every map's entries with the source.  All
mutation flows through the owned write paths below (``write`` /
``map_put`` / ``map_delete``), which lay a private overlay over the
shared entries along the written path only — so a fork of a
million-entry token map costs a wrapper per field, and a write through
it a few overlay entries, never a copy of the map (docs/STATE.md).

A network never writes a state it has published: every lane, the DS
lane included, writes forks, and the epoch's commit installs each
contract's next state with one rebind (docs/STATE.md §2).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ExecError
from .types import MapType, ScillaType
from .values import MapVal, Value


# Sentinel for "entry was absent" in undo logs and write sets.  A true
# singleton: equality holds for any two instances and unpickling
# resolves to the canonical MISSING, so sentinels survive a pickle
# round trip.
class _Missing:
    def __repr__(self) -> str:
        return "MISSING"

    def __eq__(self, other) -> bool:
        return isinstance(other, _Missing)

    def __hash__(self) -> int:
        return hash(_Missing)

    def __reduce__(self):
        return (_missing_singleton, ())


MISSING = _Missing()


def _missing_singleton() -> "_Missing":
    return MISSING


# A state location: a field name plus a (possibly empty) key path into
# nested maps.  Keys are runtime values (hashable primitives).
StateKey = tuple[str, tuple[Value, ...]]


class ContractState:
    """The mutable replicated state of one deployed contract.

    ``field_types`` and ``immutables`` are fixed at deploy time and
    shared (by reference) between a state and its forks; ``fields``
    and the native ``balance`` are per-fork.
    """

    __slots__ = ("address", "fields", "field_types", "immutables",
                 "balance")

    def __init__(self, address: str, fields: dict[str, Value],
                 field_types: dict[str, ScillaType],
                 immutables: dict[str, Value] | None = None,
                 balance: int = 0):
        self.address = address
        self.fields = fields
        self.field_types = field_types
        self.immutables = immutables if immutables is not None else {}
        self.balance = balance

    def __repr__(self) -> str:
        return (f"ContractState(address={self.address!r}, "
                f"fields={sorted(self.fields)}, balance={self.balance})")

    # -- copying ------------------------------------------------------------

    def fork(self, writes: dict[str, int] | None = None
             ) -> "ContractState":
        """Structural-sharing copy — the single copy policy for lane
        payloads and the serial lane path.

        O(number of fields): each map field becomes a CoW wrapper over
        the shared entries, and the first write through one costs an
        overlay, not a copy.  Behaviour is indistinguishable from a
        deep copy as long as every mutation flows through the owned
        write paths (which it does — see tests/test_state_forks.py
        for the aliasing property tests).
        A fork of paged state does not outlive a write-back: it raises
        ``StaleRowsError`` instead (docs/STATE.md §4).

        ``writes`` (a lane's) names map fields and how many one-key
        writes are expected through each: the field's first write
        privatises it with that count (``MapVal._own``), as the merge's
        does (docs/STATE.md §1, the fold-first rule).
        """
        fields = {k: (v.copy() if isinstance(v, MapVal) else v)
                  for k, v in self.fields.items()}
        if writes:
            for name, n in writes.items():
                m = fields.get(name)
                if m.__class__ is MapVal:
                    m._writes = n
        return ContractState(self.address, fields, self.field_types,
                             self.immutables, self.balance)

    # -- raw accessors ------------------------------------------------------

    def get_field(self, name: str) -> Value:
        if name not in self.fields:
            raise ExecError(f"unknown field {name!r}")
        return self.fields[name]

    def _descend(self, name: str, keys: tuple[Value, ...], create: bool,
                 own: bool = False):
        """Walk nested maps along ``keys[:-1]``, returning the leaf map.

        With ``create=True`` missing intermediate maps are created, as
        Scilla's in-place map update semantics prescribes.  With
        ``own=True`` (write paths) every map along the walk is first
        privatised and each child taken through ``MapVal.own_child``,
        so the mutation can never leak into a structurally-shared fork.
        """
        current = self.get_field(name)
        typ = self.field_types.get(name)
        for key in keys[:-1]:
            if not isinstance(current, MapVal):
                raise ExecError(f"field {name!r} is not a nested map")
            if own:
                current._own()
                child = current.own_child(key)
            else:
                child = current.entries.get(key)
            if child is None:
                if not create:
                    return None
                if not isinstance(typ, MapType) or not isinstance(typ.value, MapType):
                    raise ExecError(f"cannot create nested map in {name!r}")
                child = current.adopt(key, MapVal(typ.value.key,
                                                  typ.value.value))
            current = child
            typ = typ.value if isinstance(typ, MapType) else None
        if not isinstance(current, MapVal):
            raise ExecError(f"field {name!r} is not a map")
        if own:
            current._own()
        return current

    def map_get(self, name: str, keys: tuple[Value, ...]) -> Value | _Missing:
        leaf = self._descend(name, keys, create=False)
        if leaf is None:
            return MISSING
        return leaf.entries.get(keys[-1], MISSING)

    def map_put(self, name: str, keys: tuple[Value, ...], value: Value) -> None:
        leaf = self._descend(name, keys, create=True, own=True)
        assert leaf is not None
        leaf.entries[keys[-1]] = value

    def map_delete(self, name: str, keys: tuple[Value, ...]) -> None:
        leaf = self._descend(name, keys, create=False, own=True)
        if leaf is not None:
            leaf.entries.pop(keys[-1], None)

    def read(self, key: StateKey) -> Value | _Missing:
        """Read any state location (whole field or map entry)."""
        name, keys = key
        if not keys:
            return self.fields.get(name, MISSING)
        return self.map_get(name, keys)

    def write(self, key: StateKey, value: Value | _Missing) -> None:
        """Write any state location; MISSING deletes a map entry.  A
        whole field takes a copy of a map: the writer (a transition's
        local, a delta's row) keeps its own."""
        name, keys = key
        if not keys:
            if isinstance(value, _Missing):
                raise ExecError("cannot delete a whole field")
            self.fields[name] = (value.copy() if value.__class__ is MapVal
                                 else value)
            return
        if isinstance(value, _Missing):
            self.map_delete(name, keys)
        else:
            self.map_put(name, keys, value)


def _capture_undo(state: ContractState, key: StateKey
                  ) -> tuple[StateKey, Value | _Missing]:
    """The (location, old value) pair that undoes an imminent write.

    If a prefix of the key path is absent, the undo action is to
    delete that prefix (the write will create intermediate maps that
    must disappear on rollback).  Old values are captured *by
    reference*: a replaced value drops out of the live tree at the
    write, and everything still in the tree is only ever mutated
    through the owned (CoW-safe) write paths — so the reference stays
    valid without a deep copy.  A captured map put back on rollback is
    still held by whatever else held it: ``MapVal.own_child`` sees it.
    """
    name, keys = key
    current: Value | _Missing = state.fields.get(name, MISSING)
    for i, k in enumerate(keys):
        if isinstance(current, MapVal):
            current = current.entries.get(k, MISSING)
        else:
            current = MISSING
        if current is MISSING:
            return (name, keys[: i + 1]), MISSING
    return key, current


def _apply_undo(state: ContractState, key: StateKey,
                old: Value | _Missing) -> None:
    name, keys = key
    if not keys:
        if isinstance(old, _Missing):
            state.fields.pop(name, None)
        else:
            state.fields[name] = old
    elif isinstance(old, _Missing):
        state.map_delete(name, keys)
    else:
        state.map_put(name, keys, old)


class WriteLog(namedtuple("WriteLog", "undo writes")):
    """Undo + redo information for a single transition execution: the
    pre-image of each written key (``undo``) and its last value
    (``writes``).  A tuple of two dicts, so a run builds it with one
    ``tuple.__new__``."""

    __slots__ = ()

    def __new__(cls, undo: dict[StateKey, Value | _Missing] | None = None,
                writes: dict[StateKey, Value | _Missing] | None = None):
        return tuple.__new__(cls, ({} if undo is None else undo,
                                   {} if writes is None else writes))

    def record(self, state: ContractState, key: StateKey,
               new_value: Value | _Missing) -> None:
        undo_key, undo_val = _capture_undo(state, key)
        self.undo.setdefault(undo_key, undo_val)   # the first one stays
        self.writes[key] = new_value

    def rollback(self, state: ContractState) -> None:
        # Apply in reverse insertion order so that prefix deletions (which
        # were necessarily recorded before deeper writes under them) run
        # after any value restorations beneath them.
        for key, old in reversed(list(self.undo.items())):
            _apply_undo(state, key, old)
        self.undo.clear()
        self.writes.clear()


# --------------------------------------------------------------------------
# The owned write: ``log.record(state, key, value)`` followed by
# ``state.write(key, value)`` — its two-walk specification — in one walk
# for the shapes compiled transitions and the FSD merge spend their time
# on (a compiled one-key store emits ``owned_put``'s steps inline, in
# the same order).  Everything the two calls do happens, in their order:
# the pre-image is captured, ``log.undo`` keeps the first one,
# ``log.writes`` the last value, the map is privatised through
# ``MapVal._own`` (never inlined: the benchmark shims that method) and
# the store goes through the container's own ``__setitem__`` / ``pop``.
# --------------------------------------------------------------------------

def owned_put(state: ContractState, log: WriteLog, m: MapVal,
              key: StateKey, value: Value | _Missing) -> None:
    """The owned write of a one-key ``key`` (MISSING deletes), given
    ``m``: the field it names, which the caller has checked is a
    ``MapVal``.  A single key has no prefix to create or delete."""
    k = key[1][0]
    old = m.entries.get(k, MISSING)
    log.undo.setdefault(key, old)
    log.writes[key] = value
    if m._cow:
        m._own()
    if value is MISSING:
        m.entries.pop(k, None)
    else:
        m.entries[k] = value


def owned_write(state: ContractState, log: WriteLog, key: StateKey,
                value: Value | _Missing) -> None:
    """The owned write of any location: whole fields and one-key map
    entries in one walk, anything else (deeper paths, a field that is
    not a map, deleting a whole field) through the specification, which
    also raises its errors."""
    name, keys = key
    if not keys:
        if value is not MISSING:
            log.undo.setdefault(key, state.fields.get(name, MISSING))
            log.writes[key] = value
            state.fields[name] = (value.copy() if value.__class__ is MapVal
                                  else value)
            return
    elif len(keys) == 1:
        m = state.fields.get(name)
        if m.__class__ is MapVal:
            return owned_put(state, log, m, key, value)
    log.record(state, key, value)
    state.write(key, value)


def owned_entries(state: ContractState, name: str, writes: int = 0):
    """The container one-key writes into map field ``name`` store into,
    privatised — resolved once for a run of ``writes`` of them (the FSD
    merge); None when the field is not a map."""
    m = state.fields.get(name)
    if m.__class__ is not MapVal:
        return None
    if m._cow:
        m._own(writes)
    return m.entries
