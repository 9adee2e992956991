"""Mutable contract state, write tracking, and the state journal.

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

:class:`StateJournal` generalises the per-transition undo log to the
network level: every write to a journal-attached state — and, while a
mark is outstanding, every account and nonce move the network reports —
appends an undo entry, and a
:class:`~repro.chain.recovery.NetworkCheckpoint` becomes a mark into
that log — ``take`` is O(1), ``restore`` replays the undo entries above
the mark in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import ExecError
from .types import MapType, ScillaType
from .values import MapVal, OverlayDict, Value


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
    and the native balance are per-fork.  When ``journal`` is attached
    (the network does this for every globally-visible state), each
    write records its undo entry there before mutating.
    """

    __slots__ = ("address", "fields", "field_types", "immutables",
                 "_balance", "journal")

    def __init__(self, address: str, fields: dict[str, Value],
                 field_types: dict[str, ScillaType],
                 immutables: dict[str, Value] | None = None,
                 balance: int = 0):
        self.address = address
        self.fields = fields
        self.field_types = field_types
        self.immutables = immutables if immutables is not None else {}
        self._balance = balance
        self.journal: "StateJournal | None" = None

    def __repr__(self) -> str:
        return (f"ContractState(address={self.address!r}, "
                f"fields={sorted(self.fields)}, balance={self._balance})")

    # A pickled state never carries its journal: the copy is private
    # and unjournaled.
    def __getstate__(self):
        return (self.address, self.fields, self.field_types,
                self.immutables, self._balance)

    def __setstate__(self, state) -> None:
        (self.address, self.fields, self.field_types,
         self.immutables, self._balance) = state
        self.journal = None

    # -- native balance (journal-hooked) ------------------------------------

    @property
    def balance(self) -> int:
        return self._balance

    @balance.setter
    def balance(self, value: int) -> None:
        j = self.journal
        if j is not None:
            j.record_balance(self, self._balance)
        self._balance = value

    # -- copying ------------------------------------------------------------

    def fork(self, writes: dict[str, int] | None = None
             ) -> "ContractState":
        """Structural-sharing copy — the single copy policy for
        checkpoints, lane payloads, and the serial lane path.

        O(number of fields): each map field becomes a CoW wrapper over
        the shared entries, and the first write through one costs an
        overlay, not a copy.  The fork is unjournaled; behaviour is
        indistinguishable from a deep copy as long as every mutation
        flows through the owned write paths (which it does — see
        tests/test_state_journal.py for the aliasing property tests).
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
                             self.immutables, self._balance)

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
        privatised, and each child is taken as one its overlay owns (a
        plain dict owns its children outright), so the mutation can
        never leak into a structurally-shared fork.
        """
        current = self.get_field(name)
        typ = self.field_types.get(name)
        for key in keys[:-1]:
            if not isinstance(current, MapVal):
                raise ExecError(f"field {name!r} is not a nested map")
            if own:
                current._own()
            entries = current.entries
            child = entries.get(key, MISSING)
            if child is MISSING:
                if not create:
                    return None
                if not isinstance(typ, MapType) or not isinstance(typ.value, MapType):
                    raise ExecError(f"cannot create nested map in {name!r}")
                child = entries[key] = MapVal(typ.value.key, typ.value.value)
            if own and entries.__class__ is OverlayDict:
                child = entries.own_child(key)
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
        self._journal_write((name, keys))
        leaf = self._descend(name, keys, create=True, own=True)
        assert leaf is not None
        leaf.entries[keys[-1]] = value

    def map_delete(self, name: str, keys: tuple[Value, ...]) -> None:
        self._journal_write((name, keys))
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
        """Write any state location; MISSING deletes a map entry."""
        name, keys = key
        if not keys:
            if isinstance(value, _Missing):
                raise ExecError("cannot delete a whole field")
            self._journal_write(key)
            self.fields[name] = value
            return
        if isinstance(value, _Missing):
            self.map_delete(name, keys)
        else:
            self.map_put(name, keys, value)

    def _journal_write(self, key: StateKey) -> None:
        j = self.journal
        if j is not None:
            j.record_write(self, key)


def _capture_undo(state: ContractState, key: StateKey
                  ) -> tuple[StateKey, Value | _Missing]:
    """The (location, old value) pair that undoes an imminent write.

    If a prefix of the key path is absent, the undo action is to
    delete that prefix (the write will create intermediate maps that
    must disappear on rollback).  Old values are captured *by
    reference*: a replaced value drops out of the live tree at the
    write, and everything still in the tree is only ever mutated
    through the owned (CoW-safe) write paths — so the reference stays
    valid without a deep copy.  A captured map is flagged shared: it
    may sit in a frozen overlay base, so whoever gets it back on
    rollback must fork it before writing through it.
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
    if isinstance(current, MapVal):
        current._cow = True
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


@dataclass(slots=True)
class WriteLog:
    """Undo + redo information for a single transition execution."""

    undo: dict[StateKey, Value | _Missing] = dc_field(default_factory=dict)
    writes: dict[StateKey, Value | _Missing] = dc_field(default_factory=dict)

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
# on.  Everything the two calls do happens, in their order: the pre-image
# is captured (a captured map flagged shared), ``log.undo`` keeps the
# first one, ``log.writes`` the last value, the journal is told the same
# ``("write", state, undo_key, old)``, the map is privatised through
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
    if old.__class__ is MapVal:
        old._cow = True
    log.undo.setdefault(key, old)
    log.writes[key] = value
    j = state.journal
    if j is not None:
        j.record_undo(state, key, old)
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
            old = state.fields.get(name, MISSING)
            if old.__class__ is MapVal:
                old._cow = True
            log.undo.setdefault(key, old)
            log.writes[key] = value
            j = state.journal
            if j is not None:
                j.record_undo(state, key, old)
            state.fields[name] = value
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


class JournalError(Exception):
    """Rollback to a mark the journal no longer covers."""


class StateJournal:
    """A network-wide undo log over journal-attached contract states.

    Entries carry everything needed to reverse one mutation:

    * ``("write", state, undo_key, old)`` — a field/map write,
      captured with the same prefix-deletion logic as ``WriteLog``;
    * ``("balance", state, old)`` — a native-balance change;
    * ``("rebind", holder, old_state)`` — a ``DeployedContract`` whose
      ``state`` attribute was swapped (the FSD merge does this);
    * ``("row", table, key, old)`` — ``table[key]``, an immutable row
      (a user account or a sender's nonce record), about to be
      replaced, or (``old`` None) created;
    * ``("gaps", gaps, added, removed)`` — the gap set of a nonce
      record, the one part of a row mutated in place, and what it has
      gained (nonces) and lost (ranges) since; the lists grow in place.

    The last two are the network's bookkeeping outside contract state.
    They are recorded only while a mark is outstanding (between
    checkpoints nothing could ever replay them), and a row once per
    (table, key) since the newest mark: the first pre-image after a
    mark is the one a rollback to it must reinstate, so an admin
    sending a whole epoch costs one entry, not one per transaction.  A
    gap set's changes are recorded only if such a pre-image holds it: a
    set made since goes when the row's pre-image comes back.

    Positions are *absolute* sequence numbers, so entries can be
    truncated from the front without invalidating marks: a mark is
    released when its checkpoint commits, and the log drops everything
    below the oldest outstanding mark (everything, when none are
    outstanding).  The log is self-consistent under re-entrant undo —
    a transition rollback on a journal-attached state appends fresh
    entries that reverse correctly when the journal itself unwinds.
    """

    def __init__(self) -> None:
        self._entries: list[tuple] = []
        self._base = 0          # absolute sequence of _entries[0]
        self._marks: list[int] = []   # outstanding marks (absolute)
        self._suspended = False
        # The keys whose row was journaled since the newest mark, per
        # table (by id), and the change lists of the gap sets those
        # pre-images hold (by the set's id).
        self._seen: dict[int, set] = {}
        self._held: dict[int, tuple[list, list]] = {}

    @property
    def depth(self) -> int:
        """Entries currently retained (outstanding-mark backlog)."""
        return len(self._entries)

    @property
    def seq(self) -> int:
        """The absolute sequence number of the next entry."""
        return self._base + len(self._entries)

    @property
    def entries(self) -> tuple:
        """Read-only view of the retained undo entries, oldest first.

        The footprint soundness oracle checks every entry against
        the static analysis (tests/test_analysis_soundness.py).
        """
        return tuple(self._entries)

    # -- recording ----------------------------------------------------------

    def record_write(self, state: ContractState, key: StateKey) -> None:
        if not self._suspended:
            self.record_undo(state, *_capture_undo(state, key))

    def record_undo(self, state: ContractState, undo_key: StateKey,
                    old: Value | _Missing) -> None:
        """A write whose ``_capture_undo`` pair the caller holds already
        (the owned write)."""
        if not self._suspended:
            self._entries.append(("write", state, undo_key, old))

    def record_balance(self, state: ContractState, old: int) -> None:
        if self._suspended:
            return
        self._entries.append(("balance", state, old))

    def record_rebind(self, holder, old_state: ContractState) -> None:
        """``holder.state`` is about to be replaced (e.g. delta merge)."""
        if self._suspended:
            return
        self._entries.append(("rebind", holder, old_state))

    def record_row(self, table: dict, key, old) -> None:
        """``table[key]`` — now the row ``old``, None when absent — is
        about to be replaced or created."""
        if self._suspended or not self._marks:
            return
        seen = self._seen.get(id(table))
        if seen is None:
            seen = self._seen[id(table)] = set()
        elif key in seen:
            return
        seen.add(key)
        self._entries.append(("row", table, key, old))
        if old is not None and old[-1].__class__ is set:
            log = self._held[id(old[-1])] = ([], [])
            self._entries.append(("gaps", old[-1], *log))

    def record_gaps(self, gaps: set, change: int | range) -> None:
        """The gap set ``gaps`` (a row's last item) just gained the
        nonce ``change``, or lost the ``range`` of nonces ``change``."""
        log = self._held.get(id(gaps))
        if log is not None:
            log[change.__class__ is range].append(change)

    # -- marks (checkpoint protocol) ----------------------------------------

    def mark(self) -> int:
        """Open a rollback point; pair with :meth:`release`."""
        m = self.seq
        self._marks.append(m)
        self._seen.clear()
        self._held.clear()
        return m

    def release(self, mark: int) -> None:
        """Commit past a mark; entries below the oldest outstanding
        mark are dropped.  Releasing an unknown mark is a no-op (a
        checkpoint may be released at most once but restored many
        times)."""
        try:
            self._marks.remove(mark)
        except ValueError:
            return
        self._truncate()

    def _truncate(self) -> None:
        floor = min(self._marks) if self._marks else self.seq
        if floor > self._base:
            del self._entries[: floor - self._base]
            self._base = floor
        if not self._marks:
            self._seen.clear()
            self._held.clear()

    def rollback_to(self, mark: int) -> None:
        """Undo every entry above ``mark``, newest first.

        Idempotent and repeatable: after one rollback the log head sits
        at the mark, so rolling back again is a no-op — the contract
        ``NetworkCheckpoint.restore`` relies on for repeated view
        changes.  Recording is suspended while unwinding (the undo
        writes themselves must not re-journal).
        """
        if mark < self._base:
            raise JournalError(
                f"mark {mark} was truncated (journal base {self._base}); "
                f"the checkpoint was already released")
        self._suspended = True
        self._seen.clear()
        self._held.clear()
        try:
            while self.seq > mark:
                entry = self._entries.pop()
                kind = entry[0]
                if kind == "write":
                    _, state, key, old = entry
                    _apply_undo(state, key, old)
                elif kind == "balance":
                    _, state, old = entry
                    state._balance = old
                elif kind == "rebind":
                    _, holder, old_state = entry
                    holder.state = old_state
                elif kind == "row":
                    _, table, key, old = entry
                    if old is None:
                        table.pop(key, None)
                    else:
                        table[key] = old
                else:  # "gaps": what it lost comes back, what it
                    _, gaps, added, removed = entry     # gained goes
                    for nonces in removed:
                        gaps.update(nonces)
                    gaps.difference_update(added)
        finally:
            self._suspended = False
