"""Safety nets for the sharded network: checkpoints, delta validation
and recovery bookkeeping.

:mod:`repro.chain.faults` breaks the network; this module is how the
network survives.  Three mechanisms, mirrored on real deployments:

* **Per-epoch checkpoints** (:class:`NetworkCheckpoint`) — a *mark*
  into the network's :class:`~repro.scilla.state.StateJournal` plus
  a copy of the telemetry, which bypasses it, taken before the shard
  phase.  ``take`` is O(1) in contract state, accounts and senders:
  all three are covered by the journal, which records an undo entry
  per mutation.  A FinalBlock is the only commit
  point: if the DS committee has to exclude a lane mid-epoch (view
  change), the whole epoch attempt is rolled back to the checkpoint —
  replaying the undo journal down to the mark — and retried without
  the faulty lane.

* **Delta footprint validation** (:func:`validate_delta`) — the DS
  committee checks every received StateDelta against the deployed
  sharding signature before merging it.  An ``OwnOverwrite`` entry
  must live in a component the producing shard actually owns (the
  same ``component_shard`` hash the lookup nodes route by), its join
  kind must match the signature, and its field must exist.  A delta
  violating any of these is byzantine: it is rejected with a
  structured :class:`DeltaViolation`, never merged.  ``IntMerge``
  entries commute, so any shard may legitimately contribute to them.

* **State fingerprints** (:func:`state_fingerprint`) — a canonical,
  order-independent hash of a contract state, used by the ``chaos``
  consistency verdict to compare a faulty run against the fault-free
  run.

* **The change ledger** (:class:`ChangeLedger`) — what a durable
  network keeps so that a commit costs what the epoch touched: a
  set-homomorphic accumulator per contract (the WAL commit record's
  digest, updated from the epoch's change set; :func:`state_accumulator`
  is its from-scratch specification) and the union of the change sets
  since the last restore point (what the next delta restore point
  writes).  docs/FAULTS.md, "Crash recovery & durability".
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

from ..core.domain import PseudoField
from ..core.joins import JoinKind
from ..scilla.state import MISSING, ContractState, StateKey
from ..scilla.values import ByStrVal, IntVal, MapVal, Value
from .delta import StateDelta
from .dispatch import DS, key_token


# --------------------------------------------------------------------------
# Delta validation against the deployed signature's write footprint.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaViolation:
    """Why the DS committee rejected a shard's StateDelta."""

    contract: str
    shard: int
    key: StateKey | None
    reason: str

    def __str__(self) -> str:
        where = ""
        if self.key is not None:
            name, keys = self.key
            where = name + "".join(f"[{k}]" for k in keys) + ": "
        return (f"delta from shard {self.shard} for {self.contract} "
                f"rejected ({where}{self.reason})")


def validate_delta(delta: StateDelta, contract, dispatcher
                   ) -> DeltaViolation | None:
    """Check a shard's delta against the contract's write footprint.

    ``contract`` is the network's ``DeployedContract``; ``dispatcher``
    the lookup-node dispatcher whose ``component_shard`` assignment
    the validation mirrors — routing and validation agree by
    construction because they share the hash and the field-level
    cache.

    Soundness: every non-commutative (``OwnOverwrite``) write in a
    selected transition carries an ``Owns`` constraint (signature
    derivation, Fig. 9), so a legitimately routed transaction only
    produces ``OwnOverwrite`` entries inside components owned by its
    assigned shard.  For contracts dispatched by the default strategy
    (no signature), only the contract's home shard executes shard-side
    at all.  Anything else is byzantine.
    """
    def bad(key: StateKey | None, reason: str) -> DeltaViolation:
        return DeltaViolation(delta.contract, delta.shard, key, reason)

    if delta.shard == DS:
        return bad(None, "the DS committee does not submit deltas")
    joins = contract.joins
    signature_mode = (dispatcher.use_signatures
                      and contract.signature is not None)
    for column in delta.columns:
        field = column.field
        first = (field, next(iter(column.rows), ()))
        if field not in contract.state.field_types:
            return bad(first, f"unknown field {field!r}")
        declared = joins.get(field, JoinKind.OWN_OVERWRITE)
        if column.kind is not declared:
            return bad(first,
                       f"claims {column.kind} but the deployed "
                       f"signature declares {declared}")
        if column.kind is JoinKind.INT_MERGE:
            continue  # commutative: any shard may contribute
        if not signature_mode:
            owner = dispatcher.home_shard(delta.contract)
            if owner != delta.shard:
                return bad(first, f"component owned by shard {owner}")
            continue
        pseudo = PseudoField(field)
        for keys in column.rows:
            try:
                tokens = tuple(key_token(k) for k in keys)
            except ValueError:
                return bad((field, keys), "key not usable for ownership")
            owner = dispatcher.component_shard(delta.contract, pseudo,
                                               tokens)
            if owner != delta.shard:
                return bad((field, keys),
                           f"component owned by shard {owner}")
    return None


# --------------------------------------------------------------------------
# Epoch checkpoints (the rollback target of a view change).
# --------------------------------------------------------------------------

@dataclass
class NetworkCheckpoint:
    """Everything an epoch attempt can mutate, as a rollback point.

    Contract states, user accounts and nonce records are *not* copied:
    ``journal_mark`` pins a position in the network's
    :class:`~repro.scilla.state.StateJournal`, and :meth:`restore`
    replays the undo entries recorded above it.  Only the telemetry,
    which bypasses the journal, is snapshotted eagerly.

    Restoring is idempotent and repeatable: after a rollback the
    journal head sits exactly at the mark, so one checkpoint supports
    any number of view changes within the epoch.  :meth:`release`
    commits past the checkpoint, letting the journal truncate —
    ``Network._process_epoch`` releases its own checkpoint when the
    epoch commits, while a checkpoint held externally (tests, tools)
    keeps its entries alive until released or dropped with the
    network.
    """

    journal_mark: int
    # Addresses deployed at take-time: restore drops contracts (and
    # their dispatcher registrations) created by an aborted attempt.
    contract_addrs: frozenset[str]
    # Telemetry snapshot (None with a disabled registry): lane counters
    # recorded by a discarded attempt roll back with everything else,
    # so only the surviving attempt counts.
    metrics: dict | None = None

    @classmethod
    def take(cls, net) -> "NetworkCheckpoint":
        t0 = time.perf_counter_ns() if net.metrics.enabled else 0
        checkpoint = cls(
            metrics=(net.metrics.snapshot()
                     if net.metrics.enabled else None),
            journal_mark=net.journal.mark(),
            contract_addrs=frozenset(net.contracts),
        )
        if net.metrics.enabled:
            net._meters.checkpoint_take_ns.observe(
                time.perf_counter_ns() - t0)
        return checkpoint

    def restore(self, net) -> None:
        t0 = time.perf_counter_ns() if net.metrics.enabled else 0
        # Contract states, accounts (lazily created ones disappear)
        # and nonce records all unwind through the journal.
        net.journal.rollback_to(self.journal_mark)
        # Contracts deployed after the checkpoint (e.g. during an
        # attempt that is now being discarded) must disappear entirely:
        # state, runtime, and their lookup-node registration.
        for addr in [a for a in net.contracts
                     if a not in self.contract_addrs]:
            del net.contracts[addr]
            net.dispatcher.unregister_contract(addr)
        if self.metrics is not None:
            net.metrics.reset_to(self.metrics)
        if net.metrics.enabled:
            net._meters.checkpoint_restore_ns.observe(
                time.perf_counter_ns() - t0)

    def release(self, net) -> None:
        """Commit past this checkpoint: the journal may truncate every
        entry no other outstanding checkpoint still needs."""
        net._meters.checkpoint_undo_entries.observe(
            net.journal.seq - self.journal_mark)
        net.journal.release(self.journal_mark)


# --------------------------------------------------------------------------
# Canonical state fingerprints (the chaos consistency verdict).
# --------------------------------------------------------------------------

def _canonical(value: Value):
    """A JSON-able canonical form, independent of map insertion order
    (which differs between a faulty run and a fault-free run even when
    the final states are equal)."""
    if isinstance(value, MapVal):
        return {"map": sorted(
            ((key_token(k), _canonical(v))
             for k, v in value.entries.items()),
            key=lambda kv: kv[0])}
    return key_token(value)


def state_fingerprint(state: ContractState) -> str:
    """A stable hash of one contract's semantic state."""
    payload = {
        "address": state.address,
        "balance": state.balance,
        "fields": {name: _canonical(value)
                   for name, value in sorted(state.fields.items())},
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def network_fingerprint(net) -> dict[str, str]:
    """Fingerprints of every deployed contract, sorted by address."""
    return {addr: state_fingerprint(net.contracts[addr].state)
            for addr in sorted(net.contracts)}


def fingerprint_digest(net) -> str:
    """One hash over the whole network fingerprint, compact enough to
    embed in WAL commit records; replay verifies it after re-executing
    each epoch."""
    blob = json.dumps(network_fingerprint(net), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# --------------------------------------------------------------------------
# The incremental commit digest and the dirty set behind delta restore
# points (docs/FAULTS.md, "Crash recovery & durability").
# --------------------------------------------------------------------------

_MASK = (1 << 256) - 1
# Value classes whose key_token is "<type>|<payload>", in tuple order
# (payload, type): ByStr as its hex, Int / Uint as its integer.
_SCALARS = frozenset((ByStrVal, IntVal))


def _encode(value: Value) -> str:
    """An injective text form of :func:`_canonical` (framed by length,
    tokens being arbitrary strings): maps sorted by key token, so
    insertion order is irrelevant and an empty map is not nothing."""
    if isinstance(value, MapVal):
        items = sorted((key_token(k), _encode(v))
                       for k, v in value.entries.items())
        return "{" + "".join(f"{len(k)}:{k}{len(v)}:{v}"
                             for k, v in items)
    return "=" + key_token(value)


def _term(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest(), "big")


def _field_terms(address: str, name: str, value: Value) -> int:
    """Every term of one field: a scalar's single term, or a map's
    marker (an empty map differs from no field) plus one per entry —
    the whole value under a first key is one term, so nested maps need
    no interior bookkeeping."""
    prefix = f"{address}|{name}|"
    if not isinstance(value, MapVal):
        return _term(prefix + _encode(value))
    tokens = ((key_token(k), _encode(v)) for k, v in value.entries.items())
    return _term(prefix + "{") + sum(
        _term(f"{prefix}{len(token)}:{token}{text}")
        for token, text in tokens)


def _fields_sum(state: ContractState) -> int:
    return sum(_field_terms(state.address, name, value)
               for name, value in state.fields.items()) & _MASK


def _with_balance(state: ContractState, fields: int) -> int:
    return (fields + _term(f"{state.address}||{state.balance}")) & _MASK


def state_accumulator(state: ContractState) -> int:
    """The sum mod 2^256 of one SHA-256 term per scalar field, map
    field, first-level map entry, and the native balance: equal for two
    states iff (up to hash collision) their :func:`state_fingerprint`
    is.  Computed from scratch here, this is the specification of the
    sum :class:`ChangeLedger` maintains.  Addition, not XOR, so a term
    added twice does not cancel; it detects divergence over a
    CRC-framed log, it is not an authenticated structure."""
    return _with_balance(state, _fields_sum(state))


# A restore point is a base once the deltas since the last base would
# hold, with this one, at least 1/DIVISOR of that base's rows: resume
# applies a bounded chain, no delta outgrows the base it spares, and
# each row is rewritten O(1) times per doubling.
DELTA_FOLD_DIVISOR = 1


class ChangeLedger:
    """Per-contract field accumulators, and what changed since the
    last restore point.  One per durable (or replaying) network."""

    def __init__(self, net):
        self.fields = {addr: _fields_sum(c.state)
                       for addr, c in net.contracts.items()}
        # (file name, digest) of the restore point the next delta
        # builds on; None makes the next restore point a base (none
        # written yet, a resumed network, a deploy, paged state).
        self.parent: tuple[str, str] | None = None
        self.parent_seq = self.base_rows = self.delta_rows = 0
        self.locations: dict[str, set] = {}
        self.accounts: set[str] = set()
        self.senders: set[str] = set()

    def add_contract(self, state: ContractState) -> None:
        """A deploy: no delta can express it, so it forces a base."""
        self.fields[state.address] = _fields_sum(state)
        self.parent = None

    def accumulators(self, net) -> dict[str, str]:
        """Every contract's accumulator (hex), sorted by address."""
        return {addr: f"{_with_balance(net.contracts[addr].state, acc):064x}"
                for addr, acc in sorted(self.fields.items())}

    def digest(self, net) -> str:
        """The commit record's digest: O(contracts), never O(state)."""
        blob = json.dumps(self.accumulators(net)).encode()
        return hashlib.sha256(blob).hexdigest()

    def commit(self, net, pre_states: dict, locations: dict[str, set],
               accounts: set[str], senders: set[str]) -> None:
        """Fold one committed epoch's change set in: per changed
        ``(field, first key)`` subtract the term of its pre-epoch value
        (read from the contract's pinned pre-epoch state) and add the
        term of its post-epoch value."""
        for addr, keys in locations.items():
            pre = pre_states[addr].fields
            post = net.contracts[addr].state.fields
            by_field: dict[str, list] = {}
            for name, path in keys:
                by_field.setdefault(name, []).append(path)
            acc = self.fields[addr]
            for name, paths in by_field.items():
                if (name, ()) in keys:  # subsumes the entries under it
                    acc += (_field_terms(addr, name, post[name])
                            - _field_terms(addr, name, pre[name]))
                    continue
                if max(map(len, paths)) > 1:    # nested: one term per
                    paths = {path[:1] for path in paths}    # first key
                prefix = f"{addr}|{name}|"
                old_of, new_of = pre[name].entries.get, post[name].entries.get
                # An entry's term as in _field_terms, _term written
                # out: the calls were 0.5 of the 4 us a location costs.
                # A scalar key's token and value's text are built here
                # too — key_token / _encode's text, without their calls.
                sha, to_int = hashlib.sha256, int.from_bytes
                for key, in paths:
                    old, new = old_of(key, MISSING), new_of(key, MISSING)
                    if old is new:
                        continue
                    token = (f"{key[1]!s}|{key[0]}" if type(key) in _SCALARS
                             else key_token(key))
                    head = f"{prefix}{len(token)}:{token}"
                    if new is not MISSING:
                        text = (f"{head}={new[1]!s}|{new[0]}"
                                if type(new) in _SCALARS
                                else head + _encode(new))
                        acc += to_int(sha(text.encode()).digest(), "big")
                    if old is not MISSING:
                        text = (f"{head}={old[1]!s}|{old[0]}"
                                if type(old) in _SCALARS
                                else head + _encode(old))
                        acc -= to_int(sha(text.encode()).digest(), "big")
            self.fields[addr] = acc & _MASK
        if self.parent is not None:
            for addr, keys in locations.items():
                self.locations.setdefault(addr, set()).update(keys)
            self.accounts |= accounts
            self.senders |= senders

    def pending_rows(self) -> int:
        return (sum(map(len, self.locations.values()))
                + len(self.accounts) + len(self.senders))

    def wants_base(self, wal_seq: int) -> bool:
        """Also with nothing logged since the parent: file names carry
        the WAL sequence, and a delta's would sort before its own."""
        return self.parent is None or wal_seq == self.parent_seq or (
            (self.delta_rows + self.pending_rows()) * DELTA_FOLD_DIVISOR
            >= self.base_rows)

    def restore_point_written(self, parent, wal_seq: int, rows: int,
                              is_base: bool) -> None:
        self.parent, self.parent_seq = parent, wal_seq
        if is_base:
            self.base_rows, self.delta_rows = rows, 0
        else:
            self.delta_rows += rows
        self.locations, self.accounts, self.senders = {}, set(), set()
