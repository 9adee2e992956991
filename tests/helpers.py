"""Shared test utilities (imported as ``from .helpers import ...``)."""

import functools
import random

from repro.chain import Network
from repro.chain.delta import _check_disjoint, _overflow
from repro.chain.dispatch import DS, key_token
from repro.chain.recovery import DeltaViolation
from repro.core.domain import PseudoField
from repro.core.joins import JoinKind
from repro.scilla.interpreter import Interpreter, TxContext
from repro.scilla import types as ty
from repro.scilla.parser import parse_module
from repro.scilla.state import MISSING, owned_entries
from repro.scilla.values import IntVal, canonical


def mutate_one_char(source: str, seed: int) -> str:
    """Deterministically replace exactly one character of ``source``.

    Used by the parser fuzz tests (a one-character mutation must never
    crash the parser) and by the summary-cache tests (it must change
    the cache's content address).
    """
    rng = random.Random(seed)
    i = rng.randrange(len(source))
    alphabet = "abcxyzXYZ01239_;()="
    replacement = rng.choice([c for c in alphabet if c != source[i]])
    return source[:i] + replacement + source[i + 1:]


# -- the serial reference (DESIGN.md §5, invariant 1) ------------------------

def _snapshot(state) -> dict:
    """A contract state's fields (canonical) plus ``_balance``."""
    snap = {name: canonical(value) for name, value in state.fields.items()}
    snap["_balance"] = state.balance
    return snap


def contract_states(net) -> dict[str, dict]:
    """Every contract the network deployed: its fields (canonical) and
    ``_balance``."""
    return {address: _snapshot(contract.state)
            for address, contract in sorted(net.contracts.items())}


def record_blocks(monkeypatch) -> list:
    """From now on, keep every FinalBlock ``process_epoch`` returns —
    the committed stream, observed without any hook in the network."""
    blocks = []
    process_epoch = Network.process_epoch

    def recording(net, *args, **kwargs):
        block = process_epoch(net, *args, **kwargs)
        blocks.append(block)
        return block
    monkeypatch.setattr(Network, "process_epoch", recording)
    return blocks


def linearisation(block, rng=None) -> list:
    """One epoch's committed transactions in a serial order consistent
    with every lane: the shard lanes concatenated (``rng`` None) or
    interleaved at random, then the DS lane."""
    lanes = [[r.tx for r in mb.receipts if r.success]
             for mb in block.microblocks]
    order = []
    if rng is None:
        for lane in lanes:
            order += lane
    else:
        heads = [lane[::-1] for lane in lanes if lane]
        while heads:
            i = rng.randrange(len(heads))
            order.append(heads[i].pop())
            if not heads[i]:
                del heads[i]
    return order + [r.tx for r in block.ds_receipts if r.success]


@functools.lru_cache(maxsize=64)
def _interpreter(source: str) -> Interpreter:
    return Interpreter(parse_module(source, "reference"))


def serial_replay(net, blocks, rng=None) -> dict[str, dict]:
    """The serial reference: the committed transactions of ``blocks``
    (every epoch since the contracts were deployed, in order) run one
    at a time, in :func:`linearisation` order, on one fresh state per
    contract of ``net`` (its source and parameters, no balance) — no
    dispatch, merge, nonce or gas check, no call chains.  Every one
    must succeed; returns what :func:`contract_states` returns."""
    runs = {}
    for address, contract in net.contracts.items():
        interp = _interpreter(contract.source)
        params = {name: value for name, value
                  in contract.state.immutables.items()
                  if name != "_this_address"}
        runs[address] = interp, interp.deploy(address, params)
    for block in blocks:
        for tx in linearisation(block, rng):
            interp, state = runs[tx.to]
            run = interp.run_transition(
                state, tx.transition, tx.args_dict(),
                TxContext(tx.sender, tx.amount, None, block.epoch))
            assert run.success, f"{tx} fails in serial order: {run.error}"
            state.balance -= sum(msg.amount for msg in run.messages)
    return {address: _snapshot(state)
            for address, (_, state) in sorted(runs.items())}


# -- the delta validator's specification (docs/FAULTS.md, step 3) ------------

def validate_delta_reference(delta, contract, dispatcher):
    """``repro.chain.recovery.validate_delta`` one row at a time: every
    row of an ``OwnOverwrite`` column resolves its keys' tokens and asks
    ``Dispatcher.component_shard`` (the routing's own assignment) for
    its owner.  The validator must return the identical violation, or
    None, on any delta."""
    def bad(key, reason):
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
            continue
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


# -- the FSD merge's specification (docs/STATE.md §1) ------------------------

def merge_deltas_reference(base, deltas):
    """``repro.chain.delta.merge_deltas`` one row at a time: per field,
    the whole-field overwrites, then every other overwrite row, then
    each IntMerge total, each stored on its own — a one-key row into
    the field's privatised entries (resolved once for the field's row
    count: the fold-first rule), anything else through
    ``ContractState.write``.  The merge must build the identical state
    (entries and their order), count the same changed locations, make
    the same privatisations and folds, and raise the identical
    ``MergeConflict`` / ``MergeOverflow``."""
    merged = base.fork()
    changed = 0
    fields: dict = {}
    for delta in deltas:
        for column in delta.columns:
            changed += len(column.rows)
            fields.setdefault(column.field, []).append((delta.shard, column))
    contract = deltas[0].contract if deltas else base.address
    for group in fields.values():
        if len(group) > 1:
            _check_disjoint(contract, group)
    for name, group in fields.items():
        writes = sum(len(column.rows) for _, column in group)
        overwrites = [column for _, column in group
                      if column.kind is JoinKind.OWN_OVERWRITE]
        merges = [(shard, column) for shard, column in group
                  if column.kind is JoinKind.INT_MERGE]
        entries, resolved = None, False
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
                    continue
                merged.write((name, path), value)
        if not merges:
            continue
        totals: dict = {}
        for _, column in merges:
            for path, diff in column.rows.items():
                totals[path] = totals.get(path, 0) + diff
        typ = merges[0][1].typ
        lo, hi = ty.int_bounds(typ)
        for path, diff in totals.items():
            if len(path) == 1:
                if not resolved:
                    entries = owned_entries(merged, name, writes)
                    resolved = True
                if entries is not None:
                    old = base.fields[name].entries.get(path[0])
                    total = (0 if old is None else old.value) + diff
                    if not lo <= total <= hi:
                        _overflow(contract, name, path, total, typ, merges)
                    entries[path[0]] = IntVal(total, typ)
                    continue
            old = base.read((name, path))
            total = (old.value if isinstance(old, IntVal) else 0) + diff
            if not lo <= total <= hi:
                _overflow(contract, name, path, total, typ, merges)
            merged.write((name, path), IntVal(total, typ))
    return merged, changed
