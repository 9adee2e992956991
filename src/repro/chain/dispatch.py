"""Lookup-node transaction dispatch (Sec. 4.3).

``dispatch_oc(T, x)``: given a contract's sharding signature and a
concrete transaction, resolve the symbolic constraints against the
transaction's arguments and identify a shard that satisfies all of
them; route to the DS committee when no single shard does (or when a
runtime side-condition such as ``NoAliases`` fails).

State components are assigned to shards by hashing: entry-level for
fields only ever owned per-entry, field-level as soon as some selected
transition requires whole-field ownership (so a whole-field owner and
an entry writer can never land in different shards).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field

from ..core.constraints import (
    Bot, ContractShard, NoAliases, Owns, SenderShard, UserAddr,
)
from ..core.domain import ConstKey, Key, ParamKey, PseudoField
from ..core.signature import ShardingSignature
from ..scilla import types as ty
from ..scilla.errors import EvalError
from ..scilla.values import (
    ADTVal, BNumVal, ByStrVal, IntVal, StringVal, Value,
    pad_address as _pad,
)
from .transaction import Transaction

DS = -1  # the DS committee "shard" id


def key_token(value: Value) -> str:
    """A stable string identity for a runtime value used as a map key.

    Must agree with the constant-key format produced by the analysis
    (``repro.core.summary._const_repr``).
    """
    if isinstance(value, ByStrVal):
        return f"{value.typ!s}|{value.hex}"
    if isinstance(value, IntVal):
        return f"{value.typ!s}|{value.value}"
    if isinstance(value, StringVal):
        return f"String|{value.value}"
    if isinstance(value, BNumVal):
        return f"BNum|{value.value}"
    if isinstance(value, ADTVal):
        inner = ",".join(key_token(a) for a in value.args)
        return f"{value.adt}.{value.constructor}({inner})"
    raise ValueError(f"value not usable as a map key: {value!r}")


def value_from_token(token: str) -> Value | None:
    """The inverse of :func:`key_token` for primitive keys: rebuild a
    runtime value from a token (the analysis' constant-key format).
    ADT tokens are not round-tripped: None, as for a malformed one."""
    kind, sep, payload = token.partition("|")
    if not sep:
        return None
    try:
        if kind.startswith(("Int", "Uint")):
            return IntVal(int(payload), ty.prim(kind))
        if kind == "String":
            return StringVal(payload)
        if kind.startswith("ByStr"):
            return ByStrVal(payload, ty.prim(kind))
        if kind == "BNum":
            return BNumVal(int(payload))
    except (ValueError, EvalError):
        return None
    return None


def shard_hash(token: str, n_shards: int) -> int:
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


# Reason classes: ``net.dispatch.reason.<kind>`` (docs/OBSERVABILITY.md).
REASON_KINDS = (
    "satisfied", "unconstrained", "bot", "unresolvable", "aliasing_keys",
    "non_user_recipient", "conflicting_ownership", "transition_not_sharded",
    "payment", "payment_to_contract", "unknown_contract", "co_located",
    "cross_shard_call")


@dataclass(frozen=True)
class DispatchDecision:
    """Where a transaction runs and why (``kind``: the reason's class,
    one of ``REASON_KINDS``).  Immutable: plans share instances."""

    shard: int
    reason: str = ""
    kind: str = ""

    @property
    def is_ds(self) -> bool:
        return self.shard == DS


def _ds(reason: str, kind: str) -> DispatchDecision:
    return DispatchDecision(DS, reason, kind)


_UNKNOWN_CONTRACT = _ds("unknown contract", "unknown_contract")
_PAYMENT_TO_CONTRACT = _ds("payment to contract", "payment_to_contract")
_NOT_SHARDED = _ds("transition not sharded", "transition_not_sharded")
_CONFLICTING = _ds("conflicting ownership", "conflicting_ownership")


@dataclass
class DeployedSignature:
    """What the lookup node knows about a deployed contract."""

    address: str
    signature: ShardingSignature | None
    immutables: dict[str, Value] = dc_field(default_factory=dict)

    def field_level(self) -> set[str]:
        """Fields that must be assigned to shards whole (some selected
        transition requires full ownership)."""
        if self.signature is None:
            return set()
        out: set[str] = set()
        for cs in self.signature.constraints.values():
            for c in cs:
                if isinstance(c, Owns) and c.pf.is_whole_field:
                    out.add(c.pf.field)
        return out


class Dispatcher:
    """Routes transactions to shards; CoSplit-aware when signatures
    are registered, falling back to the default strategy otherwise."""

    def __init__(self, n_shards: int, use_signatures: bool = True):
        self.n_shards = n_shards
        self.use_signatures = use_signatures
        self.contracts: dict[str, DeployedSignature] = {}
        self._field_level_cache: dict[str, set[str]] = {}
        # address -> (transition -> plan, plan of any other transition)
        self._plans: dict[str, tuple[dict, object]] = {}
        self._satisfied = [
            DispatchDecision(shard, "constraints satisfied", "satisfied")
            for shard in range(n_shards)]

    # -- registration ---------------------------------------------------------

    def register_contract(self, deployed: DeployedSignature) -> None:
        address = _pad(deployed.address)
        self.contracts[address] = deployed
        self._field_level_cache[address] = deployed.field_level()
        self._plans[address] = self._lower_contract(address, deployed)

    def unregister_contract(self, address: str) -> None:
        """Forget a contract (a rolled-back deploy), plans included."""
        for table in (self.contracts, self._field_level_cache, self._plans):
            table.pop(_pad(address), None)

    def is_contract(self, address: str) -> bool:
        return address in self.contracts

    # -- shard assignment primitives --------------------------------------------

    def home_shard(self, address: str) -> int:
        return self._home(_pad(address))

    def _home(self, padded: str) -> int:
        return shard_hash(f"addr:{padded}", self.n_shards)

    def component_shard(self, contract: str, pf: PseudoField,
                        key_values: tuple[str, ...]) -> int:
        """Shard owning a state component.

        Entry-level components are assigned by their *first* key value,
        so components keyed by the same account co-locate (Fig. 3 puts
        ``bal[A]`` and ``allowances[A][D]`` in one shard, which is what
        lets TransferFrom satisfy both constraints in a single shard).
        Fields requiring whole-field ownership are assigned as a unit.

        The contract address is normalised first, so a caller holding
        any spelling of it agrees with dispatch (which sees the
        transaction's canonical ``to``) on the assignment.
        """
        return self._component_shard(_pad(contract), pf, key_values)

    def _component_shard(self, contract: str, pf: PseudoField,
                         key_values: tuple[str, ...]) -> int:
        if not key_values or pf.field in self._field_level_cache.get(
                contract, set()):
            token = f"{contract}:{pf.field}"
        else:
            first = key_values[0]
            if first.startswith("ByStr20|"):
                # Components keyed by an account address live in that
                # account's home shard, so Owns(bal[_sender]) and
                # SenderShard (fund acceptance) agree — the paper's
                # "the shard that owns A's account" model.
                token = f"addr:{first.removeprefix('ByStr20|')}"
            else:
                token = f"{contract}:{first}"
        return shard_hash(token, self.n_shards)

    # -- constraint resolution ------------------------------------------------------

    # ``sender`` below is the transaction's sender, canonical since the
    # transaction was built.

    def _resolve_key(self, key: Key, tx: Transaction,
                     deployed: DeployedSignature, sender: str) -> str | None:
        if isinstance(key, ParamKey):
            if key.name in ("_sender", "_origin"):
                return f"ByStr20|{sender}"
            value = tx.args_dict().get(key.name)
            return key_token(value) if value is not None else None
        assert isinstance(key, ConstKey)
        if key.repr.startswith("cparam:"):
            value = deployed.immutables.get(key.repr.removeprefix("cparam:"))
            return key_token(value) if value is not None else None
        if key.repr == "_this_address":
            return f"ByStr20|{_pad(deployed.address)}"
        return key.repr  # literal in key_token format already

    def _resolve_symbol(self, symbol: str, tx: Transaction,
                        deployed: DeployedSignature,
                        sender: str) -> str | None:
        """Resolve a NoAliases/UserAddr symbol (textual key form)."""
        if symbol in ("_sender", "_origin"):
            return f"ByStr20|{sender}"
        value = tx.args_dict().get(symbol)
        if value is not None:
            return key_token(value)
        return self._resolve_key(ConstKey(symbol), tx, deployed, sender)

    def _address_of_symbol(self, symbol: str, tx: Transaction,
                           deployed: DeployedSignature,
                           sender: str) -> str | None:
        token = self._resolve_symbol(symbol, tx, deployed, sender)
        if token is None:
            return None
        if "|" in token:
            kind, _, payload = token.partition("|")
            if kind.startswith("ByStr"):
                return payload
        return None

    # -- main entry point ------------------------------------------------------------

    def dispatch(self, tx: Transaction) -> DispatchDecision:
        """Route one transaction by its contract's lowered plan: equal
        to :meth:`dispatch_reference` in shard and reason on any input."""
        to = tx.to
        if tx.transition is None:
            if to in self.contracts:
                return _PAYMENT_TO_CONTRACT
            return DispatchDecision(self._home(tx.sender),
                                    "payment", "payment")
        entry = self._plans.get(to)
        if entry is None:
            return _UNKNOWN_CONTRACT
        return entry[0].get(tx.transition, entry[1])(tx)

    def dispatch_reference(self, tx: Transaction) -> DispatchDecision:
        """Sec. 4.3's procedure per transaction: the plans' specification."""
        sender, to = tx.sender, tx.to
        if not tx.is_contract_call:
            if self.is_contract(to):
                # Plain payments cannot carry a transition; routing one
                # at a contract to the sender's shard would credit a
                # shadow user account there.  Send it to the DS, whose
                # execution rejects it with the same reason.
                return DispatchDecision(DS, "payment to contract")
            # User-to-user payment: sender's home shard (double-spend
            # detection stays local, Sec. 4.1).
            return DispatchDecision(self._home(sender), "payment")
        deployed = self.contracts.get(to)
        if deployed is None:
            return DispatchDecision(DS, "unknown contract")
        if not self.use_signatures or deployed.signature is None:
            return self._default_strategy(sender, to)
        sig = deployed.signature
        if tx.transition not in sig.selected:
            return DispatchDecision(DS, "transition not sharded")
        constraints = sig.constraints[tx.transition]

        required: set[int] = set()
        for c in sorted(constraints, key=str):
            if isinstance(c, Bot):
                return DispatchDecision(DS, f"⊥: {c.reason}")
            if isinstance(c, SenderShard):
                required.add(self._home(sender))
            elif isinstance(c, ContractShard):
                required.add(self._home(to))
            elif isinstance(c, Owns):
                tokens = []
                for key in c.pf.keys:
                    token = self._resolve_key(key, tx, deployed, sender)
                    if token is None:
                        return DispatchDecision(DS, f"unresolvable {c}")
                    tokens.append(token)
                required.add(
                    self._component_shard(to, c.pf, tuple(tokens)))
            elif isinstance(c, NoAliases):
                a = self._resolve_symbol(c.x, tx, deployed, sender)
                b = self._resolve_symbol(c.y, tx, deployed, sender)
                if a is None or b is None or a == b:
                    return DispatchDecision(DS, f"aliasing keys {c}")
            elif isinstance(c, UserAddr):
                address = self._address_of_symbol(c.param, tx, deployed,
                                                  sender)
                if address is None or self.is_contract(address):
                    return DispatchDecision(DS, f"non-user recipient {c}")
        if len(required) > 1:
            return DispatchDecision(DS, "conflicting ownership")
        if required:
            return DispatchDecision(required.pop(), "constraints satisfied")
        # No placement constraints at all: any shard works.
        return DispatchDecision(tx.tx_id % self.n_shards, "unconstrained")

    def _default_strategy(self, sender: str, to: str) -> DispatchDecision:
        """Plain Zilliqa (Sec. 4.1): contract transactions run in the
        contract's shard only when the sender lives there; otherwise in
        the DS committee."""
        sender_home = self._home(sender)
        contract_home = self._home(to)
        if sender_home == contract_home:
            return DispatchDecision(contract_home, "co-located")
        return DispatchDecision(DS, "cross-shard contract call")

    # -- dispatch plans -----------------------------------------------------------
    # ``dispatch_reference`` lowered once per (contract, transition), at
    # registration, to a closure ``plan(tx)``.  Per transaction stay the
    # sender, the arguments (by name, last duplicate wins), ``tx_id`` and
    # for ``UserAddr`` the contracts deployed by then (docs/ANALYSIS.md).

    def _lower_contract(self, to: str, deployed: DeployedSignature):
        """(transition -> plan, the plan of every other transition)."""
        sig = deployed.signature
        if self.use_signatures and sig is not None:
            return ({t: self._lower_transition(to, deployed,
                                               sig.constraints[t])
                     for t in sig.selected}, lambda tx: _NOT_SHARDED)
        n, home = self.n_shards, self._home(to)   # _default_strategy
        co_located = DispatchDecision(home, "co-located", "co_located")
        cross = _ds("cross-shard contract call", "cross_shard_call")
        return {}, lambda tx: (
            co_located if shard_hash(f"addr:{tx.sender}", n) == home
            else cross)

    def _lower_transition(self, to: str, deployed: DeployedSignature,
                          constraints):
        """Steps run in sorted-constraint order; each returns the
        decision to stop with (the reference's early DS returns) or
        None, leaving the shards it requires in ``found`` (token ->
        shard).  Keyed by recipe: constraints asking the same of a
        transaction (``Owns(records[node])``, ``Owns(resolvers[node])``)
        run once — a repeat names the same shard and cannot fail.

        A step gets each key it reads as ``(index, key)``: the index of
        its token in the plan's per-transaction ``tokens`` list, one per
        distinct key.  The first step to read a key resolves it
        (``_UNSEEN``), where the reference first does; later ones read
        the token back.  ``_SENDER``'s, if some step reads it, the plan
        fills in."""
        n = self.n_shards
        const_shards: set[int] = set()
        steps: dict = {}
        final = None
        slots: dict = {}

        def slot(key):
            return slots.setdefault(key, len(slots)), key
        for c in sorted(constraints, key=str):
            if isinstance(c, Bot):
                final = _ds(f"⊥: {c.reason}", "bot")
                break   # later constraints are never reached
            if isinstance(c, SenderShard):
                steps.setdefault(((_SENDER,), True), _owns_step(
                    (_SENDER,), slot, None, f"{to}:", n))
            elif isinstance(c, ContractShard):
                const_shards.add(self._home(to))
            elif isinstance(c, Owns):
                self._lower_owns(to, deployed, c, steps, const_shards, slot)
            elif isinstance(c, NoAliases):
                steps[c] = _alias_step(
                    slot(self._symbol(c.x, deployed)),
                    slot(self._symbol(c.y, deployed)),
                    _ds(f"aliasing keys {c}", "aliasing_keys"))
            elif isinstance(c, UserAddr):
                # ``self.contracts`` is read per transaction: a
                # contract deployed later changes the answer.
                steps[c] = _user_step(
                    slot(self._symbol(c.param, deployed)), self.contracts,
                    _ds(f"non-user recipient {c}", "non_user_recipient"))
        steps = tuple(steps.values())
        blank = [_UNSEEN] * len(slots)
        sender_slot = slots.get(_SENDER)    # None: no step reads it
        satisfied = self._satisfied
        if not steps and (final is not None or const_shards):
            if final is None:
                final = (_CONFLICTING if len(const_shards) > 1
                         else satisfied[min(const_shards)])
            return lambda tx: final

        def plan(tx):
            sender, args, found = tx.sender, dict(tx.args), {}
            tokens = blank.copy()
            if sender_slot is not None:
                tokens[sender_slot] = f"ByStr20|{sender}"
            for step in steps:
                stop = step(sender, args, tokens, found)
                if stop is not None:
                    return stop
            if final is not None:
                return final
            required = const_shards.union(found.values())
            if len(required) > 1:
                return _CONFLICTING
            if required:
                return satisfied[required.pop()]
            # No placement constraints at all: any shard works.
            return DispatchDecision(tx.tx_id % n, "unconstrained",
                                    "unconstrained")
        return plan

    def _lower_owns(self, to: str, deployed: DeployedSignature, c: Owns,
                    steps: dict, const_shards: set[int], slot) -> None:
        """Keys are resolved per transaction even where the shard is
        known here (a missing one routes to the DS)."""
        keys = tuple(
            (_SENDER if k.name in ("_sender", "_origin") else (k.name, None))
            if isinstance(k, ParamKey)
            else (None, self._resolve_key(k, None, deployed, ""))
            for k in c.pf.keys)
        whole = not keys \
            or c.pf.field in self._field_level_cache.get(to, ())
        by_key = not whole and (keys[0] is _SENDER or keys[0][0] is not None)
        if by_key or any(k is not _SENDER and k[1] is None for k in keys):
            steps.setdefault((keys, by_key), _owns_step(
                keys, slot, _ds(f"unresolvable {c}", "unresolvable"),
                f"{to}:" if by_key else None, self.n_shards))
        if not by_key:
            const_shards.add(self._component_shard(   # "": always fails
                to, c.pf, () if whole else (keys[0][1] or "",)))

    def _symbol(self, symbol: str, deployed: DeployedSignature):
        """A NoAliases/UserAddr symbol as a key (``_key_token``): the
        argument of that name if there is one, else a constant."""
        if symbol in ("_sender", "_origin"):
            return _SENDER
        return symbol, self._resolve_key(ConstKey(symbol), None, deployed,
                                         "")


_SENDER = object()
_UNSEEN = object()      # a token no step has resolved yet


def _key_token(key, args: dict) -> str | None:
    """The token of a lowered key other than ``_SENDER`` — ``(argument
    name or None, constant token or None)`` — or None if neither
    resolves.  Called once per key and transaction: the plan's
    ``tokens`` keeps what it returned (``Dispatcher._lower_transition``)."""
    name, fallback = key
    value = args.get(name) if name is not None else None
    return key_token(value) if value is not None else fallback


def _owns_step(keys: tuple, slot, fail, prefix: str | None, n: int):
    """Resolve every key (a value that is no key raises, as in the
    reference); with ``prefix`` the first token names the shard."""
    sender_only = keys == (_SENDER,)   # SenderShard, Owns(f[_sender])
    keys = () if sender_only else tuple(map(slot, keys))

    def step(sender, args, tokens, found):
        if sender_only:
            token = f"addr:{sender}"
            if token not in found:
                found[token] = shard_hash(token, n)
            return None
        first = None
        for i, key in keys:
            token = tokens[i]
            if token is _UNSEEN:
                token = tokens[i] = _key_token(key, args)
            if token is None:
                return fail
            if first is None:
                first = token
        if prefix is not None:
            token = (f"addr:{first[8:]}" if first.startswith("ByStr20|")
                     else prefix + first)
            if token not in found:
                found[token] = shard_hash(token, n)
    return step


def _alias_step(x, y, fail):
    (i, x), (j, y) = x, y

    def step(sender, args, tokens, found):
        a = tokens[i]
        if a is _UNSEEN:
            a = tokens[i] = _key_token(x, args)
        b = tokens[j]
        if b is _UNSEEN:
            b = tokens[j] = _key_token(y, args)
        if a is None or b is None or a == b:
            return fail
    return step


def _user_step(symbol, contracts: dict, fail):
    i, symbol = symbol

    def step(sender, args, tokens, found):
        token = tokens[i]
        if token is _UNSEEN:
            token = tokens[i] = _key_token(symbol, args)
        token = token or ""   # None: fails
        kind, bar, payload = token.partition("|")
        if not bar or not kind.startswith("ByStr") or payload in contracts:
            return fail
    return step
