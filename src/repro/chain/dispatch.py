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
import struct
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


# The first 8 bytes of a digest as a big-endian unsigned integer.
_U64 = struct.Struct(">Q").unpack_from


def shard_hash(token: str, n_shards: int) -> int:
    return _U64(hashlib.sha256(token.encode()).digest())[0] % n_shards


# How many addresses a dispatcher remembers the home shard of before it
# forgets them all: the memo never grows with the address space.
HOME_MEMO_CAP = 1 << 15


class HomeShards(dict):
    """Canonical address -> its home shard, ``shard_hash("addr:" +
    address)``, computed on a miss (``d[address]`` costs one dict
    lookup, and a Python frame only the first time).  Keyed by the
    address string the caller already holds; emptied once it holds
    ``HOME_MEMO_CAP`` addresses."""

    __slots__ = ("n_shards",)

    def __init__(self, n_shards: int):
        super().__init__()
        self.n_shards = n_shards

    def __missing__(self, address: str) -> int:
        if len(self) >= HOME_MEMO_CAP:
            self.clear()
        # ``shard_hash``, inline.
        shard = self[address] = _U64(hashlib.sha256(
            f"addr:{address}".encode()).digest())[0] % self.n_shards
        return shard


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
_NO_FIELDS: frozenset[str] = frozenset()


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
        # Canonical address -> its home shard: every reader's memo.
        self.homes = HomeShards(n_shards)
        # address -> (transition -> plan, plan of any other transition)
        self._plans: dict[str, tuple[dict, object]] = {}
        self._satisfied = [
            DispatchDecision(shard, "constraints satisfied", "satisfied")
            for shard in range(n_shards)]
        self._unconstrained = [
            DispatchDecision(shard, "unconstrained", "unconstrained")
            for shard in range(n_shards)]
        # The globals every generated plan reads (``_PlanWriter``).
        self._support = {
            "sha256": hashlib.sha256, "u64": _U64, "ByStrVal": ByStrVal,
            "key_token": key_token, "CONTRACTS": self.contracts,
            "HOMES": self.homes,
            "SAT": self._satisfied, "FREE": self._unconstrained,
            "CONFLICTING": _CONFLICTING}

    # -- registration ---------------------------------------------------------

    def register_contract(self, deployed: DeployedSignature) -> None:
        address = _pad(deployed.address)
        self.contracts[address] = deployed
        self._field_level_cache[address] = deployed.field_level()
        self._plans[address] = self._lower_contract(address, deployed)

    def is_contract(self, address: str) -> bool:
        return address in self.contracts

    # -- shard assignment primitives --------------------------------------------

    def home_shard(self, address: str) -> int:
        return self.homes[_pad(address)]

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
        if not key_values or pf.field in self.field_level(contract):
            return self.field_shard(contract, pf.field)
        return self.entry_shard(contract, key_values[0])

    # Component owners, by canonical address: routing
    # (``_component_shard``) and delta validation
    # (``repro.chain.recovery.validate_delta``) both ask these.

    def field_level(self, contract: str) -> set[str] | frozenset[str]:
        """The fields of ``contract`` assigned to shards whole."""
        return self._field_level_cache.get(contract, _NO_FIELDS)

    def field_shard(self, contract: str, field: str) -> int:
        """Shard owning the whole of ``field``."""
        return shard_hash(f"{contract}:{field}", self.n_shards)

    def entry_shard(self, contract: str, first: str) -> int:
        """Shard owning the entries whose first key has token ``first``.
        Components keyed by an account address live in that account's
        home shard, so Owns(bal[_sender]) and SenderShard (fund
        acceptance) agree — the paper's "the shard that owns A's
        account" model.  The validator asks once per distinct first key
        of a delta: an account's shard comes from the home-shard memo,
        any other key's is ``shard_hash``, inline."""
        if first.startswith("ByStr20|"):
            return self.homes[first[8:]]
        return _U64(hashlib.sha256(f"{contract}:{first}".encode())
                    .digest())[0] % self.n_shards

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
            return DispatchDecision(self.homes[tx.sender],
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
            return DispatchDecision(self.homes[sender], "payment")
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
                required.add(self.homes[sender])
            elif isinstance(c, ContractShard):
                required.add(self.homes[to])
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
        sender_home = self.homes[sender]
        contract_home = self.homes[to]
        if sender_home == contract_home:
            return DispatchDecision(contract_home, "co-located")
        return DispatchDecision(DS, "cross-shard contract call")

    # -- dispatch plans -----------------------------------------------------------
    # ``dispatch_reference`` lowered once per (contract, transition), at
    # its first dispatch, to generated straight-line Python
    # (``_PlanWriter``), compiled the way ``repro.scilla.compile``
    # compiles transitions.  Per transaction stay the sender, the
    # arguments (by name, last duplicate wins), ``tx_id`` and for
    # ``UserAddr`` the contracts deployed by then (docs/ANALYSIS.md).

    def _lower_contract(self, to: str, deployed: DeployedSignature):
        """(transition -> plan, the plan of every other transition), each
        at first a linker: its first call generates and compiles the
        plan, which takes its place.  Compiling costs ≈ 0.1 ms a plan,
        and a deployment calls few of its transitions."""
        sig = deployed.signature
        selected = (sig.selected if self.use_signatures and sig is not None
                    else ())
        return ({t: self._linker(to, t) for t in selected},
                self._linker(to, "*"))

    def _linker(self, to: str, t: str):
        def link(tx: Transaction) -> DispatchDecision:
            contract, writer = self._plan_writer(to, t)
            name = f"{contract}.{t}"
            ns = {**self._support, **writer.consts}
            exec(compile(writer.source(name), f"<plan {name}>", "exec"), ns)
            plan = ns["plan"]
            plans, other = self._plans[to]
            if t == "*":
                self._plans[to] = plans, plan
            else:
                plans[t] = plan
            return plan(tx)
        return link

    def _plan_writer(self, to: str, t: str):
        """(contract name, the writer of ``t``'s plan); ``*`` writes the
        plan of every transition without one of its own."""
        deployed = self.contracts[to]
        sig = deployed.signature
        if t != "*":
            writer = self._lower_transition(to, deployed,
                                            sig.constraints[t])
        elif self.use_signatures and sig is not None:
            writer = _PlanWriter(self.n_shards)
            writer.emit(f"return {writer.const(_NOT_SHARDED)}")
        else:
            writer = _PlanWriter(self.n_shards)     # _default_strategy
            home = self.homes[to]
            co_located = DispatchDecision(home, "co-located", "co_located")
            cross = _ds("cross-shard contract call", "cross_shard_call")
            writer.emit(f"if HOMES[tx.sender] == {home}: "
                        f"return {writer.const(co_located)}")
            writer.emit(f"return {writer.const(cross)}")
        return (sig.contract if sig is not None else to), writer

    def plan_source(self, address: str, transition: str | None) -> str:
        """The generated source of the plan ``dispatch`` runs for a call
        of ``transition`` on the contract at ``address`` — generated
        again, as it depends on the registered contracts alone."""
        address = _pad(address)
        t = transition if transition in self._plans[address][0] else "*"
        contract, writer = self._plan_writer(address, t)
        return writer.source(f"{contract}.{t}")

    def _lower_transition(self, to: str, deployed: DeployedSignature,
                          constraints) -> "_PlanWriter":
        """Constraints in sorted order, each lowered to the statements
        the reference runs for it, early DS returns in place.  Each
        key's token is resolved, checked and hashed where the first
        statement needs it (``_PlanWriter``), so a constraint asking
        again what an earlier one asked (``Owns(records[node])``, then
        ``Owns(resolvers[node])``) adds nothing."""
        ordered = sorted(constraints, key=str)
        w = _PlanWriter(self.n_shards, f"{to}:")
        # Contract text (a constant key's literal) enters the source
        # only through repr(), comments included.
        text = ", ".join(map(str, ordered)) or "no constraints"
        w.head.append(f"# {text!r}")
        const_shards: set[int] = set()
        final = None
        for c in ordered:
            if isinstance(c, Bot):
                final = _ds(f"⊥: {c.reason}", "bot")
                break   # later constraints are never reached
            if isinstance(c, SenderShard):
                w.shard((_SENDER,))
            elif isinstance(c, ContractShard):
                const_shards.add(self.homes[to])
            elif isinstance(c, Owns):
                self._lower_owns(to, deployed, c, w, const_shards)
            elif isinstance(c, NoAliases):
                w.aliases(self._symbol(c.x, deployed),
                          self._symbol(c.y, deployed),
                          _ds(f"aliasing keys {c}", "aliasing_keys"))
            elif isinstance(c, UserAddr):
                # ``CONTRACTS`` is the live registry: a contract
                # deployed later changes the answer.
                w.user(self._symbol(c.param, deployed),
                       _ds(f"non-user recipient {c}", "non_user_recipient"))
        w.finish(final, const_shards)
        return w

    def _lower_owns(self, to: str, deployed: DeployedSignature, c: Owns,
                    w: "_PlanWriter", const_shards: set[int]) -> None:
        """Keys are resolved per transaction even where the shard is
        known here (a missing one routes to the DS)."""
        keys = tuple(
            (_SENDER if k.name in ("_sender", "_origin") else (k.name, None))
            if isinstance(k, ParamKey)
            else (None, self._resolve_key(k, None, deployed, ""))
            for k in c.pf.keys)
        whole = not keys or c.pf.field in self.field_level(to)
        by_key = not whole and (keys[0] is _SENDER or keys[0][0] is not None)
        fail = _ds(f"unresolvable {c}", "unresolvable")
        for key in keys:
            if key is not _SENDER and key[1] is None:   # one that can fail
                w.present(w.token(key), fail)
        if by_key:
            w.shard(keys)
        else:
            const_shards.add(self._component_shard(   # "": always fails
                to, c.pf, () if whole else (keys[0][1] or "",)))

    def _symbol(self, symbol: str, deployed: DeployedSignature):
        """A NoAliases/UserAddr symbol as a key: the argument of that
        name if there is one, else a constant."""
        if symbol in ("_sender", "_origin"):
            return _SENDER
        return symbol, self._resolve_key(ConstKey(symbol), None, deployed,
                                         "")


# A lowered key: ``_SENDER``, or ``(argument name or None, constant
# token or None)`` — the argument's key if it is present, else the
# constant.
_SENDER = object()


def _hash(text: str, n: int) -> str:
    """Python for ``shard_hash(<text>, n)``, inline: no frame."""
    return f"u64(sha256({text}.encode()).digest())[0] % {n}"


class _PlanWriter:
    """The generated source of one plan ``plan(tx)``: statements whose
    only branches are early returns or pick how a key is read, so a key
    resolved by one statement is resolved for every later one.
    Decisions it returns are constants ``D<n>`` (``consts``); shards are
    locals ``s<n>``, an account's read from ``HOMES``.

    A key is a local ``a<n>`` (an argument's, None while it is absent)
    or ``t<n>`` holding a ``ByStrVal``, which stands for its token
    ``typ|hex`` and is compared in place — no type name holds ``|``, so
    two such tokens are equal iff their ``(hex, typ)`` are — or the
    ``key_token`` string of any other value, which equals no byte
    string's token.  A constant byte-string token is a ``ByStrVal``
    constant ``K<n>``; the sender is ``tx.sender``, a ByStr20."""

    def __init__(self, n_shards: int, prefix: str = ""):
        self.n = n_shards
        self.prefix = prefix        # of a component token: "<contract>:"
        self.head: list[str] = []
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}
        self.tokens: dict = {}      # key -> its local
        self.maybe_none: set[str] = set()
        self.shards: dict = {}      # first key -> its shard's local
        self.reads_args = False

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def const(self, decision: DispatchDecision) -> str:
        name = f"D{len(self.consts)}"
        self.consts[name] = decision
        self.head.append(f"# {name} = {decision.reason!r}")
        return name

    def literal(self, token: str | None) -> str:
        """Python for a constant key: a byte string's token as the
        ``ByStrVal`` it stands for, any other token (or None) as is."""
        kind, bar, payload = (token or "").partition("|")
        if not bar or not kind.startswith("ByStr"):
            return repr(token)
        name = f"K{len(self.consts)}"
        self.consts[name] = tuple.__new__(ByStrVal, (payload, ty.prim(kind)))
        self.head.append(f"# {name} = {token!r}")
        return name

    def token(self, key) -> str:
        """The local holding ``key`` (not the sender), resolved here
        first time (a value that is no key raises in ``key_token``, as
        in the reference)."""
        local = self.tokens.get(key)
        if local is not None:
            return local
        if key[0] is None:                          # a constant
            local = f"t{len(self.tokens)}"
            self.emit(f"{local} = {self.literal(key[1])}")
            if key[1] is None:
                self.maybe_none.add(local)
        else:
            name, fallback = key
            local = self.tokens.get((name, None))   # the argument's, or None
            if local is None:
                local = self.tokens[name, None] = self._argument(name)
            if fallback is not None and local in self.maybe_none:
                arg, local = local, f"t{len(self.tokens)}"
                self.emit(f"{local} = {self.literal(fallback)} "
                          f"if {arg} is None else {arg}")
        self.tokens[key] = local
        return local

    def _argument(self, name: str) -> str:
        """Argument ``name`` as a key, or None if it is absent.  A name
        the transaction carries once is read by position; a missing or
        repeated one through a dict (last duplicate wins)."""
        self.reads_args = True
        local = f"a{len(self.tokens)}"
        self.emit(f"v = values[names.index({name!r})] "
                  f"if names.count({name!r}) == 1 "
                  f"else dict(zip(names, values)).get({name!r})")
        self.emit(f"{local} = v if v is None or v.__class__ is ByStrVal "
                  f"else key_token(v)")
        self.maybe_none.add(local)
        return local

    def present(self, local: str, fail: DispatchDecision) -> None:
        if local in self.maybe_none:
            self.emit(f"if {local} is None: return {self.const(fail)}")
            self.maybe_none.discard(local)      # past here it is not

    def shard(self, keys: tuple) -> None:
        """The shard of a component whose first key is ``keys[0]``
        (resolved already, unless it is the sender): an account's home
        shard if that key is a ByStr20."""
        first = keys[0]
        if first in self.shards:
            return
        local = self.shards[first] = f"s{len(self.shards)}"
        if first is _SENDER:
            self.emit(f"{local} = HOMES[tx.sender]")
            return
        t, prefix = self.tokens[first], self.prefix
        self.emit(f"if {t}.__class__ is ByStrVal: {local} = HOMES[{t}.hex] "
                  f"if {t}.typ == 'ByStr20' else "
                  + _hash(f'({prefix!r} + f"{{{t}.typ!s}}|{{{t}.hex}}")',
                          self.n))
        self.emit(f"else: {local} = HOMES[{t}[8:]] "
                  f"if {t}.startswith('ByStr20|') else "
                  + _hash(f"({prefix!r} + {t})", self.n))

    def aliases(self, x, y, fail: DispatchDecision) -> None:
        if x is _SENDER and y is _SENDER:
            self.emit(f"return {self.const(fail)}")
            return
        if x is _SENDER or y is _SENDER:
            t = self.token(y if x is _SENDER else x)
            held = (t,)
            equal = (f"{t}.__class__ is ByStrVal and {t}.hex == tx.sender "
                     f"and {t}.typ == 'ByStr20'")
        else:
            a, b = self.token(x), self.token(y)
            held = tuple(dict.fromkeys((a, b)))
            equal = f"{a} == {b}"
        tests = [f"{t} is None" for t in held if t in self.maybe_none]
        self.emit(f"if {' or '.join([*tests, equal])}: "
                  f"return {self.const(fail)}")
        self.maybe_none.difference_update(held)

    def user(self, symbol, fail: DispatchDecision) -> None:
        d = self.const(fail)
        if symbol is _SENDER:
            self.emit(f"if tx.sender in CONTRACTS: return {d}")
            return
        t = self.token(symbol)
        if t in self.maybe_none:
            self.emit(f"if {t} is None: return {d}")
            self.maybe_none.discard(t)
        self.emit(f"if {t}.__class__ is ByStrVal:")
        self.emit(f"    if not {t}.typ.startswith('ByStr') "
                  f"or {t}.hex in CONTRACTS: return {d}")
        self.emit("else:")
        self.emit(f"    kind, bar, payload = {t}.partition('|')")
        self.emit(f"    if not bar or not kind.startswith('ByStr') "
                  f"or payload in CONTRACTS: return {d}")

    def finish(self, final: DispatchDecision | None,
               const_shards: set[int]) -> None:
        """The decision once every statement passed."""
        shards = [*self.shards.values(), *map(str, sorted(const_shards))]
        if final is not None:
            self.emit(f"return {self.const(final)}")
        elif len(const_shards) > 1:
            self.emit("return CONFLICTING")
        elif len(shards) == 1:
            self.emit(f"return SAT[{shards[0]}]")
        elif shards:
            self.emit(f"shards = {{{', '.join(shards)}}}")
            self.emit("if len(shards) > 1: return CONFLICTING")
            self.emit("return SAT[shards.pop()]")
        else:   # no placement constraints at all: any shard works
            self.emit(f"return FREE[tx.tx_id % {self.n}]")

    def source(self, name: str) -> str:
        body = (["names, values = tx.arg_names, tx.arg_values"]
                if self.reads_args else [])
        return "\n".join([f"# {name!r}", *self.head, "def plan(tx):",
                          *(f"    {line}" for line in body + self.lines),
                          ""])
