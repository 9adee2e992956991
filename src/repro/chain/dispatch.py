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
    if isinstance(value, IntVal):
        return f"{value.typ}|{value.value}"
    if isinstance(value, StringVal):
        return f"String|{value.value}"
    if isinstance(value, ByStrVal):
        return f"{value.typ}|{value.hex}"
    if isinstance(value, BNumVal):
        return f"BNum|{value.value}"
    if isinstance(value, ADTVal):
        inner = ",".join(key_token(a) for a in value.args)
        return f"{value.adt}.{value.constructor}({inner})"
    raise ValueError(f"value not usable as a map key: {value!r}")


def shard_hash(token: str, n_shards: int) -> int:
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


@dataclass
class DispatchDecision:
    shard: int
    reason: str = ""

    @property
    def is_ds(self) -> bool:
        return self.shard == DS


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

    # -- registration ---------------------------------------------------------

    def register_contract(self, deployed: DeployedSignature) -> None:
        self.contracts[deployed.address] = deployed
        self._field_level_cache[deployed.address] = deployed.field_level()

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

        The contract address is normalised first, so dispatch (which
        sees the transaction's possibly short-form ``to``) and the DS
        committee's delta validation (which sees the deployed address)
        agree on the assignment.
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

    # ``sender`` below is the transaction's sender, padded once by
    # :meth:`dispatch`.

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
        sender, to = _pad(tx.sender), _pad(tx.to)
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
