"""Ownership and environment constraints (Fig. 9, top).

Constraints are static symbolic conditions checked at dispatch time
against a concrete transaction; :mod:`repro.chain.dispatch` evaluates
them.  ``Bot`` marks a transition that cannot be executed in parallel
with other transactions over the same contract — it is always routed
to the DS committee.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import PseudoField


class Constraint:
    __slots__ = ()


@dataclass(frozen=True)
class Owns(Constraint):
    """The executing shard must own this state component."""

    pf: PseudoField

    def __str__(self) -> str:
        return f"Owns({self.pf})"


@dataclass(frozen=True)
class UserAddr(Constraint):
    """The named parameter (or ``_sender``) must be a user address,
    so a zero-fund message to it is a no-op notification."""

    param: str

    def __str__(self) -> str:
        return f"UserAddr({self.param})"


@dataclass(frozen=True)
class NoAliases(Constraint):
    """Two symbolic map keys must not coincide at runtime."""

    x: str
    y: str

    def __str__(self) -> str:
        return f"NoAliases(⟨{self.x}, {self.y}⟩)"


@dataclass(frozen=True)
class SenderShard(Constraint):
    """Must run in the sender's home shard (fund acceptance)."""

    def __str__(self) -> str:
        return "SenderShard"


@dataclass(frozen=True)
class ContractShard(Constraint):
    """Must run in the contract's home shard (fund-bearing sends)."""

    def __str__(self) -> str:
        return "ContractShard"


@dataclass(frozen=True)
class Bot(Constraint):
    """Unsatisfiable: the transition cannot be sharded."""

    reason: str = ""

    def __str__(self) -> str:
        return f"⊥({self.reason})" if self.reason else "⊥"


def is_bot(constraints: frozenset[Constraint]) -> bool:
    return any(isinstance(c, Bot) for c in constraints)


def hogged_fields(constraints: frozenset[Constraint]) -> set[str]:
    """Fields the transition *hogs* (Def. 5.1): whole-field ownership.

    Keyed ownership (``Owns(balances[_sender])``) is partial — only the
    entry is owned — whereas ``Owns(f)`` with no keys forces a single
    shard to own all of ``f``.
    """
    return {c.pf.field for c in constraints
            if isinstance(c, Owns) and c.pf.is_whole_field}
