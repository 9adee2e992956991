"""The CoSplit abstract domain (Fig. 6 of the paper).

Contribution types describe, for an expression's value, *which sources*
(initial field values, constants, formal parameters) flow into it, *how
many times* each contributes (cardinality 0/1/ω), and *through which
operations* (builtins and control-flow ``Cond``).  The three operators
are:

* ``⊕`` (:func:`ct_plus`) — combining contributions of sub-expressions
  (cardinalities add);
* ``⊔`` (:func:`ct_join`) — joining control-flow branches
  (cardinalities max, precision may drop);
* ``⊗`` (:func:`ct_scale`) — scaling by a (cardinality, ops) factor at
  function application sites (cardinalities multiply).

We refine the paper's single per-type precision bit into a per-source
``exact`` flag: joining branches where a source is applied *different*
operation sets (both with non-zero cardinality) makes that source
inexact, while sources merely absent from one branch stay exact.  This
keeps the canonical ERC20 ``match … Some b => add b amount | None =>
amount`` write exactly summarisable, as Fig. 8 requires.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Union


class Card(enum.IntEnum):
    """Cardinality lattice 0 ⊑ 1 ⊑ ω."""

    ZERO = 0
    ONE = 1
    MANY = 2

    def __str__(self) -> str:
        return {0: "0", 1: "1", 2: "ω"}[int(self)]


def card_plus(a: Card, b: Card) -> Card:
    """⊕ : 0 is the unit; 1 ⊕ 1 = ω."""
    if a is Card.ZERO:
        return b
    if b is Card.ZERO:
        return a
    return Card.MANY


def card_join(a: Card, b: Card) -> Card:
    """⊔ : least upper bound."""
    return Card(max(int(a), int(b)))


def card_mult(a: Card, b: Card) -> Card:
    """⊗ : 0 annihilates; 1 is the unit."""
    if a is Card.ZERO or b is Card.ZERO:
        return Card.ZERO
    if a is Card.ONE:
        return b
    if b is Card.ONE:
        return a
    return Card.MANY


# --------------------------------------------------------------------------
# Operations (applied to contribution sources).
# --------------------------------------------------------------------------

COND_OP = "Cond"  # control-flow dependence pseudo-operation


# --------------------------------------------------------------------------
# Keys of pseudo-fields (map entries indexed by transition parameters).
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamKey:
    """A map key that is a transition parameter (incl. ``_sender``)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConstKey:
    """A map key that is a compile-time constant (literal or contract
    parameter)."""

    repr: str

    def __str__(self) -> str:
        return self.repr


Key = Union[ParamKey, ConstKey]


@dataclass(frozen=True)
class PseudoField:
    """A statically-describable state component: field plus key path.

    ``keys == ()`` denotes the whole field.  ``balances[_sender]`` is
    ``PseudoField("balances", (ParamKey("_sender"),))``.
    """

    field: str
    keys: tuple[Key, ...] = ()

    def __str__(self) -> str:
        return self.field + "".join(f"[{k}]" for k in self.keys)

    @property
    def is_whole_field(self) -> bool:
        return not self.keys

    def may_alias(self, other: "PseudoField") -> bool:
        """Whether two pseudo-fields may denote the same location.

        Distinct constant keys at the same position prove disjointness;
        everything else (including distinct parameter names) may alias
        at runtime and needs a ``NoAliases`` check.
        """
        if self.field != other.field:
            return False
        for a, b in zip(self.keys, other.keys):
            if isinstance(a, ConstKey) and isinstance(b, ConstKey) and a != b:
                return False
        return True


# --------------------------------------------------------------------------
# Contribution sources.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSource:
    """The initial (transition-entry) value of a state component."""

    pf: PseudoField

    def __str__(self) -> str:
        return f"Field {self.pf}"


@dataclass(frozen=True)
class ConstSource:
    """A literal constant or immutable contract parameter."""

    repr: str = "c"

    def __str__(self) -> str:
        return f"Const {self.repr}"


@dataclass(frozen=True)
class FormalSource:
    """A transition parameter, or a function formal during analysis."""

    name: str

    def __str__(self) -> str:
        return f"Formal {self.name}"


Source = Union[FieldSource, ConstSource, FormalSource]


@dataclass(frozen=True)
class Contrib:
    """What one source contributes: cardinality, ops applied, exactness."""

    card: Card
    ops: frozenset[str] = frozenset()
    exact: bool = True

    def __str__(self) -> str:
        ops = ",".join(sorted(self.ops)) or "∅"
        mark = "" if self.exact else "~"
        return f"({self.card}, {{{ops}}}){mark}"


def contrib_plus(a: Contrib, b: Contrib) -> Contrib:
    return Contrib(card_plus(a.card, b.card), a.ops | b.ops, a.exact and b.exact)


def contrib_join(a: Contrib, b: Contrib) -> Contrib:
    # Op sets differing across branches with both contributions live is
    # the precision loss the paper's Inexact flag records.
    exact = a.exact and b.exact
    if a.card is not Card.ZERO and b.card is not Card.ZERO and a.ops != b.ops:
        exact = False
    return Contrib(card_join(a.card, b.card), a.ops | b.ops, exact)


def contrib_mult(a: Contrib, factor: Contrib) -> Contrib:
    return Contrib(
        card_mult(a.card, factor.card), a.ops | factor.ops,
        a.exact and factor.exact)


# --------------------------------------------------------------------------
# Contribution types.
# --------------------------------------------------------------------------

class ContribType:
    """Base class: CT (a source map), EFun, ⊤ or ⊥."""

    __slots__ = ()


@dataclass(frozen=True)
class CT(ContribType):
    """A finite map from sources to contributions."""

    sources: tuple[tuple[Source, Contrib], ...] = ()

    @staticmethod
    def of(mapping: dict[Source, Contrib]) -> "CT":
        items = tuple(sorted(
            ((s, c) for s, c in mapping.items() if c.card is not Card.ZERO
             or c.ops),
            key=lambda sc: str(sc[0])))
        return CT(items)

    def as_dict(self) -> dict[Source, Contrib]:
        return dict(self.sources)

    def get(self, source: Source) -> Contrib:
        for s, c in self.sources:
            if s == source:
                return c
        return Contrib(Card.ZERO)

    def field_sources(self) -> list[tuple[FieldSource, Contrib]]:
        return [(s, c) for s, c in self.sources if isinstance(s, FieldSource)]

    def __str__(self) -> str:
        if not self.sources:
            return "⟨⟩"
        inner = ", ".join(f"{s} ↦ {c}" for s, c in self.sources)
        return f"⟨{inner}⟩"


@dataclass(frozen=True)
class EFun(ContribType):
    """An analysis-level function: formal id plus body contribution."""

    param: str
    body: ContribType

    def __str__(self) -> str:
        return f"EFun {self.param}. {self.body}"


@dataclass(frozen=True)
class TopContrib(ContribType):
    def __str__(self) -> str:
        return "⊤"


@dataclass(frozen=True)
class BotContrib(ContribType):
    def __str__(self) -> str:
        return "⊥"


TOP = TopContrib()
BOT = BotContrib()
EMPTY = CT()


def const_ct(repr_: str = "c") -> CT:
    return CT.of({ConstSource(repr_): Contrib(Card.ONE)})


def formal_ct(name: str) -> CT:
    return CT.of({FormalSource(name): Contrib(Card.ONE)})


def field_ct(pf: PseudoField, ops: frozenset[str] = frozenset()) -> CT:
    return CT.of({FieldSource(pf): Contrib(Card.ONE, ops)})


def _binop(a: ContribType, b: ContribType, combine) -> ContribType:
    if isinstance(a, TopContrib) or isinstance(b, TopContrib):
        return TOP
    if isinstance(a, BotContrib):
        return b
    if isinstance(b, BotContrib):
        return a
    if isinstance(a, EFun) or isinstance(b, EFun):
        # Combining function values from different branches or operands:
        # degrade unless they are structurally identical.
        if a == b:
            return a
        return TOP
    assert isinstance(a, CT) and isinstance(b, CT)
    out = a.as_dict()
    for s, c in b.sources:
        out[s] = combine(out[s], c) if s in out else c
    return CT.of(out)


def ct_plus(a: ContribType, b: ContribType) -> ContribType:
    """⊕ — combine contributions of independent sub-expressions."""
    return _binop(a, b, contrib_plus)


def ct_join(a: ContribType, b: ContribType) -> ContribType:
    """⊔ — join contributions of alternative control-flow branches."""
    if isinstance(a, TopContrib) or isinstance(b, TopContrib):
        return TOP
    if isinstance(a, BotContrib):
        return b
    if isinstance(b, BotContrib):
        return a
    if isinstance(a, EFun) or isinstance(b, EFun):
        return a if a == b else TOP
    assert isinstance(a, CT) and isinstance(b, CT)
    out: dict[Source, Contrib] = {}
    zero = Contrib(Card.ZERO)
    for s in {s for s, _ in a.sources} | {s for s, _ in b.sources}:
        out[s] = contrib_join(a.get(s) or zero, b.get(s) or zero)
    return CT.of(out)


def ct_scale(a: ContribType, factor: Contrib) -> ContribType:
    """⊗ — scale by a (cardinality, ops) factor."""
    if isinstance(a, TopContrib):
        return TOP
    if isinstance(a, BotContrib):
        return BOT
    if isinstance(a, EFun):
        return EFun(a.param, ct_scale(a.body, factor))
    assert isinstance(a, CT)
    return CT.of({s: contrib_mult(c, factor) for s, c in a.sources})


def ct_add_op(a: ContribType, op: str) -> ContribType:
    """Record an operation applied to every source (the Builtin rule)."""
    if isinstance(a, (TopContrib, BotContrib)):
        return a
    if isinstance(a, EFun):
        return EFun(a.param, ct_add_op(a.body, op))
    assert isinstance(a, CT)
    return CT.of({s: Contrib(c.card, c.ops | {op}, c.exact)
                  for s, c in a.sources})


def ct_mark_cond(a: ContribType, exact: bool) -> ContribType:
    """AdaptC — demote to a pure control-flow contribution.

    Every source keeps its identity but with cardinality 0 and the
    ``Cond`` pseudo-op, recording that it influenced control flow.
    """
    if isinstance(a, (TopContrib, BotContrib)):
        return a
    if isinstance(a, EFun):
        return ct_mark_cond(a.body, exact)
    assert isinstance(a, CT)
    return CT.of({s: Contrib(Card.ZERO, frozenset({COND_OP}), exact and c.exact)
                  for s, c in a.sources})


def subst_formal(ct: ContribType, formal: str, arg: ContribType) -> ContribType:
    """Substitute a formal's contribution by the actual argument's.

    Used when applying an :class:`EFun`: every occurrence of
    ``Formal formal`` with contribution (card, ops) is replaced by
    ``arg ⊗ (card, ops)``.
    """
    if isinstance(ct, (TopContrib, BotContrib)):
        return ct
    if isinstance(ct, EFun):
        return EFun(ct.param, subst_formal(ct.body, formal, arg))
    assert isinstance(ct, CT)
    target = FormalSource(formal)
    rest: dict[Source, Contrib] = {}
    hit: Contrib | None = None
    for s, c in ct.sources:
        if s == target:
            hit = c
        else:
            rest[s] = c
    result: ContribType = CT.of(rest)
    if hit is not None:
        result = ct_plus(result, ct_scale(arg, hit))
    return result


def ct_apply(func: ContribType, arg: ContribType) -> ContribType:
    """Apply a contribution-level function to an argument (App rule)."""
    if isinstance(func, EFun):
        return subst_formal(func.body, func.param, arg)
    if isinstance(func, TopContrib):
        return TOP
    if isinstance(func, BotContrib):
        return ct_scale(arg, Contrib(Card.MANY, frozenset(), False))
    # Applying an unknown/first-class function value: assume the argument
    # may contribute many times through unknown operations.
    scaled = ct_scale(arg, Contrib(Card.MANY, frozenset(), False))
    return ct_plus(ct_scale(func, Contrib(Card.MANY, frozenset(), False)), scaled)


def ct_sum(items: Iterable[ContribType]) -> ContribType:
    out: ContribType = EMPTY
    for item in items:
        out = ct_plus(out, item)
    return out


def ct_join_all(items: Iterable[ContribType]) -> ContribType:
    out: ContribType = BOT
    for item in items:
        out = ct_join(out, item)
    return out
