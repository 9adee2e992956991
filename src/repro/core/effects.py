"""Effect summaries (Fig. 6/8 of the paper).

A transition summary is a set of effects describing how the transition
interacts with blockchain state: reads/writes of statically-describable
state components (pseudo-fields), control-flow conditions, fund
acceptance and outgoing messages.  ``⊤`` is the uninformative effect —
a transition whose summary contains it cannot be sharded.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .domain import (
    CT, ContribType, FieldSource, PseudoField, TopContrib,
)


class Effect:
    __slots__ = ()


@dataclass(frozen=True)
class Read(Effect):
    pf: PseudoField

    def __str__(self) -> str:
        return f"Read({self.pf})"


@dataclass(frozen=True)
class Write(Effect):
    pf: PseudoField
    contrib: ContribType
    is_delete: bool = False

    def __str__(self) -> str:
        tag = "Delete" if self.is_delete else "Write"
        return f"{tag}({self.pf}, {self.contrib})"


@dataclass(frozen=True)
class Condition(Effect):
    contrib: ContribType

    def __str__(self) -> str:
        return f"Condition({self.contrib})"


@dataclass(frozen=True)
class AcceptFunds(Effect):
    def __str__(self) -> str:
        return "AcceptFunds"


# How the analysis classified a message's recipient.
RECIP_PARAM = "param"      # a transition parameter (data: its name)
RECIP_SENDER = "sender"    # the _sender implicit
RECIP_CONST = "const"      # a literal / contract parameter
RECIP_UNKNOWN = "unknown"  # statically undetermined


@dataclass(frozen=True)
class MsgInfo:
    """Shape of one outgoing message, as far as statically known."""

    recipient_kind: str = RECIP_UNKNOWN
    recipient: str | None = None   # parameter name when kind == param
    amount_zero: bool = False      # True iff provably zero funds

    def __str__(self) -> str:
        amt = "0" if self.amount_zero else "≠0?"
        who = self.recipient or self.recipient_kind
        return f"(to={who}, funds={amt})"


@dataclass(frozen=True)
class SendMsg(Effect):
    """A ``send``; ``msgs`` empty means statically unknown (⊤ message)."""

    msgs: tuple[MsgInfo, ...] = ()
    contrib: ContribType = CT()

    @property
    def is_top(self) -> bool:
        return not self.msgs

    def __str__(self) -> str:
        if self.is_top:
            return "SendMsg(⊤)"
        return f"SendMsg{''.join(str(m) for m in self.msgs)}"


@dataclass(frozen=True)
class TopEffect(Effect):
    reason: str = ""

    def __str__(self) -> str:
        return f"⊤({self.reason})" if self.reason else "⊤"


@dataclass
class Summary:
    """The inferred summary of one transition."""

    transition: str
    params: tuple[str, ...]
    effects: list[Effect] = dc_field(default_factory=list)

    def add(self, effect: Effect) -> None:
        if effect not in self.effects:
            self.effects.append(effect)

    @property
    def has_top(self) -> bool:
        return any(isinstance(e, TopEffect) for e in self.effects) or any(
            isinstance(e, SendMsg) and e.is_top for e in self.effects) or any(
            isinstance(e, Write) and isinstance(e.contrib, TopContrib)
            for e in self.effects)

    def reads(self) -> list[Read]:
        return [e for e in self.effects if isinstance(e, Read)]

    def writes(self) -> list[Write]:
        return [e for e in self.effects if isinstance(e, Write)]

    def conditions(self) -> list[Condition]:
        return [e for e in self.effects if isinstance(e, Condition)]

    def sends(self) -> list[SendMsg]:
        return [e for e in self.effects if isinstance(e, SendMsg)]

    def accepts_funds(self) -> bool:
        return any(isinstance(e, AcceptFunds) for e in self.effects)

    def written_fields(self) -> set[str]:
        return {e.pf.field for e in self.writes()}

    def dedupe_conditions(self) -> None:
        """Drop Condition effects subsumed by another Condition.

        A condition is subsumed when its source set is contained in
        another condition's source set (matches the presentation of
        Fig. 8, where only the strongest condition is shown).
        """
        conds = self.conditions()

        def sources(c: Condition) -> frozenset:
            # Constants never matter for the weak-read/ownership logic,
            # so subsumption compares field and formal sources only.
            if isinstance(c.contrib, CT):
                from .domain import ConstSource
                return frozenset(s for s, _ in c.contrib.sources
                                 if not isinstance(s, ConstSource))
            return frozenset({"⊤"})

        keep: list[Condition] = []
        for c in conds:
            cs = sources(c)
            if any(cs < sources(o) for o in conds):
                continue
            if any(cs == sources(o) for o in keep):
                continue
            keep.append(c)
        self.effects = [e for e in self.effects
                        if not isinstance(e, Condition)] + list(keep)

    def __str__(self) -> str:
        inner = "\n  ".join(str(e) for e in self.effects)
        return f"Summary({self.transition}):\n  {inner}"


def transition_footprints(summaries: dict[str, Summary]
                          ) -> dict[str, tuple[PseudoField, ...] | None]:
    """Per transition, every pseudo-field it may touch — its reads ∪
    writes, in first-seen order — or None for an unsummarisable (⊤)
    one, whose accesses the analysis cannot bound.  The raw summaries,
    not the signature: a signature prunes constant-field reads and
    commutative writes."""
    out: dict[str, tuple[PseudoField, ...] | None] = {}
    for name, summary in summaries.items():
        if summary.has_top:
            out[name] = None
        else:
            out[name] = tuple(dict.fromkeys(
                e.pf for e in (*summary.reads(), *summary.writes())))
    return out


def one_key_writes(summaries: dict[str, Summary]
                   ) -> dict[str, dict[str, int]]:
    """Per transition, how many one-key locations (``f[k]``) of each
    field its write footprint names — what a lane expects one call to
    write into each map (``ContractState.fork``).  An unsummarisable
    (⊤) transition has no entry: its writes cannot be counted."""
    out: dict[str, dict[str, int]] = {}
    for name, summary in summaries.items():
        if summary.has_top:
            continue
        counts: dict[str, int] = {}
        for pf in dict.fromkeys(e.pf for e in summary.writes()):
            if len(pf.keys) == 1:
                counts[pf.field] = counts.get(pf.field, 0) + 1
        if counts:
            out[name] = counts
    return out


def condition_mentions(summary: Summary, pf: PseudoField) -> bool:
    """Whether any Condition's contribution mentions the pseudo-field."""
    for cond in summary.conditions():
        if isinstance(cond.contrib, TopContrib):
            return True
        if isinstance(cond.contrib, CT):
            for s, _ in cond.contrib.sources:
                if isinstance(s, FieldSource) and s.pf.may_alias(pf):
                    return True
    return False
