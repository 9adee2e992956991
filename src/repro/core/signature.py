"""Sharding-signature derivation — Algorithm 3.1 of the paper.

Given effect summaries for a *selection* of transitions (chosen by the
contract developer) and the set of fields whose reads the developer
accepts may be stale, derive:

* per-transition ownership/environment constraints (Fig. 9), and
* per-field join operations (``OwnOverwrite`` / ``IntMerge``).

The algorithm proceeds exactly as in the paper: constant fields are
identified and their reads dropped; commutative writes are detected
from contribution types; joins are consolidated globally across the
selection; reads that flow only into commutative writes are removed;
the stale-read gate is checked; and the remaining effects translate to
constraints via the Fig. 9 table.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..scilla.builtins import COMMUTATIVE_ADDITIVE
from .constraints import (
    Bot, Constraint, ContractShard, NoAliases, Owns, SenderShard,
    UserAddr, hogged_fields, is_bot,
)
from .domain import (
    CT, Card, ConstSource, Contrib, ContribType, EFun,
    FieldSource, Key, PseudoField, Source, TopContrib,
)
from .effects import (
    Condition, Read, RECIP_CONST, RECIP_PARAM, RECIP_SENDER,
    RECIP_UNKNOWN, SendMsg, Summary, TopEffect, Write,
)
from .joins import JoinKind

# Sentinel: accept whatever weak reads the derivation needs.
WEAK_READS_AUTO = "auto"


@dataclass(frozen=True)
class ShardingSignature:
    """The artefact a contract deployer submits with the contract."""

    contract: str
    selected: tuple[str, ...]
    constraints: dict[str, frozenset[Constraint]]
    joins: dict[str, JoinKind]
    weak_reads: frozenset[str]

    def is_parallelisable(self, transition: str) -> bool:
        cs = self.constraints.get(transition)
        return cs is not None and not is_bot(cs)

    def hogs(self, transition: str) -> set[str]:
        cs = self.constraints.get(transition, frozenset())
        return hogged_fields(cs)

    def describe(self) -> str:
        lines = [f"ShardingSignature({self.contract})"]
        for t in self.selected:
            cs = sorted(self.constraints[t], key=str)
            lines.append(f"  {t}: {{{', '.join(str(c) for c in cs)}}}")
        for f, j in sorted(self.joins.items()):
            lines.append(f"  ⊎{f} = {j}")
        if self.weak_reads:
            lines.append(f"  weak reads: {sorted(self.weak_reads)}")
        return "\n".join(lines)


class StaleReadsRejected(Exception):
    """The derivation needs weak reads the developer did not accept."""

    def __init__(self, needed: set[str]):
        self.needed = needed
        super().__init__(
            f"derivation requires accepting stale reads of {sorted(needed)}")


# --------------------------------------------------------------------------
# Commutativity of writes (the Sec. 3.4 query).
# --------------------------------------------------------------------------

def is_commutative_write(write: Write) -> bool:
    """Is the write's effect on its target additive-commutative?

    Per the paper: the written field's own initial value must
    contribute exactly once (cardinality 1, exact) through additive
    builtins only; all other contributions act as per-transaction
    constants.  Control-flow (``Cond``) dependence on the target
    defeats commutativity.
    """
    if write.is_delete:
        return False
    ct = write.contrib
    if not isinstance(ct, CT):
        return False
    self_contrib: Contrib | None = None
    for source, contrib in ct.sources:
        if isinstance(source, FieldSource) and source.pf == write.pf:
            if self_contrib is not None:
                return False
            self_contrib = contrib
    if self_contrib is None:
        return False
    return (
        self_contrib.card is Card.ONE
        and self_contrib.exact
        and bool(self_contrib.ops)
        and self_contrib.ops <= COMMUTATIVE_ADDITIVE
    )


# --------------------------------------------------------------------------
# Summary transformations used by Algorithm 3.1.
# --------------------------------------------------------------------------

def _mark_constants_in_ct(ct: ContribType, cfs: set[str]) -> ContribType:
    if isinstance(ct, EFun):
        return EFun(ct.param, _mark_constants_in_ct(ct.body, cfs))
    if not isinstance(ct, CT):
        return ct
    out: dict[Source, Contrib] = {}
    for source, contrib in ct.sources:
        if isinstance(source, FieldSource) and source.pf.field in cfs:
            source = ConstSource(f"field:{source.pf}")
        if source in out:
            prev = out[source]
            out[source] = Contrib(
                max(prev.card, contrib.card), prev.ops | contrib.ops,
                prev.exact and contrib.exact)
        else:
            out[source] = contrib
    return CT.of(out)


def _mark_constants(summary: Summary, cfs: set[str]) -> Summary:
    """Drop reads of constant fields; demote their sources to Const."""
    out = Summary(summary.transition, summary.params)
    for eff in summary.effects:
        if isinstance(eff, Read) and eff.pf.field in cfs:
            continue
        if isinstance(eff, Write):
            eff = Write(eff.pf, _mark_constants_in_ct(eff.contrib, cfs),
                        eff.is_delete)
        elif isinstance(eff, Condition):
            eff = Condition(_mark_constants_in_ct(eff.contrib, cfs))
        elif isinstance(eff, SendMsg):
            eff = SendMsg(eff.msgs, _mark_constants_in_ct(eff.contrib, cfs))
        out.add(eff)
    return out


def _source_mentions(ct: ContribType, pf: PseudoField) -> bool:
    if isinstance(ct, EFun):
        return _source_mentions(ct.body, pf)
    if isinstance(ct, TopContrib):
        return True
    if not isinstance(ct, CT):
        return False
    return any(isinstance(s, FieldSource) and s.pf == pf
               for s, _ in ct.sources)


def _transition_constraints(
    summary: Summary,
    written_fields: frozenset[str],
    intmerge_fields: frozenset[str],
) -> tuple[frozenset[Constraint], frozenset[str]]:
    """Constraints of one transition in a selection *context*.

    The context is fully described by which fields the selection
    writes (everything else is constant) and which of those fields
    consolidated to IntMerge.  Returns (constraints, stale-read
    fields).  Used both by :func:`derive_signature` and, memoised, by
    the solver's fast good-enough search.
    """
    cfs = {r.pf.field for r in summary.reads()} - set(written_fields)
    summary = _mark_constants(summary, cfs)

    cws: set[int] = set()
    for w in summary.writes():
        if w.pf.field in intmerge_fields and is_commutative_write(w):
            cws.add(id(w))

    def read_is_spurious(read: Read) -> bool:
        for eff in summary.effects:
            if isinstance(eff, Write):
                if id(eff) in cws and eff.pf == read.pf:
                    continue  # its own commutative self-contribution
                if _source_mentions(eff.contrib, read.pf):
                    # Flowing into any other write — commutative or not —
                    # makes the read observable (its value affects the
                    # written amount), so ownership must be kept.
                    return False
            elif isinstance(eff, (Condition, SendMsg)):
                if _source_mentions(eff.contrib, read.pf):
                    return False
        # The read must flow somewhere commutative (or nowhere at all).
        return True

    pruned = Summary(summary.transition, summary.params)
    for eff in summary.effects:
        if isinstance(eff, Read) and read_is_spurious(eff):
            continue
        pruned.add(eff)
    summary = pruned

    stale = frozenset(
        r.pf.field for r in summary.reads()
        if r.pf.field in intmerge_fields)

    cs: set[Constraint] = set()
    if summary.has_top:
        reasons = [e.reason for e in summary.effects
                   if isinstance(e, TopEffect)]
        cs.add(Bot(reasons[0] if reasons else "⊤ effect"))
    if summary.accepts_funds():
        cs.add(SenderShard())
    for send in summary.sends():
        if send.is_top:
            cs.add(Bot("send of unknown message"))
            continue
        for msg in send.msgs:
            if not msg.amount_zero:
                cs.add(ContractShard())
            if msg.recipient_kind == RECIP_PARAM:
                assert msg.recipient is not None
                cs.add(UserAddr(msg.recipient))
            elif msg.recipient_kind == RECIP_SENDER:
                cs.add(UserAddr("_sender"))
            elif msg.recipient_kind == RECIP_CONST:
                if msg.recipient is not None:
                    cs.add(UserAddr(msg.recipient))
            elif msg.recipient_kind == RECIP_UNKNOWN:
                cs.add(Bot("message recipient statically unknown"))
    # NoAliases between distinct symbolic key paths of one field.
    cs |= _alias_constraints(summary)
    # Ownership: every remaining read, every non-commutative write.
    for r in summary.reads():
        cs.add(Owns(r.pf))
    for w in summary.writes():
        if id(w) not in cws:
            cs.add(Owns(w.pf))
    return frozenset(cs), stale


def selection_context(
    summaries: dict[str, Summary],
    selected: tuple[str, ...],
    allow_commutativity: bool = True,
) -> tuple[frozenset[str], frozenset[str], dict[str, JoinKind]]:
    """The (written, IntMerge, joins) context of a selection.

    A field consolidates to IntMerge iff *every* selected write to it
    is commutative (TryConsolidateJoinsGlobally).
    """
    written: set[str] = set()
    noncomm: set[str] = set()
    for t in selected:
        for w in summaries[t].writes():
            written.add(w.pf.field)
            if not is_commutative_write(w):
                noncomm.add(w.pf.field)
    intmerge = (written - noncomm) if allow_commutativity else set()
    joins = {
        f: (JoinKind.INT_MERGE if f in intmerge else JoinKind.OWN_OVERWRITE)
        for f in sorted(written)
    }
    return frozenset(written), frozenset(intmerge), joins


def derive_signature(
    contract_name: str,
    summaries: dict[str, Summary],
    selected: tuple[str, ...],
    weak_reads: set[str] | str = WEAK_READS_AUTO,
    allow_commutativity: bool = True,
) -> ShardingSignature:
    """Algorithm 3.1: derive constraints and joins for a selection.

    ``weak_reads`` is the set of *field names* whose reads the
    developer accepts may be stale, or :data:`WEAK_READS_AUTO` to
    accept whatever the derivation needs.  If commutativity would need
    unaccepted stale reads, :class:`StaleReadsRejected` is raised.
    """
    written, intmerge, joins = selection_context(
        summaries, selected, allow_commutativity)

    constraints: dict[str, frozenset[Constraint]] = {}
    all_stale: set[str] = set()
    for t in selected:
        cs, stale = _transition_constraints(summaries[t], written, intmerge)
        constraints[t] = cs
        all_stale |= stale

    # StaleReads gate: remaining reads of IntMerge-joined fields will
    # observe values other shards are concurrently bumping.
    if weak_reads != WEAK_READS_AUTO:
        assert isinstance(weak_reads, set)
        if not all_stale <= weak_reads:
            raise StaleReadsRejected(all_stale - weak_reads)

    return ShardingSignature(
        contract_name, tuple(selected), constraints, joins,
        frozenset(all_stale))


def _alias_constraints(summary: Summary) -> set[Constraint]:
    """Fig. 9 bottom row: accesses m[x], m[y] need NoAliases⟨x, y⟩."""
    by_field: dict[str, set[tuple[Key, ...]]] = {}
    for eff in summary.effects:
        pf = None
        if isinstance(eff, (Read, Write)):
            pf = eff.pf
        if pf is not None and pf.keys:
            by_field.setdefault(pf.field, set()).add(pf.keys)
    out: set[Constraint] = set()
    for paths in by_field.values():
        ordered = sorted(paths, key=str)
        for i, p1 in enumerate(ordered):
            for p2 in ordered[i + 1:]:
                if len(p1) != len(p2):
                    continue
                # Proven disjoint by differing constants at any position?
                from .domain import ConstKey
                disjoint = any(
                    isinstance(a, ConstKey) and isinstance(b, ConstKey)
                    and a != b for a, b in zip(p1, p2))
                if disjoint or p1 == p2:
                    continue
                for a, b in zip(p1, p2):
                    if a != b:
                        out.add(NoAliases(str(a), str(b)))
    return out


def signature_for(
    contract_name: str,
    summaries: dict[str, Summary],
    selected: tuple[str, ...],
    weak_reads: set[str] | str = WEAK_READS_AUTO,
    allow_commutativity: bool = True,
) -> ShardingSignature | None:
    """Like :func:`derive_signature`, but falls back to the pure
    ownership strategy (Strategy 1) when stale reads are rejected."""
    try:
        return derive_signature(contract_name, summaries, selected,
                                weak_reads, allow_commutativity)
    except StaleReadsRejected:
        return derive_signature(contract_name, summaries, selected,
                                weak_reads, allow_commutativity=False)


def signatures_equal(a: ShardingSignature, b: ShardingSignature) -> bool:
    """Used by miners to validate a submitted signature (Sec. 4.3)."""
    return (a.contract == b.contract and set(a.selected) == set(b.selected)
            and a.constraints == b.constraints and a.joins == b.joins)
