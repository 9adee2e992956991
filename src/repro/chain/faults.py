"""Deterministic fault injection for the sharded network simulator.

The paper's guarantees — signature-routed transactions commute, the
FSD merge is deterministic — are only worth reproducing if they
survive the failures a real sharded chain sees (Zilliqa's testbed had
crashing and lagging shard nodes; Chainspace assumes outright
byzantine shards).  This module provides the *attack side* of that
story; :mod:`repro.chain.recovery` provides the safety nets.

Everything here is seeded and deterministic: a :class:`FaultPlan` is a
pure function of its seed, and every tampering decision derives its
RNG from ``(seed, epoch, shard)``, so two runs with the same plan
inject byte-identical faults regardless of what else the process did.

Fault taxonomy
--------------

Shard-lane faults (the lane is excluded and its queue re-executed on
the DS lane — see ``docs/FAULTS.md``):

* ``CRASH_SHARD``      — the shard dies before producing a MicroBlock.
* ``DELAY_MICROBLOCK`` — the MicroBlock arrives after the consensus
  timeout; the DS committee has already started a view change.
* ``DROP_MICROBLOCK``  — the MicroBlock is lost in transit.
* ``CORRUPT_DELTA``    — a bit-flip re-keys one of the shard's
  StateDelta rows to a location outside its ownership footprint, or
  flips its join kind.
* ``FORGE_DELTA``      — a byzantine shard fabricates a delta row
  (foreign-owned key, or a join kind that contradicts the deployed
  signature).

Mempool churn (changes the submitted workload, so it is excluded from
fault/no-fault equivalence checks):

* ``DROP_TX`` / ``DUPLICATE_TX`` / ``REORDER_TXNS``.

Corruptions are *detectable by construction*: the injector only
applies a tampering if the validator the network hands it rejects the
result.  A planned corruption that cannot be made detectable (e.g. the
lane produced no delta to corrupt) is skipped and logged — it never
silently poisons the merge.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from ..core.joins import JoinKind
from ..scilla.values import (
    BNumVal, ByStrVal, IntVal, StringVal, Value, uint,
)
from .delta import DeltaEntry, StateDelta
from .transaction import Transaction


class FaultKind(enum.Enum):
    CRASH_SHARD = "crash-shard"
    DELAY_MICROBLOCK = "delay-microblock"
    DROP_MICROBLOCK = "drop-microblock"
    CORRUPT_DELTA = "corrupt-delta"
    FORGE_DELTA = "forge-delta"
    DROP_TX = "drop-tx"
    DUPLICATE_TX = "duplicate-tx"
    REORDER_TXNS = "reorder-txns"
    FLOOD = "flood"
    STALL_CONSUMER = "stall-consumer"

    def __str__(self) -> str:
        return self.value


# Lane-level kinds: discovered by the DS committee as a missing
# MicroBlock (timeout) ...
MICROBLOCK_FAULTS = frozenset({
    FaultKind.DELAY_MICROBLOCK, FaultKind.DROP_MICROBLOCK,
})
# ... or as an invalid StateDelta (byzantine).
DELTA_FAULTS = frozenset({
    FaultKind.CORRUPT_DELTA, FaultKind.FORGE_DELTA,
})
# Mempool-level kinds: alter the submitted transaction stream.
CHURN_FAULTS = frozenset({
    FaultKind.DROP_TX, FaultKind.DUPLICATE_TX, FaultKind.REORDER_TXNS,
})
# Service-level kinds: attack the *ingestion* path, not the epoch
# pipeline.  ``FLOOD`` multiplies the offered load for one tick;
# ``STALL_CONSUMER`` freezes the service loop's drain for one tick
# (producers keep submitting).  Keyed by service tick, not network
# epoch — a stalled tick processes no epoch.  Handled entirely by
# repro.chain.service: admission control sheds the excess and the
# committed stream stays replay-equivalent, but the *set* of committed
# transactions legitimately changes, so these are not in
# EQUIVALENCE_PRESERVING.
SERVICE_FAULTS = frozenset({
    FaultKind.FLOOD, FaultKind.STALL_CONSUMER,
})
# Kinds for which recovery guarantees fault/no-fault end-state
# equivalence on signature-routed workloads.
EQUIVALENCE_PRESERVING = frozenset({
    FaultKind.CRASH_SHARD, FaultKind.DELAY_MICROBLOCK,
    FaultKind.DROP_MICROBLOCK, FaultKind.CORRUPT_DELTA,
    FaultKind.FORGE_DELTA,
})


@dataclass(frozen=True)
class FaultEvent:
    """One planned fault.  ``shard`` is ``None`` for mempool churn."""

    epoch: int
    kind: FaultKind
    shard: int | None = None

    def __str__(self) -> str:
        where = f" shard {self.shard}" if self.shard is not None else ""
        return f"epoch {self.epoch}{where}: {self.kind}"


class FaultPlan:
    """A deterministic schedule of faults, keyed by epoch.

    Build one explicitly from :class:`FaultEvent` objects, or generate
    one with :meth:`FaultPlan.random` — the latter is a pure function
    of its arguments, so the same seed always yields the same plan.
    """

    def __init__(self, events: list[FaultEvent] | tuple[FaultEvent, ...] = (),
                 seed: int = 0):
        self.seed = seed
        self.events: tuple[FaultEvent, ...] = tuple(sorted(
            events, key=lambda e: (e.epoch, e.kind.value,
                                   -1 if e.shard is None else e.shard)))
        self._by_epoch: dict[int, list[FaultEvent]] = {}
        for event in self.events:
            self._by_epoch.setdefault(event.epoch, []).append(event)

    @classmethod
    def random(cls, seed: int, epochs: int, n_shards: int,
               crash_rate: float = 0.12, delay_rate: float = 0.08,
               drop_rate: float = 0.05, corrupt_rate: float = 0.08,
               forge_rate: float = 0.05, churn_rate: float = 0.0,
               first_epoch: int = 1, flood_rate: float = 0.0,
               stall_rate: float = 0.0) -> "FaultPlan":
        """Sample at most one lane fault per (epoch, shard).

        A single uniform draw per cell is partitioned by the rates, so
        the plan is stable under rate-preserving refactors and never
        schedules two contradictory faults for the same lane.
        """
        rng = random.Random(seed)
        lane_kinds = (
            (FaultKind.CRASH_SHARD, crash_rate),
            (FaultKind.DELAY_MICROBLOCK, delay_rate),
            (FaultKind.DROP_MICROBLOCK, drop_rate),
            (FaultKind.CORRUPT_DELTA, corrupt_rate),
            (FaultKind.FORGE_DELTA, forge_rate),
        )
        events: list[FaultEvent] = []
        for epoch in range(first_epoch, first_epoch + epochs):
            for shard in range(n_shards):
                draw = rng.random()
                for kind, rate in lane_kinds:
                    if draw < rate:
                        events.append(FaultEvent(epoch, kind, shard))
                        break
                    draw -= rate
            for kind in (FaultKind.DROP_TX, FaultKind.DUPLICATE_TX,
                         FaultKind.REORDER_TXNS):
                if rng.random() < churn_rate:
                    events.append(FaultEvent(epoch, kind))
            # Service faults draw only when enabled, so plans generated
            # before they existed are reproduced byte-identically from
            # the same seed when their rates are zero (unlike churn,
            # whose draws predate this rule and stay unconditional).
            for kind, rate in ((FaultKind.FLOOD, flood_rate),
                               (FaultKind.STALL_CONSUMER, stall_rate)):
                if rate > 0 and rng.random() < rate:
                    events.append(FaultEvent(epoch, kind))
        return cls(events, seed=seed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return (self.seed, self.events) == (other.seed, other.events)

    def __hash__(self) -> int:
        return hash((self.seed, self.events))

    # -- wire format (the WAL's init record persists the plan) -----------------

    def to_obj(self):
        """JSON-able form; together with the seed this reconstructs
        the plan exactly, including explicitly-built ones."""
        return {
            "seed": self.seed,
            "events": [{"epoch": e.epoch, "kind": e.kind.value,
                        "shard": e.shard} for e in self.events],
        }

    @classmethod
    def from_obj(cls, data) -> "FaultPlan":
        return cls([FaultEvent(e["epoch"], FaultKind(e["kind"]),
                               e["shard"]) for e in data["events"]],
                   seed=data["seed"])

    # -- queries ---------------------------------------------------------------

    def events_for(self, epoch: int) -> list[FaultEvent]:
        return list(self._by_epoch.get(epoch, ()))

    def lane_faults(self, epoch: int,
                    kinds: frozenset[FaultKind]) -> dict[int, FaultKind]:
        out: dict[int, FaultKind] = {}
        for event in self._by_epoch.get(epoch, ()):
            if event.kind in kinds and event.shard is not None:
                out.setdefault(event.shard, event.kind)
        return out

    @property
    def equivalence_preserving(self) -> bool:
        """True iff recovery guarantees the fault-free end state."""
        return all(e.kind in EQUIVALENCE_PRESERVING for e in self.events)

    def describe(self) -> str:
        if not self.events:
            return "(no faults planned)"
        return "\n".join(str(e) for e in self.events)

    def __len__(self) -> int:
        return len(self.events)


# --------------------------------------------------------------------------
# Key perturbation: derive a *different* map key of the same type, so a
# corrupted entry lands in (usually) another shard's footprint.
# --------------------------------------------------------------------------

def _perturb_key(value: Value, step: int) -> Value | None:
    if isinstance(value, IntVal):
        return IntVal(value.value + step + 1, value.typ)
    if isinstance(value, StringVal):
        return StringVal(value.value + "\x00" * (step + 1))
    if isinstance(value, ByStrVal):
        body = value.hex[2:] if value.hex.startswith("0x") else value.hex
        width = len(body)
        flipped = (int(body, 16) + step + 1) % (16 ** width)
        return ByStrVal("0x" + format(flipped, f"0{width}x"), value.typ)
    if isinstance(value, BNumVal):
        return BNumVal(value.value + step + 1)
    return None  # ADT / map keys: no safe generic perturbation


class FaultInjector:
    """Applies a :class:`FaultPlan` to a running network.

    The network consults the injector at three points of an epoch:
    mempool churn before dispatch, lane faults after the shard phase,
    and delta tampering before the DS validates/merges.  The injector
    records everything it did (or skipped) in ``log``.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.log: list[str] = []
        self.dropped: list[Transaction] = []
        self.injected = 0
        self.skipped = 0

    def _rng(self, epoch: int, salt: int) -> random.Random:
        return random.Random(self.plan.seed * 1_000_003
                             + epoch * 8191 + salt)

    # -- lane faults -----------------------------------------------------------

    def crashed_shards(self, epoch: int) -> list[int]:
        return sorted(self.plan.lane_faults(
            epoch, frozenset({FaultKind.CRASH_SHARD})))

    def microblock_faults(self, epoch: int) -> dict[int, FaultKind]:
        return self.plan.lane_faults(epoch, MICROBLOCK_FAULTS)

    def delta_faults(self, epoch: int) -> dict[int, FaultKind]:
        return self.plan.lane_faults(epoch, DELTA_FAULTS)

    # -- service faults (consulted by repro.chain.service, per tick) -----------

    def consumer_stalled(self, tick: int) -> bool:
        """True if the service loop must skip draining this tick."""
        return any(e.kind is FaultKind.STALL_CONSUMER
                   for e in self.plan.events_for(tick))

    def flood_multiplier(self, tick: int) -> int:
        """Load multiplier for this tick: 1 normally, 2–4 (seeded,
        deterministic) when a FLOOD event is planned."""
        if not any(e.kind is FaultKind.FLOOD
                   for e in self.plan.events_for(tick)):
            return 1
        return self._rng(tick, salt=-13).randint(2, 4)

    # -- mempool churn ---------------------------------------------------------

    def churn_mempool(self, epoch: int, txns: list[Transaction],
                      log: list[str]) -> list[Transaction]:
        """Drop, duplicate, or reorder the epoch's submissions."""
        events = [e for e in self.plan.events_for(epoch)
                  if e.kind in CHURN_FAULTS]
        if not events:
            return txns
        out = list(txns)
        rng = self._rng(epoch, salt=-7)
        for event in events:
            if event.kind is FaultKind.DROP_TX and out:
                victim = out.pop(rng.randrange(len(out)))
                self.dropped.append(victim)
                self._note(log, f"epoch {epoch}: mempool dropped a "
                                f"transaction from {victim.sender} "
                                f"(nonce {victim.nonce})")
            elif event.kind is FaultKind.DUPLICATE_TX and out:
                victim = out[rng.randrange(len(out))]
                out.append(victim)
                self._note(log, f"epoch {epoch}: mempool duplicated a "
                                f"transaction from {victim.sender} "
                                f"(nonce {victim.nonce})")
            elif event.kind is FaultKind.REORDER_TXNS and len(out) > 1:
                rng.shuffle(out)
                self._note(log, f"epoch {epoch}: mempool reordered "
                                f"{len(out)} transactions")
        return out

    # -- delta tampering -------------------------------------------------------

    def tamper_deltas(self, epoch: int, shard: int, kind: FaultKind,
                      lane_deltas: list[StateDelta], net,
                      validator, log: list[str]) -> bool:
        """Corrupt or forge the lane's deltas, *detectably*.

        ``validator`` is the same delta-footprint check the DS
        committee runs (see :func:`repro.chain.recovery.validate_delta`
        wrapped by the network); a candidate corruption is only applied
        if the validator rejects it, so injected byzantine behaviour
        can never slip past the safety net into the merge.  Returns
        whether a tampering was applied.
        """
        for preview, apply, where in self._corruption_candidates(
                shard, kind, lane_deltas, net):
            if validator(preview) is None:
                continue  # undetectable — keep searching
            apply()
            self.injected += 1
            self._note(log, f"epoch {epoch}: shard {shard} {kind} "
                            f"on {where}")
            return True
        self.skipped += 1
        self._note(log, f"epoch {epoch}: shard {shard} {kind} skipped "
                        f"(no detectable corruption available)")
        return False

    def _corruption_candidates(self, shard: int, kind: FaultKind,
                               lane_deltas: list[StateDelta], net):
        """Yield ``(preview, apply, description)`` candidates in a
        deterministic order: foreign re-keys first, then join-kind
        forgeries, then fabricated whole-field writes — over each
        delta's rows in its ``entries`` order.  ``preview`` is a fresh
        StateDelta showing the post-tamper result; ``apply`` installs
        its columns into the lane's delta for real."""
        corrupt = kind is FaultKind.CORRUPT_DELTA
        for delta in lane_deltas:
            rows = list(delta.entries)
            for index, entry in enumerate(rows):
                field, keys = entry.key
                bads: list[DeltaEntry] = []
                if keys:
                    for step in range(4):
                        perturbed = _perturb_key(keys[0], step)
                        if perturbed is None:
                            break
                        bads.append(entry._replace(
                            key=(field, (perturbed,) + keys[1:])))
                # Join-kind forgery: claim the opposite merge semantics.
                bads.append(self._flip_kind(entry))
                for bad in bads:
                    entries = list(rows)
                    if corrupt:
                        entries[index] = bad
                    else:
                        entries.append(bad)
                    preview = StateDelta.from_entries(
                        delta.contract, delta.shard, entries)
                    yield (preview,
                           self._installer(delta, preview),
                           f"{field!r} of {delta.contract}")
        # Nothing to corrupt in place: fabricate a whole-field write.
        for address in sorted(net.contracts):
            state = net.contracts[address].state
            for name in sorted(state.field_types):
                value = state.fields.get(name)
                if value is None:
                    continue
                forged = StateDelta.from_entries(address, shard, [DeltaEntry(
                    (name, ()), JoinKind.OWN_OVERWRITE, new_value=value)])
                yield (forged, lambda f=forged: lane_deltas.append(f),
                       f"fabricated {name!r} of {address}")

    @staticmethod
    def _installer(delta: StateDelta, tampered: StateDelta):
        def apply():
            delta.columns[:] = tampered.columns
        return apply

    @staticmethod
    def _flip_kind(entry: DeltaEntry) -> DeltaEntry:
        """The row claiming the other join kind.  The value it carries
        is never merged: the validator rejects the kind first."""
        if entry.kind is JoinKind.INT_MERGE:
            return DeltaEntry(entry.key, JoinKind.OWN_OVERWRITE,
                              new_value=uint(1))
        value = (entry.new_value if isinstance(entry.new_value, IntVal)
                 else uint(1))
        return DeltaEntry(entry.key, JoinKind.INT_MERGE, int_diff=1,
                          typ=value.typ)

    def _note(self, log: list[str], line: str) -> None:
        self.log.append(line)
        log.append(line)
