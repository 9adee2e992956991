"""MicroBlocks, FinalBlocks and receipts (Fig. 10's data artefacts)."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .delta import StateDelta
from .transaction import Transaction


@dataclass(slots=True)
class Receipt:
    """Outcome of one transaction."""

    tx: Transaction
    success: bool
    gas_used: int
    shard: int              # -1 = DS committee
    error: str | None = None
    events: list = dc_field(default_factory=list)


@dataclass
class MicroBlock:
    """Transactions one shard committed in an epoch, plus its deltas."""

    shard: int
    epoch: int
    receipts: list[Receipt] = dc_field(default_factory=list)
    deltas: list[StateDelta] = dc_field(default_factory=list)
    gas_used: int = 0

    @property
    def n_committed(self) -> int:
        return sum(1 for r in self.receipts if r.success)


@dataclass
class FinalBlock:
    """The DS committee's combination of all MicroBlocks (FB + FSD)."""

    epoch: int
    microblocks: list[MicroBlock] = dc_field(default_factory=list)
    ds_receipts: list[Receipt] = dc_field(default_factory=list)
    merged_locations: int = 0
    epoch_seconds: float = 0.0
    stats: object = None  # EpochStats: dispatch routing breakdown
    # Human-readable log of the faults injected / detected while this
    # epoch was being finalised, in deterministic order.
    fault_log: list[str] = dc_field(default_factory=list)
    # Lanes the DS committee excluded after a timeout or a rejected
    # delta, mapped to the reason (``crash``, ``delay-microblock``, …).
    excluded_lanes: dict[int, str] = dc_field(default_factory=dict)
    # The WAL tag the epoch committed under ("epoch", "setup",
    # "serve", …) — lets reporting separate service-mode epochs from
    # setup/measurement ones (Network.average_tps(tag=...)).
    tag: str = "epoch"

    @property
    def all_receipts(self) -> list[Receipt]:
        out: list[Receipt] = []
        for mb in self.microblocks:
            out.extend(mb.receipts)
        out.extend(self.ds_receipts)
        return out

    @property
    def n_committed(self) -> int:
        return sum(1 for r in self.all_receipts if r.success)

    @property
    def tps(self) -> float:
        if self.epoch_seconds <= 0:
            return 0.0
        return self.n_committed / self.epoch_seconds
