"""MicroBlocks, FinalBlocks and receipts (Fig. 10's data artefacts)."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields

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

    @property
    def deferred(self) -> bool:
        """Never ran — its lane was out of epoch gas — so this is a
        retry, not an executed failure (``Network._process_epoch``)."""
        return not self.success and \
            (self.error or "").startswith("deferred:")


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
class EpochStats:
    dispatched: int = 0
    committed: int = 0
    failed: int = 0
    deferred: int = 0
    to_ds: int = 0
    per_shard: dict[int, int] = dc_field(default_factory=dict)
    # Why: dispatch reason class (dispatch.REASON_KINDS) -> count.
    reasons: dict[str, int] = dc_field(default_factory=dict)
    # The epoch's submissions, before injected churn (``dispatched``
    # counts what churn left).
    offered: int = 0
    # Recovery bookkeeping (see repro.chain.recovery).
    recovered: int = 0        # txns from excluded lanes rerouted to DS
    reexecuted: int = 0       # of those, actually executed this epoch
    rejected_deltas: int = 0  # byzantine StateDeltas the DS refused
    view_changes: int = 0     # epoch attempts discarded to a rollback


# How many of its newest blocks a network keeps whole; older entries of
# ``Network.blocks`` are headers.  Chosen by measurement (EXPERIMENTS.md
# E12: 2 beats 4, 16 and 64 on wall clock, collector share and peak RSS
# alike — a body freed while still cache-warm is cheaper to free).
BODY_WINDOW = 2


class BlockBodyReleased(LookupError):
    """The receipts and deltas of a block the network no longer keeps.

    MicroBlocks and StateDeltas are messages of one epoch (Fig. 10):
    once merged, only the state carries forward.  A caller that needs a
    block's receipts later keeps the block ``process_epoch`` returned.
    """


@dataclass
class BlockHeader:
    """What a network keeps of every FinalBlock: the epoch's statistics
    and fault record, a few objects however many transactions it held."""

    epoch: int
    merged_locations: int = 0
    epoch_seconds: float = 0.0
    stats: EpochStats | None = None
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
    def n_committed(self) -> int:
        """The committed count, as stored at commit."""
        return self.stats.committed if self.stats is not None else 0

    @property
    def tps(self) -> float:
        if self.epoch_seconds <= 0:
            return 0.0
        return self.n_committed / self.epoch_seconds

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: on a bare header, for
        # the body a FinalBlock carries as instance attributes.
        if name in ("microblocks", "ds_receipts", "all_receipts"):
            raise BlockBodyReleased(
                f"epoch {self.epoch}: {name} released — a network keeps "
                f"the bodies of its newest {BODY_WINDOW} blocks; keep "
                f"the block process_epoch returned to read it later")
        raise AttributeError(name)


@dataclass
class FinalBlock(BlockHeader):
    """The DS committee's combination of all MicroBlocks (FB + FSD):
    a header plus the epoch's body."""

    microblocks: list[MicroBlock] = dc_field(default_factory=list)
    ds_receipts: list[Receipt] = dc_field(default_factory=list)

    @property
    def all_receipts(self) -> list[Receipt]:
        out: list[Receipt] = []
        for mb in self.microblocks:
            out.extend(mb.receipts)
        out.extend(self.ds_receipts)
        return out

    def deferred_ids(self) -> set[int]:
        """The transactions this block deferred.  A transaction's first
        receipt is its outcome, as the service loop settles it: a churn
        duplicate's later receipts do not count."""
        outcome: dict[int, bool] = {}
        for receipt in self.all_receipts:
            outcome.setdefault(receipt.tx.tx_id, receipt.deferred)
        return {tx_id for tx_id, deferred in outcome.items() if deferred}

    def header(self) -> BlockHeader:
        """This block without its body, sharing the header's values."""
        return BlockHeader(*(getattr(self, f.name)
                             for f in fields(BlockHeader)))
