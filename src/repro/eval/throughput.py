"""Fig. 14 — average TPS per workload as a function of shard count.

Deploys each of the five evaluation contracts in two configurations —
no sharding information (baseline) and a "reasonable" signature
(Sec. 5.2's selections) — and subjects them to sustained workloads
over several epochs.  The network is saturated (offered load exceeds
per-lane gas capacity), so committed throughput measures how much
parallel capacity each configuration actually unlocks, exactly the
quantity Fig. 14 plots.

Absolute TPS depends on the cost-model calibration (our substitute for
the EC2 testbed); the paper-relevant observable is the *shape*: near-
linear scaling for FT transfer / CF donate / NFT mint / NFT transfer /
UD bestow / UD config, and no scaling (but no regression) for FT fund
and ProofIPFS register.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..chain.consensus import CostModel
from ..chain.network import Network, NetworkConfig
from ..workloads.generators import ALL_WORKLOADS, Workload


@dataclass(frozen=True)
class Config:
    label: str
    n_shards: int
    use_signatures: bool


DEFAULT_CONFIGS = (
    Config("Baseline 3 shards", 3, False),
    Config("CoSplit 3 shards", 3, True),
    Config("CoSplit 4 shards", 4, True),
    Config("CoSplit 5 shards", 5, True),
)

# Saturation-scale cost model: per-epoch gas limits sized so one lane
# commits on the order of a hundred transactions, keeping the Python-
# interpreted experiment tractable while preserving the capacity
# relationships (N shard lanes + 1 DS lane) of the real network.
FIG14_COST_MODEL = CostModel(
    gas_per_second=25_000.0,
    consensus_base_s=2.0,
    consensus_per_node2_s=0.01,
    shard_gas_limit=4_000,
    ds_gas_limit=4_000,
)


@dataclass
class Fig14Cell:
    workload: str
    config: str
    tps: float
    committed: int
    offered: int
    ds_fraction: float


@dataclass
class Fig14Result:
    epochs: int
    txns_per_epoch: int
    cells: list[Fig14Cell] = dc_field(default_factory=list)

    def __post_init__(self) -> None:
        # (workload, config) index over the cells, so per-cell lookups
        # are O(1) instead of a linear scan per call (format_fig14
        # calls tps() for every table entry).  ``config_order``
        # remembers first-seen config order, which series() preserves.
        self._index: dict[tuple[str, str], Fig14Cell] = {}
        self._config_order: list[str] = []
        for cell in self.cells:
            self._note(cell)

    def _note(self, cell: Fig14Cell) -> None:
        self._index[(cell.workload, cell.config)] = cell
        if cell.config not in self._config_order:
            self._config_order.append(cell.config)

    def add(self, cell: Fig14Cell) -> None:
        self.cells.append(cell)
        self._note(cell)

    @property
    def config_order(self) -> list[str]:
        return list(self._config_order)

    def tps(self, workload: str, config: str) -> float:
        cell = self._index.get((workload, config))
        if cell is None:
            raise KeyError((workload, config))
        return cell.tps

    def series(self, workload: str) -> list[float]:
        """TPS per config for one workload, in config insertion order."""
        return [self._index[(workload, config)].tps
                for config in self._config_order
                if (workload, config) in self._index]


def run_workload(workload: Workload, config: Config, epochs: int,
                 cost_model: CostModel = FIG14_COST_MODEL) -> Fig14Cell:
    net = Network(config.n_shards, NetworkConfig(
        use_signatures=config.use_signatures, cost_model=cost_model))
    workload.setup(net)
    committed = 0
    offered = 0
    ds_handled = 0
    for epoch in range(epochs):
        txns = workload.transactions(epoch)
        offered += len(txns)
        block = net.process_epoch(txns)
        committed += block.n_committed
        ds_handled += sum(1 for r in block.ds_receipts if r.success)
    return Fig14Cell(
        workload=workload.name,
        config=config.label,
        tps=net.average_tps(),
        committed=committed,
        offered=offered,
        ds_fraction=ds_handled / committed if committed else 0.0,
    )


def run_fig14(epochs: int = 10, txns_per_epoch: int = 500,
              configs=DEFAULT_CONFIGS,
              workload_classes=None,
              cost_model: CostModel = FIG14_COST_MODEL,
              n_users: int = 240) -> Fig14Result:
    workload_classes = workload_classes or ALL_WORKLOADS
    result = Fig14Result(epochs=epochs, txns_per_epoch=txns_per_epoch)
    for cls in workload_classes:
        for config in configs:
            kwargs = {"txns_per_epoch": txns_per_epoch}
            if cls.__name__ != "CFDonate":
                kwargs["n_users"] = n_users
            else:
                # Donations are one-shot per backer; need enough donors.
                kwargs["n_users"] = max(n_users,
                                        txns_per_epoch * epochs + 10)
            workload = cls(**kwargs)
            result.add(run_workload(workload, config, epochs, cost_model))
    return result


def format_fig14(result: Fig14Result) -> str:
    configs = []
    for cell in result.cells:
        if cell.config not in configs:
            configs.append(cell.config)
    workloads = []
    for cell in result.cells:
        if cell.workload not in workloads:
            workloads.append(cell.workload)

    lines = [
        f"Fig. 14 — average TPS over {result.epochs} epochs "
        f"({result.txns_per_epoch} offered txns/epoch)",
        "",
        f"{'workload':20s}" + "".join(f"{c:>22s}" for c in configs),
    ]
    for w in workloads:
        row = f"{w:20s}"
        base_tps = None
        for c in configs:
            tps = result.tps(w, c)
            if base_tps is None:
                base_tps = tps
                row += f"{tps:>18.1f}    "
            else:
                speedup = tps / base_tps if base_tps else 0.0
                row += f"{tps:>14.1f} ({speedup:>4.1f}x)"
        lines.append(row)
    lines.append("")
    lines.append("(speedups are relative to the baseline configuration)")
    return "\n".join(lines)
