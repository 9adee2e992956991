"""Sec. 5.2.3 + design ablations.

* Ownership vs commutativity: UD record updates (non-fungible state,
  disjoint overwrites) are enabled by the disjoint-ownership strategy
  alone; FT transfers (fungible state) need the commutativity
  strategy — disabling IntMerge collapses their parallelism.
* Relaxed vs strict nonces (Sec. 4.2.1): single-sender workloads
  (NFT mint) only parallelise under the relaxed nonce rule.
* Weak reads rejected: without accepting stale reads, the derivation
  falls back to ownership-only signatures.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..chain.network import Network, NetworkConfig
from ..workloads.generators import FTTransfer, NFTMint, UDConfig, Workload
from .throughput import FIG14_COST_MODEL, Fig14Cell


@dataclass
class AblationRow:
    experiment: str
    variant: str
    tps: float
    committed: int
    offered: int


@dataclass
class AblationResult:
    rows: list[AblationRow] = dc_field(default_factory=list)

    def tps(self, experiment: str, variant: str) -> float:
        for row in self.rows:
            if row.experiment == experiment and row.variant == variant:
                return row.tps
        raise KeyError((experiment, variant))


def _run(workload: Workload, n_shards: int, epochs: int,
         use_signatures: bool = True, strict_nonces: bool = False,
         allow_commutativity: bool = True) -> Fig14Cell:
    net = Network(n_shards, NetworkConfig(
        use_signatures=use_signatures, cost_model=FIG14_COST_MODEL,
        strict_nonces=strict_nonces))
    # Thread the commutativity switch through the workload's deploy.
    original_deploy = net.deploy

    def deploy(*args, **kwargs):
        kwargs["allow_commutativity"] = allow_commutativity
        return original_deploy(*args, **kwargs)

    net.deploy = deploy  # type: ignore[method-assign]
    workload.setup(net)
    committed = offered = 0
    for epoch in range(epochs):
        txns = workload.transactions(epoch)
        offered += len(txns)
        block = net.process_epoch(txns)
        committed += block.n_committed
    return Fig14Cell(workload.name, "", net.average_tps(), committed,
                     offered, 0.0)


def run_ablation(epochs: int = 4, txns_per_epoch: int = 300,
                 n_shards: int = 4, n_users: int = 240) -> AblationResult:
    result = AblationResult()

    def add(experiment: str, variant: str, cell: Fig14Cell) -> None:
        result.rows.append(AblationRow(
            experiment, variant, cell.tps, cell.committed, cell.offered))

    # Commutativity strategy ablation on fungible transfers.
    for variant, comm in (("full CoSplit", True), ("ownership only", False)):
        wl = FTTransfer(txns_per_epoch=txns_per_epoch, n_users=n_users)
        add("FT transfer", variant,
            _run(wl, n_shards, epochs, allow_commutativity=comm))

    # Ownership strategy alone carries non-fungible record updates
    # (UD config: disjoint overwrites, no shared counters).
    for variant, comm in (("full CoSplit", True), ("ownership only", False)):
        wl = UDConfig(txns_per_epoch=txns_per_epoch, n_users=n_users)
        add("UD config", variant,
            _run(wl, n_shards, epochs, allow_commutativity=comm))

    # Relaxed vs strict nonces on a single-sender workload.
    for variant, strict in (("relaxed nonces", False), ("strict nonces", True)):
        wl = NFTMint(txns_per_epoch=txns_per_epoch, n_users=n_users)
        add("NFT mint", variant,
            _run(wl, n_shards, epochs, strict_nonces=strict))

    return result


def format_ablation(result: AblationResult) -> str:
    lines = ["Sec. 5.2.3 — strategy and protocol ablations", ""]
    lines.append(f"{'experiment':16s} {'variant':18s} {'TPS':>8s} "
                 f"{'committed':>10s} {'offered':>8s}")
    for row in result.rows:
        lines.append(f"{row.experiment:16s} {row.variant:18s} "
                     f"{row.tps:>8.1f} {row.committed:>10d} "
                     f"{row.offered:>8d}")
    return "\n".join(lines)
