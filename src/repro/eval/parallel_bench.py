"""``repro bench parallel`` — resident-worker epoch throughput.

Times the eight Fig. 14 workloads through three execution modes at a
fixed shard/worker count:

* **serial** — the in-process reference loop (no lanes at all);
* **fresh** — parallel lanes with per-epoch payloads
  (``Network(resident=False)``): every epoch re-ships each lane its
  accounts, nonces and (sliced) contract state;
* **resident** — long-lived per-lane workers holding resident shard
  state (``Network(resident=True)``): a one-time install, then only
  the lane's transactions plus merge-deltas cross the boundary.

The headline ``speedup`` is **fresh ÷ resident at equal worker
counts** — the win attributable to resident state, measurable even on
a single-core runner.  ``speedup_vs_serial`` is also recorded and is
honest: on boxes without spare cores it will be below 1.0 for thread
pools, which is exactly what the paper's Fig. 14 caveats predict.

Worker counts are recorded honestly: ``requested`` is what the caller
asked for (``None`` → the shard-aligned default
``min(n_shards, os.cpu_count())``), ``effective`` is what the lanes
actually used, and ``cpu_count`` pins the hardware context.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field as dc_field

from ..chain.network import Network
from ..workloads.generators import ALL_WORKLOADS, Workload

#: Workloads whose transactions spread across the whole user
#: population — these get the large population that makes per-epoch
#: payload shipping expensive.  The other two (FT fund's single
#: funder, ProofIPFS's append-only registry) stay small: they are the
#: paper's non-scaling controls.
POPULATION_HEAVY = frozenset({
    "FTTransfer", "CFDonate", "NFTMint", "NFTTransfer",
    "UDBestow", "UDConfig",
})

HEAVY_USERS = 4000
LIGHT_USERS = 240
TXNS_PER_EPOCH = 48
EPOCHS = 12
N_SHARDS = 4
SPEEDUP_DEFINITION = (
    "fresh-payload parallel wall time divided by resident-worker wall "
    "time at equal shard and worker counts; speedup_vs_serial compares "
    "resident against the serial reference loop")


def default_bench_workers(n_shards: int = N_SHARDS) -> int:
    """Shard-aligned, CPU-derived default: one worker per shard lane,
    capped by the machine's core count (never the old hard-coded 1)."""
    return max(1, min(n_shards, os.cpu_count() or 1))


@dataclass
class WorkloadTiming:
    workload: str
    n_users: int
    txns_per_epoch: int
    serial_s: float
    fresh_s: float
    resident_s: float

    @property
    def speedup(self) -> float:
        return self.fresh_s / self.resident_s if self.resident_s else 0.0

    @property
    def speedup_vs_serial(self) -> float:
        return self.serial_s / self.resident_s if self.resident_s else 0.0


@dataclass
class ParallelBenchResult:
    """Per-workload and aggregate epoch timings for the three modes."""

    requested_workers: int | None
    effective_workers: int
    executor: str
    n_shards: int
    epochs: int
    rows: list[WorkloadTiming] = dc_field(default_factory=list)
    fallbacks: int = 0
    resident_counters: dict[str, int] = dc_field(default_factory=dict)
    cpu_count: int = 0

    @property
    def serial_s(self) -> float:
        return sum(r.serial_s for r in self.rows)

    @property
    def fresh_s(self) -> float:
        return sum(r.fresh_s for r in self.rows)

    @property
    def resident_s(self) -> float:
        return sum(r.resident_s for r in self.rows)

    @property
    def speedup(self) -> float:
        return self.fresh_s / self.resident_s if self.resident_s else 0.0

    @property
    def speedup_vs_serial(self) -> float:
        return self.serial_s / self.resident_s if self.resident_s else 0.0

    def to_json_dict(self) -> dict:
        return {
            "benchmark": "parallel-epochs",
            "executor": self.executor,
            "n_shards": self.n_shards,
            "epochs": self.epochs,
            "workers": {
                "requested": self.requested_workers,
                "effective": self.effective_workers,
                "default": default_bench_workers(self.n_shards),
                "cpu_count": self.cpu_count,
            },
            "speedup_definition": SPEEDUP_DEFINITION,
            "workloads": [
                {
                    "workload": r.workload,
                    "n_users": r.n_users,
                    "txns_per_epoch": r.txns_per_epoch,
                    "serial_s": round(r.serial_s, 4),
                    "fresh_s": round(r.fresh_s, 4),
                    "resident_s": round(r.resident_s, 4),
                    "speedup": round(r.speedup, 2),
                    "speedup_vs_serial": round(r.speedup_vs_serial, 2),
                }
                for r in self.rows
            ],
            "timing": {
                "serial_s": round(self.serial_s, 4),
                "fresh_s": round(self.fresh_s, 4),
                "resident_s": round(self.resident_s, 4),
                "speedup": round(self.speedup, 2),
                "speedup_vs_serial": round(self.speedup_vs_serial, 2),
            },
            "fallbacks": self.fallbacks,
            "resident": dict(sorted(self.resident_counters.items())),
        }


def _bench_sizes(cls: type[Workload]) -> tuple[int, int]:
    heavy = cls.__name__ in POPULATION_HEAVY
    return (HEAVY_USERS if heavy else LIGHT_USERS), TXNS_PER_EPOCH


def _time_mode(cls: type[Workload], mode: str, n_users: int, txns: int,
               epochs: int, n_shards: int, executor: str,
               workers: int) -> tuple[float, Network]:
    from ..obs.metrics import MetricsRegistry
    registry = MetricsRegistry()  # all modes pay the same metering cost
    if mode == "serial":
        net = Network(n_shards, use_signatures=True, executor="serial",
                      metrics=registry)
    else:
        net = Network(n_shards, use_signatures=True, executor=executor,
                      lane_workers=workers, resident=(mode == "resident"),
                      metrics=registry)
    workload = cls(n_users=n_users, txns_per_epoch=txns, seed=11)
    workload.setup(net)
    t0 = time.perf_counter()
    for epoch in range(epochs):
        net.process_epoch(workload.transactions(epoch))
    return time.perf_counter() - t0, net


def run_parallel_bench(workers: int | None = None,
                       epochs: int = EPOCHS,
                       n_shards: int = N_SHARDS,
                       executor: str = "thread",
                       workloads: list[type[Workload]] | None = None,
                       ) -> ParallelBenchResult:
    """Run all three modes for every workload and collect timings.

    Each mode gets a fresh ``Network`` (no cross-talk); the timed
    region covers only the epoch loop, never contract deployment or
    preparation epochs.  Resident telemetry (install/sync counters) is
    aggregated from the resident runs' metrics registries so the JSON
    artifact proves the resident path actually engaged.
    """
    effective = workers if workers is not None \
        else default_bench_workers(n_shards)
    result = ParallelBenchResult(
        requested_workers=workers,
        effective_workers=effective,
        executor=executor,
        n_shards=n_shards,
        epochs=epochs,
        cpu_count=os.cpu_count() or 1,
    )
    for cls in workloads if workloads is not None else ALL_WORKLOADS:
        n_users, txns = _bench_sizes(cls)
        serial_s, _ = _time_mode(cls, "serial", n_users, txns, epochs,
                                 n_shards, executor, effective)
        fresh_s, fresh_net = _time_mode(cls, "fresh", n_users, txns,
                                        epochs, n_shards, executor,
                                        effective)
        resident_s, resident_net = _time_mode(cls, "resident", n_users,
                                              txns, epochs, n_shards,
                                              executor, effective)
        result.fallbacks += fresh_net.executor_fallbacks
        result.fallbacks += resident_net.executor_fallbacks
        result.rows.append(WorkloadTiming(
            cls.name, n_users, txns, serial_s, fresh_s, resident_s))
        counters = resident_net.metrics.snapshot()["counters"]
        for name, payload in counters.items():
            if name.startswith("lane.resident."):
                result.resident_counters[name] = \
                    result.resident_counters.get(name, 0) \
                    + payload["value"]
    return result


def format_parallel_bench(result: ParallelBenchResult) -> str:
    lines = [
        f"Parallel epochs — {len(result.rows)} workloads, "
        f"{result.n_shards} shards, {result.effective_workers} "
        f"{result.executor} worker(s), {result.epochs} epochs "
        f"(cpu_count={result.cpu_count})",
        "",
        f"  {'workload':16s} {'users':>6s} {'serial':>9s} {'fresh':>9s} "
        f"{'resident':>9s} {'speedup':>8s}",
    ]
    for r in result.rows:
        lines.append(
            f"  {r.workload:16s} {r.n_users:>6d} {r.serial_s:>8.3f}s "
            f"{r.fresh_s:>8.3f}s {r.resident_s:>8.3f}s "
            f"{r.speedup:>7.2f}x")
    lines += [
        "",
        f"  total            {'':>6s} {result.serial_s:>8.3f}s "
        f"{result.fresh_s:>8.3f}s {result.resident_s:>8.3f}s "
        f"{result.speedup:>7.2f}x",
        "",
        f"  speedup (fresh/resident): {result.speedup:.2f}x",
        f"  speedup vs serial:        {result.speedup_vs_serial:.2f}x",
    ]
    if result.fallbacks:
        lines.append(
            f"  WARNING: {result.fallbacks} lane run(s) silently fell "
            "back to the serial loop")
    return "\n".join(lines)


def write_parallel_bench(result: ParallelBenchResult, path) -> None:
    """Write ``BENCH_parallel.json`` (stable key order, trailing \\n)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result.to_json_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
