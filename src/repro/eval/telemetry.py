"""Instrumented workload runs: the data source of ``repro metrics``.

A fresh CLI process has no accumulated telemetry, so the ``metrics``
subcommand (and the differential-telemetry tests) run one of the
Fig. 14 workloads on a fully instrumented network and report the
registry that run filled.  The same helper backs
``tests/test_telemetry_differential.py``, which re-runs a workload,
and runs it across a crash + resume, and demands byte-identical
deterministic counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..chain.network import Network
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_TRACER, Tracer
from ..workloads import ALL_WORKLOADS, workload_by_name

WORKLOAD_NAMES = tuple(cls.name for cls in ALL_WORKLOADS)


@dataclass
class TelemetryRun:
    """One instrumented workload run and everything it recorded."""

    workload: str
    n_shards: int
    epochs: int
    committed: int = 0
    tps: float = 0.0
    registry: MetricsRegistry = dc_field(default_factory=MetricsRegistry)
    tracer: Tracer | None = None

    @property
    def deterministic(self) -> dict:
        return self.registry.deterministic_snapshot()


def run_instrumented(workload: str = "FT transfer", epochs: int = 3,
                     txns_per_epoch: int = 60, n_users: int = 48,
                     n_shards: int = 4, seed: int = 7, use_signatures: bool = True,
                     trace: bool = False,
                     registry: MetricsRegistry | None = None,
                     data_dir: str | None = None) -> TelemetryRun:
    """Run ``epochs`` measured epochs of one Fig. 14 workload on an
    instrumented network and return the filled registry (plus the
    span tree when ``trace`` is set).

    ``registry`` lets a caller accumulate several runs into one sink;
    ``data_dir`` attaches durability, so the run exercises the WAL and
    snapshot telemetry too.
    """
    cls = workload_by_name(workload)
    wl = cls(n_users=n_users, txns_per_epoch=txns_per_epoch, seed=seed)
    reg = MetricsRegistry() if registry is None else registry
    tracer = Tracer() if trace else NULL_TRACER
    net = Network(n_shards, use_signatures=use_signatures, metrics=reg,
                  tracer=tracer, data_dir=data_dir)
    try:
        wl.setup(net)
        committed = 0
        for epoch in range(epochs):
            block = net.process_epoch(wl.transactions(epoch))
            committed += block.stats.committed
        tps = net.average_tps()
        # Modeled-clock TPS is deterministic (cost model, not wall
        # time); exported in milli-tx/s so the snapshot holds an int.
        reg.gauge("net.average_tps_milli").set(int(tps * 1000))
    finally:
        net.close()
    return TelemetryRun(
        workload=workload, n_shards=n_shards,
        epochs=epochs, committed=committed, tps=tps, registry=reg,
        tracer=tracer if trace else None)


def format_telemetry(run: TelemetryRun) -> str:
    """The human-oriented report: header, instruments, span tree."""
    lines = [
        f"workload:  {run.workload}",
        f"shards:    {run.n_shards}",
        f"epochs:    {run.epochs}   committed: {run.committed}   "
        f"avg tps: {run.tps:.2f}",
        "",
        run.registry.to_text(),
    ]
    if run.tracer is not None and run.tracer.roots:
        lines += ["", "spans:", run.tracer.flame(min_ratio=0.01)]
    return "\n".join(lines)
