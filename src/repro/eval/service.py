"""Service-mode harness: drive a ServiceLoop like a fleet of clients.

``run_service`` wires the full ingestion path together: a workload
generator produces offered load (optionally multiplied by planned
``FLOOD`` faults), a *well-behaved client* submits it — pausing its
stream while the mempool answers ``Backpressure`` and retrying from
where it stopped, so sender nonce chains survive overload — and the
:class:`~repro.chain.service.ServiceLoop` ticks once per round.  The
client's own buffer is bounded too: offered transactions beyond it are
dropped client-side *before* submission (counted, never submitted), so
a 2x-overload soak holds the whole process's memory bounded, not just
the pool's.

Its correctness oracle lives with the tests: the committed
transactions of the blocks ``process_epoch`` returns, replayed one at
a time on one state per contract, must give the service run's
contract states regardless of floods, stalls, deferrals or shedding
(``tests/test_soundness.py``; the reference is in
``tests/helpers.py``).

The ``write_stream`` / ``iter_stream`` pair is the `repro loadgen` /
`repro serve` wire format: a JSONL header describing the workload
(so the serving side can reproduce contract setup), then one line per
tick holding its transactions as positional rows
(:func:`~repro.chain.serialization.transaction_to_obj`; stream version
2 — a version-1 stream, whose transactions were objects, is refused).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from ..chain.faults import FaultPlan
from ..chain.mempool import (
    LAT_MS_BUCKETS, TICK_BUCKETS, AdmissionStatus, MempoolConfig,
    RejectReason,
)
from ..chain.network import Network, NetworkConfig
from ..chain.serialization import (
    transaction_from_obj, transaction_to_obj,
)
from ..chain.service import ServiceConfig, ServiceLoop
from ..obs.metrics import MetricsRegistry
from ..workloads import workload_by_name

STREAM_VERSION = 2


@dataclass
class ServiceReport:
    """Everything a service run did, in one JSON-able record."""

    workload: str
    shards: int
    population: int
    ticks: int
    drain_ticks: int
    # Client-side accounting.
    generated: int
    client_dropped: int
    unsubmitted: int
    # Admission accounting (mempool counters).
    submitted: int
    admitted: int
    readmitted: int
    backpressured: int
    rejected: dict[str, int]
    # Terminal outcomes.
    committed: int
    failed: int
    shed: int
    dead_lettered: int
    dropped: int
    pending_after: int
    partition_ok: bool
    # Performance.
    tps: float
    p50_latency_ticks: float
    p99_latency_ticks: float
    p50_latency_ms: float
    p99_latency_ms: float
    max_occupancy: int
    stalled_ticks: int
    idle_ticks: int
    final_batch: int
    unique_senders: int

    def to_obj(self) -> dict:
        out = dict(self.__dict__)
        for key in ("tps", "p50_latency_ticks", "p99_latency_ticks",
                    "p50_latency_ms", "p99_latency_ms"):
            out[key] = round(out[key], 4)
        return out


@dataclass
class ServiceRun:
    """A finished run plus its live objects (tests poke at these)."""

    report: ServiceReport
    loop: ServiceLoop
    net: Network


def _make_workload(name: str, population: int, txns_per_tick: int,
                   seed: int):
    cls = workload_by_name(name)
    try:
        return cls(population=population, txns_per_epoch=txns_per_tick,
                   seed=seed)
    except TypeError:
        # Fig. 14 workloads: the population knob is n_users, and setup
        # cost is O(n_users) — callers pick toy sizes for these.
        return cls(n_users=population, txns_per_epoch=txns_per_tick,
                   seed=seed)


def run_service(workload: str = "FT transfer @scale", *,
                shards: int = 4, ticks: int = 24,
                txns_per_tick: int = 200, population: int = 1000,
                seed: int = 7, capacity: int | None = None,
                per_sender: int | None = None,
                batch_max: int | None = None,
                max_deferrals: int = 12,
                flood_rate: float = 0.0, stall_rate: float = 0.0,
                fault_seed: int = 0,
                data_dir: str | None = None, cost_model=None,
                drain_ticks: int = 64,
                state_backend=None,
                setup_hook=None,
                stream=None) -> ServiceRun:
    """Run a bounded service-mode session and report on it.

    ``stream`` (an ``iter_stream`` result) replaces the generated
    offered load with a pre-recorded one; its header picks the
    workload used for contract setup.

    ``state_backend`` selects the out-of-core page store for contract
    map state (``"sqlite"``, a ``SqliteBackend``, or None / ``"none"``
    for plain dict state).
    """
    if cost_model is None:
        from .throughput import FIG14_COST_MODEL
        cost_model = FIG14_COST_MODEL
    if stream is not None:
        header, tick_batches = stream
        workload = header["workload"]
        population = header["population"]
        txns_per_tick = header["txns_per_tick"]
        seed = header["seed"]
        ticks = header["ticks"]
    wl = _make_workload(workload, population, txns_per_tick, seed)

    plan = None
    if flood_rate > 0 or stall_rate > 0:
        plan = FaultPlan.random(
            seed=fault_seed, epochs=ticks + drain_ticks,
            n_shards=shards, crash_rate=0.0, delay_rate=0.0,
            drop_rate=0.0, corrupt_rate=0.0, forge_rate=0.0,
            flood_rate=flood_rate, stall_rate=stall_rate)
    net = Network(shards, NetworkConfig(cost_model=cost_model,
                                        fault_plan=plan),
                  data_dir=data_dir, state_backend=state_backend,
                  metrics=MetricsRegistry())
    wl.setup(net)
    if setup_hook is not None:
        # Out-of-core soaks pre-seed contract state (e.g. stream
        # millions of balance rows straight into the page store)
        # between workload setup and the first tick.
        setup_hook(net, wl)

    capacity = capacity if capacity is not None else 8 * txns_per_tick
    pool_cfg = MempoolConfig(
        capacity=capacity,
        per_sender=(per_sender if per_sender is not None
                    else max(64, 2 * txns_per_tick)))
    svc_cfg = ServiceConfig(
        batch_max=(batch_max if batch_max is not None
                   else max(ServiceConfig.batch_min, txns_per_tick)),
        max_deferrals=max_deferrals)
    loop = ServiceLoop(net, config=svc_cfg, pool_config=pool_cfg)

    buffer_cap = 4 * capacity     # the client's own buffer
    offered: deque = deque()
    seen_senders: set[str] = set()
    generated = client_dropped = 0
    injector = net.injector
    retryable = {RejectReason.SENDER_FULL, RejectReason.POOL_FULL}

    def enqueue(txns) -> None:
        nonlocal generated, client_dropped
        for tx in txns:
            generated += 1
            seen_senders.add(tx.sender)
            if len(offered) >= buffer_cap:
                client_dropped += 1    # client-side load shedding
            else:
                offered.append(tx)

    def submit_buffered() -> None:
        # The well-behaved client: pause at the first Backpressure —
        # or capacity rejection (sender/pool full), which is equally
        # retryable — and resume from the *same* transaction next
        # tick.  Skipping past a refused submission would turn every
        # later nonce of that sender into a NONCE_GAP reject.
        while offered:
            receipt = loop.submit(offered[0])
            if receipt.status is AdmissionStatus.BACKPRESSURE or \
                    (receipt.status is AdmissionStatus.REJECTED and
                     receipt.reason in retryable):
                break
            offered.popleft()

    for t in range(1, ticks + 1):
        if stream is not None:
            batch = next(tick_batches, [])
            enqueue(batch)
        else:
            mult = injector.flood_multiplier(t) if injector else 1
            for _ in range(mult):
                enqueue(wl.transactions(t))
        submit_buffered()
        loop.tick()

    # Producers stop; let the admitted (and client-buffered) work
    # finish within a bounded budget.
    used_drain = 0
    while used_drain < drain_ticks and \
            (offered or loop.mempool.occupancy or
             loop.mempool.inflight):
        submit_buffered()
        loop.tick()
        used_drain += 1
    loop.sync()

    report = _build_report(loop, net, wl, workload, shards, population,
                           ticks, used_drain, generated,
                           client_dropped, len(offered),
                           unique_senders=len(seen_senders))
    return ServiceRun(report, loop, net)


def _build_report(loop, net, wl, workload, shards, population, ticks,
                  used_drain, generated, client_dropped, unsubmitted,
                  unique_senders: int = 0) -> ServiceReport:
    c = loop.mempool.counters
    rejected = {r.value: c[f"rejected_{r.value}"] for r in RejectReason
                if c[f"rejected_{r.value}"]}
    metrics = net.metrics
    ticks_hist = metrics.histogram("mempool.latency_ticks", TICK_BUCKETS)
    ms_hist = metrics.histogram("mempool.latency_ms", LAT_MS_BUCKETS,
                                deterministic=False)
    unique = unique_senders or (wl.touched_senders()
                                if hasattr(wl, "touched_senders")
                                else wl.n_users)
    pool = loop.mempool
    return ServiceReport(
        workload=workload, shards=shards, population=population,
        ticks=ticks, drain_ticks=used_drain, generated=generated,
        client_dropped=client_dropped, unsubmitted=unsubmitted,
        submitted=c["submitted"], admitted=c["admitted"],
        readmitted=c["readmitted"], backpressured=c["backpressured"],
        rejected=rejected, committed=c["committed"],
        failed=c["failed"], shed=c["shed"],
        dead_lettered=c["dead-lettered"], dropped=c["dropped"],
        pending_after=pool.occupancy,
        partition_ok=(pool.accounted() == c["submitted"]),
        tps=loop.tps,
        p50_latency_ticks=ticks_hist.quantile(0.5),
        p99_latency_ticks=ticks_hist.quantile(0.99),
        p50_latency_ms=ms_hist.quantile(0.5),
        p99_latency_ms=ms_hist.quantile(0.99),
        max_occupancy=loop.max_occupancy,
        stalled_ticks=loop.stalled_ticks, idle_ticks=loop.idle_ticks,
        final_batch=loop.batch_size, unique_senders=unique,
    )


def format_service(report: ServiceReport) -> str:
    r = report
    lines = [
        f"service: {r.workload}  ({r.shards} shards, population "
        f"{r.population}, {r.ticks}+{r.drain_ticks} ticks)",
        f"  offered    {r.generated:7d}  (client dropped "
        f"{r.client_dropped}, left unsubmitted {r.unsubmitted})",
        f"  submitted  {r.submitted:7d}  admitted {r.admitted}  "
        f"readmitted {r.readmitted}",
        f"  refused    backpressure {r.backpressured}  "
        f"rejected {sum(r.rejected.values())} {r.rejected or ''}",
        f"  terminal   committed {r.committed}  failed {r.failed}  "
        f"shed {r.shed}  dead-lettered {r.dead_lettered}  "
        f"churn-dropped {r.dropped}",
        f"  pending    {r.pending_after}  (partition "
        f"{'OK' if r.partition_ok else 'BROKEN'})",
        f"  overload   max occupancy {r.max_occupancy}  stalls "
        f"{r.stalled_ticks}  idle {r.idle_ticks}  final batch "
        f"{r.final_batch}",
        f"  perf       {r.tps:.2f} tx/s  latency p50 "
        f"{r.p50_latency_ticks:.1f} / p99 {r.p99_latency_ticks:.1f} "
        f"ticks  ({r.p50_latency_ms:.2f} / {r.p99_latency_ms:.2f} ms "
        f"wall)",
        f"  senders    {r.unique_senders} unique",
    ]
    return "\n".join(lines)


# -- loadgen stream format (repro loadgen | repro serve) -------------------

def write_stream(fh, workload: str = "FT transfer @scale", *,
                 population: int = 1000, ticks: int = 24,
                 txns_per_tick: int = 200, seed: int = 7,
                 shards_hint: int = 4) -> dict:
    """Generate a workload and serialize it as a JSONL tick stream."""
    header = {
        "kind": "header", "version": STREAM_VERSION,
        "workload": workload, "population": population,
        "ticks": ticks, "txns_per_tick": txns_per_tick, "seed": seed,
        "shards_hint": shards_hint,
    }
    wl = _make_workload(workload, population, txns_per_tick, seed)
    # Setup state (contract deploys, minting) is reproduced by the
    # serving side from the header; the stream carries only traffic.
    fh.write(json.dumps(header) + "\n")
    total = 0
    for t in range(1, ticks + 1):
        txns = wl.transactions(t)
        total += len(txns)
        fh.write(json.dumps({
            "kind": "tick", "tick": t,
            "txns": [transaction_to_obj(tx) for tx in txns],
        }) + "\n")
    header["total_txns"] = total
    return header


def iter_stream(fh):
    """Parse a loadgen stream: returns ``(header, batches)`` where
    ``batches`` lazily yields each tick's transaction list (O(1)
    memory in the number of ticks)."""
    header_line = fh.readline()
    if not header_line:
        raise ValueError("empty loadgen stream")
    header = json.loads(header_line)
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise ValueError("not a loadgen stream (bad header)")
    if header.get("version") != STREAM_VERSION:
        raise ValueError(
            f"loadgen stream version {header.get('version')!r} is not "
            f"read by this build (it reads version {STREAM_VERSION}); "
            f"regenerate it with repro loadgen")

    def batches():
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            if obj.get("kind") != "tick":
                raise ValueError(
                    f"unexpected stream record {obj.get('kind')!r}")
            yield [transaction_from_obj(tx) for tx in obj["txns"]]

    return header, batches()
