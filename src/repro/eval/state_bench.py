"""Out-of-core state benchmarks (``repro bench state``).

Two sections cover the paged backend (:mod:`repro.scilla.backend`):

* **paged vs. resident** (:func:`run_paged_bench`) — point reads
  against a sqlite-paged map (cold faults) vs. the plain resident
  dict, plus write-back cost, at 10^4–10^6 entries;
* **out-of-core soak** (:func:`run_oocore_soak`) — a
  ``ScaledFTTransfer`` service session over a pre-seeded million-entry
  balance map with the sqlite backend, reporting peak RSS (bounded by
  the page cache) against the measured resident footprint of the same
  map held in memory.

Results land in ``BENCH_state.json``; every timing field is wall clock
and says so (``wall_`` prefix), ``modeled_tps`` is the modelled clock.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field as dc_field

from ..scilla.values import Value, uint
from .overheads import _best_ns

PAGED_SIZES = (10_000, 100_000, 1_000_000)


# --------------------------------------------------------------------------
# Paged (out-of-core) vs. resident state.
# --------------------------------------------------------------------------

def _seed_backend(backend, entries: int, map_id: int | None = None) -> int:
    """Stream ``entries`` balance rows into backend map ``map_id`` (a
    fresh one by default) without ever materialising the values (O(1)
    memory in ``entries``)."""
    from ..scilla.backend import encode_key, encode_value
    from ..scilla.values import addr
    from ..workloads.generators import _user
    if map_id is None:
        map_id = backend.new_map()
    blob = encode_value(uint(10**9))
    backend.put_many(
        map_id,
        ((encode_key(addr(_user(i))), blob) for i in range(entries)))
    return map_id


def _sample_keys(entries: int, n: int, seed: int = 11) -> list[Value]:
    import random
    from ..scilla.values import addr
    from ..workloads.generators import _user
    rng = random.Random(seed)
    return [addr(_user(rng.randrange(entries)))
            for _ in range(min(n, entries))]


@dataclass
class PagedBenchRow:
    entries: int
    resident_read_ns: float    # plain dict: read the whole sample
    paged_cold_ns: float       # paged, cold cache
    flush_ns: float            # write back `writes` dirty rows
    seed_s: float              # streaming-load time for the backend
    file_mb: float


@dataclass
class PagedBenchResult:
    rows: list[PagedBenchRow] = dc_field(default_factory=list)
    reads: int = 0
    writes: int = 0
    cache: int = 0


def run_paged_bench(sizes: tuple[int, ...] = PAGED_SIZES,
                    reads: int = 512, writes: int = 256,
                    repeat: int = 3) -> PagedBenchResult:
    """Point-read and writeback timings, paged vs. resident."""
    from ..scilla.backend import PAGE_CACHE, RowBase, SqliteBackend
    from ..scilla.values import OverlayDict
    result = PagedBenchResult(reads=reads, writes=writes, cache=PAGE_CACHE)
    for entries in sizes:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bench.sqlite")
            backend = SqliteBackend(path)
            t0 = time.perf_counter()
            map_id = _seed_backend(backend, entries)
            seed_s = time.perf_counter() - t0
            file_mb = os.path.getsize(path) / 2**20
            sample = _sample_keys(entries, reads)

            def paged() -> OverlayDict:
                return OverlayDict(RowBase(backend, map_id, entries))

            def cold_reads() -> None:
                view = paged()
                for k in sample:
                    view[k]

            # The resident baseline: the same sample against a plain
            # dict of the same size (built once, dropped per size).
            resident = {k: uint(10**9)
                        for k, _ in _materialize_keys(backend, map_id)}

            def resident_reads() -> None:
                for k in sample:
                    resident[k]

            def write_and_flush() -> None:
                view = paged()
                for k in sample[:writes]:
                    view[k] = uint(7)
                view.write_back()

            row = PagedBenchRow(
                entries=entries,
                resident_read_ns=_best_ns(resident_reads, repeat),
                paged_cold_ns=_best_ns(cold_reads, repeat),
                flush_ns=_best_ns(write_and_flush, repeat),
                seed_s=seed_s, file_mb=file_mb)
            del resident
            result.rows.append(row)
            backend.close()
    return result


def _materialize_keys(backend, map_id):
    from ..scilla.backend import decode_key
    for token, _ in backend.iter_items(map_id):
        yield decode_key(token), None


def format_paged_bench(result: PagedBenchResult) -> str:
    lines = [
        "Out-of-core state — sqlite-paged map vs. resident dict "
        f"({result.reads} point reads, cache {result.cache})",
        "",
        f"{'entries':>9s} {'resident':>10s} {'paged cold':>11s} "
        f"{'flush':>9s} {'seed':>7s} {'file':>8s}",
    ]
    for r in result.rows:
        lines.append(
            f"{r.entries:>9,d} {r.resident_read_ns / 1e3:>8.1f}µs "
            f"{r.paged_cold_ns / 1e6:>9.2f}ms "
            f"{r.flush_ns / 1e6:>7.2f}ms {r.seed_s:>6.1f}s "
            f"{r.file_mb:>6.1f}MB")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Out-of-core service soak (the bounded-memory acceptance run).
# --------------------------------------------------------------------------

def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def resident_map_rss_mb(entries: int) -> float | None:
    """Peak RSS of holding an ``entries``-sized balance map fully in
    memory, measured in a clean subprocess (so the number is the map,
    not this process's history).  None when the probe fails."""
    code = (
        "import resource\n"
        "from repro.scilla.values import MapVal, uint, addr\n"
        "from repro.scilla import types as ty\n"
        "from repro.workloads.generators import _user\n"
        "m = MapVal(ty.BYSTR20, ty.UINT128)\n"
        f"for i in range({entries}):\n"
        "    m.entries[addr(_user(i))] = uint(10**9)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss"
        " / 1024)\n")
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    try:
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, timeout=600,
            capture_output=True, text=True, check=True)
        return float(out.stdout.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def run_oocore_soak(entries: int = 1_000_000, *, ticks: int = 12,
                    txns_per_tick: int = 400, shards: int = 4,
                    seed: int = 7, compare_resident: bool = True) -> dict:
    """Service-mode session over a pre-seeded ``entries``-row balance
    map with the sqlite backend; returns a JSON-able report with peak
    RSS, backend counters, and (optionally) the resident footprint the
    same map costs in memory.

    The seeding streams encoded rows straight into the page store —
    the coordinator never holds more than the page cache resident, so
    peak RSS stays bounded regardless of ``entries``.  ``modeled_tps``
    is the modelled clock (``CostModel`` seconds), not wall time.
    """
    from ..scilla.backend import PAGE_CACHE, RowBase, paged_base
    from ..scilla.values import OverlayDict
    from .service import run_service

    def seed_rows(net, wl) -> None:
        from ..chain.dispatch import _pad
        contract = net.contracts[_pad(wl.contract_addr)]
        balances = contract.state.fields["balances"]
        balances.entries.write_back()   # the overlay is replaced below
        rows = paged_base(balances)
        t0 = time.perf_counter()
        _seed_backend(rows.backend, entries, rows.map_id)
        balances.entries = OverlayDict(RowBase(
            rows.backend, rows.map_id, rows.backend.count(rows.map_id)))
        report["wall_seed_s"] = round(time.perf_counter() - t0, 2)

    report: dict = {"entries": entries, "ticks": ticks,
                    "txns_per_tick": txns_per_tick, "shards": shards,
                    "page_cache": PAGE_CACHE}
    run = run_service(
        "FT transfer @scale", shards=shards, ticks=ticks,
        txns_per_tick=txns_per_tick, population=entries,
        seed=seed, state_backend="sqlite", setup_hook=seed_rows)
    backend = run.net.state_backend
    stats = backend.stats
    report.update({
        "committed": run.report.committed,
        "modeled_tps": round(run.report.tps, 2),
        "rss_mb": round(_rss_mb(), 1),
        "backend": {
            "kind": backend.kind,
            "faults": stats.faults,
            "evictions": stats.evictions,
            "writebacks": stats.writebacks,
            "file_mb": round(os.path.getsize(backend.path) / 2**20, 1),
        },
    })
    run.net.close()
    if compare_resident:
        resident = resident_map_rss_mb(entries)
        if resident is not None:
            report["resident_map_rss_mb"] = round(resident, 1)
    return report


def format_oocore_soak(report: dict) -> str:
    b = report["backend"]
    lines = [
        f"out-of-core soak: {report['entries']:,} seeded entries, "
        f"{report['ticks']} ticks x {report['txns_per_tick']} txns, "
        f"{report['shards']} shards, page cache {report['page_cache']}",
        f"  committed {report['committed']}  "
        f"({report['modeled_tps']:.1f} tx/s modeled)",
        f"  peak RSS  {report['rss_mb']:.0f} MB  (backend file "
        f"{b['file_mb']:.0f} MB on disk)",
        f"  paging    faults {b['faults']}  evictions {b['evictions']}"
        f"  writebacks {b['writebacks']}",
    ]
    if "resident_map_rss_mb" in report:
        lines.append(
            f"  vs memory {report['resident_map_rss_mb']:.0f} MB just "
            f"to hold the map resident")
    return "\n".join(lines)


def write_state_bench(path, paged: PagedBenchResult | None = None,
                      soak: dict | None = None) -> None:
    payload: dict = {"benchmark": "state-engine"}
    if paged is not None:
        payload["paged"] = {
            "reads": paged.reads, "writes": paged.writes,
            "page_cache": paged.cache,
            "rows": [{
                "entries": r.entries,
                "wall_resident_read_ns": r.resident_read_ns,
                "wall_paged_read_ns": r.paged_cold_ns,
                "wall_flush_ns": r.flush_ns,
                "wall_seed_s": round(r.seed_s, 2),
                "file_mb": round(r.file_mb, 1),
            } for r in paged.rows],
        }
    if soak is not None:
        payload["out_of_core"] = soak
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
