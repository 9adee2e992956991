"""State-engine microbenchmarks (``repro bench state``).

Measures the copy-on-write state engine against the deep-copy baseline
it replaced (the seed's ``MapVal.copy`` ran ``copy.deepcopy`` over the
entry dict; an epoch's checkpoint and each lane's private state both
paid it per contract, per epoch):

* **checkpoint take** — a :class:`~repro.scilla.state.StateJournal`
  mark vs. a deep state copy;
* **lane fork** — ``ContractState.fork``, the private state a shard
  lane executes against, vs. a deep copy (and the first write through
  the fork, which is what an O(1) fork defers);
* **checkpoint restore** — replaying the undo journal over a burst of
  writes (the deep-copy baseline restores by pointer swap, but only
  after paying O(state) at take time).

Results land in ``BENCH_state.json`` at the repo root; the benchmark
suite (``benchmarks/test_state_engine.py``) asserts the headline
claim — checkpoint take + fork, what a serial epoch pays, ≥10× faster
than two deep copies at 10^5 entries — and the CI smoke guards that a
checkpoint take and the first write after a fork stay O(1) in state
size.

Two further sections cover the out-of-core backend
(:mod:`repro.scilla.backend`):

* **paged vs. resident** (:func:`run_paged_bench`) — point reads
  against a sqlite-paged map (cold faults, and again with the
  footprint prefetched) vs. the plain resident dict, plus writeback
  flush cost, at 10^4–10^6 entries;
* **out-of-core soak** (:func:`run_oocore_soak`) — a
  ``ScaledFTTransfer`` service session over a pre-seeded million-entry
  balance map with the sqlite backend, reporting peak RSS (bounded by
  the page cache) against the measured resident footprint of the same
  map held in memory.
"""

from __future__ import annotations

import copy
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field as dc_field

from ..scilla import types as ty
from ..scilla.state import ContractState, StateJournal
from ..scilla.values import MapVal, StringVal, Value, uint

DEFAULT_SIZES = (1_000, 10_000, 100_000)
PAGED_SIZES = (10_000, 100_000, 1_000_000)


def _big_state(entries: int) -> ContractState:
    """One contract with an ``entries``-sized token-balance map plus a
    scalar — the shape the Fig. 14 workloads stress."""
    balances = MapVal(ty.STRING, ty.UINT128)
    for i in range(entries):
        balances.entries[StringVal(f"0x{i:040x}")] = uint(i)
    return ContractState(
        address="0x" + "ab" * 20,
        fields={"balances": balances, "total_supply": uint(entries)},
        field_types={"balances": ty.MapType(ty.STRING, ty.UINT128),
                     "total_supply": ty.UINT128},
    )


def _deep_copy_state(state: ContractState) -> ContractState:
    """The seed's copy policy, verbatim: deepcopy every map's entries."""
    return ContractState(
        state.address,
        {k: (MapVal(v.key_type, v.value_type, copy.deepcopy(v.entries))
             if isinstance(v, MapVal) else v)
         for k, v in state.fields.items()},
        dict(state.field_types),
        dict(state.immutables),
        state.balance,
    )


def _best_ns(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        fn()
        best = min(best, time.perf_counter_ns() - t0)
    return best


@dataclass
class StateBenchRow:
    entries: int
    deep_copy_ns: float        # baseline: one deep state copy
    mark_ns: float             # new checkpoint take (journal mark)
    fork_ns: float             # new lane state (CoW fork)
    first_write_after_fork_ns: float  # what the O(1) fork defers
    rollback_ns: float         # journal restore over `writes` writes

    @property
    def old_total_ns(self) -> float:
        """Baseline epoch cost: a deep copy at take and one for the
        lane's state."""
        return 2 * self.deep_copy_ns

    @property
    def new_total_ns(self) -> float:
        return self.mark_ns + self.fork_ns

    @property
    def speedup(self) -> float:
        return self.old_total_ns / max(self.new_total_ns, 1.0)


@dataclass
class StateBenchResult:
    rows: list[StateBenchRow] = dc_field(default_factory=list)
    writes: int = 0


def run_state_bench(sizes: tuple[int, ...] = DEFAULT_SIZES,
                    writes: int = 64, repeat: int = 3) -> StateBenchResult:
    result = StateBenchResult(writes=writes)
    for entries in sizes:
        state = _big_state(entries)

        deep_copy_ns = _best_ns(lambda: _deep_copy_state(state), repeat)
        fork_ns = _best_ns(lambda: state.fork(), repeat)

        # The half a bare fork timing leaves out: the first write
        # through a fresh fork privatises the map.
        first_key = (StringVal(f"0x{0:040x}"),)
        first_write_ns = float("inf")
        for _ in range(repeat):
            fork = state.fork()
            t0 = time.perf_counter_ns()
            fork.write(("balances", first_key), uint(1))
            first_write_ns = min(first_write_ns,
                                 time.perf_counter_ns() - t0)

        journal = StateJournal()
        state.journal = journal
        mark_ns = _best_ns(
            lambda: journal.release(journal.mark()), repeat)

        def take_and_restore() -> None:
            mark = journal.mark()
            for i in range(writes):
                state.write(("balances", (StringVal(f"0x{i:040x}"),)),
                            uint(i + 1))
            journal.rollback_to(mark)
            journal.release(mark)
        rollback_ns = _best_ns(take_and_restore, repeat)

        result.rows.append(StateBenchRow(
            entries=entries,
            deep_copy_ns=deep_copy_ns,
            mark_ns=mark_ns,
            fork_ns=fork_ns,
            first_write_after_fork_ns=first_write_ns,
            rollback_ns=rollback_ns,
        ))
    return result


# --------------------------------------------------------------------------
# Paged (out-of-core) vs. resident state.
# --------------------------------------------------------------------------

def _seed_backend(backend, entries: int) -> int:
    """Stream ``entries`` balance rows into a fresh backend map without
    ever materialising the values (O(1) memory in ``entries``)."""
    from ..scilla.backend import encode_key, encode_value
    from ..scilla.values import addr
    from ..workloads.generators import _user
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
    paged_cold_ns: float       # paged, cold cache, prefetch off
    paged_prefetch_ns: float   # paged, sample prefetched first
    flush_ns: float            # write back `writes` dirty rows
    prefetch_hit_rate: float
    seed_s: float              # streaming-load time for the backend
    file_mb: float

    @property
    def prefetch_speedup(self) -> float:
        return self.paged_cold_ns / max(self.paged_prefetch_ns, 1.0)


@dataclass
class PagedBenchResult:
    rows: list[PagedBenchRow] = dc_field(default_factory=list)
    reads: int = 0
    writes: int = 0
    cache: int = 0


def run_paged_bench(sizes: tuple[int, ...] = PAGED_SIZES,
                    reads: int = 512, writes: int = 256,
                    repeat: int = 3, cache: int = 1024
                    ) -> PagedBenchResult:
    """Point-read and writeback timings, paged vs. resident."""
    from ..scilla.backend import PagedDict, SqliteBackend
    result = PagedBenchResult(reads=reads, writes=writes, cache=cache)
    for entries in sizes:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bench.sqlite")
            backend = SqliteBackend(path)
            t0 = time.perf_counter()
            map_id = _seed_backend(backend, entries)
            seed_s = time.perf_counter() - t0
            file_mb = os.path.getsize(path) / 2**20
            sample = _sample_keys(entries, reads)

            def paged() -> PagedDict:
                return PagedDict(backend, map_id, count=entries,
                                 cache_limit=cache)

            def cold_reads() -> None:
                view = paged()
                for k in sample:
                    view[k]

            def prefetched_reads() -> None:
                view = paged()
                view.prefetch(sample)
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
                view.flush()

            base = backend.stats.snapshot()
            row = PagedBenchRow(
                entries=entries,
                resident_read_ns=_best_ns(resident_reads, repeat),
                paged_cold_ns=_best_ns(cold_reads, repeat),
                paged_prefetch_ns=_best_ns(prefetched_reads, repeat),
                flush_ns=_best_ns(write_and_flush, repeat),
                prefetch_hit_rate=0.0,
                seed_s=seed_s, file_mb=file_mb)
            now = backend.stats.snapshot()
            requested = now[3] - base[3]
            row.prefetch_hit_rate = ((now[4] - base[4]) / requested
                                     if requested else 0.0)
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
        f"{'prefetched':>11s} {'pf gain':>8s} {'hit rate':>9s} "
        f"{'flush':>9s} {'seed':>7s} {'file':>8s}",
    ]
    for r in result.rows:
        lines.append(
            f"{r.entries:>9,d} {r.resident_read_ns / 1e3:>8.1f}µs "
            f"{r.paged_cold_ns / 1e6:>9.2f}ms "
            f"{r.paged_prefetch_ns / 1e6:>9.2f}ms "
            f"{r.prefetch_speedup:>7.1f}x {r.prefetch_hit_rate:>8.1%} "
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
                    seed: int = 7, cache: int = 4096,
                    compare_resident: bool = True) -> dict:
    """Service-mode session over a pre-seeded ``entries``-row balance
    map with the sqlite backend; returns a JSON-able report with peak
    RSS, backend counters, and (optionally) the resident footprint the
    same map costs in memory.

    The seeding streams encoded rows straight into the page store —
    the coordinator never holds more than the page cache resident, so
    peak RSS stays bounded regardless of ``entries``.
    """
    from .service import run_service

    def seed_rows(net, wl) -> None:
        from ..chain.dispatch import _pad
        contract = net.contracts[_pad(wl.contract_addr)]
        balances = contract.state.fields["balances"]
        paged = balances.entries
        backend = net.state_backend
        t0 = time.perf_counter()
        from ..scilla.backend import encode_key, encode_value
        from ..scilla.values import addr
        from ..workloads.generators import _user
        blob = encode_value(uint(10**9))
        backend.put_many(
            paged.map_id,
            ((encode_key(addr(_user(i))), blob)
             for i in range(entries)))
        paged._count += entries
        report["seed_s"] = round(time.perf_counter() - t0, 2)

    report: dict = {"entries": entries, "ticks": ticks,
                    "txns_per_tick": txns_per_tick, "shards": shards,
                    "page_cache": cache}
    prior_cache = os.environ.get("REPRO_PAGE_CACHE")
    os.environ["REPRO_PAGE_CACHE"] = str(cache)
    try:
        run = run_service(
            "FT transfer @scale", shards=shards, ticks=ticks,
            txns_per_tick=txns_per_tick, population=entries,
            seed=seed, state_backend="sqlite", setup_hook=seed_rows)
    finally:
        if prior_cache is None:
            os.environ.pop("REPRO_PAGE_CACHE", None)
        else:
            os.environ["REPRO_PAGE_CACHE"] = prior_cache
    backend = run.net.state_backend
    stats = backend.stats
    report.update({
        "committed": run.report.committed,
        "tps": round(run.report.tps, 2),
        "rss_mb": round(_rss_mb(), 1),
        "backend": {
            "kind": backend.kind,
            "faults": stats.faults,
            "evictions": stats.evictions,
            "writebacks": stats.writebacks,
            "prefetch_requested": stats.prefetch_requested,
            "prefetch_hits": stats.prefetch_hits,
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
        f"  committed {report['committed']}  ({report['tps']:.1f} tx/s"
        f" modeled)",
        f"  peak RSS  {report['rss_mb']:.0f} MB  (backend file "
        f"{b['file_mb']:.0f} MB on disk)",
        f"  paging    faults {b['faults']}  evictions {b['evictions']}"
        f"  writebacks {b['writebacks']}  prefetch "
        f"{b['prefetch_hits']}/{b['prefetch_requested']}",
    ]
    if "resident_map_rss_mb" in report:
        lines.append(
            f"  vs memory {report['resident_map_rss_mb']:.0f} MB just "
            f"to hold the map resident")
    return "\n".join(lines)


def format_state_bench(result: StateBenchResult) -> str:
    lines = [
        "State engine — CoW forks and journal checkpoints vs. the "
        "deep-copy baseline",
        f"(restore replays {result.writes} writes; speedup: two deep "
        f"copies against mark + fork)",
        "",
        f"{'entries':>9s} {'deepcopy':>12s} {'mark':>9s} {'fork':>9s} "
        f"{'1st write':>9s} {'rollback':>10s} {'speedup':>8s}",
    ]
    for r in result.rows:
        lines.append(
            f"{r.entries:>9,d} {r.deep_copy_ns / 1e6:>10.2f}ms "
            f"{r.mark_ns / 1e3:>7.1f}µs {r.fork_ns / 1e3:>7.1f}µs "
            f"{r.first_write_after_fork_ns / 1e3:>7.1f}µs "
            f"{r.rollback_ns / 1e3:>8.1f}µs {r.speedup:>7.0f}x")
    return "\n".join(lines)


def write_state_bench(result: StateBenchResult, path,
                      paged: PagedBenchResult | None = None,
                      soak: dict | None = None) -> None:
    payload = {
        "benchmark": "state-engine",
        "writes": result.writes,
        "rows": [{
            "entries": r.entries,
            "deep_copy_ns": r.deep_copy_ns,
            "checkpoint_take_ns": {"old": r.deep_copy_ns,
                                   "new": r.mark_ns},
            "fork_ns": {"old": r.deep_copy_ns, "new": r.fork_ns},
            "checkpoint_restore_ns": r.rollback_ns,
            "first_write_after_fork_ns": r.first_write_after_fork_ns,
            "speedup": r.speedup,
        } for r in result.rows],
    }
    if paged is not None:
        payload["paged"] = {
            "reads": paged.reads, "writes": paged.writes,
            "page_cache": paged.cache,
            "rows": [{
                "entries": r.entries,
                "resident_read_ns": r.resident_read_ns,
                "paged_read_ns": {"prefetch_off": r.paged_cold_ns,
                                  "prefetch_on": r.paged_prefetch_ns},
                "prefetch_hit_rate": round(r.prefetch_hit_rate, 4),
                "flush_ns": r.flush_ns,
                "seed_s": round(r.seed_s, 2),
                "file_mb": round(r.file_mb, 1),
            } for r in paged.rows],
        }
    if soak is not None:
        payload["out_of_core"] = soak
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
