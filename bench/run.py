"""The repo's benchmark: one command, two modes.

Single pass (what BENCHMARK.json's ``command`` runs)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

measures one workload for a run sized by S (a fixed number of timed
units per second, see bench/README.md), checks its outputs, prints
every metric by name with its unit and, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics with nothing of bench/layers.py loaded;
``--trace 1`` repeats the run under tracing and reports the per-layer
metrics, leaving the spans in bench/out/trace-<workload>.ndjson.

Full run::

    python3 bench/run.py [--seed N] [--workload W] [--seconds S]

runs both passes of every (or the named) workload, each in its own
subprocess, cross-checks the deterministic values of the two passes,
prints ``harness.trace_overhead_ratio`` and writes bench/out/result.json.

Exit code 0 only if every output checked out.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    # Never fall back to a copy of the program installed elsewhere.
    sys.exit("bench: this checkout has no src/repro to measure")
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench.refclock import (  # noqa: E402
    COMPUTE_ITERS, HEAP_ENTRIES, REF_SECONDS, percentile, ref_kernel,
    scale,
)

OUT_DIR = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 2.0
# Kernel runs on each side of one set-up (their median is used): a
# set-up is timed once, not summed over a hundred units, so a single
# kernel reading's 5-7% scatter would go straight into ``setup_s``.
SETUP_KERNEL_RUNS = 5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def warn(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)


# --------------------------------------------------------------------------
# One pass
# --------------------------------------------------------------------------

class Unit:
    """One timed unit: its raw duration and what became terminal."""

    __slots__ = ("raw_s", "last_index", "terminal")

    def __init__(self, raw_s: float, last_index: int,
                 terminal: list[int]):
        self.raw_s = raw_s
        self.last_index = last_index
        self.terminal = terminal


def timed_setup(cls, seed: int, n_units: int, tracer, repeat: bool):
    """Set the workload up, bracketed by the reference kernel; return
    the instance and the set-up time in reference seconds.  With
    ``repeat`` the set-up is redone (at least SETUP_REPEATS times, and
    until SETUP_BUDGET_S raw seconds are spent, so a 0.1 s set-up gets
    more samples than a 4 s one) and the median is reported."""
    times: list[float] = []
    spent = 0.0
    wl = None
    while True:
        if wl is not None:
            wl.close()
            wl = None
            gc.collect()
        k0 = median(ref_kernel() for _ in range(SETUP_KERNEL_RUNS))
        t0 = time.perf_counter()
        wl = cls(seed, n_units, tracer=tracer, out_dir=OUT_DIR)
        wl.setup()
        raw = time.perf_counter() - t0
        k1 = median(ref_kernel() for _ in range(SETUP_KERNEL_RUNS))
        times.append(raw * scale(k0, k1))
        spent += raw
        if not repeat or len(times) >= SETUP_MAX_REPEATS or (
                len(times) >= SETUP_REPEATS and spent >= SETUP_BUDGET_S):
            return wl, median(times)


def settle(wl, block, index_of: dict[int, int], tally: dict) -> list[int]:
    """Book one unit's receipts: feed the ledger, count outcomes, and
    return the stream indices of the transactions that became
    terminal."""
    terminal: list[int] = []
    if block is None:
        return terminal
    stats = block.stats
    tally["dispatched"] += stats.dispatched
    tally["to_ds"] += stats.to_ds
    for receipt in block.all_receipts:
        index = index_of.pop(receipt.tx.tx_id, None)
        if index is None:
            continue
        terminal.append(index)
        tally["gas"] += receipt.gas_used
        if receipt.success:
            tally["committed"] += 1
            wl.ledger.apply(receipt.tx)
        else:
            tally["failed"] += 1
            if tally["failed"] <= 3:
                warn(f"{wl.name}: {receipt.tx} failed: {receipt.error}")
    return terminal


def latencies(units: list[Unit], scales: list[float],
              rate: float | None) -> tuple[list[float], float]:
    """Per-transaction commit latency in reference seconds, and the
    clock at the end of the run.

    Closed loop (``rate`` None): a transaction is due when its unit
    starts.  Open loop: transaction i is due at i/rate on a virtual
    clock that advances only by the rescaled duration of each unit; a
    unit starts once its batch has fully arrived and the previous unit
    has returned.  Nothing sleeps, so the generator is never late.
    """
    out: list[float] = []
    clock = 0.0
    for unit, factor in zip(units, scales):
        start = clock if rate is None else \
            max(clock, unit.last_index / rate)
        clock = start + unit.raw_s * factor
        for index in unit.terminal:
            out.append(clock - (start if rate is None
                                else index / rate))
    return out, clock


class Measurement:
    """What the timed loop of one pass produced."""

    def __init__(self):
        self.units: list[Unit] = []
        self.kernels: list[float] = []
        self.scales: list[float] = []
        self.check: dict = {}
        # CoW materialisations over the timed units (traced pass).
        self.cow_copies: int | None = None
        self.attempted = 0
        self.gen_s = 0.0
        self.tally = dict.fromkeys(
            ("committed", "failed", "gas", "dispatched", "to_ds"), 0)

    @property
    def busy_s(self) -> float:
        """Sum of unit durations in reference seconds."""
        return sum(u.raw_s * f for u, f in zip(self.units, self.scales))

    @property
    def raw_s(self) -> float:
        return sum(u.raw_s for u in self.units)


def warm_up(wl) -> list[str]:
    from bench.workloads import WARMUP_UNITS

    m = Measurement()
    pending: dict[int, int] = {}
    for _ in range(WARMUP_UNITS):
        batch = wl.next_batch()
        pending.update((tx.tx_id, -1) for tx in batch)
        settle(wl, wl.run_unit(batch), pending, m.tally)
    if m.tally["failed"] or wl.refused or pending:
        return ["warm-up did not commit every transaction"]
    return []


def measure(wl, n_units: int, seconds: float, rec=None,
            cow_copies=None) -> Measurement:
    """Run ``n_units`` timed units, each preceded by one reference
    kernel run (the next unit's kernel closes the bracket).  The traced
    pass hands in its span recorder and the CoW counter's reader."""
    from bench.workloads import CHECK_UNITS

    m = Measurement()
    cow_at_start = cow_copies() if cow_copies else None
    index_of: dict[int, int] = {}
    # The unit count is fixed (Bench.units_per_second); the deadline
    # only guards the driver's per-run limit on a machine far slower
    # than the reference, and run_pass fails a run it cut short.
    deadline = time.perf_counter() + 4 * seconds + 20
    while len(m.units) < n_units and time.perf_counter() < deadline:
        t0 = time.perf_counter()
        batch = wl.next_batch()
        m.gen_s += time.perf_counter() - t0
        for tx in batch:
            index_of[tx.tx_id] = m.attempted
            m.attempted += 1
        # A generation-2 collection costs O(heap) and lands on a
        # different unit each run, which makes the percentiles bimodal.
        # Collecting here, untimed, and freezing the survivors leaves
        # only the garbage a unit makes itself to the automatic
        # collector inside it (bench/README.md).
        gc.collect()
        gc.freeze()
        m.kernels.append(ref_kernel())
        t0 = time.perf_counter_ns()
        block = wl.run_unit(batch)
        t1 = time.perf_counter_ns()
        if rec is not None:
            rec.add("unit", t0, t1, len(m.units))
            for span in wl.unit_spans:
                rec.add(*span)
        m.units.append(Unit((t1 - t0) / 1e9, m.attempted - 1,
                            settle(wl, block, index_of, m.tally)))
        if len(m.units) == CHECK_UNITS:
            m.check = wl.check_values()
            if cow_at_start is not None:
                m.check["cow_copies_per_epoch"] = round(
                    (cow_copies() - cow_at_start) / CHECK_UNITS, 9)
    if cow_at_start is not None:
        m.cow_copies = cow_copies() - cow_at_start
    m.kernels.append(ref_kernel())
    m.scales = [scale(a, b) for a, b in zip(m.kernels, m.kernels[1:])]
    return m


def run_pass(name: str, seed: int, seconds: float,
             trace: bool) -> tuple[dict, dict]:
    """Measure one workload once; returns (result line, detail)."""
    from bench.workloads import WORKLOADS

    spec = load_spec()
    cls = WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    rec = tracer = None
    if trace:
        from bench import layers
        from repro.obs.tracing import Tracer
        rec = layers.Recorder()
        rec.install()
        tracer = Tracer()

    n_units = cls.units_for(seconds)
    wl, setup_s = timed_setup(cls, seed, n_units, tracer,
                              repeat=not trace)
    try:
        problems = warm_up(wl)
        if trace:
            rec.spans.clear()
            tracer.clear()
            m = measure(wl, n_units, seconds, rec, layers.cow_copies)
        else:
            m = measure(wl, n_units, seconds)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024

        if len(m.units) < n_units:
            # Fewer units over a smaller state would read as a gain.
            problems.append(
                f"stopped at {len(m.units)} of {n_units} units: machine "
                f"too slow for --seconds {seconds}")
        committed = m.tally["committed"]
        failed = m.tally["failed"] + wl.refused
        if committed + failed != m.attempted:
            problems.append(
                f"committed {committed} + failed/refused {failed} != "
                f"attempted {m.attempted}")
        problems += wl.accounting_errors()
        problems += wl.ledger.mismatches(wl.net)
        problems += golden_mismatches(name, seed, m.check)

        lat, clock_end = latencies(m.units, m.scales, wl.rate)
        wall = committed / m.busy_s
        modeled_tps = wl.modeled_tps()
        if not trace:
            values = {
                "wall_tx_per_s": wall,
                "commit_latency_ms_p50": percentile(lat, 50) * 1e3,
                "commit_latency_ms_p90": percentile(lat, 90) * 1e3,
                "peak_rss_mb": peak_rss_mb,
                "setup_s": setup_s,
            }
        else:
            rec.absorb_tracer(tracer)
            rows = layers.nest(rec.spans)
            layers.write_ndjson(
                os.path.join(OUT_DIR, f"trace-{name}.ndjson"),
                {"workload": name, "seed": seed,
                 "clock": "perf_counter_ns", "ref_seconds": REF_SECONDS,
                 "ref_compute_iters": COMPUTE_ITERS,
                 "ref_heap_entries": HEAP_ENTRIES,
                 "shims_missing": rec.missing},
                rows, m.scales)
            values = layers.layer_metrics(
                layers.aggregate(rows, m.scales), wl, tally=m.tally,
                attempted=m.attempted, n_units=len(m.units),
                busy_s=m.busy_s, cow_copies=m.cow_copies)
            values.update({
                "model.tps": modeled_tps,
                "harness.raw_wall_tx_per_s": committed / m.raw_s,
                "harness.traced_wall_tx_per_s": wall,
                "harness.ref_kernel_ms_p50": median(m.kernels) * 1e3,
                "harness.gen_us_per_tx": m.gen_s * 1e6 / m.attempted,
                "harness.offered_utilisation": m.busy_s / clock_end,
                "harness.units": len(m.units),
                "harness.shims_missing": len(rec.missing),
            })
            # The overhead probe must not run under the shims.
            rec.uninstall()
            values["obs.enabled_overhead_ratio"] = \
                obs_overhead_ratio(cls, seed) if cls.metered else 0.0
    finally:
        wl.close()
        if rec is not None:
            rec.uninstall()

    declared = spec["per_layer" if trace else "end_to_end"]
    out_of_step = set(values) ^ {d["name"] for d in declared}
    if out_of_step:
        raise SystemExit(f"bench: metrics out of step with "
                         f"BENCHMARK.json: {sorted(out_of_step)}")
    for problem in problems:
        warn(f"{name}: INCORRECT: {problem}")
    result = {
        "correct": not problems,
        "attempted": m.attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": values[d["name"]],
                                "unit": d["unit"]} for d in declared},
    }
    detail = {
        "workload": name, "seed": seed, "trace": int(trace),
        "seconds": seconds, "units": len(m.units), "check": m.check,
        "problems": problems, "wall_tx_per_s": wall,
        "modeled_tps": modeled_tps,
        "unit_raw_s": [u.raw_s for u in m.units], "kernel_s": m.kernels,
        "result": result,
    }
    return result, detail


def obs_overhead_ratio(cls, seed: int, units: int = 20) -> float:
    """Enabled ``MetricsRegistry`` vs the null registry on the same
    stream: two fresh instances, units alternated so machine drift hits
    both alike; ratio of their summed reference times."""
    pair = [cls(seed, units, out_dir=OUT_DIR, metrics=on)
            for on in (True, False)]
    totals = [0.0, 0.0]
    try:
        for wl in pair:
            wl.setup()
            for _ in range(2):
                wl.run_unit(wl.next_batch())
        for _ in range(units):
            for i, wl in enumerate(pair):
                batch = wl.next_batch()
                k0 = ref_kernel()
                t0 = time.perf_counter()
                wl.run_unit(batch)
                raw = time.perf_counter() - t0
                totals[i] += raw * scale(k0, ref_kernel())
    finally:
        for wl in pair:
            wl.close()
    return totals[0] / totals[1]


def golden_mismatches(name: str, seed: int, check: dict) -> list[str]:
    """Seed 7's deterministic values are checked in; other seeds are
    cross-checked between the two passes by the full run."""
    if not check:
        return ["run ended before the check point"]
    with open(GOLDEN, encoding="utf-8") as f:
        golden = json.load(f).get(str(seed), {}).get(name)
    if golden is None:
        return []
    return [f"{key} is {check[key]!r}, bench/golden.json says "
            f"{golden[key]!r}" for key in check
            if key in golden and check[key] != golden[key]]


# --------------------------------------------------------------------------
# The full run
# --------------------------------------------------------------------------

def run_child(name: str, seed: int, seconds: float,
              trace: int) -> dict | None:
    """One pass in its own process (clean RSS, no shared heap)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    sys.stdout.write(proc.stdout)
    try:
        with open(detail_path(name, trace), encoding="utf-8") as f:
            detail = json.load(f)
    except (OSError, ValueError):
        return None
    detail["exit_code"] = proc.returncode
    return detail


def detail_path(name: str, trace: int) -> str:
    return os.path.join(OUT_DIR, f"pass-{name}-trace{trace}.json")


def full_run(names: list[str], seed: int, seconds: float,
             update_golden: bool) -> int:
    ok = True
    report: dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in names:
        passes = []
        for trace in (0, 1):
            path = detail_path(name, trace)
            if os.path.exists(path):
                os.remove(path)
            detail = run_child(name, seed, seconds, trace)
            if detail is None or detail["exit_code"] != 0:
                warn(f"{name} --trace {trace} failed")
                ok = False
            passes.append(detail)
        if None in passes:
            continue
        plain, traced = passes
        shared = set(plain["check"]) & set(traced["check"])
        for key in sorted(shared):
            if plain["check"][key] != traced["check"][key]:
                warn(f"{name}: traced and untraced passes disagree on "
                     f"{key}: {traced['check'][key]!r} vs "
                     f"{plain['check'][key]!r}")
                ok = False
        ratio = traced["wall_tx_per_s"] / plain["wall_tx_per_s"]
        print(f"  {'harness.trace_overhead_ratio':40s} {ratio:16.6f} "
              f"ratio  ({name}: traced / untraced wall_tx_per_s)")
        report["workloads"][name] = {
            "end_to_end": plain["result"], "per_layer": traced["result"],
            "check": traced["check"],
            "harness.trace_overhead_ratio": ratio,
        }
    with open(os.path.join(OUT_DIR, "result.json"), "w",
              encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    if update_golden and ok:
        with open(GOLDEN, encoding="utf-8") as f:
            golden = json.load(f)
        golden.setdefault(str(seed), {}).update(
            {n: w["check"] for n, w in report["workloads"].items()})
        with open(GOLDEN, "w", encoding="utf-8") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")
    print("bench: " + ("all outputs correct" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    from bench.workloads import WORKLOADS

    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="single pass; omit for the full run")
    parser.add_argument("--update-golden", action="store_true",
                        help="full run: record this seed's check "
                             "values in bench/golden.json")
    args = parser.parse_args(argv)

    if args.trace is None:
        names = [args.workload] if args.workload else \
            [w["name"] for w in spec["workloads"]]
        return full_run(names, args.seed, args.seconds,
                        args.update_golden)
    if args.workload is None:
        parser.error("--trace needs --workload")
    result, detail = run_pass(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    with open(detail_path(args.workload, args.trace), "w",
              encoding="utf-8") as f:
        json.dump(detail, f, indent=1, sort_keys=True)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{detail['units']} timed units, attempted "
          f"{result['attempted']}, failed {result['failed']}, "
          f"modeled_tps {detail['modeled_tps']:.4f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
