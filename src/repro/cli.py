"""Command-line interface for the CoSplit reproduction.

Usage (also via ``python -m repro``):

    repro analyze   <file.scilla | corpus:Name>     effect summaries
    repro signature <file|corpus:Name> T1 T2 …      derive a signature
    repro compile   <file|corpus:Name> Transition   generated Python source
    repro solve     <file|corpus:Name>              GE-signature report
    repro diagnose  <file|corpus:Name>              why sharding fails
    repro repair    <file|corpus:Name> [Transition] rewrite + print
    repro corpus                                    list corpus contracts
    repro bench     fig1|fig12|…|ablation|state     paper experiments
    repro chaos     [--seed N --epochs E]           fault-injection run
    repro metrics   [--workload W --json|--prom]    instrumented run
    repro run       --data-dir D [--workload W]     durable workload run
    repro resume    --data-dir D [--workload W]     continue a durable run
    repro torture   [--workload W | --all]          kill-and-resume proof
    repro serve     [--population N --ticks T …]    service-mode session
    repro loadgen   [--out F --population N …]      record a tick stream
"""

from __future__ import annotations

import argparse
import re
import sys

from .contracts import CORPUS, contract_loc
from .core.pipeline import run_pipeline
from .core.repair import diagnose, repair_module, repair_transition
from .scilla.parser import parse_module
from .scilla.pretty import pp_module


def _load_source(spec: str) -> tuple[str, str]:
    """Resolve ``corpus:Name`` or a filesystem path to source text."""
    if spec.startswith("corpus:"):
        name = spec.removeprefix("corpus:")
        if name not in CORPUS:
            raise SystemExit(f"unknown corpus contract {name!r}; run "
                             f"`repro corpus` to list them")
        return CORPUS[name], name
    try:
        with open(spec, encoding="utf-8") as handle:
            return handle.read(), spec
    except FileNotFoundError:
        hint = (f"did you mean corpus:{spec}?" if spec in CORPUS
                else "`repro corpus` lists the built-in contracts")
        raise SystemExit(f"no such file: {spec!r}; {hint}") from None


def cmd_analyze(args) -> int:
    source, name = _load_source(args.contract)
    result = run_pipeline(source, name)
    for summary in result.summaries.values():
        print(summary)
        print()
    us = result.timings.as_microseconds()
    print(f"[parse {us['parse']:.0f} µs | typecheck "
          f"{us['typecheck']:.0f} µs | analysis {us['analysis']:.0f} µs]")
    return 0


def cmd_signature(args) -> int:
    source, name = _load_source(args.contract)
    result = run_pipeline(source, name)
    selection = tuple(args.transitions) or tuple(result.summaries)
    unknown = set(selection) - set(result.summaries)
    if unknown:
        raise SystemExit(f"unknown transitions: {sorted(unknown)}")
    weak = set(args.weak_reads) if args.weak_reads else "auto"
    sig = result.signature(selection, weak_reads=weak,
                           allow_commutativity=not args.ownership_only)
    print(sig.describe())
    return 0


def cmd_compile(args) -> int:
    """Print the Python a transition compiles to, with everything it
    reaches (procedures, library functions) and a constants legend."""
    from .scilla.interpreter import Interpreter

    source, name = _load_source(args.contract)
    interp = Interpreter(run_pipeline(source, name).module)
    known = [t.name for t in interp.contract.transitions]
    if args.transition not in known:
        raise SystemExit(f"unknown transition {args.transition!r}; "
                         f"{name} has {known}")
    unit = interp.unit
    text = unit.source(args.transition)
    did = unit.stats[f"t_{args.transition}"]
    print(f"# {name}.{args.transition}: {unit.units} units in this source, "
          f"{unit.delegated} expressions delegated to eval_expr; here "
          f"{did['charges']} charges at {did['charge_sites']} sites, "
          f"{did['unboxed_options']}/{did['options']} Options and "
          f"{did['unboxed_bools']} Bools unboxed, "
          f"{did['guarded_builtins']} class-guarded builtins, "
          f"{did['static_sends']} static sends, "
          f"{did['fused_writes']} fused writes")
    # A hoisted message pair — ('_eventname', K) — is shown by the name
    # of its value, which is then listed too.
    used = set(re.findall(r"\bK\d+\b", text))
    names = {id(v): k for k, v in unit.ns.items()}
    pairs = {k: names[id(v[1])] for k in used
             if type(v := unit.ns[k]) is tuple and len(v) == 2
             and id(v[1]) in names}
    for const in sorted(used.union(pairs.values()),
                        key=lambda k: int(k[1:])):
        value = unit.ns[const]
        shown = (f"({value[0]!r}, {pairs[const]})" if const in pairs else
                 getattr(value, "__qualname__", None) or str(value))
        print(f"# {const} = {shown if len(shown) <= 70 else shown[:67] + '...'}")
    print("\n" + text, end="")
    return 0


def cmd_solve(args) -> int:
    source, name = _load_source(args.contract)
    result = run_pipeline(source, name)
    solver = result.solver()
    report = solver.report()
    print(f"{report.contract}: {report.n_transitions} transitions")
    print(f"shardable alone: {solver.shardable_transitions()}")
    print(f"largest good-enough signature: {report.largest_ge_size}")
    for selection in report.maximal_ge:
        print(f"  maximal: {selection}")
    return 0


def cmd_diagnose(args) -> int:
    source, name = _load_source(args.contract)
    module = parse_module(source, name)
    for d in diagnose(module):
        status = "shardable" if d.shardable else "NOT shardable"
        print(f"{d.transition}: {status}")
        for reason in d.reasons:
            print(f"    reason: {reason}")
        for binder in d.repairable_binders:
            print(f"    state-derived map key: {binder}")
    return 0


def cmd_repair(args) -> int:
    source, name = _load_source(args.contract)
    module = parse_module(source, name)
    if args.transition:
        module, changes = repair_transition(module, args.transition)
        log = {args.transition: changes} if changes else {}
    else:
        module, log = repair_module(module)
    if not log:
        print("nothing to repair")
        return 0
    for transition, changes in log.items():
        print(f"-- {transition}:")
        for change in changes:
            print(f"   {change}")
    print()
    print(pp_module(module))
    return 0


def cmd_repl(_args) -> int:
    from .scilla.repl import run_repl
    run_repl()
    return 0


def cmd_corpus(args) -> int:
    if args.export:
        from pathlib import Path
        target = Path(args.export)
        target.mkdir(parents=True, exist_ok=True)
        for name, source in CORPUS.items():
            (target / f"{name}.scilla").write_text(source.strip() + "\n")
        print(f"wrote {len(CORPUS)} .scilla files to {target}")
        return 0
    print(f"{'contract':28s} {'LOC':>5s} {'transitions':>11s}")
    for name in sorted(CORPUS):
        result = run_pipeline(CORPUS[name], name)
        print(f"{name:28s} {contract_loc(name):>5d} "
              f"{len(result.summaries):>11d}")
    return 0


def cmd_bench(args) -> int:
    target = args.experiment
    if target == "all":
        from .eval.report import run_full_report
        print(run_full_report(output=args.output))
    elif target == "fig1":
        from .eval.ethereum_breakdown import format_fig1, run_fig1
        print(format_fig1(run_fig1()))
    elif target == "fig12":
        from .eval.analysis_perf import format_fig12, run_fig12
        print(format_fig12(run_fig12()))
    elif target == "fig13":
        from .eval.ge_stats import format_fig13, run_fig13
        print(format_fig13(run_fig13()))
    elif target == "fig14":
        from .eval.throughput import format_fig14, run_fig14
        print(format_fig14(run_fig14(epochs=args.epochs)))
    elif target == "table":
        from .eval.tables import format_contract_stats, run_contract_stats
        print(format_contract_stats(run_contract_stats()))
    elif target == "overheads":
        from .eval.overheads import format_overheads, run_overheads
        print(format_overheads(run_overheads()))
    elif target == "ablation":
        from .eval.ablation import format_ablation, run_ablation
        print(format_ablation(run_ablation()))
    elif target == "state":
        from .eval.state_bench import (
            format_oocore_soak, format_paged_bench, format_state_bench,
            run_oocore_soak, run_paged_bench, run_state_bench,
            write_state_bench,
        )
        sizes = tuple(int(s) for s in args.sizes.split(","))
        # The soak runs first: its peak-RSS claim reads ru_maxrss, a
        # process-lifetime high-water mark the paged bench's resident
        # baseline dict would otherwise inflate.
        soak = None
        if args.soak_entries:
            soak = run_oocore_soak(entries=args.soak_entries)
        result = run_state_bench(sizes=sizes,
                                 repeat=args.repetitions)
        print(format_state_bench(result))
        paged = None
        if not args.no_paged:
            paged_sizes = tuple(int(s) for s in
                                args.paged_sizes.split(","))
            paged = run_paged_bench(sizes=paged_sizes,
                                    repeat=args.repetitions)
            print()
            print(format_paged_bench(paged))
        if soak is not None:
            print()
            print(format_oocore_soak(soak))
        out = args.output or "BENCH_state.json"
        write_state_bench(result, out, paged=paged, soak=soak)
        print(f"\nwrote {out}")
    elif target == "throughput":
        from .eval.throughput import (
            format_throughput_bench, run_throughput_bench,
            write_throughput_bench,
        )
        shard_counts = tuple(int(s) for s in
                             args.shard_counts.split(","))
        populations = tuple(int(p) for p in args.populations.split(","))
        result = run_throughput_bench(
            shard_counts=shard_counts, populations=populations,
            ticks=args.ticks, txns_per_tick=args.txns)
        print(format_throughput_bench(result))
        out = args.output or "BENCH_throughput.json"
        write_throughput_bench(result, out)
        print(f"\nwrote {out}")
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown experiment {target}")
    return 0


def cmd_chaos(args) -> int:
    from .eval.chaos import format_chaos_report, run_chaos
    result = run_chaos(seed=args.seed, epochs=args.epochs,
                       shards=args.shards, workload=args.workload,
                       users=args.users, txns=args.txns,
                       churn=args.churn)
    print(format_chaos_report(result))
    return 0 if (result.churn or result.consistent) else 1


def cmd_metrics(args) -> int:
    from .eval.telemetry import format_telemetry, run_instrumented
    run = run_instrumented(
        workload=args.workload, epochs=args.epochs,
        txns_per_epoch=args.txns, n_users=args.users,
        n_shards=args.shards, seed=args.seed, trace=args.trace and not (args.json or args.prom))
    if args.json:
        print(run.registry.to_json(
            deterministic_only=args.deterministic_only))
    elif args.prom:
        sys.stdout.write(run.registry.to_prometheus())
    else:
        print(format_telemetry(run))
    return 0


def _run_durable_cmd(args, require_existing: bool) -> int:
    import json as json_mod

    from .eval.chaos import run_durable
    result = run_durable(
        args.workload, data_dir=args.data_dir, seed=args.seed,
        epochs=args.epochs, shards=args.shards, users=args.users,
        txns=args.txns, fault_seed=args.fault_seed, fsync=args.fsync,
        snapshot_every=args.snapshot_every,
        keep_snapshots=args.keep_snapshots,
        crash_at_barrier=args.crash_at_barrier,
        crash_at_append=args.crash_at_append,
        require_existing=require_existing)
    if args.json:
        print(json_mod.dumps({
            "completed": True, "workload": result.workload,
            "fingerprint": result.fingerprint,
            "epochs_done": result.epochs_done,
            "resumed": result.resumed, "restarted": result.restarted,
            "barriers": result.barriers, "appends": result.appends,
            "skipped_restore_points": result.skipped_restore_points,
            "restored_deltas": result.restored_deltas,
        }))
        return 0
    how = ("resumed" if result.resumed
           else "restarted (setup was incomplete)" if result.restarted
           else "fresh")
    print(f"{result.workload!r}: {how}, {result.epochs_done} measured "
          f"epochs done, {result.appends} WAL records across "
          f"{result.barriers} barriers")
    for name, reason in sorted(result.skipped_restore_points.items()):
        print(f"  skipped restore point {name}: {reason}")
    for addr, digest in sorted(result.fingerprint.items()):
        print(f"  {addr}: {digest}")
    return 0


def cmd_run(args) -> int:
    return _run_durable_cmd(args, require_existing=False)


def cmd_resume(args) -> int:
    return _run_durable_cmd(args, require_existing=True)


def cmd_serve(args) -> int:
    import json as json_mod

    from .eval.service import format_service, iter_stream, run_service

    kwargs = dict(
        shards=args.shards, ticks=args.ticks, txns_per_tick=args.txns,
        population=args.population, seed=args.seed,
        capacity=args.capacity, per_sender=args.per_sender,
        batch_max=args.batch_max, flood_rate=args.flood_rate,
        stall_rate=args.stall_rate, fault_seed=args.fault_seed,
        data_dir=args.data_dir,
        state_backend=args.state_backend,
        drain_ticks=args.drain_ticks)
    if args.stream is not None:
        handle = (sys.stdin if args.stream == "-"
                  else open(args.stream, encoding="utf-8"))
        try:
            run = run_service(stream=iter_stream(handle), **kwargs)
        finally:
            if handle is not sys.stdin:
                handle.close()
    else:
        run = run_service(args.workload, **kwargs)
    run.net.close()
    if args.json:
        print(json_mod.dumps(run.report.to_obj(), sort_keys=True))
    else:
        print(format_service(run.report))
    return 0 if run.report.partition_ok else 1


def cmd_loadgen(args) -> int:
    from .eval.service import write_stream

    handle = (sys.stdout if args.out == "-"
              else open(args.out, "w", encoding="utf-8"))
    try:
        header = write_stream(
            handle, args.workload, population=args.population,
            ticks=args.ticks, txns_per_tick=args.txns, seed=args.seed)
    finally:
        if handle is not sys.stdout:
            handle.close()
    if args.out != "-":
        print(f"wrote {header['total_txns']} txns over "
              f"{header['ticks']} ticks to {args.out}")
    return 0


def cmd_torture(args) -> int:
    from .eval.chaos import format_torture_report, run_crash_torture
    from .workloads.generators import ALL_WORKLOADS
    names = ([cls.name for cls in ALL_WORKLOADS] if args.all
             else [args.workload])
    outcomes = []
    for name in names:
        outcomes.append(run_crash_torture(
            name, kills=args.kills, seed=args.seed, epochs=args.epochs,
            shards=args.shards, users=args.users, txns=args.txns,
            fault_seed=args.fault_seed, rng_seed=args.rng_seed))
    print(format_torture_report(outcomes))
    return 0 if all(o.passed for o in outcomes) else 1


def _shard_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"a network needs at least one shard, not {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CoSplit (PLDI 2021) reproduction toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="infer effect summaries")
    p.add_argument("contract")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("signature", help="derive a sharding signature")
    p.add_argument("contract")
    p.add_argument("transitions", nargs="*")
    p.add_argument("--weak-reads", nargs="*", default=None,
                   help="fields whose stale reads you accept "
                        "(default: accept whatever is needed)")
    p.add_argument("--ownership-only", action="store_true",
                   help="disable the commutativity strategy")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser(
        "compile", help="show the Python a transition compiles to")
    p.add_argument("contract")
    p.add_argument("transition")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("solve", help="good-enough signature report")
    p.add_argument("contract")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("diagnose", help="explain unshardable transitions")
    p.add_argument("contract")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("repair", help="compare-and-swap repair")
    p.add_argument("contract")
    p.add_argument("transition", nargs="?")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("corpus", help="list corpus contracts")
    p.add_argument("--export", default=None, metavar="DIR",
                   help="write every corpus contract as a .scilla file")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("repl", help="interactive Scilla expression REPL")
    p.set_defaults(func=cmd_repl)

    p = sub.add_parser("bench", help="regenerate a paper experiment")
    p.add_argument("experiment",
                   choices=["fig1", "fig12", "fig13", "fig14", "table",
                            "overheads", "ablation", "state",
                            "throughput", "all"])
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--ticks", type=int, default=12,
                   help="measured service ticks for 'throughput'")
    p.add_argument("--txns", type=int, default=200,
                   help="offered transactions per tick for 'throughput'")
    p.add_argument("--shard-counts", default="2,4,8",
                   help="comma-separated shard counts for 'throughput'")
    p.add_argument("--populations", default="1000,100000",
                   help="comma-separated sender populations for "
                        "'throughput'")
    p.add_argument("--repetitions", type=int, default=1,
                   help="timing repetitions for 'state'")
    p.add_argument("--sizes", default="1000,10000,100000",
                   help="comma-separated map sizes for 'state'")
    p.add_argument("--paged-sizes", default="10000,100000,1000000",
                   help="comma-separated map sizes for the "
                        "paged-vs-resident section of 'state'")
    p.add_argument("--no-paged", action="store_true",
                   help="skip the paged-vs-resident section of 'state'")
    p.add_argument("--soak-entries", type=int, default=0,
                   help="run the out-of-core service soak at this many "
                        "seeded entries (0 = skip)")
    p.add_argument("--output", default=None,
                   help="write the report to this file (with 'all', "
                        "'state' or 'throughput')")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "chaos",
        help="run a workload under seeded fault injection and verify "
             "the final state matches the fault-free run")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--shards", type=_shard_count, default=4)
    p.add_argument("--workload", default="FT transfer",
                   help="workload name as in `repro bench fig14`")
    p.add_argument("--users", type=int, default=24)
    p.add_argument("--txns", type=int, default=40,
                   help="transactions per epoch")
    p.add_argument("--churn", action="store_true",
                   help="also drop/duplicate/reorder mempool "
                        "transactions (disables the equivalence "
                        "verdict)")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "metrics",
        help="run an instrumented workload and print the telemetry it "
             "recorded (text, --json, or Prometheus exposition)")
    p.add_argument("--workload", default="FT transfer",
                   help="workload name as in `repro bench fig14`")
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--shards", type=_shard_count, default=4)
    p.add_argument("--users", type=int, default=48)
    p.add_argument("--txns", type=int, default=60,
                   help="transactions per epoch")
    p.add_argument("--seed", type=int, default=7)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="registry snapshot as JSON")
    fmt.add_argument("--prom", action="store_true",
                     help="Prometheus text exposition format")
    p.add_argument("--deterministic-only", action="store_true",
                   help="restrict --json to the reproducible subset")
    p.add_argument("--trace", action="store_true",
                   help="also print the epoch span tree (text mode)")
    p.set_defaults(func=cmd_metrics)

    def add_durable_args(p, with_crash_hooks: bool) -> None:
        p.add_argument("--data-dir", required=True,
                       help="directory for WAL segments and snapshots")
        p.add_argument("--workload", default="FT transfer")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epochs", type=int, default=3)
        p.add_argument("--shards", type=_shard_count, default=4)
        p.add_argument("--users", type=int, default=12)
        p.add_argument("--txns", type=int, default=10,
                       help="transactions per epoch")
        p.add_argument("--fault-seed", type=int, default=None,
                       help="also inject a seeded FaultPlan")
        p.add_argument("--fsync", default="commit",
                       choices=["always", "commit", "never"])
        p.add_argument("--snapshot-every", type=int, default=4,
                       help="epoch commits between durable snapshots")
        p.add_argument("--keep-snapshots", type=int, default=3)
        p.add_argument("--json", action="store_true",
                       help="machine-readable result on stdout")
        if with_crash_hooks:
            p.add_argument("--crash-at-barrier", type=int, default=None,
                           help="SIGKILL self after the Nth WAL barrier "
                                "(crash testing)")
            p.add_argument("--crash-at-append", type=int, default=None,
                           help="SIGKILL self halfway through the Nth "
                                "WAL append (torn-write testing)")

    p = sub.add_parser(
        "run",
        help="run a workload with WAL-backed durability (resumes "
             "automatically if the data dir already holds a log)")
    add_durable_args(p, with_crash_hooks=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "resume",
        help="continue a durable run from its data dir (fails if "
             "there is nothing to resume)")
    add_durable_args(p, with_crash_hooks=True)
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser(
        "torture",
        help="crash-torture proof: SIGKILL a durable run at random "
             "WAL barriers, resume, and verify the final state "
             "matches an uninterrupted run")
    p.add_argument("--workload", default="FT transfer")
    p.add_argument("--all", action="store_true",
                   help="torture all eight Fig. 14 workloads")
    p.add_argument("--kills", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--shards", type=_shard_count, default=4)
    p.add_argument("--users", type=int, default=12)
    p.add_argument("--txns", type=int, default=10)
    p.add_argument("--fault-seed", type=int, default=None)
    p.add_argument("--rng-seed", type=int, default=0,
                   help="seed for choosing the kill points")
    p.set_defaults(func=cmd_torture)

    p = sub.add_parser(
        "serve",
        help="run a bounded service-mode session: a workload (or a "
             "loadgen stream) is submitted through the admission "
             "mempool and drained by the continuous service loop")
    p.add_argument("--workload", default="FT transfer @scale")
    p.add_argument("--stream", default=None, metavar="FILE",
                   help="serve a `repro loadgen` stream instead of "
                        "generating load ('-' reads stdin)")
    p.add_argument("--population", type=int, default=10_000,
                   help="sender address-space size")
    p.add_argument("--ticks", type=int, default=24)
    p.add_argument("--txns", type=int, default=200,
                   help="offered transactions per tick")
    p.add_argument("--shards", type=_shard_count, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--capacity", type=int, default=None,
                   help="mempool capacity (default: 8x --txns)")
    p.add_argument("--per-sender", type=int, default=None,
                   help="per-sender queue cap")
    p.add_argument("--batch-max", type=int, default=None,
                   help="epoch batch ceiling (default: --txns)")
    p.add_argument("--flood-rate", type=float, default=0.0,
                   help="per-tick probability of a FLOOD burst "
                        "(2-4x offered load)")
    p.add_argument("--stall-rate", type=float, default=0.0,
                   help="per-tick probability of a stalled consumer")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--drain-ticks", type=int, default=64,
                   help="extra ticks granted to finish admitted work")
    p.add_argument("--data-dir", default=None,
                   help="attach WAL-backed durability")
    p.add_argument("--state-backend", default=None,
                   choices=["none", "sqlite"],
                   help="out-of-core page store for contract map "
                        "state (default: REPRO_STATE_BACKEND env, "
                        "else in-memory dicts)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="record a workload as a JSONL tick stream for "
             "`repro serve --stream`")
    p.add_argument("--out", default="-", metavar="FILE",
                   help="output path ('-' writes stdout)")
    p.add_argument("--workload", default="FT transfer @scale")
    p.add_argument("--population", type=int, default=10_000)
    p.add_argument("--ticks", type=int, default=24)
    p.add_argument("--txns", type=int, default=200,
                   help="transactions per tick")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_loadgen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
