"""E8 — Sec. 5.2.2: overheads introduced by CoSplit.

Micro-benchmarks for the two operations the paper measures (dispatch,
delta merging) plus the justification measurement: merging a delta is
cheaper than re-executing the transactions that produced it (orders of
magnitude in the paper, a small multiple here).
"""

from repro.chain.transaction import call
from repro.eval.overheads import (
    TOKEN_ADDR, _token_network, format_overheads, run_overheads,
)
from repro.scilla.values import addr, uint


def test_overheads_report(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: run_overheads(n_dispatch=3000, n_entries=2000),
        rounds=1, iterations=1)
    save_result("overheads", format_overheads(result))
    # Directions must match the paper even though absolute numbers are
    # Python-scale: signature dispatch costs more, merging costs more
    # per field than plain application, and merging beats re-execution.
    # Both sides are best-of-k under gc.freeze.  Measured 9.0-10.1x over
    # seven runs (9.6-13.3x before the wire decode got leaner: the
    # signature path, 10.6-11.6 µs, is mostly its JSON boundary; the
    # default one is 1.1-1.2 µs).
    assert result.dispatch_slowdown > 5
    assert result.merge_per_field_joins_us > 0
    # Measured 1.71-2.13x over seven runs (EXPERIMENTS.md E8): both
    # layers moved — re-execution 25 -> 12.5-14.2 µs per transfer (the
    # second lowering pass), decode + merge 12.3 -> 6.6-7.9 µs per field.
    # With the old decode it would be 1.1x; 9-10x while transitions
    # were tree-walked.  Nothing got slower, the numerator got faster.
    assert result.merge_speedup_vs_execution > 1.3


def test_benchmark_dispatch_default(benchmark):
    net, _ = _token_network(use_signatures=False)
    tx = call("0x11", TOKEN_ADDR, "Transfer",
              {"to": addr("0x22"), "amount": uint(1)}, nonce=1)
    benchmark(lambda: net.dispatcher.dispatch(tx))


def test_benchmark_dispatch_with_signature(benchmark):
    net, _ = _token_network(use_signatures=True)
    tx = call("0x11", TOKEN_ADDR, "Transfer",
              {"to": addr("0x22"), "amount": uint(1)}, nonce=1)
    benchmark(lambda: net.dispatcher.dispatch(tx))
