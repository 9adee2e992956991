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
    # Both sides are best-of-k under gc.freeze.  Measured 9.6-13.3x:
    # lowering dispatch to plans brought the signature path (15 µs, most
    # of it the JSON boundary) and the default one (1.3 µs) down alike.
    assert result.dispatch_slowdown > 5
    assert result.merge_per_field_joins_us > 0
    # Measured 2.0-2.8x with compiled transitions (9-10x when they
    # were tree-walked: re-execution got faster, not the merge slower).
    assert result.merge_speedup_vs_execution > 1.5


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
