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
    assert result.dispatch_slowdown > 3
    assert result.merge_per_field_joins_us > 0
    # 2-2.6x with compiled transitions (9-10x when they were
    # tree-walked: the merge did not get slower, re-execution faster).
    assert result.merge_speedup_vs_execution > 1


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
