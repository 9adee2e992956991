"""Smoke tests for the eval-layer report formatters.

These formatters were previously exercised only by hand via the CLI;
each test builds a small result object directly (no expensive
experiment run) and checks the rendered report carries the numbers
that matter, so a broken format string fails here rather than in a
user's terminal.
"""

from repro.core.solver import GEReport
from repro.eval.ablation import AblationResult, AblationRow, format_ablation
from repro.eval.ethereum_breakdown import Fig1Result, format_fig1
from repro.eval.ge_stats import Fig13Result, format_fig13
from repro.eval import ethereum_breakdown as eth_mod


def test_format_ablation_lists_every_row():
    result = AblationResult(rows=[
        AblationRow(experiment="routing", variant="signatures",
                    tps=123.4, committed=600, offered=640),
        AblationRow(experiment="routing", variant="round-robin",
                    tps=45.6, committed=580, offered=640),
    ])
    text = format_ablation(result)
    assert "signatures" in text and "round-robin" in text
    assert "123.4" in text and "45.6" in text
    assert text.splitlines()[0].startswith("Sec. 5.2.3")


def test_format_fig13_histogram_and_scatter():
    result = Fig13Result(reports=[
        GEReport(contract="Tiny", n_transitions=2, largest_ge_size=2,
                 largest_ge=("A", "B"), maximal_ge=[("A", "B")]),
        GEReport(contract="Wide", n_transitions=2, largest_ge_size=1,
                 largest_ge=("A",), maximal_ge=[("A",), ("B",)]),
        GEReport(contract="Big", n_transitions=5, largest_ge_size=4,
                 largest_ge=("A", "B", "C", "D"),
                 maximal_ge=[("A", "B", "C", "D")]),
    ])
    text = format_fig13(result)
    # Histogram: two contracts with 2 transitions, one with 5.
    assert "2 transitions: ██ 2" in text
    assert "5 transitions: █ 1" in text
    for name in ("Tiny", "Wide", "Big"):
        assert name in text
    # The scatter helpers agree with the report rows.
    assert result.transition_histogram() == {2: 2, 5: 1}
    assert (5, 4) in result.largest_ge_points()
    assert (2, 2) in result.maximal_ge_points()


def test_format_fig1_renders_bins_and_margin():
    result = Fig1Result(
        bin_size=500_000, sampled_blocks=10, sampled_txns=660,
        margin_of_error=0.0123,
        breakdown={0: {eth_mod.eth.TRANSFER: 60.0,
                       eth_mod.eth.SINGLE_CALL: 30.0,
                       eth_mod.eth.MULTI_CALL: 5.0,
                       eth_mod.eth.OTHER: 5.0}},
        single_call_split={0: {eth_mod.eth.ERC20_CALL: 75.0}},
    )
    text = format_fig1(result)
    assert "10 blocks / 660 txns" in text
    assert "1.23%" in text            # margin of error, rendered as %
    assert "60.0%" in text and "75.0%" in text

