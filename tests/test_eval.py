"""Evaluation-harness tests: every figure/table regenerator runs and
produces data with the paper's qualitative shape (scaled down)."""

import pytest

from repro.contracts import CORPUS
from repro.eval.ablation import format_ablation, run_ablation
from repro.eval.analysis_perf import format_fig12, run_fig12
from repro.eval.ethereum_breakdown import format_fig1, run_fig1
from repro.eval.ge_stats import format_fig13, run_fig13
from repro.eval.overheads import format_overheads, run_overheads
from repro.eval.tables import format_contract_stats, run_contract_stats
from repro.eval.throughput import (
    Config, FIG14_COST_MODEL, format_fig14, run_fig14,
)
from repro.workloads.generators import (
    FTFund, FTTransfer, NFTMint, ProofIPFSRegister,
)

SMALL_CORPUS = {name: CORPUS[name]
                for name in ("HelloWorld", "FirstContract", "Voting",
                             "Crowdfunding")}


def test_fig1_breakdown_shape():
    result = run_fig1(n_blocks=400, bin_size=2_000_000,
                      txns_per_block=40)
    bins = sorted(result.breakdown)
    assert len(bins) >= 4
    first, last = result.breakdown[bins[0]], result.breakdown[bins[-1]]
    # Transfers decline; single-contract calls rise (Fig. 1 left).
    assert first["transfer"] > last["transfer"]
    assert first["single-call"] < last["single-call"]
    # ERC20 dominates recent single calls (Fig. 1 right).
    assert result.single_call_split[bins[-1]]["erc20-single-call"] > 50
    assert "Fig. 1" in format_fig1(result)


def test_fig12_pipeline_times():
    result = run_fig12(repetitions=2, contracts=SMALL_CORPUS)
    assert len(result.rows) == len(SMALL_CORPUS)
    for row in result.rows:
        assert row.parse_us > 0
        assert row.typecheck_us > 0
        assert row.analysis_us > 0
    assert 0 < result.analysis_overhead < 5
    assert "deployment pipeline times" in format_fig12(result)


def test_fig13_ge_statistics():
    result = run_fig13(contracts=SMALL_CORPUS)
    assert len(result.reports) == len(SMALL_CORPUS)
    hist = result.transition_histogram()
    assert sum(hist.values()) == len(SMALL_CORPUS)
    for n_trans, largest in result.largest_ge_points():
        assert 0 <= largest <= n_trans
    assert "good-enough signatures" in format_fig13(result)


def test_contract_stats_table_matches_paper():
    result = run_contract_stats()
    assert len(result.rows) == 5
    for row in result.rows:
        assert row.matches_paper, (
            f"{row.contract}: got ({row.n_transitions}, "
            f"{row.largest_ges}, {row.n_maximal_ges}), paper says "
            f"{row.paper[1:]}")
    assert "✓" in format_contract_stats(result)


@pytest.mark.slow
def test_fig14_throughput_shape():
    configs = (Config("Baseline 3 shards", 3, False),
               Config("CoSplit 3 shards", 3, True),
               Config("CoSplit 5 shards", 5, True))
    result = run_fig14(epochs=2, txns_per_epoch=220, configs=configs,
                       workload_classes=[FTFund, FTTransfer, NFTMint,
                                         ProofIPFSRegister],
                       n_users=80)
    # FT transfer scales with shards.
    ft = result.series("FT transfer")
    assert ft[1] > ft[0] * 1.3      # CoSplit beats baseline
    assert ft[2] > ft[1] * 1.05     # more shards help further
    # FT fund does not scale (single owner).
    fund = result.series("FT fund")
    assert fund[2] < fund[0] * 1.2
    # NFT mint scales despite the single sender (Sec. 4.2 revisions).
    mint = result.series("NFT mint")
    assert mint[1] > mint[0] * 1.5
    # ProofIPFS register does not scale but does not collapse either.
    pipfs = result.series("ProofIPFS register")
    assert pipfs[2] > pipfs[0] * 0.5
    assert "Fig. 14" in format_fig14(result)


def test_overheads_direction_matches_paper():
    result = run_overheads(n_dispatch=300, n_entries=300)
    # Signature dispatch costs more than the default strategy.
    assert result.dispatch_signature_us > result.dispatch_default_us
    # Join-aware merging costs more per field than plain application...
    assert result.merge_per_field_joins_us > 0
    # ...but merging stays cheaper than re-execution: 1.8-2.2x over ten
    # runs at this size (1.7-2.1x at the benchmark's, which carries the
    # numeric bound; 7-10x tree-walked; EXPERIMENTS.md E8).  Both sides
    # are best-of-k with the heap frozen, so the direction is not a
    # coin-flip.
    assert result.merge_speedup_vs_execution > 1
    assert "overheads" in format_overheads(result)


@pytest.mark.slow
def test_ablation_strategies():
    result = run_ablation(epochs=2, txns_per_epoch=150, n_shards=4,
                          n_users=60)
    # Commutativity carries FT transfers.
    assert result.tps("FT transfer", "full CoSplit") > \
        result.tps("FT transfer", "ownership only") * 1.2
    # Ownership alone carries UD record updates.
    ud_own = result.tps("UD config", "ownership only")
    ud_full = result.tps("UD config", "full CoSplit")
    assert ud_own > ud_full * 0.8
    # Relaxed nonces carry single-sender mints.
    assert result.tps("NFT mint", "relaxed nonces") > \
        result.tps("NFT mint", "strict nonces") * 1.5
    assert "ablations" in format_ablation(result)


def test_full_report_selected_sections(tmp_path):
    from repro.eval.report import run_full_report
    out = tmp_path / "report.txt"
    text = run_full_report(output=out, only={"E6"})
    assert "E6 / Sec. 5.2 table" in text
    assert "FungibleToken" in text
    assert out.read_text().strip() == text.strip()
    # Sections not requested are absent.
    assert "Fig. 14" not in text


def test_fig14_index_and_series_preserve_config_order():
    """The (workload, config) index must behave exactly like the old
    linear scans: KeyError on unknown pairs, and series() returning
    one TPS per config in config *insertion* order."""
    from repro.eval.throughput import Fig14Cell, Fig14Result

    result = Fig14Result(epochs=1, txns_per_epoch=10)
    # Deliberately non-alphabetical config order, two workloads.
    for config, tps in (("zeta", 1.0), ("alpha", 2.0), ("mid", 3.0)):
        result.add(Fig14Cell("W1", config, tps, 1, 1, 0.0))
        result.add(Fig14Cell("W2", config, tps * 10, 1, 1, 0.0))

    assert result.config_order == ["zeta", "alpha", "mid"]
    assert result.series("W1") == [1.0, 2.0, 3.0]
    assert result.series("W2") == [10.0, 20.0, 30.0]
    assert result.tps("W1", "mid") == 3.0
    with pytest.raises(KeyError):
        result.tps("W1", "nope")
    with pytest.raises(KeyError):
        result.tps("nope", "alpha")
    # A workload missing one config skips it without misaligning.
    result.add(Fig14Cell("W3", "alpha", 7.0, 1, 1, 0.0))
    assert result.series("W3") == [7.0]

    # Cells passed to the constructor are indexed too.
    rebuilt = Fig14Result(epochs=1, txns_per_epoch=10, cells=result.cells)
    assert rebuilt.series("W1") == [1.0, 2.0, 3.0]
    assert rebuilt.config_order == result.config_order
