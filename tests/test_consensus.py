"""Cost-model tests: the simulated network's timing arithmetic."""

import pytest

from repro.chain.consensus import CostModel, DEFAULT_COST_MODEL


def test_exec_seconds_scales_linearly():
    cm = CostModel(gas_per_second=1000.0)
    assert cm.exec_seconds(1000) == pytest.approx(1.0)
    assert cm.exec_seconds(2000) == pytest.approx(2.0)
    assert cm.exec_seconds(0) == 0.0


def test_consensus_grows_quadratically_with_committee():
    cm = CostModel(consensus_base_s=1.0, consensus_per_node2_s=0.01)
    small = cm.consensus_seconds(5)
    large = cm.consensus_seconds(10)
    assert small == pytest.approx(1.0 + 0.01 * 25)
    assert large == pytest.approx(1.0 + 0.01 * 100)
    assert large - 1.0 == pytest.approx(4 * (small - 1.0))


def test_epoch_seconds_components():
    cm = CostModel(consensus_base_s=1.0, consensus_per_node2_s=0.0,
                   merge_per_location_s=0.001,
                   dispatch_signature_s=0.01, dispatch_default_s=0.001)
    base = cm.epoch_seconds(shard_exec=[2.0, 3.0], ds_exec=1.0,
                            merged_locations=100, n_dispatched=0,
                            with_cosplit=True)
    # max(shard) + shard consensus + merge + ds exec + ds consensus.
    assert base == pytest.approx(3.0 + 1.0 + 0.1 + 1.0 + 1.0)


def test_shards_run_in_parallel_not_in_sum():
    cm = DEFAULT_COST_MODEL
    serial_ish = cm.epoch_seconds([5.0], 0.0, 0, 0, True)
    parallel = cm.epoch_seconds([5.0, 5.0, 5.0], 0.0, 0, 0, True)
    assert parallel == pytest.approx(serial_ish)


def test_dispatch_cost_depends_on_mode():
    cm = DEFAULT_COST_MODEL
    with_sig = cm.epoch_seconds([1.0], 0.0, 0, 1000, True)
    without = cm.epoch_seconds([1.0], 0.0, 0, 1000, False)
    assert with_sig > without


def test_empty_shard_list_is_fine():
    cm = DEFAULT_COST_MODEL
    assert cm.epoch_seconds([], 0.0, 0, 0, True) > 0
