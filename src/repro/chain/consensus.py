"""Timing model for the simulated network (substitute for EC2 testbed).

The paper measures wall-clock throughput on t2.medium machines running
PBFT inside each shard.  We replace the testbed with a deterministic
cost model: transaction execution is priced in gas units converted to
seconds at a fixed node speed, PBFT consensus contributes a base
latency quadratic in committee size (its message complexity), and the
DS committee adds per-location merge cost.  Absolute constants are
calibrated so the baseline sits near the paper's ~100 TPS scale; the
*shape* of the results (who scales, who saturates) is independent of
the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

# PBFT committee sizes: every shard's, and the DS committee's.
SHARD_SIZE = 5
DS_SIZE = 10


@dataclass(frozen=True)
class CostModel:
    """All tunables of the simulated network in one place."""

    # Execution speed of a validator, in gas units per second.
    gas_per_second: float = 25_000.0
    # PBFT round latency: base plus quadratic message cost.
    consensus_base_s: float = 8.0
    consensus_per_node2_s: float = 0.02
    # Cost to apply one changed state location during the FSD merge.
    merge_per_location_s: float = 50e-6
    # Per-transaction dispatch cost at the lookup nodes.
    dispatch_signature_s: float = 475e-6   # with CoSplit (Sec. 5.2.2)
    dispatch_default_s: float = 8e-6       # plain Zilliqa
    # Gas limits per epoch (mirroring mainnet shard/DS limits).
    shard_gas_limit: int = 700_000
    ds_gas_limit: int = 700_000
    # How long the DS committee waits for a shard's MicroBlock before
    # declaring the shard failed and starting recovery (view change).
    # Every crashed / delayed / byzantine lane costs one full timeout.
    microblock_timeout_s: float = 12.0

    def exec_seconds(self, gas: int) -> float:
        return gas / self.gas_per_second

    def consensus_seconds(self, committee_size: int) -> float:
        return (self.consensus_base_s
                + self.consensus_per_node2_s * committee_size ** 2)

    def epoch_seconds(self, shard_exec: list[float], ds_exec: float,
                      merged_locations: int, n_dispatched: int,
                      with_cosplit: bool, timeouts: int = 0) -> float:
        """Total epoch wall time.

        Shards run in parallel (max), then the DS committee merges
        deltas and processes its own transactions, then final
        consensus.  Dispatch happens at lookup nodes concurrently with
        nothing else, so it adds per-transaction cost up front.

        ``timeouts`` is the number of shard lanes whose MicroBlock the
        DS committee waited out this epoch (crashed, delayed past the
        consensus timeout, or rejected as byzantine).  Recovery is not
        free: each such lane stalls the epoch for one full
        ``microblock_timeout_s`` before its transactions are
        re-executed on the DS lane.
        """
        dispatch_cost = n_dispatched * (
            self.dispatch_signature_s if with_cosplit
            else self.dispatch_default_s)
        shard_phase = (max(shard_exec) if shard_exec else 0.0) + \
            self.consensus_seconds(SHARD_SIZE)
        merge_phase = merged_locations * self.merge_per_location_s
        ds_phase = ds_exec + self.consensus_seconds(DS_SIZE)
        recovery_phase = timeouts * self.microblock_timeout_s
        return (dispatch_cost + shard_phase + merge_phase + ds_phase
                + recovery_phase)


DEFAULT_COST_MODEL = CostModel()
