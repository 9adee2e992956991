"""Lane isolation: a shard lane's result depends only on the epoch-start
state and its own queue (docs/PARALLELISM.md §1).

An epoch runs its shard lanes one after another in one process, each
after its siblings have moved accounts and nonce records.  The paper
lets the shards run side by side (Sec. 4.2–4.3), and the cost model
charges an epoch for its slowest lane, not the sum — which is sound
only if no lane can observe what a sibling did.  This oracle checks
exactly that, in every epoch attempt of every Fig. 14 workload and
``FT hammer`` (every lane merges into one key), fault-free and under
a seeded fault plan: before the attempt runs, each runnable shard lane
is re-run *alone* from the epoch-start state (``_run_lane`` +
``compute_delta``, rolled back through a checkpoint); its receipts,
deferrals, deltas and native-balance deltas must equal what the lane
produced inside the attempt, after its siblings.

Exempt, and counted, are the two cases where independence does not
hold by design: strict nonces (acceptance reads a global high-water
mark) and one ``(sender, nonce)`` dispatched to two lanes (the first
lane to run it wins).  Two mutants that leak sibling state into a lane
— lanes writing the global state in place, lanes sharing one nonce
floor — must be caught.
"""

from dataclasses import dataclass, field

import pytest

from repro.chain.delta import compute_delta
from repro.chain.dispatch import DS
from repro.chain.faults import FaultPlan
from repro.chain.network import Network, NetworkConfig
from repro.chain.recovery import NetworkCheckpoint
from repro.chain.transaction import NonceTracker
from repro.workloads.generators import ALL_WORKLOADS, FTHammer

WORKLOADS = ALL_WORKLOADS + [FTHammer]
EPOCHS = 4
SHARDS = 4

# The reference lane runner: the class's own, captured before any
# mutant below replaces it.
RUN_LANE = Network._run_lane


@dataclass
class Tally:
    attempts: int = 0          # epoch attempts checked
    busy_lanes: int = 0        # lanes with transactions, checked
    multi_lane: int = 0        # attempts with >= 2 busy lanes checked
    exempt: int = 0            # attempts exempt (strict / shared nonce)
    view_changes: int = 0
    mismatches: list = field(default_factory=list)


def _outcome(net, lane, ran):
    """What a lane produced, in comparable form: receipts, deferrals,
    deltas against the (unmerged) epoch-start states, and the native
    balance delta of every contract it forked."""
    mb, local_states, touched, deferred = ran
    deltas, balances = [], {}
    for addr, local in local_states.items():
        contract = net.contracts[addr]
        delta = compute_delta(addr, lane, contract.state, local,
                              touched.get(addr, ()), contract.joins)
        if delta.columns:
            deltas.append((delta.contract, delta.shard, delta.columns))
        balances[addr] = local.balance - contract.state.balance
    receipts = [(r.tx.tx_id, r.success, r.gas_used, r.shard, r.error,
                 r.events) for r in mb.receipts]
    return (receipts, mb.gas_used, [tx.tx_id for tx in deferred], deltas,
            balances)


def _exempt(net, queues, lanes) -> bool:
    if net.nonces.strict:
        return True
    seen: dict = {}
    return any(seen.setdefault((tx.sender, tx.nonce), lane) != lane
               for lane in lanes for tx in queues[lane])


def watch(net: Network, tally: Tally, name: str) -> None:
    """Check lane isolation in every epoch attempt ``net`` makes."""
    attempt_epoch, run_lane = net._attempt_epoch, net._run_lane
    in_epoch: dict = {}

    def capturing_run_lane(lane, queue, gas_limit, **kwargs):
        ran = run_lane(lane, queue, gas_limit, **kwargs)
        if lane != DS:
            in_epoch[lane] = _outcome(net, lane, ran)
        return ran

    def checked_attempt(incoming, excluded, shard_limit, ds_limit,
                        fault_log):
        queues = {lane: [] for lane in range(net.n_shards)}
        for tx in incoming:
            shard = net.dispatcher.dispatch(tx).shard
            if shard != DS:
                queues[shard].append(tx)
        missing = (net.injector.microblock_faults(net.epoch)
                   if net.injector is not None else {})
        lanes = [lane for lane in queues
                 if lane not in excluded and lane not in missing]
        if _exempt(net, queues, lanes):
            tally.exempt += 1
            return attempt_epoch(incoming, excluded, shard_limit,
                                 ds_limit, fault_log)
        alone = {}
        start = NetworkCheckpoint.take(net)
        for lane in lanes:
            alone[lane] = _outcome(net, lane, RUN_LANE(
                net, lane, queues[lane], shard_limit))
            start.restore(net)
        start.release(net)
        in_epoch.clear()
        outcome = attempt_epoch(incoming, excluded, shard_limit, ds_limit,
                                fault_log)
        assert set(in_epoch) == set(lanes), (name, net.epoch)
        for lane in lanes:
            if in_epoch[lane] != alone[lane]:
                tally.mismatches.append((name, net.epoch, lane))
        busy = sum(1 for lane in lanes if queues[lane])
        tally.attempts += 1
        tally.busy_lanes += busy
        tally.multi_lane += busy >= 2
        return outcome

    net._attempt_epoch = checked_attempt
    net._run_lane = capturing_run_lane


def run_battery(faults: bool, workloads=WORKLOADS) -> Tally:
    tally = Tally()
    for cls in workloads:
        plan = (FaultPlan.random(11, epochs=EPOCHS + 2, n_shards=SHARDS)
                if faults else None)
        net = Network(SHARDS, NetworkConfig(fault_plan=plan))
        watch(net, tally, cls.name)
        workload = cls(n_users=24, txns_per_epoch=40, seed=11)
        workload.setup(net)
        for epoch in range(EPOCHS):
            block = net.process_epoch(workload.transactions(epoch))
            tally.view_changes += block.stats.view_changes
    return tally


@pytest.mark.parametrize("faults", [False, True],
                         ids=["fault-free", "fault-plan"])
def test_a_lane_depends_only_on_the_epoch_start_state_and_its_queue(
        faults):
    tally = run_battery(faults)
    assert not tally.mismatches, tally.mismatches
    # Not vacuous: most attempts compared two or more busy lanes (FT
    # fund and ProofIPFS keep one busy lane, by their signatures), and
    # no workload here needs an exemption.
    assert tally.multi_lane > tally.attempts / 2, tally
    assert tally.exempt == 0, tally
    if faults:
        # The plan fired: lanes were excluded and attempts retried.
        assert tally.view_changes > 0, tally


def test_the_exemptions_are_counted_not_checked():
    """A strict-nonce network and a (sender, nonce) sent to two lanes
    are where lanes are *not* independent: the oracle skips them."""
    from repro.chain.transaction import call
    from repro.scilla import types as ty
    from repro.scilla.values import IntVal, addr
    from repro.workloads.generators import NFTMint

    tally = Tally()
    net = Network(SHARDS, NetworkConfig(strict_nonces=True))
    watch(net, tally, "strict")
    workload = NFTMint(n_users=8, txns_per_epoch=12, seed=3)
    workload.setup(net)
    net.process_epoch(workload.transactions(0))
    assert (tally.exempt, tally.attempts) == (1, 0)

    tally = Tally()
    net = Network(SHARDS)
    watch(net, tally, "replay")
    workload = NFTMint(n_users=8, txns_per_epoch=12, seed=3)
    workload.setup(net)
    # Eight tokens minted under one admin nonce: the tokens' shards
    # differ, so one nonce lands in two lanes.
    txns = [call(workload.admin, workload.contract_addr, "Mint",
                 {"to": addr(workload.users[0]),
                  "token_id": IntVal(token, ty.UINT256)}, nonce=1)
            for token in range(8)]
    shards = {net.dispatcher.dispatch(tx).shard for tx in txns}
    assert len(shards - {DS}) >= 2
    net.process_epoch(txns)
    assert (tally.exempt, tally.attempts) == (1, 0)


def _leaky_run_lane(self, lane, queue, gas_limit, use_global_state=False,
                    pre_states=None):
    """Mutant: shard lanes write the global state in place, so each
    lane reads what the lanes before it wrote."""
    return RUN_LANE(self, lane, queue, gas_limit, True, pre_states)


_ACCEPT = NonceTracker.try_accept


def _shared_floor_accept(self, sender, nonce, lane):
    """Mutant: every lane reads and raises one nonce floor."""
    return _ACCEPT(self, sender, nonce, DS)


@pytest.mark.parametrize("target, mutant", [
    (Network, ("_run_lane", _leaky_run_lane)),
    (NonceTracker, ("try_accept", _shared_floor_accept)),
], ids=["lanes-write-global-state", "lanes-share-a-nonce-floor"])
def test_the_oracle_catches_a_lane_that_sees_its_siblings(
        monkeypatch, target, mutant):
    from repro.workloads.generators import NFTMint
    monkeypatch.setattr(target, *mutant)
    tally = run_battery(False, workloads=[FTHammer, NFTMint])
    assert tally.mismatches
