"""Recovery tests: checkpoints, delta validation, view changes,
deferral and dead-lettering, and dispatch/execution agreement."""

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.chain import Network, NetworkConfig, call, payment
from repro.chain.consensus import CostModel
from repro.chain.delta import DeltaEntry, StateDelta
from repro.chain.dispatch import DS, _pad
from repro.chain.faults import FaultEvent, FaultKind, FaultPlan
from repro.chain.recovery import (
    NetworkCheckpoint, fingerprint_digest, network_fingerprint,
    state_fingerprint, validate_delta,
)
from repro.chain.service import ServiceConfig, ServiceLoop
from repro.chain.transaction import Transaction
from repro.core.joins import JoinKind
from repro.contracts import CORPUS
from repro.scilla.values import addr, uint, IntVal, StringVal
from repro.scilla import types as ty

TOKEN = "0x" + "c0" * 20
ADMIN = "0x" + "ad" * 20
USERS = ["0x" + f"{i:040x}" for i in range(1, 25)]


def ft_network(n_shards=3, **config) -> Network:
    net = Network(n_shards, NetworkConfig(**config))
    net.create_account(ADMIN)
    for u in USERS:
        net.create_account(u)
    net.deploy(CORPUS["FungibleToken"], TOKEN, {
        "contract_owner": addr(ADMIN), "name": StringVal("T"),
        "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(0),
    }, sharded_transitions=("Mint", "Transfer", "TransferFrom"))
    return net


def mint_all(net, amount=1000):
    txns = [call(ADMIN, TOKEN, "Mint",
                 {"recipient": addr(u), "amount": uint(amount)},
                 nonce=i + 1)
            for i, u in enumerate(USERS)]
    return net.process_epoch(txns, unlimited=True)


def transfer_round(nonce=1):
    return [call(u, TOKEN, "Transfer",
                 {"to": addr(USERS[(i + 7) % len(USERS)]),
                  "amount": uint(i + 1)}, nonce=nonce)
            for i, u in enumerate(USERS)]


# -- checkpoints --------------------------------------------------------------

def test_checkpoint_restores_states_accounts_and_nonces():
    net = ft_network()
    mint_all(net)
    checkpoint = NetworkCheckpoint.take(net)
    before = network_fingerprint(net)
    balance_before = net.balance(USERS[0])
    nonces_before = dict(net.nonces.records)

    net.process_epoch(transfer_round())
    assert network_fingerprint(net) != before

    checkpoint.restore(net)
    assert network_fingerprint(net) == before
    assert net.balance(USERS[0]) == balance_before
    assert net.nonces.records == nonces_before
    # Restoring twice is fine (the checkpoint keeps private copies).
    checkpoint.restore(net)
    assert network_fingerprint(net) == before


def test_an_epoch_leaves_a_held_published_state_untouched():
    """The DS lane writes forks too: an epoch of DS-routed transactions
    installs the token's next state and never writes the one it held,
    which a checkpoint rebinds, the very object."""
    net = ft_network(use_signatures=False)
    mint_all(net)
    contract = net.contracts[_pad(TOKEN)]
    held = contract.state
    held_print = state_fingerprint(held)
    txns = [tx for tx in transfer_round()
            if net.dispatcher.dispatch(tx).is_ds]
    checkpoint = NetworkCheckpoint.take(net)
    block = net.process_epoch(txns)
    assert txns and block.n_committed == len(block.ds_receipts) == len(txns)
    assert contract.state is not held
    assert state_fingerprint(contract.state) != held_print
    assert state_fingerprint(held) == held_print
    checkpoint.restore(net)
    assert contract.state is held
    checkpoint.release(net)


def test_checkpoint_drops_accounts_created_after_take():
    net = ft_network()
    checkpoint = NetworkCheckpoint.take(net)
    net.create_account("0x" + "99" * 20)
    checkpoint.restore(net)
    assert _pad("0x" + "99" * 20) not in net.accounts


def test_checkpoint_drops_contracts_deployed_after_take():
    """A contract deployed during an aborted attempt must disappear
    entirely on restore: state, runtime, and dispatcher registration
    (a stale registration would keep routing transactions to it)."""
    net = ft_network()
    mint_all(net)
    checkpoint = NetworkCheckpoint.take(net)
    before = network_fingerprint(net)

    second = "0x" + "c1" * 20
    net.deploy(CORPUS["FungibleToken"], second, {
        "contract_owner": addr(ADMIN), "name": StringVal("U"),
        "symbol": StringVal("U"), "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(0),
    }, sharded_transitions=("Mint", "Transfer"))
    net.process_epoch([call(ADMIN, second, "Mint",
                            {"recipient": addr(USERS[0]),
                             "amount": uint(5)}, nonce=100)],
                      unlimited=True)
    assert _pad(second) in net.contracts

    checkpoint.restore(net)
    assert _pad(second) not in net.contracts
    assert not net.dispatcher.is_contract(_pad(second))
    assert _pad(second) not in net.dispatcher._field_level_cache
    assert network_fingerprint(net) == before
    # A payment to the undeployed address behaves like a user payment
    # again, exactly as before the aborted deploy.
    decision = net.dispatcher.dispatch(payment(ADMIN, second, 1, nonce=101))
    assert not decision.is_ds


def test_rolled_back_deploy_leaves_no_dispatch_plans():
    """The plans lowered for a deploy that a checkpoint restore rolls
    back go with it: calls to the address are unknown again, and a
    *different* signature deployed there afterwards is the one that
    dispatches."""
    net = ft_network()
    checkpoint = NetworkCheckpoint.take(net)
    second = "0x" + "c1" * 20
    params = {
        "contract_owner": addr(ADMIN), "name": StringVal("U"),
        "symbol": StringVal("U"), "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(0),
    }
    transfer = call(USERS[0], second, "Transfer",
                    {"to": addr(USERS[1]), "amount": uint(1)}, nonce=1)
    mint = call(ADMIN, second, "Mint",
                {"recipient": addr(USERS[0]), "amount": uint(5)}, nonce=1)

    net.deploy(CORPUS["FungibleToken"], second, params,
               sharded_transitions=("Mint", "Transfer"))
    dispatcher = net.dispatcher
    assert dispatcher.dispatch(transfer).reason == "constraints satisfied"
    assert dispatcher.dispatch(mint).reason != "transition not sharded"

    checkpoint.restore(net)
    for tx in (transfer, mint):
        assert dispatcher.dispatch(tx).reason == "unknown contract"
        assert dispatcher.dispatch_reference(tx).reason == "unknown contract"

    net.deploy(CORPUS["FungibleToken"], second, params,
               sharded_transitions=("Mint",))
    for tx in (transfer, mint):
        assert dispatcher.dispatch(tx).reason == \
            dispatcher.dispatch_reference(tx).reason
    assert dispatcher.dispatch(transfer).reason == "transition not sharded"
    assert dispatcher.dispatch(mint).reason != "transition not sharded"


def dead_lettering_loop(net, max_deferrals: int):
    """A service loop over ``net``, and the list its mempool appends
    each dead-lettered transaction to."""
    loop = ServiceLoop(net, config=ServiceConfig(max_deferrals=max_deferrals))
    dead, retire = [], loop.mempool.dead_letter

    def dead_letter(tx, *args, **kwargs):
        dead.append(tx)
        return retire(tx, *args, **kwargs)
    loop.mempool.dead_letter = dead_letter
    return loop, dead


def test_view_change_after_dead_letter_keeps_it_exact():
    """End-to-end regression: once the service loop has dead-lettered
    transactions (``ServiceConfig.max_deferrals``), a later epoch's view
    changes (which roll the network back to the epoch-start checkpoint,
    possibly repeatedly) must not drop, duplicate, or re-dead-letter
    them."""
    tiny = CostModel(shard_gas_limit=120, ds_gas_limit=120)
    plan = FaultPlan([FaultEvent(4, FaultKind.DELAY_MICROBLOCK, s)
                      for s in range(2)])

    def run(fault_plan):
        net = ft_network(cost_model=tiny, fault_plan=fault_plan)
        mint_all(net)
        loop, dead = dead_lettering_loop(net, max_deferrals=1)
        for tx in transfer_round():
            assert loop.submit(tx).admitted
        loop.run(2)
        assert net.epoch == 3 and dead          # dead letters exist…
        net.process_epoch([])                   # …when epoch 4 runs
        loop.drain_remaining()
        return net, loop.mempool.counters, dead

    (clean, clean_counts, clean_dead), (faulty, faulty_counts, dead) = \
        run(None), run(plan)
    assert faulty.blocks[3].stats.view_changes >= 1
    assert clean.blocks[3].stats.view_changes == 0
    assert [(tx.sender, tx.transition, tx.nonce) for tx in dead] == \
        [(tx.sender, tx.transition, tx.nonce) for tx in clean_dead]
    assert faulty_counts == clean_counts
    assert faulty_counts["dead-lettered"] == len(dead)
    assert network_fingerprint(faulty) == network_fingerprint(clean)


# -- checkpoint properties: the journal is the only rollback mechanism --------

def _books(net):
    """Everything a checkpoint must reinstate, by value."""
    return {
        "accounts": dict(net.accounts),
        "nonces": copy.deepcopy(net.nonces.records),
        "states": network_fingerprint(net),
    }


_STRANGERS = ["0x" + f"{0xeeee0000 + i:040x}" for i in range(3)]
_LANES = st.sampled_from([0, 1, 2, DS])
_WHO = st.integers(0, 5)

_BOOK_OPS = st.one_of(
    st.tuples(st.just("charge"), _WHO, _LANES, st.integers(0, 10**13)),
    st.tuples(st.just("credit"), _WHO, _LANES, st.integers(0, 500)),
    # A recipient nobody created: _account makes it on the fly.
    st.tuples(st.just("lazy"), st.integers(0, 2), _LANES,
              st.integers(1, 500)),
    st.tuples(st.just("recreate"), _WHO, _LANES, st.integers(0, 500)),
    # Fresh nonces are accepted; low ones and replays are rejected.
    st.tuples(st.just("nonce"), st.integers(0, 7), _LANES,
              st.integers(0, 6)),
    st.tuples(st.just("epoch"), _WHO, _LANES, st.integers(1, 5)),
    # A view change mid-epoch: roll back, then keep going.
    st.tuples(st.just("retry"), _WHO, _LANES, st.just(0)),
)


def _apply_book_op(net, op, checkpoint, pre) -> None:
    kind, who, lane, n = op
    user = USERS[who % len(USERS)]
    if kind == "charge":
        net._charge(_pad(user), lane, n)     # may fail: also fine
    elif kind == "credit":
        net._credit(_pad(user), lane, n)
    elif kind == "lazy":
        net._credit(_pad(_STRANGERS[who]), lane, n)
    elif kind == "recreate":
        net.create_account(user, balance=n)
    elif kind == "nonce":
        sender = (USERS + _STRANGERS)[who]
        net.nonces.try_accept(_pad(sender), n, lane)
    elif kind == "epoch":
        last_global = net.nonces.records.get(_pad(user), (None,))[0]
        nonce = (last_global or 0) + 1
        net.process_epoch([call(
            user, TOKEN, "Transfer",
            {"to": addr(USERS[(who + 1) % len(USERS)]),
             "amount": uint(n)}, nonce=nonce)])
    else:  # retry
        checkpoint.restore(net)
        assert _books(net) == pre


@pytest.fixture(scope="module")
def minted_net():
    net = ft_network()
    mint_all(net)
    return net


@settings(max_examples=40, deadline=None)
@given(st.lists(_BOOK_OPS, max_size=14))
def test_checkpoint_restore_equals_preimage(minted_net, ops):
    net = minted_net
    pre = _books(net)
    checkpoint = NetworkCheckpoint.take(net)
    for op in ops:
        _apply_book_op(net, op, checkpoint, pre)
    checkpoint.restore(net)
    assert _books(net) == pre
    checkpoint.restore(net)            # restoring twice is a no-op
    assert _books(net) == pre
    checkpoint.release(net)
    assert net.journal.depth == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(_BOOK_OPS, max_size=8), st.lists(_BOOK_OPS, max_size=8),
       st.sampled_from(["inner-first", "outer-first", "outer-released"]))
def test_two_outstanding_checkpoints(minted_net, first_ops, second_ops,
                                     order):
    net = minted_net
    pre = _books(net)
    outer = NetworkCheckpoint.take(net)
    for op in first_ops:
        _apply_book_op(net, op, outer, pre)
    middle = _books(net)
    inner = NetworkCheckpoint.take(net)
    for op in second_ops:
        _apply_book_op(net, op, inner, middle)
    if order == "inner-first":
        inner.restore(net)
        assert _books(net) == middle
        outer.restore(net)
        assert _books(net) == pre
    elif order == "outer-first":
        # Out of order: everything above the older mark is gone, so
        # the newer checkpoint has nothing left to undo.
        outer.restore(net)
        assert _books(net) == pre
        inner.restore(net)
        assert _books(net) == pre
    else:
        # The older one commits first; the newer still rolls back to
        # where *it* was taken.
        outer.release(net)
        inner.restore(net)
        assert _books(net) == middle
    inner.release(net)
    outer.release(net)
    assert net.journal.depth == 0


def test_state_fingerprint_is_insertion_order_independent():
    net1 = ft_network()
    mint_all(net1)
    net2 = ft_network()
    txns = [call(ADMIN, TOKEN, "Mint",
                 {"recipient": addr(u), "amount": uint(1000)},
                 nonce=i + 1)
            for i, u in enumerate(reversed(USERS))]
    net2.process_epoch(txns, unlimited=True)
    assert state_fingerprint(net1.contracts[TOKEN].state) == \
        state_fingerprint(net2.contracts[TOKEN].state)


# -- delta validation ---------------------------------------------------------

def test_legitimate_deltas_validate_clean():
    net = ft_network()
    block = mint_all(net)
    deltas = [d for mb in block.microblocks for d in mb.deltas]
    assert deltas
    for delta in deltas:
        assert net._delta_validator(delta) is None


def test_unknown_field_rejected():
    net = ft_network()
    delta = StateDelta.from_entries(TOKEN, 0, [DeltaEntry(
        ("no_such_field", ()), JoinKind.OWN_OVERWRITE,
        new_value=uint(1))])
    violation = net._delta_validator(delta)
    assert violation is not None
    assert "unknown field" in violation.reason
    assert violation.shard == 0


def test_join_kind_forgery_rejected():
    # balances is IntMerge under the FT signature; claiming
    # OwnOverwrite for it contradicts the deployed signature.
    net = ft_network()
    delta = StateDelta.from_entries(TOKEN, 0, [DeltaEntry(
        ("balances", (addr(USERS[0]),)), JoinKind.OWN_OVERWRITE,
        new_value=uint(10**9))])
    violation = net._delta_validator(delta)
    assert violation is not None
    assert "signature declares" in violation.reason


def test_foreign_component_rejected_without_signature():
    # Baseline contracts: only the contract's home shard may submit
    # shard-side deltas at all.
    net = ft_network(use_signatures=False)
    home = net.dispatcher.home_shard(TOKEN)
    foreign = (home + 1) % net.n_shards
    entry = DeltaEntry(("total_supply", ()), JoinKind.OWN_OVERWRITE,
                       new_value=uint(5))
    assert net._delta_validator(
        StateDelta.from_entries(TOKEN, home, [entry])) is None
    violation = net._delta_validator(
        StateDelta.from_entries(TOKEN, foreign, [entry]))
    assert violation is not None
    assert f"owned by shard {home}" in violation.reason


def test_ds_submitted_delta_rejected():
    net = ft_network()
    violation = net._delta_validator(StateDelta(TOKEN, DS, []))
    assert violation is not None


# -- view-change recovery -----------------------------------------------------

def test_crashed_shard_recovers_on_ds_lane():
    plan = FaultPlan([FaultEvent(2, FaultKind.CRASH_SHARD, shard=s)
                      for s in range(3)])
    clean = ft_network()
    mint_all(clean)
    clean_block = clean.process_epoch(transfer_round())

    faulty = ft_network(fault_plan=plan)
    mint_all(faulty)
    block = faulty.process_epoch(transfer_round())

    assert block.excluded_lanes == {0: "crash", 1: "crash", 2: "crash"}
    assert block.stats.recovered == len(USERS)
    assert block.stats.reexecuted == len(USERS)
    assert block.stats.committed == clean_block.stats.committed
    assert block.fault_log
    assert network_fingerprint(faulty) == network_fingerprint(clean)


def test_delayed_microblock_triggers_view_change():
    plan = FaultPlan([FaultEvent(2, FaultKind.DELAY_MICROBLOCK, 1)])
    clean = ft_network()
    mint_all(clean)
    clean.process_epoch(transfer_round())

    faulty = ft_network(fault_plan=plan)
    mint_all(faulty)
    block = faulty.process_epoch(transfer_round())

    assert block.excluded_lanes == {1: "delay-microblock"}
    assert block.stats.view_changes == 1
    assert block.stats.recovered > 0
    assert network_fingerprint(faulty) == network_fingerprint(clean)


def test_byzantine_delta_rejected_not_merged():
    plan = FaultPlan([FaultEvent(2, FaultKind.CORRUPT_DELTA, 0),
                      FaultEvent(2, FaultKind.FORGE_DELTA, 2)])
    clean = ft_network()
    mint_all(clean)
    clean.process_epoch(transfer_round())

    faulty = ft_network(fault_plan=plan)
    mint_all(faulty)
    block = faulty.process_epoch(transfer_round())

    assert block.stats.rejected_deltas >= 2
    assert block.excluded_lanes.get(0) == "byzantine-delta"
    assert block.excluded_lanes.get(2) == "byzantine-delta"
    assert any("rejected" in line for line in block.fault_log)
    # Rejection, not silent merge: the end state is the fault-free one.
    assert network_fingerprint(faulty) == network_fingerprint(clean)


def test_an_int_merge_overflow_at_the_merge_is_a_view_change(tmp_path):
    """Two mints, each in bounds in its own lane, whose IntMerge totals
    overflow ``Uint128`` at the merge: both lanes are excluded and their
    queues re-run on the DS lane in submission order, where the second
    mint fails with a receipt.  The epoch commits, and a durable
    network resumes to the same digest."""
    net = Network(4, data_dir=str(tmp_path))
    net.create_account(ADMIN)
    net.deploy(CORPUS["FungibleToken"], TOKEN, {
        "contract_owner": addr(ADMIN), "name": StringVal("T"),
        "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(0),
    }, sharded_transitions=("Mint", "Transfer", "TransferFrom"))
    # ``Mint`` is unconstrained: routed by tx_id, so lanes 1 and 2.
    mints = [Transaction(ADMIN, TOKEN, nonce, transition="Mint",
                         args=(("recipient", addr(USERS[0])),
                               ("amount", uint(amount))), tx_id=nonce)
             for nonce, amount in ((1, 2**128 - 11), (2, 100))]
    assert [net.dispatcher.dispatch(tx).shard for tx in mints] == [1, 2]
    block = net.process_epoch(mints)

    assert block.excluded_lanes == {1: "merge-overflow",
                                    2: "merge-overflow"}
    assert block.stats.view_changes == 1
    assert [(r.tx.tx_id, r.shard, r.success) for r in block.all_receipts] \
        == [(1, DS, True), (2, DS, False)]
    assert "out of bounds" in block.all_receipts[1].error
    assert any("re-run on the DS lane" in line for line in block.fault_log)
    state = net.contracts[TOKEN].state
    assert state.read(("balances", (addr(USERS[0]),))) == uint(2**128 - 11)
    assert state.read(("total_supply", ())) == uint(2**128 - 11)
    assert len(net.blocks) == net.epoch == 1
    digest = fingerprint_digest(net)
    net.close()
    resumed = Network.resume(str(tmp_path))
    assert fingerprint_digest(resumed) == digest
    resumed.close()


def test_epoch_timing_charges_for_timeouts():
    plan = FaultPlan([FaultEvent(2, FaultKind.CRASH_SHARD, 0)])
    clean = ft_network()
    mint_all(clean)
    clean_block = clean.process_epoch(transfer_round())

    faulty = ft_network(fault_plan=plan)
    mint_all(faulty)
    block = faulty.process_epoch(transfer_round())
    timeout = faulty.config.cost_model.microblock_timeout_s
    assert block.epoch_seconds >= clean_block.epoch_seconds + timeout - 1


# -- deferred transactions: receipts, dead-lettering --------------------------

def test_deferred_without_backlog_gets_explicit_receipt():
    tiny = CostModel(shard_gas_limit=200, ds_gas_limit=200)
    net = ft_network(cost_model=tiny)
    mint_all(net)
    txns = transfer_round()
    block = net.process_epoch(txns)
    assert block.stats.deferred > 0
    failures = [r for r in block.all_receipts
                if r.error == "deferred: epoch gas limit"]
    assert len(failures) == block.stats.deferred
    # Every transaction is accounted in exactly one block.
    receipt_ids = sorted(r.tx.tx_id for r in block.all_receipts)
    assert receipt_ids == sorted(t.tx_id for t in txns)


def test_dead_letter_after_max_retries():
    """A transaction the gas limit keeps deferring is dead-lettered
    after ``max_deferrals`` re-admissions; every transfer either
    commits or is dead-lettered, and every deferral is one of the
    two."""
    tiny = CostModel(shard_gas_limit=120, ds_gas_limit=120)
    net = ft_network(cost_model=tiny)
    mint_all(net)
    loop, dead = dead_lettering_loop(net, max_deferrals=2)
    txns = transfer_round()
    assert all(loop.submit(tx).admitted for tx in txns)
    reports = loop.run(3)           # each tick drains the whole pool
    pool = loop.mempool
    assert pool.occupancy == 0 and not pool.inflight
    assert dead and sum(r.dead_lettered for r in reports) == len(dead)
    assert pool.counters["committed"] + len(dead) == len(txns)
    deferrals = sum(block.stats.deferred for block in net.blocks[1:])
    assert deferrals == pool.counters["readmitted"] + len(dead)
    assert all(r.deferred for r in reports[:2])


# -- dispatch / execution agreement ------------------------------------------

def test_payment_to_contract_routed_and_rejected_consistently():
    net = ft_network()
    tx = payment(USERS[0], TOKEN, amount=500, nonce=1)
    decision = net.dispatcher.dispatch(tx)
    assert decision.is_ds
    assert decision.reason == "payment to contract"

    block = net.process_epoch([tx])
    (receipt,) = block.all_receipts
    assert not receipt.success
    assert receipt.error == "payment to contract address"
    assert receipt.shard == DS
    # No shadow user account was credited under the contract address.
    assert _pad(TOKEN) not in net.accounts
    assert net.contracts[TOKEN].state.balance == 0


def test_unknown_contract_call_routed_and_rejected_consistently():
    net = ft_network()
    ghost = "0x" + "ee" * 20
    tx = call(USERS[0], ghost, "Ping", {}, nonce=1)
    decision = net.dispatcher.dispatch(tx)
    assert decision.is_ds
    assert decision.reason == "unknown contract"
    block = net.process_epoch([tx])
    (receipt,) = block.all_receipts
    assert not receipt.success
    assert receipt.error == "unknown contract"
    assert receipt.shard == DS
