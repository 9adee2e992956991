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


def ft_network(n_shards=3, state_backend=None, **config) -> Network:
    net = Network(n_shards, NetworkConfig(**config),
                  state_backend=state_backend)
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

def _gap_sets(net) -> dict:
    """Every published gap set, by sender: the very objects."""
    return {sender: row[-1] for sender, row in net.nonces.records.items()
            if row[-1] is not None}


def test_checkpoint_restores_states_accounts_and_nonces():
    """An abandoned attempt — all three phases run, shard lanes, merge
    and DS lane, then a view change — leaves accounts, nonce records
    (the published gap-set objects among them, unchanged) and contract
    states exactly as they were at ``take``: it wrote only its buffer
    and its forks."""
    net = ft_network()
    mint_all(net)
    # A sender with an open gap: nonces 2 and 3 skipped.
    net.process_epoch([call(USERS[0], TOKEN, "Transfer",
                            {"to": addr(USERS[1]), "amount": uint(1)},
                            nonce=4)])
    gaps = _gap_sets(net)
    assert gaps.keys() == {_pad(USERS[0])}
    gap_copy = {sender: set(g) for sender, g in gaps.items()}
    pre = _books(net)
    held = {addr_: c.state for addr_, c in net.contracts.items()}

    txns = transfer_round() + [payment(USERS[2], USERS[3], 7, nonce=1)] + [
        call(USERS[0], TOKEN, "Transfer",
             {"to": addr(USERS[1]), "amount": uint(1)}, nonce=nonce)
        for nonce in (2, 6)]
    checkpoint = NetworkCheckpoint.take(net)
    limit = 10**15
    outcome = net._attempt_epoch(txns, {}, limit, limit, [])
    assert outcome.ds_block.receipts or outcome.microblocks
    assert checkpoint.accounts and checkpoint.nonces and outcome.nexts
    # What the attempt saw moved; nothing published did.
    assert _books(net) == pre
    assert {a: c.state for a, c in net.contracts.items()} == held
    checkpoint.restore(net)
    assert not (checkpoint.accounts or checkpoint.nonces)
    assert _books(net) == pre
    assert _gap_sets(net) == gaps
    assert all(net.nonces.records[s][-1] is g for s, g in gaps.items())
    assert gap_copy == {s: set(g) for s, g in gaps.items()}
    checkpoint.close(net)
    assert net.attempt is None


def test_an_epoch_leaves_a_held_published_state_untouched():
    """The DS lane writes forks too: an epoch of DS-routed transactions
    installs the token's next state and never writes the one it held.
    Dict state whatever REPRO_STATE_BACKEND says: a held paged state
    does not outlive the commit's write-back (docs/STATE.md §4)."""
    net = ft_network(use_signatures=False, state_backend="none")
    mint_all(net)
    contract = net.contracts[_pad(TOKEN)]
    held = contract.state
    held_print = state_fingerprint(held)
    txns = [tx for tx in transfer_round()
            if net.dispatcher.dispatch(tx).is_ds]
    block = net.process_epoch(txns)
    assert txns and block.n_committed == len(block.ds_receipts) == len(txns)
    assert contract.state is not held
    assert state_fingerprint(contract.state) != held_print
    assert state_fingerprint(held) == held_print


def test_checkpoint_drops_accounts_created_after_take():
    net = ft_network()
    checkpoint = NetworkCheckpoint.take(net)
    net.create_account("0x" + "99" * 20)
    checkpoint.restore(net)
    checkpoint.close(net)
    assert _pad("0x" + "99" * 20) not in net.accounts


def test_an_attempt_is_open_once():
    """An epoch opens its own checkpoint: a second one, or an epoch
    under one a caller holds, is refused before anything runs."""
    net = ft_network()
    checkpoint = NetworkCheckpoint.take(net)
    with pytest.raises(RuntimeError, match="already open"):
        NetworkCheckpoint.take(net)
    with pytest.raises(RuntimeError, match="already open"):
        net.process_epoch(transfer_round())
    assert net.epoch == 0 and not net.blocks
    checkpoint.close(net)
    net.process_epoch(transfer_round())
    assert net.epoch == 1 and net.attempt is None


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


# -- checkpoint properties: an attempt publishes nothing until it commits ----

def _books(net):
    """Everything a checkpoint must leave published, by value."""
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
    # Fresh nonces are accepted; low ones and replays are rejected, and
    # skipped ones grow and fill the published gap sets' copies.
    st.tuples(st.just("nonce"), st.integers(0, 7), _LANES,
              st.integers(0, 12)),
    # A view change mid-attempt: drop the buffer, then keep going.
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
    else:  # retry
        checkpoint.restore(net)
    assert _books(net) == pre


@pytest.fixture(scope="module")
def minted_net():
    net = ft_network()
    mint_all(net)
    # Published gap sets: the first users skipped nonces 2-3 and 5.
    nonces = net.nonces
    for i, user in enumerate(USERS[:4]):
        for nonce in (1, 4, 6):
            assert nonces.try_accept(_pad(user), nonce, i % 3)
    return net


@settings(max_examples=40, deadline=None)
@given(st.lists(_BOOK_OPS, max_size=14))
def test_checkpoint_restore_equals_preimage(minted_net, ops):
    net = minted_net
    pre, gaps = _books(net), _gap_sets(net)
    assert len(gaps) == 4
    checkpoint = NetworkCheckpoint.take(net)
    try:
        for op in ops:
            _apply_book_op(net, op, checkpoint, pre)
        checkpoint.restore(net)
        assert _books(net) == pre
        checkpoint.restore(net)            # restoring twice is a no-op
    finally:
        checkpoint.close(net)
    assert _books(net) == pre
    assert all(net.nonces.records[s][-1] is g for s, g in gaps.items())


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


def test_streamed_fingerprints_hash_the_bytes_json_dumps_writes():
    """The fingerprints hash their JSON text chunk by chunk; the digest
    is still the sha256 of ``json.dumps(..., sort_keys=True)``, per
    contract and over the network, on a Fig. 14-mix network (nested
    maps, strings, byte strings, block numbers, integers)."""
    import hashlib
    import json

    from repro.chain.recovery import _canonical

    from .test_delta_validation import mix_network

    def dumped(obj) -> str:
        return hashlib.sha256(
            json.dumps(obj, sort_keys=True).encode()).hexdigest()

    net, _ = mix_network(use_signatures=True, epochs=2)
    for state in (contract.state for contract in net.contracts.values()):
        assert state_fingerprint(state) == dumped({
            "address": state.address, "balance": state.balance,
            "fields": {name: _canonical(value)
                       for name, value in sorted(state.fields.items())}})
    assert fingerprint_digest(net) == dumped(network_fingerprint(net))


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


@pytest.mark.parametrize("kind", [FaultKind.CORRUPT_DELTA,
                                  FaultKind.DELAY_MICROBLOCK])
def test_a_view_change_commits_what_its_surviving_attempt_alone_would(kind):
    """The attempt a view change abandons leaves nothing behind: the
    epoch commits the same accounts, nonce records, states and receipts
    as a run that excluded the lane before its first attempt (a crash),
    the serial reference with no abandoned attempt.  An abandoned
    attempt's rows surviving into the retry would show here, as nonces
    already used or fees charged twice."""
    def run(event_kind):
        net = ft_network(fault_plan=FaultPlan([FaultEvent(2, event_kind, 0)]))
        mint_all(net)
        return net, net.process_epoch(transfer_round())

    faulty, block = run(kind)
    reference, ref_block = run(FaultKind.CRASH_SHARD)
    assert block.stats.view_changes == 1 and block.excluded_lanes.keys() \
        == ref_block.excluded_lanes.keys() == {0}
    assert ref_block.stats.view_changes == 0
    assert block.n_committed == ref_block.n_committed > 0
    assert _books(faulty) == _books(reference)
    receipts = [[(r.tx.sender, r.tx.nonce, r.success, r.gas_used, r.shard,
                  r.error) for r in b.all_receipts]
                for b in (block, ref_block)]
    assert receipts[0] == receipts[1]


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
