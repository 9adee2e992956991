"""Network (epoch-processing) tests: merging, gas, nonces, limits."""

import pytest

from repro.chain import Network, NetworkConfig, call, payment
from repro.chain.consensus import CostModel
from repro.contracts import CORPUS
from repro.core.parallel import default_workers
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


def balances(net):
    return {str(k): v.value
            for k, v in net.contracts[TOKEN].state.fields["balances"]
            .entries.items()}


def test_epoch_commits_and_merges():
    net = ft_network()
    block = mint_all(net)
    assert block.n_committed == len(USERS)
    assert net.contracts[TOKEN].state.fields["total_supply"] == \
        uint(1000 * len(USERS))


def test_parallel_transfers_conserve_supply():
    net = ft_network()
    mint_all(net)
    txns = []
    for i, u in enumerate(USERS):
        to = USERS[(i + 7) % len(USERS)]
        txns.append(call(u, TOKEN, "Transfer",
                         {"to": addr(to), "amount": uint(5)}, nonce=1))
    block = net.process_epoch(txns)
    assert block.n_committed == len(USERS)
    assert sum(balances(net).values()) == 1000 * len(USERS)


def test_failed_transfer_rolls_back_in_shard():
    net = ft_network()
    mint_all(net)
    before = balances(net)
    block = net.process_epoch([
        call(USERS[0], TOKEN, "Transfer",
             {"to": addr(USERS[1]), "amount": uint(10**9)}, nonce=1)])
    (receipt,) = block.all_receipts
    assert not receipt.success
    assert "InsufficientFunds" in receipt.error
    assert balances(net) == before


def test_replayed_nonce_rejected():
    net = ft_network()
    mint_all(net)
    tx_args = {"to": addr(USERS[1]), "amount": uint(1)}
    net.process_epoch([call(USERS[0], TOKEN, "Transfer", tx_args, nonce=1)])
    block = net.process_epoch(
        [call(USERS[0], TOKEN, "Transfer", tx_args, nonce=1)])
    (receipt,) = block.all_receipts
    assert not receipt.success
    assert "nonce" in receipt.error


def test_gas_charged_to_sender():
    net = ft_network()
    mint_all(net)
    sender = USERS[0]
    before = net.balance(sender)
    block = net.process_epoch([
        call(sender, TOKEN, "Transfer",
             {"to": addr(USERS[1]), "amount": uint(1)}, nonce=1)])
    (receipt,) = block.all_receipts
    after = net.balance(sender)
    assert after == before - receipt.gas_used


def test_payment_moves_native_balance():
    net = ft_network()
    a, b = USERS[0], USERS[1]
    before_b = net.balance(b)
    block = net.process_epoch([payment(a, b, amount=500, nonce=1)])
    assert block.n_committed == 1
    assert net.balance(b) == before_b + 500


def test_negative_payment_fails_and_moves_nothing():
    """A negative amount used to commit and move funds from the
    recipient to the sender, leaving the recipient a negative portion."""
    net = Network(2)
    a, b = USERS[0], USERS[1]
    net.create_account(a, 1000)
    net.create_account(b, 1000)
    block = net.process_epoch([payment(a, b, -500, nonce=1)])
    (receipt,) = block.all_receipts
    assert (receipt.success, receipt.error, receipt.gas_used) == \
        (False, "invalid amount", 0)
    assert net.balance(a) == net.balance(b) == 1000
    assert all(net.balance(b, lane) >= 0 for lane in (0, 1, -1))


@pytest.mark.parametrize("amount", [-5, 2**128])
def test_out_of_range_call_amount_fails_only_its_transaction(amount):
    """A call's ``_amount`` is a Uint128: one out of range used to raise
    out of process_epoch and abort the whole epoch."""
    from repro.workloads.generators import FTTransfer
    workload = FTTransfer(n_users=4)
    net = Network(2)
    workload.setup(net)
    users, token = workload.users, workload.contract_addr
    bad = call(users[0], token, "Transfer",
               {"to": addr(users[1]), "amount": uint(1)}, nonce=1,
               amount=amount)
    good = call(users[1], token, "Transfer",
                {"to": addr(users[2]), "amount": uint(1)}, nonce=1)
    before = net.balance(users[0])
    block = net.process_epoch([bad, good])
    outcome = {r.tx.tx_id: (r.success, r.error, r.gas_used)
               for r in block.all_receipts}
    assert outcome[bad.tx_id] == (False, "invalid amount", 0)
    assert outcome[good.tx_id][0]
    assert net.balance(users[0]) == before


def test_accept_moves_funds_into_contract():
    cf = "0x" + "cf" * 20
    net = Network(3)
    for u in USERS:
        net.create_account(u)
    net.create_account(ADMIN)
    from repro.scilla.values import BNumVal
    net.deploy(CORPUS["Crowdfunding"], cf, {
        "campaign_owner": addr(ADMIN), "goal": uint(10**9),
        "deadline": BNumVal(100),
    }, sharded_transitions=("Donate", "ClaimBack"))
    block = net.process_epoch([
        call(USERS[0], cf, "Donate", {}, nonce=1, amount=250)])
    assert block.n_committed == 1
    assert net.contracts[cf].state.balance == 250


def test_gas_limit_defers_transactions():
    tiny = CostModel(shard_gas_limit=100, ds_gas_limit=100)
    net = ft_network(cost_model=tiny)
    block = mint_all(net)  # unlimited=True bypasses limits
    assert block.n_committed == len(USERS)
    txns = [call(u, TOKEN, "Transfer",
                 {"to": addr(USERS[0]), "amount": uint(1)}, nonce=1)
            for u in USERS[1:]]
    block = net.process_epoch(txns)
    assert block.n_committed < len(txns)  # capacity-bound


def test_strict_nonces_break_cross_lane_parallelism():
    relaxed = ft_network(strict_nonces=False)
    strict = ft_network(strict_nonces=True)
    for net in (relaxed, strict):
        mint_all(net, amount=10**6)
    # Single-sender burst: under relaxed nonces all commit; under
    # strict nonces lanes hit gaps.
    def burst(net):
        txns = [call(USERS[0], TOKEN, "Transfer",
                     {"to": addr(USERS[1 + i % 10]), "amount": uint(1)},
                     nonce=i + 1)
                for i in range(12)]
        return net.process_epoch(txns).n_committed
    assert burst(relaxed) == 12
    # All Transfer txns from one sender go to one shard anyway (the
    # sender owns bal[_sender]); use Mint (unconstrained) to spread.
    def mint_burst(net):
        start = 10**6
        txns = [call(ADMIN, TOKEN, "Mint",
                     {"recipient": addr(USERS[i % 10]),
                      "amount": uint(1)}, nonce=start + i)
                for i in range(12)]
        return net.process_epoch(txns).n_committed
    assert mint_burst(relaxed) == 12
    assert mint_burst(strict) < 12


def test_overflow_guard_rejects_outsized_moves():
    guarded = ft_network(overflow_guard=True)
    lo, hi = 0, (1 << 128) - 1
    # Mint nearly the max supply to one user in a single transaction:
    # the per-shard overflow budget (MAX - v)/N forbids it.
    block = guarded.process_epoch([
        call(ADMIN, TOKEN, "Mint",
             {"recipient": addr(USERS[0]), "amount": uint(hi - 10)},
             nonce=1)])
    (receipt,) = block.all_receipts
    assert not receipt.success
    assert "overflow guard" in receipt.error
    # A modest mint is fine.
    block = guarded.process_epoch([
        call(ADMIN, TOKEN, "Mint",
             {"recipient": addr(USERS[0]), "amount": uint(1000)},
             nonce=2)])
    assert block.n_committed == 1


def test_epoch_time_accounts_for_all_phases():
    net = ft_network()
    block = mint_all(net)
    assert block.epoch_seconds > 0
    assert net.average_tps() > 0


def test_baseline_routes_cross_shard_calls_to_ds():
    net = ft_network(use_signatures=False)
    block = mint_all(net)
    contract_home = net.dispatcher.home_shard(TOKEN)
    for receipt in block.all_receipts:
        sender_home = net.dispatcher.home_shard(receipt.tx.sender)
        if sender_home == contract_home:
            assert receipt.shard == contract_home
        else:
            assert receipt.shard == -1


def test_backlog_carries_deferred_transactions():
    """Through the service mempool, gas-deferred transactions commit in
    later epochs instead of vanishing."""
    from repro.chain.service import ServiceLoop
    tiny = CostModel(shard_gas_limit=200, ds_gas_limit=200)
    net = ft_network(cost_model=tiny)
    mint_all(net)
    loop = ServiceLoop(net)
    txns = [call(u, TOKEN, "Transfer",
                 {"to": addr(USERS[0]), "amount": uint(1)}, nonce=1)
            for u in USERS[1:]]
    assert all(loop.submit(tx).admitted for tx in txns)
    first = loop.tick()
    assert first.committed < len(txns) and first.deferred > 0
    loop.drain_remaining(max_ticks=20)
    pool = loop.mempool
    assert pool.counters["committed"] == len(txns)
    assert pool.counters["readmitted"] > 0
    assert pool.occupancy == 0 and not pool.inflight


def test_backlog_disabled_drops_deferred():
    tiny = CostModel(shard_gas_limit=200, ds_gas_limit=200)
    net = ft_network(cost_model=tiny)
    mint_all(net)
    txns = [call(u, TOKEN, "Transfer",
                 {"to": addr(USERS[0]), "amount": uint(1)}, nonce=1)
            for u in USERS[1:]]
    first = net.process_epoch(txns)
    assert first.n_committed < len(txns)
    assert first.stats.deferred == len(first.deferred_ids()) > 0
    follow_up = net.process_epoch([])
    assert follow_up.n_committed == 0


def test_deploy_validates_proposed_signature():
    """Miners re-derive the submitted signature and reject forgeries
    (Sec. 4.3's validation step, at the network level)."""
    from repro.core.pipeline import run_pipeline
    from repro.core.signature import ShardingSignature
    source = CORPUS["FungibleToken"]
    honest = run_pipeline(source, "FT").signature(("Mint", "Transfer"))

    net = ft_network()
    token2 = "0x" + "c9" * 20
    deployed = net.deploy(source, token2, {
        "contract_owner": addr(ADMIN), "name": StringVal("U"),
        "symbol": StringVal("U"), "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(0),
    }, proposed_signature=honest)
    assert deployed.signature is not None

    forged = ShardingSignature(
        honest.contract, honest.selected,
        {**honest.constraints, "Transfer": frozenset()},
        honest.joins, honest.weak_reads)
    with pytest.raises(ValueError):
        net.deploy(source, "0x" + "ca" * 20, {
            "contract_owner": addr(ADMIN), "name": StringVal("V"),
            "symbol": StringVal("V"), "decimals": IntVal(6, ty.UINT32),
            "init_supply": uint(0),
        }, proposed_signature=forged)


def test_final_block_reports_stats():
    net = ft_network()
    block = mint_all(net)
    assert block.stats is not None
    assert block.stats.dispatched == len(USERS)
    assert block.stats.committed == block.n_committed
    assert block.stats.to_ds + sum(block.stats.per_shard.values()) == \
        len(USERS)


def test_tps_zero_when_no_time():
    from repro.chain.blocks import FinalBlock
    block = FinalBlock(epoch=1)
    assert block.tps == 0.0
    assert block.n_committed == 0


# What first reads each variable.
ENV_KNOB_READERS = {
    "REPRO_STATE_BACKEND": lambda: Network(2),
    "REPRO_WORKERS": default_workers,     # what analyze_corpus sizes by
}


@pytest.mark.parametrize("name, value, error", [
    pytest.param(name, value, error, id=f"{name}={value}")
    for name, value, error in [
        ("REPRO_STATE_BACKEND", "foo", "unknown state backend"),
        ("REPRO_WORKERS", "two", "REPRO_WORKERS must be"),
        ("REPRO_WORKERS", "0", "REPRO_WORKERS must be"),
        ("REPRO_WORKERS", "-1", "REPRO_WORKERS must be"),
        # Empty means unset: the default applies.
        ("REPRO_WORKERS", "", None),
    ]])
def test_env_knobs_reject_malformed_values(monkeypatch, name, value,
                                           error):
    monkeypatch.setenv(name, value)
    if error is None:
        ENV_KNOB_READERS[name]()
        return
    with pytest.raises(ValueError, match=f"{error}.*{value!r}"):
        ENV_KNOB_READERS[name]()


def test_lanes_run_serially_and_nothing_else():
    """``serial`` is the one executor; any other value is refused at
    construction, not silently run serially."""
    for executor in ("thread", "process", "foo"):
        with pytest.raises(ValueError, match="'thread' and 'process'"):
            Network(2, executor=executor)


def test_balance_of_a_lane_that_does_not_exist_raises():
    net = Network(4)
    user = USERS[0]
    net.create_account(user, 1_000)
    assert net.balance(user) == 1_000
    assert sum(net.balance(user, lane) for lane in (-1, 0, 1, 2, 3)) \
        == 1_000
    # Lane n_shards and negative lanes other than DS (-1) used to
    # read the DS portion; a lane past that raised a bare IndexError.
    for lane in (4, -2, 5):
        with pytest.raises(ValueError,
                           match=rf"no lane {lane} .*DS \(-1\) and "
                                 rf"shards 0\.\.3"):
            net.balance(user, lane)


@pytest.mark.parametrize("n_shards", [0, -1])
def test_a_network_needs_a_shard(n_shards):
    # Used to construct, then fail with ZeroDivisionError at the first
    # account's home-shard hash.
    with pytest.raises(ValueError, match="at least one shard"):
        Network(n_shards)


@pytest.mark.parametrize("keyword", [
    "carry_backlog", "max_retries", "retry_backoff", "shard_size",
    "ds_size", "use_signatures", "cost_model", "strict_nonces",
    "overflow_guard", "fault_plan"])
def test_settings_are_no_constructor_keywords(keyword):
    """The deferral knobs and committee sizes are gone; the replayed
    settings live in ``NetworkConfig`` only."""
    with pytest.raises(TypeError):
        Network(2, **{keyword: None})


def test_config_is_frozen():
    import dataclasses
    net = Network(2, NetworkConfig(strict_nonces=True))
    for field in dataclasses.fields(NetworkConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(net.config, field.name, None)
    assert net.config == NetworkConfig(strict_nonces=True)
