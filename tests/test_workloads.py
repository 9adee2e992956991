"""Workload generator tests."""

import pytest

from repro.chain.network import Network, NetworkConfig
from repro.workloads.generators import (
    ALL_WORKLOADS, CFDonate, FTFund, FTTransfer, NFTMint, NFTTransfer,
    ProofIPFSRegister, UDBestow, UDConfig, workload_by_name,
)


def run_one_epoch(cls, n_shards=3, use_signatures=True, n=40):
    kwargs = {"txns_per_epoch": n}
    if cls is not CFDonate:
        kwargs["n_users"] = 30
    workload = cls(**kwargs)
    net = Network(n_shards, NetworkConfig(use_signatures=use_signatures))
    workload.setup(net)
    block = net.process_epoch(workload.transactions(0), unlimited=True)
    return workload, net, block


@pytest.mark.parametrize("cls", ALL_WORKLOADS)
def test_workload_commits_all_offered(cls):
    _, _, block = run_one_epoch(cls)
    failed = [r for r in block.all_receipts if not r.success]
    assert not failed, [(r.tx.transition, r.error) for r in failed[:3]]


@pytest.mark.parametrize("cls", ALL_WORKLOADS)
def test_workload_deterministic_across_runs(cls):
    w1, _, b1 = run_one_epoch(cls)
    w2, _, b2 = run_one_epoch(cls)
    t1 = [(t.sender, t.transition, t.nonce) for t in w1.transactions(1)]
    t2 = [(t.sender, t.transition, t.nonce) for t in w2.transactions(1)]
    assert t1 == t2


def test_ft_fund_single_sender():
    workload, _, _ = run_one_epoch(FTFund)
    senders = {t.sender for t in workload.transactions(1)}
    assert len(senders) == 1


def test_ft_transfer_many_senders():
    workload, _, _ = run_one_epoch(FTTransfer)
    senders = {t.sender for t in workload.transactions(1)}
    assert len(senders) > 5


def test_ft_fund_pins_to_one_shard():
    _, net, block = run_one_epoch(FTFund, n_shards=4)
    shards = {r.shard for r in block.all_receipts}
    assert len(shards) == 1


def test_ft_transfer_spreads_across_shards():
    _, net, block = run_one_epoch(FTTransfer, n_shards=4)
    shards = {r.shard for r in block.all_receipts if r.shard != -1}
    assert len(shards) == 4


def test_nft_mint_spreads_despite_single_sender():
    _, net, block = run_one_epoch(NFTMint, n_shards=4)
    shards = {r.shard for r in block.all_receipts if r.shard != -1}
    assert len(shards) == 4


def test_proof_ipfs_mostly_ds_bound():
    _, net, block = run_one_epoch(ProofIPFSRegister, n_shards=4)
    ds = sum(1 for r in block.all_receipts if r.shard == -1)
    assert ds > len(block.all_receipts) / 2


def test_cf_donors_are_fresh_each_epoch():
    workload, net, _ = run_one_epoch(CFDonate)
    donors_next = {t.sender for t in workload.transactions(1)}
    block = net.process_epoch(
        [t for t in workload.transactions(2)], unlimited=True)
    assert all(r.success for r in block.all_receipts)


def test_nft_transfer_tracks_ownership():
    workload, net, block = run_one_epoch(NFTTransfer)
    # After an epoch of transfers the generator's view matches state.
    state = net.contracts[workload.contract_addr].state
    owners = state.fields["token_owners"].entries
    for token, owner in list(workload.token_owner.items())[:10]:
        from repro.scilla.values import IntVal
        from repro.scilla import types as ty
        key = IntVal(token, ty.PrimType("Uint256"))
        assert owners[key].hex.endswith(owner[2:].lower())


def test_ud_config_owners_update_their_nodes():
    workload, net, block = run_one_epoch(UDConfig)
    assert all(r.success for r in block.all_receipts)


def test_workload_by_name():
    assert workload_by_name("FT transfer") is FTTransfer
    with pytest.raises(KeyError):
        workload_by_name("nope")


def test_baseline_mode_deploys_without_signature():
    workload, net, _ = run_one_epoch(UDBestow, use_signatures=False)
    assert net.contracts[workload.contract_addr].signature is None


def test_payments_scale_with_shards_without_signatures():
    """Sec. 1's baseline: plain payments shard by sender address even
    with CoSplit disabled."""
    from repro.workloads.generators import Payments
    workload = Payments(n_users=30, txns_per_epoch=60)
    net = Network(4, NetworkConfig(use_signatures=False))
    workload.setup(net)
    block = net.process_epoch(workload.transactions(0), unlimited=True)
    assert block.n_committed == 60
    shards = {r.shard for r in block.all_receipts}
    assert shards <= {0, 1, 2, 3}
    assert len(shards) == 4


def test_payments_conserve_total_balance():
    from repro.workloads.generators import Payments
    workload = Payments(n_users=20, txns_per_epoch=40)
    net = Network(3)
    workload.setup(net)
    total_before = sum(map(net.balance, net.accounts))
    net.process_epoch(workload.transactions(0), unlimited=True)
    total_after = sum(map(net.balance, net.accounts))
    # Only gas fees leave the user accounts.
    fees = 40 * 50  # PAYMENT_GAS per committed payment
    assert total_before - total_after == fees
