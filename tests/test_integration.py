"""Cross-module integration tests: several contracts on one network,
payments interleaved with contract calls, epoch boundaries, and the
end-to-end developer workflow of Fig. 11."""

import pytest

from repro.chain import Network, NetworkConfig, call, payment
from repro.contracts import CORPUS, EVAL_CONTRACTS
from repro.core.pipeline import run_pipeline, validate_signature
from repro.scilla.values import (
    BNumVal, ByStrVal, IntVal, StringVal, addr, uint,
)
from repro.scilla import types as ty

ADMIN = "0x" + "ad" * 20
USERS = ["0x" + f"{i:040x}" for i in range(1, 17)]
TOKEN = "0x" + "c0" * 20
NFT = "0x" + "c1" * 20
NOTARY = "0x" + "c2" * 20


@pytest.fixture
def multinet():
    net = Network(n_shards=4)
    net.create_account(ADMIN)
    for u in USERS:
        net.create_account(u)
    net.deploy(CORPUS["FungibleToken"], TOKEN, {
        "contract_owner": addr(ADMIN), "name": StringVal("T"),
        "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(0),
    }, sharded_transitions=EVAL_CONTRACTS["FungibleToken"])
    net.deploy(CORPUS["NonfungibleToken"], NFT, {
        "contract_owner": addr(ADMIN), "name": StringVal("N"),
        "symbol": StringVal("N"),
    }, sharded_transitions=EVAL_CONTRACTS["NonfungibleToken"])
    net.deploy(CORPUS["ProofIPFS"], NOTARY,
               {"initial_admin": addr(ADMIN)},
               sharded_transitions=EVAL_CONTRACTS["ProofIPFS"])
    return net


def test_mixed_epoch_across_three_contracts(multinet):
    net = multinet
    txns = []
    # Token mints, NFT mints, notarisations and payments in one epoch.
    for i, u in enumerate(USERS):
        txns.append(call(ADMIN, TOKEN, "Mint",
                         {"recipient": addr(u), "amount": uint(100)},
                         nonce=i + 1))
    for i, u in enumerate(USERS[:8]):
        txns.append(call(ADMIN, NFT, "Mint",
                         {"to": addr(u),
                          "token_id": IntVal(i, ty.PrimType("Uint256"))},
                         nonce=len(USERS) + i + 1))
    for i, u in enumerate(USERS[:6]):
        h = ByStrVal("0x" + f"{i:064x}", ty.PrimType("ByStr32"))
        txns.append(call(u, NOTARY, "Register", {"ipfs_hash": h},
                         nonce=1))
    txns.append(payment(USERS[0], USERS[1], amount=42, nonce=2))
    block = net.process_epoch(txns, unlimited=True)
    assert block.n_committed == len(txns)

    # Deltas were computed per contract and merged independently.
    token_state = net.contracts[TOKEN].state
    nft_state = net.contracts[NFT].state
    notary_state = net.contracts[NOTARY].state
    assert token_state.fields["total_supply"] == uint(100 * len(USERS))
    assert nft_state.fields["total_tokens"] == uint(8)
    assert len(notary_state.fields["registry"].entries) == 6


def test_epoch_boundary_visibility(multinet):
    """Epoch N+1 transactions see epoch N's merged state."""
    net = multinet
    net.process_epoch([call(ADMIN, TOKEN, "Mint",
                            {"recipient": addr(USERS[0]),
                             "amount": uint(50)}, nonce=1)],
                      unlimited=True)
    # The transfer sees the minted balance in the next epoch.
    block = net.process_epoch([call(USERS[0], TOKEN, "Transfer",
                                    {"to": addr(USERS[1]),
                                     "amount": uint(50)}, nonce=1)],
                              unlimited=True)
    assert block.n_committed == 1
    entries = net.contracts[TOKEN].state.fields["balances"].entries
    assert entries[addr(USERS[1])] == uint(50)


def test_contract_isolation(multinet):
    """A failed NFT transaction cannot disturb token state."""
    net = multinet
    before = net.contracts[TOKEN].state.fork()
    block = net.process_epoch([
        call(USERS[0], NFT, "Transfer",
             {"token_owner": addr(USERS[0]), "to": addr(USERS[1]),
              "token_id": IntVal(999, ty.PrimType("Uint256"))},
             nonce=1)],
        unlimited=True)
    (receipt,) = block.all_receipts
    assert not receipt.success
    assert net.contracts[TOKEN].state.fields == before.fields


def test_full_developer_workflow():
    """Fig. 11 end to end: analyse offline, pick a maximal signature,
    validate it miner-side, deploy it, and run traffic against it."""
    source = CORPUS["Crowdfunding"]
    # Offline: the developer explores signatures.
    deployment = run_pipeline(source, "CF")
    report = deployment.solver().report()
    selection = report.maximal_ge[0]
    signature = deployment.signature(selection)
    # Miner-side: the submitted signature validates.
    assert validate_signature(source, signature)
    # On-chain: deployment + traffic.
    net = Network(3)
    for u in USERS:
        net.create_account(u)
    net.create_account(ADMIN)
    deployed = net.deploy(source, "0x" + "cf" * 20, {
        "campaign_owner": addr(ADMIN), "goal": uint(10**9),
        "deadline": BNumVal(100)}, sharded_transitions=selection)
    assert deployed.signature is not None
    block = net.process_epoch([
        call(u, deployed.address, "Donate", {}, nonce=1, amount=10)
        for u in USERS])
    assert block.n_committed == len(USERS)
    assert net.contracts[deployed.address].state.fields["raised"] == \
        uint(10 * len(USERS))


def test_interleaved_payments_and_calls_respect_nonces(multinet):
    """One sender alternates payments and contract calls; relaxed
    nonces let them flow through different lanes."""
    net = multinet
    sender = USERS[2]
    net.process_epoch([call(ADMIN, TOKEN, "Mint",
                            {"recipient": addr(sender),
                             "amount": uint(100)}, nonce=1)],
                      unlimited=True)
    txns = [
        payment(sender, USERS[3], amount=5, nonce=1),
        call(sender, TOKEN, "Transfer",
             {"to": addr(USERS[4]), "amount": uint(5)}, nonce=2),
        payment(sender, USERS[5], amount=5, nonce=3),
        call(sender, TOKEN, "Transfer",
             {"to": addr(USERS[6]), "amount": uint(5)}, nonce=4),
    ]
    block = net.process_epoch(txns, unlimited=True)
    assert block.n_committed == 4


def test_full_node_loop_with_lookup_and_backlog():
    """The complete node loop: users submit to a lookup node, packets
    feed capacity-limited epochs through the service loop, deferred
    transactions retry from its mempool, and everything eventually
    commits."""
    from repro.chain import LookupNode, packets_to_epoch
    from repro.chain.consensus import CostModel
    from repro.chain.service import ServiceConfig, ServiceLoop
    tiny = CostModel(shard_gas_limit=800, ds_gas_limit=800)
    net = Network(3, NetworkConfig(cost_model=tiny))
    net.create_account(ADMIN)
    for u in USERS:
        net.create_account(u)
    net.deploy(CORPUS["FungibleToken"], TOKEN, {
        "contract_owner": addr(ADMIN), "name": StringVal("T"),
        "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(0),
    }, sharded_transitions=EVAL_CONTRACTS["FungibleToken"])

    lookup = LookupNode(net.dispatcher)
    for i, u in enumerate(USERS * 3):
        lookup.submit(call(ADMIN, TOKEN, "Mint",
                           {"recipient": addr(u), "amount": uint(5)},
                           nonce=i + 1))
    offered = lookup.submitted
    epoch_txns = packets_to_epoch(lookup.build_packets())

    assert len(epoch_txns) == offered
    # The packets group by shard; the mempool admits one sender's
    # nonces in order.
    loop = ServiceLoop(net, config=ServiceConfig(batch_max=offered))
    assert all(loop.submit(tx).admitted
               for tx in sorted(epoch_txns, key=lambda tx: tx.nonce))
    first = loop.tick()
    assert first.drained == offered and first.deferred > 0
    loop.drain_remaining(max_ticks=30)
    assert loop.served_committed == offered
    supply = net.contracts[TOKEN].state.fields["total_supply"]
    assert supply == uint(5 * offered)
    assert net.average_tps() > 0
    assert net.average_tps(last_n=1) >= 0
