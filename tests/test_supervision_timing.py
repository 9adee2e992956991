"""Deterministic timing of the network's retry path: the view-change
retry loop reruns an epoch attempt without ever sleeping.
"""

import time

from repro.chain import Network, NetworkConfig, call
from repro.chain.faults import FaultEvent, FaultKind, FaultPlan
from repro.contracts import CORPUS
from repro.scilla.values import addr, uint, IntVal, StringVal
from repro.scilla import types as ty

TOKEN = "0x" + "c0" * 20
ADMIN = "0x" + "ad" * 20
USERS = ["0x" + f"{i:040x}" for i in range(1, 17)]


def ft_network(**config) -> Network:
    """A 4-shard FungibleToken network with every user minted 1000."""
    net = Network(4, NetworkConfig(**config))
    net.create_account(ADMIN)
    for u in USERS:
        net.create_account(u)
    net.deploy(CORPUS["FungibleToken"], TOKEN, {
        "contract_owner": addr(ADMIN), "name": StringVal("T"),
        "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(0),
    }, sharded_transitions=("Mint", "Transfer", "TransferFrom"))
    mint = [call(ADMIN, TOKEN, "Mint",
                 {"recipient": addr(u), "amount": uint(1000)},
                 nonce=i + 1)
            for i, u in enumerate(USERS)]
    net.process_epoch(mint, unlimited=True)
    return net


def transfer_round(nonce: int):
    return [call(u, TOKEN, "Transfer",
                 {"to": addr(USERS[(i + 1) % len(USERS)]),
                  "amount": uint(3)}, nonce=nonce)
            for i, u in enumerate(USERS)]


# --------------------------------------------------------------------------
# View changes rerun the attempt at once.
# --------------------------------------------------------------------------

def test_view_change_retries_never_sleep(monkeypatch):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    plan = FaultPlan([FaultEvent(2, FaultKind.CORRUPT_DELTA, 0)])
    net = ft_network(fault_plan=plan)
    block = net.process_epoch(transfer_round(nonce=2))
    # The view-change retry loop is epoch-attempt based: a lane
    # exclusion reruns the attempt immediately, with no backoff sleep.
    assert block.stats.view_changes >= 1
    assert sleeps == []
