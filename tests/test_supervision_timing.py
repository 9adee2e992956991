"""Deterministic timing of the network's retry paths: the
deferred-transaction backoff schedule, asserted with epoch arithmetic,
and the view-change retry loop, which reruns an epoch attempt without
ever sleeping — never against real sleeps.
"""

import time

from repro.chain import Network, call
from repro.chain.consensus import CostModel
from repro.chain.faults import FaultEvent, FaultKind, FaultPlan
from repro.contracts import CORPUS
from repro.obs.metrics import MetricsRegistry
from repro.scilla.values import addr, uint, IntVal, StringVal
from repro.scilla import types as ty

TOKEN = "0x" + "c0" * 20
ADMIN = "0x" + "ad" * 20
USERS = ["0x" + f"{i:040x}" for i in range(1, 17)]


def ft_network(**kwargs) -> Network:
    """A 4-shard FungibleToken network with every user minted 1000."""
    net = Network(4, **kwargs)
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


# --------------------------------------------------------------------------
# Deferred-transaction backoff (network retry schedule).
# --------------------------------------------------------------------------

def test_deferred_tx_backoff_schedule_is_exponential():
    tiny = CostModel(shard_gas_limit=100, ds_gas_limit=100)
    net = ft_network(cost_model=tiny, carry_backlog=True,
                     retry_backoff=3.0, max_retries=4,
                     metrics=MetricsRegistry())
    net.process_epoch(transfer_round(nonce=2))

    # Every deferral at retries=r waits exactly
    # max(1, round(retry_backoff ** (r - 1))) epochs: 1, 3, 9, 27.
    # Only entries queued by the epoch just processed are measured —
    # carried entries would show a shrinking residual wait.
    observed: dict[int, set[int]] = {}
    seen: set[tuple[int, int]] = set()

    def note_new_entries():
        for entry in net.backlog:
            key = (entry.tx.tx_id, entry.retries)
            if key not in seen:
                seen.add(key)
                observed.setdefault(entry.retries, set()).add(
                    entry.not_before - net.epoch)

    note_new_entries()
    for _ in range(40):
        if not net.backlog:
            break
        net.process_epoch([])
        note_new_entries()
    for retries, waits in observed.items():
        expected = max(1, round(3.0 ** (retries - 1)))
        assert waits == {expected}, (retries, waits)
    assert 1 in observed       # schedule actually exercised
    assert max(observed) >= 2  # including at least one re-deferral


def test_deferred_tx_backoff_flat_when_backoff_is_one():
    tiny = CostModel(shard_gas_limit=200, ds_gas_limit=200)
    net = ft_network(cost_model=tiny, carry_backlog=True,
                     retry_backoff=1.0, metrics=MetricsRegistry())
    net.process_epoch(transfer_round(nonce=2))
    assert net.backlog
    assert {e.not_before - net.epoch for e in net.backlog} == {1}
