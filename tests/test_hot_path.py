"""What a shard lane spends on one FT transfer, counted, not timed.

Between dispatch and its receipt a transfer checks its nonce, pays its
fee from the sender's lane portion (Sec. 4.2.1, 4.2.2) and runs one
compiled transition.  Counting the Python frames that takes — every
``call`` event ``sys.setprofile`` sees — is exact and the same on any
machine and under any hash seed, so a change that adds a call per
transaction fails here rather than as a few percent in a benchmark
(EXPERIMENTS.md E20).  Frame counts differ between Python versions
(3.12 inlines comprehensions); the budget holds on 3.11 and 3.12.
"""

import gc
import sys

import pytest

from repro.chain import Network
from repro.chain.dispatch import DS
from repro.chain.execution import MAX_CALL_DEPTH
from repro.scilla.interpreter import Interpreter
from repro.workloads.generators import FTTransfer

from .test_cross_contract import net, priced, run_alone  # noqa: F401

# Frames per transfer here (dispatch, lane, interpreter, delta, merge):
# 5.64 on 3.11, 5.57 on 3.12 and 3.13, since ``_execute`` looks a
# canonical message recipient up as it is (no ``pad_address`` frame,
# EXPERIMENTS.md E36) — down from 6.64 (6.57), since ``_execute`` reads
# the sender's row, grows a gap-free nonce run by one and charges
# the fee itself and calls ``_settle`` only when a hop moves funds or
# calls a contract, ``run_transition`` builds its ``_Run`` without
# ``__init__``, and compiled transitions inline their Int builtins and
# one-key writes (EXPERIMENTS.md E32) — down from 16.62 (16.53 on 3.12
# and 3.13) while a lane called ``_account_at``, ``try_accept``,
# ``charged``, ``_settle``, three ``fast_*`` and two ``owned_put`` per
# transfer.  That was since a lane calls the first hop's transition
# itself — no call-chain object, ``invoke``, ``state_for`` or
# ``_Run.finish`` frame, and ``TxContext``, ``WriteLog`` and ``Receipt``
# are tuples built without an ``__init__`` (EXPERIMENTS.md E30) — down
# from 22.62 while it did (22.53 on 3.12),
# from 28.17 before ``IntVal.checked``, ``portion_slot`` and
# ``int_delta`` were inlined where a transfer calls them (E27), from
# 45.5 while dispatch plans ran closures (8 frames) and a lane read and
# wrote its balances through the overlay (E21), and from 58.6 before
# that (E20).
FRAME_BUDGET = 6.0
# Of those, dispatch: ``Dispatcher.dispatch`` and the generated plan.
DISPATCH_FRAME_BUDGET = 3
# The same on the overlay shape: 3 000 balances at 100 transfers per
# epoch (``ft_transfer_30k``'s shape at test size), where neither a lane
# nor the merge writes enough to fold ``balances`` first, so every store
# goes through ``OverlayDict``.  11.52 on 3.11 (one ``pad_address``
# less, E36) — down from 12.52 (12.21 on 3.12 and 3.13), since a new
# key's store decrements a stored fold budget
# (no ``_fold_if_due`` frame), the merge stores a column's one-key rows
# with one ``OverlayDict.update``, an owned write takes its pre-image
# from the read of its entry before it (no second ``OverlayDict.get``)
# and a lane checks a sender's first nonce inline (EXPERIMENTS.md E33)
# — down from 21.30 (20.99 on 3.12 and 3.13), when a transfer cost
# four ``_fold_if_due``, four ``__setitem__``, four ``get`` and most of
# a ``try_accept``.
OVERLAY_FRAME_BUDGET = 11.6


def ft_network(n_users=200, txns_per_epoch=400):
    workload = FTTransfer(n_users=n_users, txns_per_epoch=txns_per_epoch)
    net = Network(4)
    workload.setup(net)
    for epoch in range(3):                          # warm-up
        net.process_epoch(workload.transactions(epoch))
    return workload, net


def frames_per_transfer(workload, net) -> float:
    """Python frames per transfer over two more epochs, all committed."""
    batches = [workload.transactions(epoch) for epoch in (3, 4)]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        blocks = [net.process_epoch(batch) for batch in batches]
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    n = sum(len(batch) for batch in batches)
    assert sum(block.n_committed for block in blocks) == n
    return calls / n


def test_an_ft_transfer_stays_within_its_frame_budget():
    per_transfer = frames_per_transfer(*ft_network())
    assert per_transfer <= FRAME_BUDGET, (
        f"{per_transfer:.2f} Python frames per FT transfer, budget "
        f"{FRAME_BUDGET}")


def test_an_ft_transfer_on_the_overlay_shape_stays_within_its_budget():
    workload, net = ft_network(n_users=3_000, txns_per_epoch=100)
    # The shape: the merge's writes stay under the fold threshold.  (No
    # local may keep the map: holding its base blocks the commit fold.)
    assert 2 * 100 < len(net.contracts[workload.contract_addr].state
                         .fields["balances"].entries) // 8 + 64
    per_transfer = frames_per_transfer(workload, net)
    assert per_transfer <= OVERLAY_FRAME_BUDGET, (
        f"{per_transfer:.2f} Python frames per FT transfer on the overlay "
        f"shape, budget {OVERLAY_FRAME_BUDGET}")


def test_an_ft_transfer_dispatches_within_its_frame_budget():
    """The plan is straight-line code: no step closures, no helper
    frames for key tokens or the shard hash."""
    workload, net = ft_network()
    batch = workload.transactions(3)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    dispatch = net.dispatcher.dispatch
    sys.setprofile(count)
    try:
        decisions = [dispatch(tx) for tx in batch]
    finally:
        sys.setprofile(None)
    assert {d.kind for d in decisions} == {"satisfied"}
    assert calls / len(batch) <= DISPATCH_FRAME_BUDGET, (
        f"{calls / len(batch):.2f} Python frames per FT Transfer dispatch")


def test_a_steady_state_ft_dispatch_hashes_nothing():
    """A sender's home shard is ``sha256("addr:" + sender)``; the
    dispatcher computes it once per address (``HomeShards``), so a
    transfer between known accounts makes no SHA-256 call at all."""
    import hashlib

    workload, net = ft_network()
    batch = workload.transactions(3)
    hashes = 0

    def count(frame, event, arg):
        nonlocal hashes
        if event == "c_call" and arg is hashlib.sha256:
            hashes += 1

    dispatch = net.dispatcher.dispatch
    sys.setprofile(count)
    try:
        decisions = [dispatch(tx) for tx in batch]
    finally:
        sys.setprofile(None)
    assert {d.kind for d in decisions} == {"satisfied"}
    assert hashes == 0, f"{hashes / len(batch):.2f} SHA-256 calls a dispatch"


def test_the_home_shard_memo_stays_bounded_and_exact():
    """More distinct senders than ``HOME_MEMO_CAP``: the memo never
    holds more than the cap, every entry is the hash it stands for, and
    every decision still equals ``dispatch_reference``."""
    from unittest import mock

    from repro.chain import dispatch as dispatch_mod
    from repro.chain.dispatch import shard_hash
    from repro.chain.transaction import call, payment
    from repro.scilla.values import addr, uint

    from .test_dispatch_plan import THIS, agree, ft_dispatcher

    cap = 16
    d = ft_dispatcher()
    users = ["0x" + f"{i + 1:040x}" for i in range(5 * cap)]
    with mock.patch.object(dispatch_mod, "HOME_MEMO_CAP", cap):
        for i, user in enumerate(users):
            other = users[(7 * i + 3) % len(users)]
            for tx in (call(user, THIS, "Transfer",
                            {"to": addr(other), "amount": uint(1)}),
                       call(user, THIS, "Transfer",
                            {"to": addr(user), "amount": uint(1)}),
                       payment(user, other, 1)):
                agree(d, tx)
                assert len(d.homes) <= cap
    assert d.homes
    for address, shard in d.homes.items():
        assert shard == shard_hash(f"addr:{address}", d.n_shards)


# The id predates the attempt's buffer replacing the undo journal; it
# is kept so the recorded ids resolve.
def test_a_row_is_journaled_once_per_epoch():
    """An epoch buffers what it moves, one row per (table, key): a
    sender's row is handed out once per transaction, and a second
    transaction of the same sender in the epoch finds it buffered."""
    from unittest import mock
    from repro.chain.recovery import NetworkCheckpoint

    workload, net = ft_network()
    opened = []
    take = NetworkCheckpoint.take.__func__

    def capturing_take(cls, network):
        opened.append(take(cls, network))
        return opened[-1]
    with mock.patch.object(NetworkCheckpoint, "take",
                           classmethod(capturing_take)):
        block = net.process_epoch(workload.transactions(3))
    (checkpoint,) = opened
    senders = {r.tx.sender for r in block.all_receipts}
    assert block.n_committed == len(block.all_receipts) > len(senders)
    # Every sender's account and nonce record, and no more than those
    # plus the recipients of native funds (none in an FT transfer).
    assert set(checkpoint.accounts) == set(checkpoint.nonces) == senders
    # What was buffered is what was published.
    for sender in senders:
        assert net.accounts[sender] is checkpoint.accounts[sender]
        assert net.nonces.records[sender] is checkpoint.nonces[sender]


# -- the interpreter layer -----------------------------------------------------
# ``bench/layers.py`` times the interpreter by wrapping
# ``Interpreter.run_transition`` on the class.  Its ``harness.shims_missing``
# only says the attribute exists; these say every hop a lane runs still
# goes through it, so the wrapper brackets the code that executes.

@pytest.fixture
def hops(monkeypatch):
    """The transitions run through ``Interpreter.run_transition``, by
    name, as a wrapper on the class sees them."""
    seen = []
    raw = Interpreter.run_transition

    def counted(self, state, name, *args, **kwargs):
        seen.append(name)
        return raw(self, state, name, *args, **kwargs)
    monkeypatch.setattr(Interpreter, "run_transition", counted)
    return seen


def test_a_shard_lane_runs_each_first_hop_through_run_transition(hops):
    workload, net = ft_network()
    del hops[:]
    block = net.process_epoch(workload.transactions(3))
    receipts = block.all_receipts
    assert all(r.success and r.shard != DS for r in receipts)
    assert hops == ["Transfer"] * len(receipts)


@pytest.mark.parametrize("transition, amount, error, expected", [
    ("Fwd", 40, None, ["Fwd", "Ping"]),
    ("Spin", 70, "call depth exceeded", ["Spin"] * MAX_CALL_DEPTH),
])
def test_a_ds_chain_runs_every_hop_through_run_transition(
        net, hops, transition, amount, error, expected):
    r, _ = run_alone(net, DS, priced(transition, amount=amount))
    assert r.error == error
    assert hops == expected
