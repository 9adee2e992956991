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

from repro.chain import Network
from repro.workloads.generators import FTTransfer

# Frames per transfer here (dispatch, lane, interpreter, delta, merge):
# 16.62 on 3.11, 16.53 on 3.12 and 3.13, since a lane calls the first
# hop's transition itself — no call-chain object, ``invoke``,
# ``state_for`` or ``_Run.finish`` frame, and ``TxContext``,
# ``WriteLog`` and ``Receipt`` are tuples built without an ``__init__``
# (EXPERIMENTS.md E30) — down from 22.62 while it did (22.53 on 3.12),
# from 28.17 before ``IntVal.checked``, ``portion_slot`` and
# ``int_delta`` were inlined where a transfer calls them (E27), from
# 45.5 while dispatch plans ran closures (8 frames) and a lane read and
# wrote its balances through the overlay (E21), and from 58.6 before
# that (E20).
FRAME_BUDGET = 17.0
# Of those, dispatch: ``Dispatcher.dispatch`` and the generated plan.
DISPATCH_FRAME_BUDGET = 3


def ft_network():
    workload = FTTransfer(n_users=200)
    # Dict state whatever REPRO_STATE_BACKEND says: the budget is the
    # in-memory path's (a paged map reads through its backend).
    net = Network(4, state_backend="none")
    workload.setup(net)
    for epoch in range(3):                          # warm-up
        net.process_epoch(workload.transactions(epoch))
    return workload, net


def test_an_ft_transfer_stays_within_its_frame_budget():
    workload, net = ft_network()
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
    per_transfer = calls / n
    assert per_transfer <= FRAME_BUDGET, (
        f"{per_transfer:.2f} Python frames per FT transfer, budget "
        f"{FRAME_BUDGET}")


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
