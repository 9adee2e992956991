"""What a live network retains: the bodies of its newest BODY_WINDOW
blocks and a header per epoch — not every receipt it ever issued.

The block ``process_epoch`` returns is never touched: a caller that
keeps it keeps its receipts.  Only the network's own list entry ages
into a :class:`BlockHeader`, and reading a released body raises
:class:`BlockBodyReleased` (never an empty list).
"""

import gc
from unittest import mock

import pytest

from repro.chain.blocks import (
    BODY_WINDOW, BlockBodyReleased, BlockHeader, FinalBlock,
)
from repro.chain.mempool import MempoolConfig
from repro.chain.network import Network
from repro.chain.recovery import NetworkCheckpoint
from repro.chain.service import ServiceConfig, ServiceLoop
from repro.scilla.values import addr, uint
from repro.workloads.generators import FTTransfer


def small_run(epochs, **net_kwargs):
    """A little FT-transfer network and the blocks it handed back."""
    workload = FTTransfer(n_users=40, txns_per_epoch=24, seed=11)
    net = Network(4, **net_kwargs)
    workload.setup(net)
    blocks = [net.process_epoch(workload.transactions(epoch))
              for epoch in range(1, epochs + 1)]
    return net, workload, blocks


def walked_tps(blocks, idle=0.0):
    """``average_tps`` as it was computed when every block kept its
    receipts: committed counted by walking them."""
    committed = sum(1 for b in blocks for r in b.all_receipts if r.success)
    seconds = sum(b.epoch_seconds for b in blocks) + idle
    return committed / seconds if seconds else 0.0


def assert_window(net):
    """All but the newest BODY_WINDOW entries are bare headers."""
    assert len(net.blocks) > BODY_WINDOW
    assert all(type(b) is BlockHeader for b in net.blocks[:-BODY_WINDOW])
    assert all(type(b) is FinalBlock for b in net.blocks[-BODY_WINDOW:])


def test_tracked_objects_are_flat_in_epochs_processed():
    workload = FTTransfer(n_users=1000, txns_per_epoch=400, seed=11)
    net = Network(4)
    workload.setup(net)
    tracked = {}
    for epoch in range(1, 61):
        net.process_epoch(workload.transactions(epoch))
        if epoch in (30, 60):
            gc.collect()
            tracked[epoch] = len(gc.get_objects())
    # A header is a handful of objects; a 400-transfer body ≈ 8 700.
    assert abs(tracked[60] - tracked[30]) <= 10 * 30


def tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_a_kept_transfer_holds_few_tracked_objects():
    """EXPERIMENTS.md E19's count: what ten kept blocks and their
    batches add to the tracked objects, per transfer.  The transaction
    holds one tuple of argument values (its names tuple holds strings,
    which the collector untracks); its event is one ``MsgVal`` over a
    constant names tuple, and the transfer's ``_sender`` value is built
    once per lane.  8.44 here; 12.58 with an args tuple of pairs and an
    event of pairs (E27)."""
    workload = FTTransfer(n_users=1000, txns_per_epoch=400, seed=11)
    net = Network(4)
    workload.setup(net)
    for epoch in range(1, 6):                       # warm-up
        net.process_epoch(workload.transactions(epoch))
    before = tracked_objects()
    kept = []
    for epoch in range(6, 16):
        batch = workload.transactions(epoch)
        kept.append((batch, net.process_epoch(batch)))
    per_transfer = (tracked_objects() - before) / (10 * 400)
    assert sum(block.n_committed for _, block in kept) == 10 * 400
    assert per_transfer <= 9.5, f"{per_transfer:.2f} per kept transfer"


def test_a_bulk_mint_epoch_holds_few_tracked_objects():
    """Every Sec. 5.2 workload prepares its users in one bulk epoch;
    the tracked objects alive when that attempt commits — the mints,
    their receipts and events, the new balances — set the workload's
    peak.  10.0 per mint here, 16.0 before (E27)."""
    workload = FTTransfer(n_users=3000, seed=11)
    net = Network(4)
    with mock.patch.object(FTTransfer, "prepare", lambda self, net: None):
        workload.setup(net)                         # the deploy alone
    at_commit = []
    commit = NetworkCheckpoint.commit

    def counting_commit(self, *args, **kwargs):
        at_commit.append(tracked_objects())
        return commit(self, *args, **kwargs)
    before = tracked_objects()
    with mock.patch.object(NetworkCheckpoint, "commit", counting_commit):
        workload.prepare(net)                       # 3 000 Mints
    assert len(at_commit) == 1
    assert net.contracts[workload.contract_addr].state.read(
        ("balances", (addr(workload.users[-1]),))) == uint(10**9)
    per_mint = (at_commit[0] - before) / 3000
    assert per_mint <= 11, f"{per_mint:.2f} per mint at the commit"


@pytest.mark.parametrize("executor", ["serial"])
def test_kept_block_keeps_its_body_the_networks_entry_does_not(executor):
    net, workload, blocks = small_run(3, executor=executor)
    kept = blocks[0]
    receipts = list(kept.all_receipts)
    deltas = [d for mb in kept.microblocks for d in mb.deltas]
    assert len(receipts) == 24 and deltas
    for epoch in range(4, 24):
        last = net.process_epoch(workload.transactions(epoch))
    # Twenty epochs on, the kept block is what it was.
    assert kept.all_receipts == receipts
    assert [d for mb in kept.microblocks for d in mb.deltas] == deltas
    assert all(d.entries for d in deltas)
    # The network's entry for that epoch is a header sharing its values.
    entry = net.blocks[0]
    assert entry.epoch == kept.epoch and entry.stats is kept.stats
    assert entry.n_committed == kept.n_committed == 24
    assert entry.tps == kept.tps
    for body_part in ("all_receipts", "microblocks", "ds_receipts"):
        with pytest.raises(BlockBodyReleased) as exc:
            getattr(entry, body_part)
        assert f"epoch {kept.epoch}" in str(exc.value)
        assert str(BODY_WINDOW) in str(exc.value)
    assert net.blocks[-1] is last
    assert_window(net)


def test_average_tps_reads_headers_to_the_last_bit():
    workload = FTTransfer(n_users=40, txns_per_epoch=24, seed=11)
    net = Network(4)
    workload.setup(net)     # ends with the generators' blocks.pop()
    assert net.blocks == []
    blocks = []
    for epoch in range(1, 13):
        tag = "odd" if epoch % 2 else "even"
        blocks.append(net.process_epoch(workload.transactions(epoch),
                                        wal_tag=tag))
        # Before any body is released (epochs 1–2) and after.
        assert net.average_tps() == walked_tps(blocks)
        assert net.average_tps(last_n=5) == walked_tps(blocks[-5:])
        assert net.average_tps(tag="odd") == walked_tps(
            [b for b in blocks if b.tag == "odd"])
    assert_window(net)
    # A popped entry leaves the averages over what is still listed, and
    # the next append finds the entry under the window already released.
    net.blocks.pop()
    blocks.pop()
    assert net.average_tps() == walked_tps(blocks)
    blocks.append(net.process_epoch(workload.transactions(13)))
    assert net.average_tps(last_n=5) == walked_tps(blocks[-5:])
    assert_window(net)


def test_service_trim_bounds_headers_and_averages_what_is_listed():
    net = Network(4)
    workload = FTTransfer(n_users=40, txns_per_epoch=24, seed=11)
    workload.setup(net)
    loop = ServiceLoop(net, config=ServiceConfig(keep_blocks=4),
                       pool_config=MempoolConfig(per_sender=64))
    blocks = []
    for epoch in range(1, 10):
        for tx in workload.transactions(epoch):
            assert loop.submit(tx).admitted
        assert loop.tick().epoch == net.epoch
        blocks.append(net.blocks[-1])       # what bench/ settles from
    assert len(net.blocks) == 4
    assert [b.epoch for b in net.blocks] == [b.epoch for b in blocks[-4:]]
    assert_window(net)
    assert net.average_tps(last_n=4) == walked_tps(blocks[-4:])
    assert net.average_tps(tag="serve") == walked_tps(
        blocks[-4:], idle=net.idle_seconds.get("serve", 0.0))


def test_replayed_epochs_are_released_like_live_ones(tmp_path):
    net, _, blocks = small_run(6, data_dir=str(tmp_path),
                               snapshot_every=10**9)
    listed = [(b.epoch, b.tag, b.n_committed, b.epoch_seconds)
              for b in net.blocks]
    net.close()
    resumed = Network.resume(str(tmp_path))
    try:
        # No restore point: the setup epoch is replayed too, and no
        # generator pops it this time.
        assert [(b.epoch, b.tag, b.n_committed, b.epoch_seconds)
                for b in resumed.blocks][1:] == listed
        assert_window(resumed)
        with pytest.raises(BlockBodyReleased):
            resumed.blocks[1].all_receipts
        assert len(resumed.blocks[-1].all_receipts) == \
            len(blocks[-1].all_receipts)
    finally:
        resumed.close()
