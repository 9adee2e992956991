"""State-engine scaling guards: counts showing that a checkpoint take,
a first write after a fork, the account/nonce books, and a durable
commit with its restore points stay O(touched) — a privatisation at
10^5 balances included — plus wall-clock checks that a serial epoch —
in memory and durable — is flat in state size.
"""

import gc
import sys
import time
from statistics import median

from repro.chain.recovery import NetworkCheckpoint
from repro.chain.transaction import used_runs
from repro.scilla import types as ty
from repro.scilla import values as scilla_values
from repro.scilla.state import ContractState
from repro.scilla.values import MapVal, StringVal, uint


def _big_state(entries: int) -> ContractState:
    """One contract with an ``entries``-sized token-balance map plus a
    scalar — the shape the Fig. 14 workloads stress."""
    balances = MapVal(ty.STRING, ty.UINT128)
    for i in range(entries):
        balances.entries[StringVal(f"0x{i:040x}")] = uint(i)
    return ContractState(
        address="0x" + "ab" * 20,
        fields={"balances": balances, "total_supply": uint(entries)},
        field_types={"balances": ty.MapType(ty.STRING, ty.UINT128),
                     "total_supply": ty.UINT128},
    )


def _big_network(entries: int):
    from repro.chain.network import DeployedContract, Network, NetworkConfig

    net = Network(4, NetworkConfig(use_signatures=False))
    state = _big_state(entries)
    net.contracts[state.address] = DeployedContract(
        state.address, None, None, state)
    return net, state


def test_checkpoint_take_is_o1_nothing_copied():
    """Network-level guard: opening (and dropping) an epoch attempt on a
    large state must not copy or fold anything, and an attempt that
    writes a fork — a write burst through it — and is dropped leaves
    the very same state and entry dict in place; committed, it installs
    the fork with one rebind.  Nothing O(entries) runs.  Counts, not
    wall time, so it cannot flake."""
    net, state = _big_network(100_000)
    contract = net.contracts[state.address]
    entries = state.fields["balances"].entries
    before = (scilla_values.COW_COPIES, scilla_values.OVERLAY_FOLDS,
              scilla_values.OVERLAY_FOLDED_ENTRIES)
    for _ in range(10):
        checkpoint = NetworkCheckpoint.take(net)
        checkpoint.restore(net)
        checkpoint.close(net)

    checkpoint = NetworkCheckpoint.take(net)
    nxt = state.fork()
    for i in range(32):
        nxt.write(("balances", (StringVal(f"0x{i:040x}"),)), uint(999))
    checkpoint.restore(net)
    checkpoint.close(net)
    assert contract.state is state
    assert state.fields["balances"].entries is entries
    assert entries[StringVal(f"0x{5:040x}")] == uint(5)
    checkpoint = NetworkCheckpoint.take(net)
    assert checkpoint.commit(net, {state.address: nxt}) == {
        state.address: state}
    assert contract.state is nxt and net.attempt is None
    assert entries[StringVal(f"0x{5:040x}")] == uint(5)
    # The fork's one privatisation, and no fold.
    assert (before[0] + 1, *before[1:]) == (
        scilla_values.COW_COPIES, scilla_values.OVERLAY_FOLDS,
        scilla_values.OVERLAY_FOLDED_ENTRIES)


def test_first_write_after_fork_allocates_o1():
    """The half a bare fork timing leaves out: the first write through
    a fork of a 10^5-entry map lays a one-entry overlay over the
    *source's own dict* — no container of size n is built."""
    _, state = _big_network(100_000)
    source = state.fields["balances"].entries
    folded = scilla_values.OVERLAY_FOLDED_ENTRIES
    fork = state.fork()
    key = StringVal(f"0x{7:040x}")
    fork.write(("balances", (key,)), uint(1))
    overlay = fork.fields["balances"].entries
    assert overlay.base is source
    assert (len(overlay.over), len(overlay.dead)) == (1, 0)
    assert len(overlay) == 100_000
    assert scilla_values.OVERLAY_FOLDED_ENTRIES == folded
    assert state.read(("balances", (key,))) == uint(7)
    # A fork of the fork copies the overlay, never the base.
    second = fork.fork()
    second.write(("balances", (StringVal(f"0x{8:040x}"),)), uint(2))
    again = second.fields["balances"].entries
    assert again.base is source and len(again.over) == 2
    assert len(overlay.over) == 1


class _CountingDict(dict):
    """A dict that counts whole-container walks."""

    walks = 0

    def _walk(self):
        type(self).walks += 1

    def __iter__(self):
        self._walk()
        return super().__iter__()

    def items(self):
        self._walk()
        return super().items()

    def keys(self):
        self._walk()
        return super().keys()

    def values(self):
        self._walk()
        return super().values()

    def copy(self):
        self._walk()
        return super().copy()


def test_checkpoint_take_walks_no_account_and_no_nonce_table():
    """``take`` used to copy every account's (balance, portions) and
    every sender's nonce set; now it opens an empty buffer that takes
    the few rows that move.  With 10^5 accounts and senders, take,
    restore and commit walk none of the tables."""
    from repro.chain.network import Network, NetworkConfig

    net = Network(4, NetworkConfig(use_signatures=False))
    for i in range(100_000):
        net.create_account(f"0x{i + 0x1000:040x}")
        net.nonces.try_accept(f"0x{i + 0x1000:040x}", 1, i % 4)
    net.accounts = _CountingDict(net.accounts)
    net.nonces.records = _CountingDict(net.nonces.records)

    sender = f"0x{0x1000 + 5:040x}"

    def moves():
        assert net._charge(sender, 0, 7)
        net._credit("0x" + "ee" * 20, 0, 7)     # lazily created
        assert net.nonces.try_accept(sender, 2, 1)

    checkpoint = NetworkCheckpoint.take(net)
    moves()
    assert (len(checkpoint.accounts), len(checkpoint.nonces)) == (2, 1)
    checkpoint.restore(net)
    checkpoint.close(net)
    assert len(net.accounts) == 100_000
    assert net.balance(sender) == 10**12
    assert used_runs(net.nonces.records[sender]) == [[1, 1]]
    checkpoint = NetworkCheckpoint.take(net)
    moves()
    checkpoint.commit(net, {})
    assert _CountingDict.walks == 0
    assert len(net.accounts) == 100_001
    assert net.balance(sender) == 10**12 - 7
    assert used_runs(net.nonces.records[sender]) == [[1, 2]]


def test_a_user_is_two_untracked_rows():
    """At 10^5 funded accounts an account costs ≤ 64 B by tracemalloc
    (448 B as an ``Account`` with its portions dict): funded accounts
    share one memoised row per home shard, so what is left is the
    table's slot.  After a collection no account row — charged or not —
    and no nonce record of a sender who never skipped is a GC-tracked
    object, while the two tables themselves stay tracked (a ``dict``
    subclass: an exact dict of untracked rows would be untracked, and
    re-tracked into generation 0 by the next fresh row).  Rows stay
    untracked however often they are replaced."""
    import tracemalloc

    from repro.chain.network import Network, NetworkConfig

    n = 100_000
    addresses = [f"0x{i + 0x1000:040x}" for i in range(n)]
    net = Network(4, NetworkConfig(use_signatures=False), state_backend="none")
    gc.collect()
    tracemalloc.start()
    try:
        for address in addresses:
            net.create_account(address)
        per_account = tracemalloc.get_traced_memory()[0] / n
    finally:
        tracemalloc.stop()
    assert per_account <= 64, f"{per_account:.0f} B per funded account"

    for i, address in enumerate(addresses):
        for nonce in (1, 2, 3):
            assert net.nonces.try_accept(address, nonce, (i + nonce) % 5 - 1)
        if i % 10 == 0:
            assert net._charge(address, -1, 7)
    gc.collect()
    assert not any(map(gc.is_tracked, net.accounts.values()))
    assert not any(map(gc.is_tracked, net.nonces.records.values()))
    assert gc.is_tracked(net.accounts) and gc.is_tracked(net.nonces.records)
    for i, address in enumerate(addresses[::100]):
        assert net.nonces.try_accept(address, 4, i % 5 - 1)
        assert net._charge(address, -1, 7)
    gc.collect()
    assert not any(map(gc.is_tracked, net.accounts.values()))
    assert not any(map(gc.is_tracked, net.nonces.records.values()))
    assert gc.is_tracked(net.accounts) and gc.is_tracked(net.nonces.records)


def _record_size(record) -> int:
    """A nonce record and what it alone holds (its ints, a gap set)."""
    gaps = record[-1] or ()
    return (sys.getsizeof(record) + sum(
        sys.getsizeof(v) for v in record[:-1] if v is not None)
        + (sys.getsizeof(gaps) + sum(map(sys.getsizeof, gaps))
           if gaps else 0))


def test_a_contiguous_senders_record_is_flat_in_its_nonces():
    """One integer per accepted transaction, for ever, used to be the
    one per-user cost that grew: a sender who never skips a nonce now
    holds the same record after 10 and after 10^4 of them."""
    from repro.chain.transaction import NonceTracker

    tracker = NonceTracker(n_shards=4)
    sizes = {}
    for nonce in range(1, 10_001):
        assert tracker.try_accept("0xab", nonce, nonce % 5 - 1)
        if nonce in (10, 10_000):
            sizes[nonce] = _record_size(tracker.records["0xab"])
    assert sizes[10] == sizes[10_000], sizes
    assert used_runs(tracker.records["0xab"]) == [[1, 10_000]]


class _TodaysJournal:
    """The journal's nonce half as it was before nonce records became
    rows (``StateJournal.record_nonce``, verbatim): one entry per
    (sender, lane) per mark, each accepted nonce appended to it."""

    def __init__(self):
        self._suspended, self._marks = False, [0]
        self._seen, self._entries = {}, []

    def record_nonce(self, tracker, slot, had_entry, added, last_global,
                     last_lane):
        if self._suspended or not self._marks:
            return
        log = self._seen.get(slot)
        if log is None:
            log = self._seen[slot] = []
            self._entries.append(("nonce", tracker, *slot, had_entry, log,
                                  last_global, last_lane))
        log.extend(added)


def test_a_gap_heavy_senders_accept_stays_o1():
    """A sender who skips every other nonce keeps a gap set that grows
    by one per accept; each accept must still be O(1) — at most 2x what
    the three-table tracker (tests/test_user_rows.py, with its journal)
    takes for the same 10^4 accepts.  Both run inside an epoch attempt:
    the rows buffer theirs, whose first accept copies the published
    gap set, and the old tracker journals under an outstanding mark."""
    from repro.chain.transaction import NonceTracker
    from tests.test_user_rows import NonceTracker as TodaysTracker

    def rows():
        return NonceTracker(n_shards=4)

    def todays():
        tracker = TodaysTracker()
        tracker.journal = _TodaysJournal()
        return tracker

    def us_per_accept(make) -> float:
        tracker = make()
        for nonce in range(1, 200, 2):
            assert tracker.try_accept("0xab", nonce, 0)
        if isinstance(tracker, NonceTracker):
            tracker.buffer = {}     # the attempt opens
        t0 = time.perf_counter()
        for nonce in range(201, 20_201, 2):
            tracker.try_accept("0xab", nonce, 0)
        return (time.perf_counter() - t0) / 10_000 * 1e6

    best = {rows: [], todays: []}
    for _ in range(7):          # interleaved, best of seven
        for make in best:
            best[make].append(us_per_accept(make))
    new, old = min(best[rows]), min(best[todays])
    assert new <= 2 * old, (
        f"gap-heavy accept {new:.2f} us vs {old:.2f} us before rows")


def _seeded_ft(n_users: int, txns: int, **net_kwargs):
    """A serial FT-transfer network over a balances map seeded directly
    (minting 10^5 balances through the interpreter would dominate the
    test), and the workload driving it."""
    from repro.chain.network import Network
    from repro.scilla.values import addr
    from repro.workloads.generators import FTTransfer

    class SeededFT(FTTransfer):
        def prepare(self, net):
            balances = net.contracts[self.contract_addr] \
                .state.fields["balances"]
            for user in self.users:
                balances.put(addr(user), uint(10**9))

    wl = SeededFT(n_users=n_users, txns_per_epoch=txns, seed=3)
    net = Network(4, state_backend="none", **net_kwargs)
    wl.setup(net)
    return wl, net


def _ft_run(n_users: int, txns: int, epochs: int, **net_kwargs):
    """A seeded FT-transfer network and the batches to drive it with."""
    wl, net = _seeded_ft(n_users, txns, **net_kwargs)
    return net, [wl.transactions(epoch) for epoch in range(epochs)]


def _epoch_seconds(*runs, probe=lambda net: None):
    """Per run — a ``(network, batches)`` pair — the wall time of each
    epoch and what ``probe(network)`` read after it.

    Timed the way ``bench/`` does: what is alive on entry is collected
    once and frozen, so the automatic collector sees only the garbage
    the timed epochs make.  A gen-2 pass is O(heap) — 3 x 10^5 objects
    on the large side — which is exactly what these guards are not
    about, and one landing inside a timed epoch used to fail them.  And
    the runs take turns, epoch by epoch: a noisy stretch of the machine
    lands on every side, so the *ratio* of their medians — what the
    guards bound — holds still when the medians do not."""
    out = [[] for _ in runs]
    gc.collect()
    gc.freeze()
    try:
        for turn in zip(*(batches for _, batches in runs)):
            for (net, _), batch, timed in zip(runs, turn, out):
                t0 = time.perf_counter()
                block = net.process_epoch(batch)
                timed.append((time.perf_counter() - t0, probe(net)))
                assert block.n_committed == len(batch)
    finally:
        gc.unfreeze()
    return out


def test_serial_epoch_time_is_flat_in_state_size():
    """The end-to-end guard: a serial FT epoch over 10^5 balances takes
    at most 1.6x one over 10^3 (6.7x before forks became overlays and
    checkpoints journal marks; 1.4-2.1x before the commit folded each
    overlay into its base and the user tables stayed out of
    generation 0)."""
    # Best of three: ten interleaved attempts read 1.12-1.26 on a
    # shared 2-vCPU box (every account, nonce record and balance of the
    # large side is a cache miss, and load from a neighbour stalls
    # exactly those misses).  An O(state) step fails all three.
    for _ in range(3):
        small, large = (
            median(seconds for seconds, _ in timed[2:])
            for timed in _epoch_seconds(_ft_run(1_000, 100, 9),
                                        _ft_run(100_000, 100, 9)))
        if large <= 1.6 * small:
            break
    assert large <= 1.6 * small, (
        f"FT epoch {large * 1e3:.1f} ms at 10^5 balances vs "
        f"{small * 1e3:.1f} ms at 10^3")


def test_a_privatisation_copies_only_the_epochs_own_writes(monkeypatch):
    """At 10^5 balances every privatisation of an epoch copies at most
    what that epoch wrote: the commit folds each overlay into the base
    it alone holds, so the next epoch starts flat.  Before, the global
    overlay grew across epochs towards 10^5 / 8 + 64 pending rows and
    every lane's and the merge's privatisation copied it.  The first
    epoch is not counted: the seeding wrote its 10^5 balances outside
    any epoch, and its overlay folds at that epoch's commit.  Counts,
    not wall time."""
    txns = 100
    copied: list[int] = []
    private_copy = scilla_values.OverlayDict.private_copy

    def counting(overlay):
        copied.append(len(overlay.over) + len(overlay.dead))
        return private_copy(overlay)
    net, batches = _ft_run(100_000, txns, 12)
    assert net.process_epoch(batches[0]).n_committed == txns
    monkeypatch.setattr(scilla_values.OverlayDict, "private_copy", counting)
    for batch in batches[1:]:
        assert net.process_epoch(batch).n_committed == len(batch)
    assert max(copied, default=0) <= 2 * txns, max(copied)


def test_a_map_of_maps_privatises_only_the_epochs_own_children(monkeypatch):
    """A map of maps folds its children into its base at commit like
    any other map, so a privatisation copies what the epoch wrote, not
    every child ever written.  ProofIPFS ``Register`` writes one entry
    under its sender in ``user_files``; seeded with 200, 2 000 and
    20 000 children, no epoch after the first makes its
    privatisations copy more than 2 entries per transaction in all.
    Before, the map kept every child it had ever copied up pending
    and each privatisation copied them all.  Counts, not wall time."""
    from repro.chain.network import Network
    from repro.scilla.values import addr
    from repro.workloads.generators import ProofIPFSRegister

    class SeededProofIPFS(ProofIPFSRegister):
        def prepare(self, net):
            user_files = net.contracts[self.contract_addr] \
                .state.fields["user_files"]
            for user in self.users:
                user_files.put(addr(user), MapVal(ty.BYSTR32, ty.BOOL))

    txns, epochs = 40, 12
    private_copy = scilla_values.OverlayDict.private_copy
    copied: list[int] = []

    def counting(overlay):
        copied[-1] += len(overlay.over) + len(overlay.dead)
        return private_copy(overlay)
    monkeypatch.setattr(scilla_values.OverlayDict, "private_copy", counting)
    worst = {}
    for children in (200, 2_000, 20_000):
        wl = SeededProofIPFS(n_users=children, txns_per_epoch=txns, seed=5)
        net = Network(4, state_backend="none")
        wl.setup(net)
        del copied[:]
        for epoch in range(epochs):
            copied.append(0)
            assert net.process_epoch(
                wl.transactions(epoch)).n_committed == txns
        worst[children] = max(copied[1:])
        net.close()
    assert all(n <= 2 * txns for n in worst.values()), worst


def test_durable_commit_and_restore_points_are_o_touched(tmp_path,
                                                         monkeypatch):
    """A steady-state durable commit walks no state — zero
    ``state_fingerprint`` / ``state_accumulator`` / from-scratch
    recomputations, by count — and a delta restore point writes what
    the interval touched, not what the network holds.  So a durable
    epoch over 10^5 balances, its share of the restore points included
    (the median plain epoch and the median restore-point epoch, the
    latter at its 1-in-8 share), takes at most 2x one over 10^3."""
    from repro.chain import recovery
    from repro.chain.recovery import ChangeLedger
    from repro.obs import MetricsRegistry

    full_walks: list = []
    for name in ("state_fingerprint", "state_accumulator", "_fields_sum"):
        real = getattr(recovery, name)
        monkeypatch.setattr(
            recovery, name,
            lambda state, real=real, name=name: (
                full_walks.append(name), real(state))[1])
    # 16 durable epochs (``snapshot_every=8``: two restore points) after
    # the first base, at each size.
    txns, epochs = 100, 16
    runs = []
    for n_users, name in ((1_000, "small"), (100_000, "large")):
        net, batches = _ft_run(n_users, txns, epochs,
                               data_dir=str(tmp_path / name),
                               snapshot_every=8, metrics=MetricsRegistry())
        # The balances were seeded behind the ledger's back.
        net._ledger = ChangeLedger(net)
        net.snapshot()
        runs.append((net, batches))
    rows_before = [net.metrics.counter("net.snapshot.rows").value
                   for net, _ in runs]
    del full_walks[:]
    timed = _epoch_seconds(
        *runs, probe=lambda net: net.metrics.counter(
            "net.snapshot.rows").value)
    assert not full_walks, full_walks
    seconds = []
    for (net, _), before, epochs_timed in zip(runs, rows_before, timed):
        plain, restore_point = [], []
        for took, rows in epochs_timed:
            (plain if rows == before else restore_point).append(took)
            before = rows
        assert len(restore_point) == epochs // 8
        seconds.append((7 * median(plain) + median(restore_point)) / 8)
        counters = net.metrics.snapshot()["counters"]
        assert counters["net.digest.full_recomputes"]["value"] == 0
        assert counters["net.commit.changed_locations"]["value"] \
            <= 2 * txns * epochs
        net.close()
    # On the large side both restore points are deltas, and each
    # transfer accounts for at most two balances, one account and one
    # nonce record: nothing near the 3 x 10^5 rows a base holds.
    assert (counters["net.snapshot.bases"]["value"] - 1,
            counters["net.snapshot.deltas"]["value"]) == (0, 2)
    assert rows - rows_before[-1] <= 4 * txns * epochs
    small, large = seconds
    assert large <= 2 * small, (
        f"durable FT epoch {large * 1e3:.1f} ms at 10^5 balances vs "
        f"{small * 1e3:.1f} ms at 10^3")
