"""Per-user rows ≡ the objects they replaced.

The reference below is the ``Account`` dataclass, the three-table
``NonceTracker`` and the restore-point column writers the network used
before accounts and nonce records became rows, copied verbatim as the
specification (the reference runs without a journal: a view change
restores a deep copy taken when the attempt opened, the trivially
right answer; ``benchmarks/test_state_engine.py`` times it with the
journal it had).  A Hypothesis state machine drives a ``Network``'s
rows and the reference through the same random create / charge /
credit / ``try_accept`` sequences, between epoch attempts and inside
one (``NetworkCheckpoint`` open / restore / commit) — strict and
relaxed nonces, 2–5 shards, repeated nonces, gaps, several lanes per
sender — and after every step compares balances, portions, accept
decisions and the restore point's ``accounts`` / ``nonces`` columns
as the attempt sees them, and, while one is open, that the published
tables (their gap sets included) are what they were when it opened.
"""

import copy
from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.chain.network import Network, NetworkConfig
from repro.chain.recovery import NetworkCheckpoint
from repro.chain.store import _account_columns, _nonce_columns

# -- the specification: the pre-row representation ----------------------------


@dataclass
class Account:
    address: str
    balance: int = 0
    shard_portions: dict[int, int] = dc_field(default_factory=dict)

    def split_across(self, n_shards: int, home_shard: int,
                     home_fraction: float = 0.5) -> None:
        self.shard_portions.clear()
        if n_shards <= 0:
            self.shard_portions[-1] = self.balance
            return
        home = int(self.balance * home_fraction)
        rest = self.balance - home
        per_other = rest // (n_shards + 1)  # other shards + DS (-1)
        for shard in range(n_shards):
            self.shard_portions[shard] = per_other
        self.shard_portions[home_shard] = home
        self.shard_portions[-1] = self.balance - home - per_other * (
            n_shards - 1)

    def charge(self, shard: int, amount: int) -> bool:
        portion = self.shard_portions.get(shard, 0)
        if portion < amount or self.balance < amount:
            return False
        self.shard_portions[shard] = portion - amount
        self.balance -= amount
        return True

    def credit(self, amount: int, shard: int = -1) -> None:
        self.balance += amount
        self.shard_portions[shard] = self.shard_portions.get(shard, 0) + amount


class NonceTracker:
    def __init__(self, strict: bool = False):
        self.strict = strict
        self.used: dict[str, set[int]] = {}
        self.last_global: dict[str, int] = {}
        self.last_per_lane: dict[tuple[str, int], int] = {}
        self.journal = None

    def try_accept(self, sender: str, nonce: int, lane: int) -> bool:
        used = self.used.get(sender)
        had_entry = used is not None
        if had_entry and nonce in used:
            return False  # replay
        slot = (sender, lane)
        last_global = self.last_global.get(sender)
        last_lane = self.last_per_lane.get(slot)
        if self.strict:
            accept = nonce == (last_global or 0) + 1
        else:
            accept = nonce > (last_lane or 0)
        if had_entry and not accept:
            return False
        if self.journal is not None:
            self.journal.record_nonce(
                self, slot, had_entry, (nonce,) if accept else (),
                last_global, last_lane)
        if not had_entry:
            used = self.used[sender] = set()
        if not accept:
            return False
        used.add(nonce)
        if last_global is None or nonce > last_global:
            self.last_global[sender] = nonce
        self.last_per_lane[slot] = nonce
        return True


def _lane_order(lanes) -> list[int]:
    return sorted(lanes, key=lambda lane: (lane < 0, lane))


def ref_account_columns(accounts) -> dict:
    accounts = list(accounts)
    n = len(accounts)
    address, balance, portions = [None] * n, [None] * n, {}
    for i, account in enumerate(accounts):
        address[i] = account.address
        balance[i] = account.balance
        for lane, amount in account.shard_portions.items():
            column = portions.get(lane)
            if column is None:
                column = portions[lane] = [None] * n
            column[i] = amount
    return {
        "address": address,
        "balance": balance,
        "portions": {str(lane): portions[lane]
                     for lane in _lane_order(portions)},
    }


def _runs(nonces: set[int]) -> list[list[int]]:
    if not nonces:
        return []
    first, last = min(nonces), max(nonces)
    if last - first + 1 == len(nonces):
        return [[first, last]]
    runs = []
    for nonce in sorted(nonces):
        if runs and nonce == runs[-1][1] + 1:
            runs[-1][1] = nonce
        else:
            runs.append([nonce, nonce])
    return runs


def ref_nonce_columns(nonces, senders, lanes) -> dict:
    senders = list(senders)
    lanes = _lane_order(lanes)
    per_lane = nonces.last_per_lane
    if len(senders) * len(lanes) > len(per_lane):
        columns = {lane: [None] * len(senders) for lane in lanes}
        row_of = {s: i for i, s in enumerate(senders)}.get
        for (s, lane), nonce in per_lane.items():
            row = row_of(s)
            if row is not None:
                columns[lane][row] = nonce
    else:
        lookup = per_lane.get
        columns = {lane: [lookup((s, lane)) for s in senders]
                   for lane in lanes}
    used_of = nonces.used.get
    return {
        "sender": senders,
        "used": [None if (used := used_of(s)) is None else _runs(used)
                 for s in senders],
        "last_global": list(map(nonces.last_global.get, senders)),
        "last_lane": {str(lane): columns[lane] for lane in lanes},
    }


def ref_base_nonce_columns(nonces) -> dict:
    """All of every table, whichever of them names a sender or a lane."""
    lane_senders, lanes = (zip(*nonces.last_per_lane)
                           if nonces.last_per_lane else ((), ()))
    return ref_nonce_columns(
        nonces, dict.fromkeys((*nonces.used, *nonces.last_global,
                               *lane_senders)), set(lanes))


# -- the machine ----------------------------------------------------------------

ADDRESSES = ["0x" + f"{0xa11ce000 + i:040x}" for i in range(4)]
WHO = st.integers(0, len(ADDRESSES) - 1)
LANE = st.integers(0, 99)     # folded onto the network's lanes
NONCE = st.integers(0, 10)


class UserRows(RuleBasedStateMachine):

    @initialize(n_shards=st.integers(2, 5), strict=st.booleans())
    def start(self, n_shards, strict):
        self.n = n_shards
        self.net = Network(n_shards, NetworkConfig(strict_nonces=strict))
        self.accounts: dict[str, Account] = {}
        self.nonces = NonceTracker(strict=strict)
        # While an attempt is open: the reference books and the
        # network's published tables as they were when it opened.
        self.at_open = self.published = None

    def lane(self, draw: int) -> int:
        return draw % (self.n + 1) - 1      # -1 is the DS committee

    def ref_account(self, address: str, balance: int = 0) -> Account:
        account = self.accounts.get(address)
        if account is None:
            account = self.accounts[address] = Account(address, balance)
            account.split_across(
                self.n, self.net.dispatcher.home_shard(address))
        return account

    # -- accounts --------------------------------------------------------

    @rule(who=WHO, balance=st.integers(0, 10**13))
    def create(self, who, balance):
        address = ADDRESSES[who]
        self.net.create_account(address, balance)
        self.accounts[address] = Account(address, balance)
        self.accounts[address].split_across(
            self.n, self.net.dispatcher.home_shard(address))

    @rule(who=WHO, lane=LANE, amount=st.integers(0, 10**13))
    def charge(self, who, lane, amount):
        address, lane = ADDRESSES[who], self.lane(lane)
        assert self.net._charge(address, lane, amount) == \
            self.ref_account(address).charge(lane, amount)

    @rule(who=WHO, lane=LANE, amount=st.integers(0, 10**6))
    def credit(self, who, lane, amount):
        address, lane = ADDRESSES[who], self.lane(lane)
        self.net._credit(address, lane, amount)
        self.ref_account(address).credit(amount, lane)

    # -- nonces ----------------------------------------------------------

    @rule(who=WHO, nonce=NONCE, lane=LANE)
    def try_accept(self, who, nonce, lane):
        sender, lane = ADDRESSES[who], self.lane(lane)
        assert self.net.nonces.try_accept(sender, nonce, lane) == \
            self.nonces.try_accept(sender, nonce, lane)

    # -- the epoch attempt ------------------------------------------------

    @precondition(lambda self: self.net.attempt is None)
    @rule()
    def open(self):
        net = self.net
        self.published = (dict(net.accounts),
                          copy.deepcopy(net.nonces.records),
                          {sender: row[-1] for sender, row
                           in net.nonces.records.items()})
        self.at_open = copy.deepcopy((self.accounts, self.nonces))
        NetworkCheckpoint.take(net)

    @precondition(lambda self: self.net.attempt is not None)
    @rule()
    def restore(self):
        """A view change: the attempt starts over."""
        self.net.attempt.restore(self.net)
        self.accounts, self.nonces = copy.deepcopy(self.at_open)

    @precondition(lambda self: self.net.attempt is not None)
    @rule()
    def commit(self):
        self.net.attempt.commit(self.net, {})
        self.at_open = self.published = None

    # -- the comparison --------------------------------------------------

    def view(self):
        """The network's rows as the open attempt sees them — what its
        commit would publish — or the network itself."""
        net = self.net
        if net.attempt is None:
            return net
        accounts = dict(net.accounts)
        accounts.update(net.attempt.accounts)
        records = dict(net.nonces.records)
        records.update(net.attempt.nonces)
        return SimpleNamespace(
            n_shards=net.n_shards, accounts=accounts,
            nonces=SimpleNamespace(records=records, blank=net.nonces.blank))

    @invariant()
    def books_agree(self):
        net, view = self.net, self.view()
        assert set(view.accounts) == set(self.accounts)
        assert _account_columns(view, view.accounts) == \
            ref_account_columns(self.accounts.values())
        assert _nonce_columns(view, view.nonces.records, False) == \
            ref_base_nonce_columns(self.nonces)
        senders = sorted(ADDRESSES[:3])     # a delta: named senders, all lanes
        assert _nonce_columns(view, senders, True) == ref_nonce_columns(
            self.nonces, senders, (*range(self.n), -1))
        published = self.accounts
        if self.published is not None:
            # Nothing the attempt did is published: not a row, and not
            # a gap set, the very objects.
            accounts, records, gaps = self.published
            assert net.accounts == accounts and net.nonces.records == records
            assert all(net.nonces.records[sender][-1] is gap
                       for sender, gap in gaps.items())
            published = self.at_open[0]
        for address, account in published.items():
            assert net.balance(address) == account.balance
            for lane in (*range(self.n), -1):
                assert net.balance(address, lane) == \
                    account.shard_portions.get(lane)

    @invariant()
    def rows_are_compact(self):
        """Exact tuples; a gap set only while a gap is open, holding
        only nonces past ``run + 1``."""
        view = self.view()
        for row in (*view.accounts.values(), *view.nonces.records.values()):
            assert row.__class__ is tuple
        for row in view.nonces.records.values():
            run, gaps = row[-2:]
            assert gaps is None or gaps and min(gaps) > (run or 0) + 1


TestUserRows = UserRows.TestCase
TestUserRows.settings = settings(max_examples=300, stateful_step_count=40,
                                 deadline=None)


def test_rollback_restores_a_partly_filled_gap_set():
    """A published gap set that an attempt partly consumes (the run
    grows over 3 and 4, 6 stays) and then fills is never touched: the
    attempt's first change copies it, and a restore finds it whole."""
    net = Network(2)
    sender, nonces = ADDRESSES[0], net.nonces
    for nonce in (3, 4, 6):
        assert nonces.try_accept(sender, nonce, 0)
    before = copy.deepcopy(nonces.records)
    gaps = nonces.records[sender][-1]
    checkpoint = NetworkCheckpoint.take(net)
    assert nonces.try_accept(sender, 1, 1) and nonces.try_accept(sender, 2, -1)
    assert checkpoint.nonces[sender][-2:] == (4, {6})
    assert checkpoint.nonces[sender][-1] is not gaps
    assert nonces.try_accept(sender, 5, 1)         # every gap filled
    assert checkpoint.nonces[sender][-2:] == (6, None)
    assert nonces.records == before and nonces.records[sender][-1] is gaps
    checkpoint.restore(net)
    checkpoint.close(net)
    assert nonces.records == before and nonces.records[sender][-1] is gaps


# -- the tables stay where the collector left them -----------------------------

def _young_tables_after_an_epoch(net, txns) -> tuple[list, list]:
    """Collect and freeze what is alive, run one epoch with the
    collector off (nothing leaves generation 0 by a pass), and say of
    each table whether it is tracked and whether it is in generation 0."""
    import gc
    gc.collect()
    gc.freeze()
    enabled = gc.isenabled()
    gc.disable()
    try:
        block = net.process_epoch(txns)
        assert block.n_committed == len(txns)
        young = gc.get_objects(0)
        tables = (net.accounts, net.nonces.records)
        return ([gc.is_tracked(table) for table in tables],
                [any(obj is table for obj in young) for table in tables])
    finally:
        if enabled:
            gc.enable()
        gc.unfreeze()


def test_the_tables_stay_out_of_generation_zero(tmp_path):
    """A full collection untracks an exact dict of untracked rows, and
    the first fresh row stored after it tracks the dict again into
    generation 0, whose every pass then walks all its rows.  The
    accounts and nonce tables are a ``dict`` subclass the collector
    never untracks, so a commit's fresh rows leave them where they
    were — on a fresh network and on one resumed from a restore point."""
    from repro.chain.transaction import payment
    users = [f"0x{i + 0x5000:040x}" for i in range(200)]
    net = Network(4, data_dir=str(tmp_path), snapshot_every=1)
    for user in users:
        net.create_account(user)

    def epoch(nonce):
        return [payment(a, b, 3, nonce=nonce)
                for a, b in zip(users[::2], users[1::2])]
    assert _young_tables_after_an_epoch(net, epoch(1)) == (
        [True, True], [False, False])
    net.close()
    resumed = Network.resume(str(tmp_path))
    assert resumed.balance(users[1]) == net.balance(users[1])
    assert _young_tables_after_an_epoch(resumed, epoch(2)) == (
        [True, True], [False, False])
    resumed.close()
