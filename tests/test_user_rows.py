"""Per-user rows ≡ the objects they replaced.

The reference below is the ``Account`` dataclass, the three-table
``NonceTracker`` and the restore-point column writers the network used
before accounts and nonce records became rows, copied verbatim as the
specification (the reference runs without a journal: it rolls back by
restoring a deep copy taken at each mark, the trivially right answer;
``benchmarks/test_state_engine.py`` times it with today's journal).
A Hypothesis state machine drives a ``Network``'s rows and the
reference through the same random create / charge / credit /
``try_accept`` / ``mark`` / ``rollback_to`` / ``release``
sequences — strict and relaxed nonces, 2–5 shards, repeated nonces,
gaps, several lanes per sender — and after every step compares
balances, portions, accept decisions and the restore point's
``accounts`` / ``nonces`` columns.
"""

import copy
from dataclasses import dataclass, field as dc_field

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.chain.network import Network
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
MARK = st.integers(0, 99)     # folded onto the outstanding marks


class UserRows(RuleBasedStateMachine):

    @initialize(n_shards=st.integers(2, 5), strict=st.booleans())
    def start(self, n_shards, strict):
        self.n = n_shards
        self.net = Network(n_shards, strict_nonces=strict,
                           state_backend="none")
        self.accounts: dict[str, Account] = {}
        self.nonces = NonceTracker(strict=strict)
        # (journal mark, reference books at the mark), oldest first.
        self.marks: list = []

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

    # -- the journal -----------------------------------------------------

    @rule()
    def mark(self):
        self.marks.append((self.net.journal.mark(),
                           copy.deepcopy((self.accounts, self.nonces))))

    @precondition(lambda self: self.marks)
    @rule(which=MARK)
    def rollback_to(self, which):
        """Back to a mark; the marks above it go."""
        which %= len(self.marks)
        mark, books = self.marks[which]
        self.net.journal.rollback_to(mark)
        for newer, _ in reversed(self.marks[which + 1:]):
            self.net.journal.release(newer)
        del self.marks[which + 1:]
        self.accounts, self.nonces = copy.deepcopy(books)

    @precondition(lambda self: self.marks)
    @rule(which=MARK)
    def release(self, which):
        mark, _ = self.marks.pop(which % len(self.marks))
        self.net.journal.release(mark)

    # -- the comparison --------------------------------------------------

    @invariant()
    def books_agree(self):
        net = self.net
        assert set(net.accounts) == set(self.accounts)
        for address, account in self.accounts.items():
            assert net.balance(address) == account.balance
            for lane in (*range(self.n), -1):
                assert net.balance(address, lane) == \
                    account.shard_portions.get(lane)
        assert _account_columns(net, net.accounts) == \
            ref_account_columns(self.accounts.values())
        assert _nonce_columns(net, net.nonces.records, False) == \
            ref_base_nonce_columns(self.nonces)
        senders = sorted(ADDRESSES[:3])     # a delta: named senders, all lanes
        assert _nonce_columns(net, senders, True) == ref_nonce_columns(
            self.nonces, senders, (*range(self.n), -1))
        if not self.marks:
            assert net.journal.depth == 0

    @invariant()
    def rows_are_compact(self):
        """Exact tuples; a gap set only while a gap is open, holding
        only nonces past ``run + 1``."""
        for row in (*self.net.accounts.values(),
                    *self.net.nonces.records.values()):
            assert row.__class__ is tuple
        for row in self.net.nonces.records.values():
            run, gaps = row[-2:]
            assert gaps is None or gaps and min(gaps) > (run or 0) + 1


TestUserRows = UserRows.TestCase
TestUserRows.settings = settings(max_examples=300, stateful_step_count=40,
                                 deadline=None)


def test_rollback_restores_a_partly_filled_gap_set():
    """A gap set that exists at the mark and is partly consumed after it
    (the run grows over 3 and 4, 6 stays) comes back whole."""
    net = Network(2, state_backend="none")
    sender, nonces = ADDRESSES[0], net.nonces
    for nonce in (3, 4, 6):
        assert nonces.try_accept(sender, nonce, 0)
    before = copy.deepcopy(nonces.records)
    mark = net.journal.mark()
    assert nonces.try_accept(sender, 1, 1) and nonces.try_accept(sender, 2, -1)
    assert nonces.records[sender][-2:] == (4, {6})
    assert nonces.try_accept(sender, 5, 1)         # every gap filled
    assert nonces.records[sender][-2:] == (6, None)
    net.journal.rollback_to(mark)
    assert nonces.records == before
    net.journal.release(mark)
