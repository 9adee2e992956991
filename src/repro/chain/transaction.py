"""Transactions, accounts and nonce tracking.

Implements the account-based model of Sec. 4 with the paper's two
revisions: *relaxed nonces* (Sec. 4.2.1 — processing in increasing
order without gap-filling, keeping replay protection) and
*split-balance gas accounting* (Sec. 4.2.2 — a user's balance is
partitioned across shards so gas can be charged without cross-shard
coordination).

A user is two rows, each one exact tuple the collector stops tracking
and a move replaces, never edits (docs/STATE.md, "Per-user rows"):
the account ``(balance, portion_0, …, portion_{n-1}, portion_DS)`` and
the nonce record ``(last_global, floor_0, …, floor_DS, run, gaps)``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ..scilla.values import Value, pad_address

_tx_counter = itertools.count(1)


class Transaction:
    """A signed user transaction.

    ``to`` is a user address (payment) or a contract address (call).
    Contract calls name a ``transition`` and carry typed ``args``,
    ``(name, value)`` pairs, held as two columns: ``arg_names`` and, in
    the same order, ``arg_values`` — one tuple the collector keeps
    tracked per transaction instead of one per pair and the pairs'
    tuple.  ``sender`` and ``to`` are canonical from construction
    (``0x`` + 40 lowercase hex,
    :func:`~repro.scilla.values.pad_address`), so every table keyed by
    an address — mempool queues and nonce floors, accounts, nonce
    records — sees one key per address whatever spelling the
    transaction was written with.  Slotted, no instance dict; the
    mempool, WAL and blocks share one, and nothing assigns to it after
    construction.
    """

    __slots__ = ("sender", "to", "nonce", "amount", "gas_limit",
                 "gas_price", "transition", "arg_names", "arg_values",
                 "tx_id")
    # The constructor's parameters: what ``repr`` shows and a pickle
    # passes back.
    _FIELDS = ("sender", "to", "nonce", "amount", "gas_limit", "gas_price",
               "transition", "args", "tx_id")

    def __init__(self, sender: str, to: str, nonce: int, amount: int = 0,
                 gas_limit: int = 50_000, gas_price: int = 1,
                 transition: str | None = None,
                 args: tuple[tuple[str, Value], ...] = (),
                 tx_id: int | None = None):
        self.sender = pad_address(sender)
        self.to = pad_address(to)
        self.nonce = nonce
        self.amount = amount
        self.gas_limit = gas_limit
        self.gas_price = gas_price
        self.transition = transition
        self.arg_names, self.arg_values = zip(*args) if args else ((), ())
        self.tx_id = next(_tx_counter) if tx_id is None else tx_id

    @property
    def args(self) -> tuple[tuple[str, Value], ...]:
        return tuple(zip(self.arg_names, self.arg_values))

    def _fields(self) -> tuple:
        return (self.sender, self.to, self.nonce, self.amount,
                self.gas_limit, self.gas_price, self.transition,
                self.arg_names, self.arg_values, self.tx_id)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return (Transaction, tuple(getattr(self, name)
                                   for name in self._FIELDS))

    def __repr__(self) -> str:
        return "Transaction(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._FIELDS) + ")"

    @property
    def is_contract_call(self) -> bool:
        return self.transition is not None

    def args_dict(self) -> dict[str, Value]:
        return dict(zip(self.arg_names, self.arg_values))

    def __str__(self) -> str:
        if self.is_contract_call:
            return (f"tx#{self.tx_id} {self.sender}→{self.to}."
                    f"{self.transition} (nonce {self.nonce})")
        return (f"tx#{self.tx_id} {self.sender}→{self.to} "
                f"amount={self.amount} (nonce {self.nonce})")


def call(sender: str, contract: str, transition: str,
         args: dict[str, Value] | None = None, nonce: int = 0,
         amount: int = 0, gas_limit: int = 50_000) -> Transaction:
    """Convenience constructor for a contract-call transaction."""
    return Transaction(
        sender=sender, to=contract, nonce=nonce, amount=amount,
        gas_limit=gas_limit, transition=transition,
        args=(args or {}).items())


def payment(sender: str, to: str, amount: int, nonce: int = 0) -> Transaction:
    """Convenience constructor for a user-to-user payment."""
    return Transaction(sender=sender, to=to, nonce=nonce, amount=amount,
                       gas_limit=1_000)


class Table(dict):
    """A per-user table (``Network.accounts``, ``NonceTracker.records``):
    a dict the collector keeps tracked.  A full collection untracks an
    *exact* dict whose keys and values are all untracked — these, once
    every row is a flat tuple — and the first fresh row stored after it
    tracks the dict again into generation 0, whose next pass then walks
    every row.  A subclass is never untracked, so it stays in the
    generation it reached."""

    __slots__ = ()


# --------------------------------------------------------------------------
# Account rows: (balance, portion_0, …, portion_{n-1}, portion_DS).
# --------------------------------------------------------------------------

def portion_slot(lane: int) -> int:
    """Shard *s*'s portion is at *s* + 1, the DS committee's (-1) last."""
    return lane + 1 if lane >= 0 else -1


@lru_cache(maxsize=1024)
def funded_row(balance: int, n_shards: int, home_shard: int) -> tuple:
    """A new account's row, half the balance (rounded down) on the home
    shard (Sec. 4.2.2); memoised, so accounts funded alike share it."""
    home = balance // 2
    per_other = (balance - home) // (n_shards + 1)  # other shards + DS
    portions = [per_other] * n_shards
    portions[home_shard] = home
    return (balance, *portions,
            balance - home - per_other * (n_shards - 1))


def charged(row: tuple, lane: int, amount: int,
            keep: int = 0) -> tuple | None:
    """``row`` with ``amount`` taken from ``lane``'s portion, or None
    when that portion or the balance is short of ``amount + keep``."""
    i = lane + 1 if lane >= 0 else -1       # portion_slot(lane), inline
    portion = row[i] or 0
    if portion < amount + keep or row[0] < amount + keep:
        return None
    new = list(row)
    new[0] -= amount
    new[i] = portion - amount
    return tuple(new)


def credited(row: tuple, lane: int, amount: int) -> tuple:
    """``row`` with ``amount`` added to the balance and ``lane``'s portion."""
    i = lane + 1 if lane >= 0 else -1       # portion_slot(lane), inline
    new = list(row)
    new[0] += amount
    new[i] = (row[i] or 0) + amount
    return tuple(new)


# --------------------------------------------------------------------------
# Nonce records: (last_global, floor_0, …, floor_DS, run, gaps) — shard
# s's floor at s + 1, the DS committee's (-1) at -3.
# --------------------------------------------------------------------------

def used_runs(record: tuple) -> list[list[int]]:
    """A nonce record's used nonces as ascending ``[first, last]`` runs."""
    run, gaps = record[-2:]
    runs = [[1, run]] if run else []
    for nonce in sorted(gaps or ()):
        if runs and nonce == runs[-1][1] + 1:
            runs[-1][1] = nonce
        else:
            runs.append([nonce, nonce])
    return runs


def run_and_gaps(runs) -> tuple[int, set | None]:
    """The inverse of :func:`used_runs`: ``(run, gaps)`` from ascending
    runs (None: no nonce used)."""
    runs = runs or ()
    run = runs[0][1] if runs and runs[0][0] == 1 else 0
    gaps = {n for first, last in runs if first > run
            for n in range(first, last + 1)}
    return run, gaps or None


class NonceTracker:
    """Replay protection with relaxed ordering (Sec. 4.2.1).

    In relaxed mode a transaction is accepted iff its nonce was never
    used before and is greater than the last nonce *committed in the
    same processing lane* for that sender — increasing order without
    gap-filling, like Paxos ballots.  In strict mode (plain Ethereum/
    Zilliqa semantics, used for the ablation) the nonce must be exactly
    ``last + 1`` globally, so lanes cannot proceed independently.

    ``records[sender]`` is one row: the global high-water mark, one
    floor per lane (``n_shards`` shards, then DS) and the used nonces —
    1 to ``run``, plus the set ``gaps`` of those past ``run + 1``, None
    until the sender skips one (so a contiguous sender's row is flat).

    Accepts write ``buffer``: the open epoch attempt's nonce buffer
    (``NetworkCheckpoint``), read before ``records``, or ``records``
    itself when no attempt is open.  A published gap set is never
    changed by an attempt: its first change to such a sender copies
    the set into the buffered row, once per (sender, attempt), and
    every later change in that attempt is O(1) on the copy.
    """

    def __init__(self, strict: bool = False, n_shards: int = 4):
        self.strict = strict
        self.records: dict[str, tuple] = Table()
        self.buffer = self.records
        self.blank = (None,) * (n_shards + 2) + (0, None)  # no record yet

    def try_accept(self, sender: str, nonce: int, lane: int) -> bool:
        buffer = self.buffer
        old = buffer.get(sender)
        owned = old is not None     # its gap set is this attempt's own
        if old is None:
            old = self.records.get(sender)
        row = self.blank if old is None else old
        run, gaps = row[-2], row[-1]
        if old is not None and (
                nonce <= run or gaps is not None and nonce in gaps):
            return False  # replay, or never acceptable
        i = lane + 1 if lane >= 0 else -3      # the lane's floor
        if self.strict:
            accept = nonce == (row[0] or 0) + 1
        else:
            accept = nonce > (row[i] or 0)
        if not accept:
            if old is None:     # even a rejection leaves a record
                buffer[sender] = row
            return False
        if gaps is not None and not owned:
            gaps = set(gaps)            # the published set stays as it is
        new = list(row)
        if row[0] is None or nonce > row[0]:
            new[0] = nonce
        new[i] = nonce
        if gaps is None and nonce == run + 1:
            new[-2] = nonce             # the common case: the run grows
        elif gaps is not None and nonce != run + 1:
            gaps.add(nonce)             # one more past an open gap
            new[-1] = gaps
        else:
            new[-2], new[-1] = self._use(run, gaps, nonce)
        buffer[sender] = tuple(new)
        return True

    @staticmethod
    def _use(run: int, gaps: set | None, nonce: int):
        """``(run, gaps)`` with ``nonce`` used too.  A gap set is the
        caller's own (``try_accept`` copies a published one) and is
        mutated in place, so a gap-heavy accept is O(1)."""
        if nonce == run + 1:
            run = nonce
            if gaps is not None and run + 1 in gaps:
                first = run + 1
                while run + 1 in gaps:
                    run += 1
                if len(gaps) == run - first + 1:
                    gaps = None     # every gap filled: the set drops
                else:
                    gaps.difference_update(range(first, run + 1))
        elif nonce <= run or gaps is not None and nonce in gaps:
            pass                    # already used
        elif gaps is None:
            gaps = {nonce}
        else:
            gaps.add(nonce)
        return run, gaps
