"""Transactions, accounts and nonce tracking.

Implements the account-based model of Sec. 4 with the paper's two
revisions: *relaxed nonces* (Sec. 4.2.1 — processing in increasing
order without gap-filling, keeping replay protection) and
*split-balance gas accounting* (Sec. 4.2.2 — a user's balance is
partitioned across shards so gas can be charged without cross-shard
coordination).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from ..scilla.values import Value, pad_address

_tx_counter = itertools.count(1)


@dataclass(frozen=True, init=False)
class Transaction:
    """A signed user transaction.

    ``to`` is a user address (payment) or a contract address (call).
    Contract calls name a ``transition`` and carry typed ``args``.
    ``sender`` and ``to`` are canonical from construction (``0x`` + 40
    lowercase hex, :func:`~repro.scilla.values.pad_address`), so every
    table keyed by an address — mempool queues and nonce floors,
    accounts, nonce records — sees one key per address whatever
    spelling the transaction was written with.
    """

    sender: str
    to: str
    nonce: int
    amount: int = 0
    gas_limit: int = 50_000
    gas_price: int = 1
    transition: str | None = None
    args: tuple[tuple[str, Value], ...] = ()
    tx_id: int      # the next of a process-wide counter unless given

    def __init__(self, sender: str, to: str, nonce: int, amount: int = 0,
                 gas_limit: int = 50_000, gas_price: int = 1,
                 transition: str | None = None,
                 args: tuple[tuple[str, Value], ...] = (),
                 tx_id: int | None = None):
        # One instance dict, set once: a frozen dataclass's own __init__
        # pays an object.__setattr__ per field, more than the two
        # canonical addresses cost.
        object.__setattr__(self, "__dict__", {
            "sender": pad_address(sender), "to": pad_address(to),
            "nonce": nonce, "amount": amount, "gas_limit": gas_limit,
            "gas_price": gas_price, "transition": transition,
            "args": args,
            "tx_id": next(_tx_counter) if tx_id is None else tx_id})

    @property
    def is_contract_call(self) -> bool:
        return self.transition is not None

    def args_dict(self) -> dict[str, Value]:
        return dict(self.args)

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
        args=tuple((args or {}).items()))


def payment(sender: str, to: str, amount: int, nonce: int = 0) -> Transaction:
    """Convenience constructor for a user-to-user payment."""
    return Transaction(sender=sender, to=to, nonce=nonce, amount=amount,
                       gas_limit=1_000)


@dataclass
class Account:
    """A user account with split-balance gas accounting.

    The total balance is partitioned into per-shard portions plus a DS
    portion; the portion for the shard handling the user's payments
    (the home shard) is larger, mirroring Sec. 4.2.2.
    """

    address: str
    balance: int = 0
    shard_portions: dict[int, int] = dc_field(default_factory=dict)

    def split_across(self, n_shards: int, home_shard: int,
                     home_fraction: float = 0.5) -> None:
        """(Re)partition the balance across ``n_shards`` + DS."""
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
        """Charge from the given shard's portion; False if insufficient."""
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
    """Replay protection with relaxed ordering (Sec. 4.2.1).

    In relaxed mode a transaction is accepted iff its nonce was never
    used before and is greater than the last nonce *committed in the
    same processing lane* for that sender — increasing order without
    gap-filling, like Paxos ballots.  In strict mode (plain Ethereum/
    Zilliqa semantics, used for the ablation) the nonce must be exactly
    ``last + 1`` globally, so lanes cannot proceed independently.
    """

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.used: dict[str, set[int]] = {}
        self.last_global: dict[str, int] = {}
        self.last_per_lane: dict[tuple[str, int], int] = {}
        # The owning network's StateJournal, if any: every move below
        # reports its pre-image there, so a checkpoint restore rolls
        # nonces back with everything else.
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
            # Even a rejection leaves the sender an (empty) record.
            used = self.used[sender] = set()
        if not accept:
            return False
        used.add(nonce)
        if last_global is None or nonce > last_global:
            self.last_global[sender] = nonce
        self.last_per_lane[slot] = nonce
        return True

    def absorb(self, sender: str, lane: int, added,
               last_global: int | None,
               last_lane: int | None) -> None:
        """Fold in what an isolated lane did to ``sender``'s record:
        the nonces it accepted — new here, or the epoch would not have
        run in parallel lanes — and where it left the high-water marks
        (``LaneResult.apply_effects``)."""
        used = self.used.get(sender)
        slot = (sender, lane)
        if self.journal is not None:
            self.journal.record_nonce(
                self, slot, used is not None, tuple(added),
                self.last_global.get(sender), self.last_per_lane.get(slot))
        if added:
            if used is None:
                used = self.used[sender] = set()
            used.update(added)
        if last_global is not None and \
                last_global > self.last_global.get(sender, 0):
            self.last_global[sender] = last_global
        if last_lane is not None:
            self.last_per_lane[slot] = last_lane

    def revert(self, sender: str, lane: int, had_entry: bool,
               added: list, last_global: int | None,
               last_lane: int | None) -> None:
        """Undo one recorded move (``StateJournal.rollback_to``)."""
        if not had_entry:
            self.used.pop(sender, None)
        elif added and sender in self.used:
            self.used[sender].difference_update(added)
        for table, key, old in (
                (self.last_global, sender, last_global),
                (self.last_per_lane, (sender, lane), last_lane)):
            if old is None:
                table.pop(key, None)
            else:
                table[key] = old
