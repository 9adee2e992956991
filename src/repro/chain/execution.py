"""What a shard (or the DS committee) runs between dispatch and the
merge: :class:`Execution`, the part of :class:`~repro.chain.network.
Network` that executes a lane's queue in order — each transaction
checks its nonce, pays gas from the sender's portion for that lane
(Sec. 4.2.2) and runs its call chain atomically — and the account
moves they make."""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from operator import attrgetter

from ..core.joins import JoinKind
from ..scilla.errors import ExecError
from ..scilla.interpreter import TxContext
from ..scilla.state import ContractState
from ..scilla.values import ByStrVal, IntVal
from ..scilla import types as ty
from .blocks import MicroBlock, Receipt
from .dispatch import DS, _pad
from .transaction import (
    Transaction, charged, credited, funded_row,
)

PAYMENT_GAS = 50
# The fee rule of ``Execution``'s docstring, named in every WAL
# ``epoch`` record: a replay refuses an epoch logged under another.
FEE_RULE = "deposit"
_MAX_AMOUNT = ty.int_bounds(ty.UINT128)[1]
FUNDING = 10**12    # what a created account holds unless told otherwise
MAX_CALL_DEPTH = 3
_TO, _TRANSITION = attrgetter("to"), attrgetter("transition")


class Execution:
    """Lanes, transactions and account moves of a network.

    Gas follows Zilliqa's rule, per lane portion (Sec. 4.2.2): a
    transaction whose portion on its lane is below its gas deposit —
    ``gas_limit × gas_price``, ``PAYMENT_GAS × gas_price`` for a
    payment — is refused where its nonce is checked, before the nonce
    is consumed, and charges nothing.  One that gets past that pays
    ``min(gas_used, gas_limit) × gas_price`` from that portion whether
    it succeeds or fails, and the funds a call accepts may not dip into
    the deposit; so every receipt with ``gas_used > 0`` took
    ``gas_used × gas_price``, and no receipt reports gas it could not
    pay.  A negative ``gas_limit`` or ``gas_price`` (unsigned in
    Zilliqa) is refused at the same point: its deposit would pay the
    sender, and its receipt's gas would lift the lane's gas limit.
    """

    # -- accounts -------------------------------------------------------------

    def _create_account(self, address: str, balance: int) -> tuple:
        address = _pad(address)
        row = self._account_buffer[address] = funded_row(
            balance, self.n_shards, self.dispatcher.home_shard(address))
        return row

    def _account_at(self, address: str) -> tuple:
        """The account row at a canonical (already padded) address, as
        the open epoch attempt sees it.  Every account move goes through
        here (shard lanes, DS lane, payouts): the first handout copies
        the published row into the attempt's buffer, where every later
        read and write of the attempt finds it."""
        rows = self._account_buffer
        row = rows.get(address)
        if row is None:
            row = self.accounts.get(address)
            if row is None:
                # Lazily-created zero-balance accounts are a
                # deterministic consequence of execution; they are not
                # WAL inputs.
                return self._create_account(address, balance=0)
            rows[address] = row
        return row

    def _charge(self, address: str, lane: int, amount: int,
                keep: int = 0) -> bool:
        """Take ``amount`` from the account's ``lane`` portion; False,
        and nothing moved, if that portion or the balance is short of
        ``amount + keep``."""
        row = charged(self._account_at(address), lane, amount, keep)
        if row is not None:
            self._account_buffer[address] = row
        return row is not None

    def _credit(self, address: str, lane: int, amount: int) -> None:
        self._account_buffer[address] = credited(
            self._account_at(address), lane, amount)

    # -- lanes ----------------------------------------------------------------

    def _run_lane(self, lane: int, queue: list[Transaction],
                  gas_limit: int,
                  local_states: dict[str, ContractState] | None = None):
        """Execute a queue sequentially, as one shard (or the DS) does.
        What is left once the lane's gas is spent is returned deferred.
        Every lane writes forks, never a published state: the states in
        ``local_states`` (the DS lane's: the merge's output), and a fork
        of any other contract its queue reaches.  That fork carries the
        one-key writes the queue's calls make into each map field
        (``writes_per_call`` summed), so a map the lane will write past
        the overlay's fold threshold is copied flat at its first write
        (docs/STATE.md §1).  A sender's ``ByStr20`` value, the
        ``_sender`` of its calls, is built once per lane."""
        mb = MicroBlock(shard=lane, epoch=self.epoch)
        if local_states is None:
            local_states = {}
        touched = defaultdict(list)   # contract -> successful write logs
        writes: dict[str, dict[str, int]] = {}
        contracts = self.contracts
        for (to, transition), calls in Counter(
                zip(map(_TO, queue), map(_TRANSITION, queue))).items():
            contract = contracts.get(to)
            per_call = (contract.writes_per_call.get(transition)
                        if contract is not None else None)
            if per_call:
                into = writes.setdefault(to, {})
                for name, n in per_call.items():
                    into[name] = into.get(name, 0) + n * calls

        def state_for(addr: str) -> ContractState:
            state = local_states.get(addr)
            if state is None:
                state = local_states[addr] = \
                    self.contracts[addr].state.fork(writes.get(addr))
            return state

        t0 = time.perf_counter_ns() if self.metrics.enabled else 0
        deferred: list[Transaction] = []
        receipts, gas = mb.receipts, 0
        callers: dict[str, ByStrVal] = {}
        for position, tx in enumerate(queue):
            if gas >= gas_limit:
                deferred = queue[position:]
                break
            receipt = self._execute(tx, lane, state_for, touched, callers)
            receipts.append(receipt)
            gas += receipt.gas_used
        mb.gas_used = gas
        # The other lane.* meters count once the epoch commits
        # (NetworkMeters.record_lanes).
        if self.metrics.enabled:
            self._meters.lane_exec_ns.observe(time.perf_counter_ns() - t0)
        return mb, local_states, touched, deferred

    def _execute(self, tx: Transaction, lane: int, state_for,
                 touched: defaultdict, callers: dict) -> Receipt:
        """Run one transaction; success appends its logs to ``touched``.
        The sender's row is handed out once, first (into the attempt's
        buffer); every fee charge reads it back from there.  ``callers``
        holds the lane's sender values by address."""
        sender, price = tx.sender, tx.gas_price
        row = self._account_at(sender)
        accounts = self._account_buffer
        if tx.gas_limit < 0 or price < 0:
            return Receipt(tx, False, 0, lane, error="invalid gas")
        payment = tx.transition is None
        deposit = (PAYMENT_GAS if payment else tx.gas_limit) * price
        # ``portion_slot(lane)``, inline.
        if (row[lane + 1 if lane >= 0 else -1] or 0) < deposit \
                or row[0] < deposit:
            return Receipt(tx, False, 0, lane,
                           error="insufficient balance for gas")
        if not self.nonces.try_accept(sender, tx.nonce, lane):
            return Receipt(tx, False, 0, lane, error="bad nonce")
        amount, to_addr = tx.amount, tx.to
        if not 0 <= amount <= _MAX_AMOUNT:
            # A Uint128, as Zilliqa's _amount: a negative one would
            # move funds from the recipient to the sender.
            return Receipt(tx, False, 0, lane, error="invalid amount")

        if payment:
            # The deposit is the fee; nothing has moved the row yet.
            if to_addr in self.contracts:
                # Mirrors the dispatcher's "payment to contract"
                # routing: the funds stay with the sender instead of
                # landing in a shadow user account under the contract's
                # address.
                accounts[sender] = charged(row, lane, deposit)
                return Receipt(tx, False, PAYMENT_GAS, lane,
                               error="payment to contract address")
            moved = charged(row, lane, amount + deposit)
            if moved is None:
                accounts[sender] = charged(row, lane, deposit)
                return Receipt(tx, False, PAYMENT_GAS, lane,
                               error="insufficient balance")
            accounts[sender] = moved
            self._credit(to_addr, lane, amount)
            return Receipt(tx, True, PAYMENT_GAS, lane)

        contract = self.contracts.get(to_addr)
        if contract is None:
            return Receipt(tx, False, 0, lane, error="unknown contract")

        caller = callers.get(sender)
        if caller is None:
            # ``sender`` is canonical since the transaction was built:
            # its ByStr20 needs no validation.
            caller = callers[sender] = tuple.__new__(
                ByStrVal, (sender, ty.BYSTR20))
        chain = _CallChain(self, lane, state_for, tx.gas_limit, deposit)
        try:
            chain.invoke(contract, tx.transition,
                         (tx.arg_names, tx.arg_values), caller, amount,
                         sender, 0)
        except _ChainFailed as exc:
            chain.rollback()
            gas = min(chain.gas_used, tx.gas_limit)
            accounts[sender] = charged(accounts[sender], lane, gas * price)
            return Receipt(tx, False, gas, lane, error=str(exc))

        # Within the gas limit: a run past it fails.
        gas = chain.gas_used
        accounts[sender] = charged(accounts[sender], lane, gas * price)
        if self.config.overflow_guard and lane != DS and \
                not chain.within_overflow_budget():
            chain.rollback()
            return Receipt(tx, False, gas, lane,
                           error="overflow guard: rerouted")

        for contract, _, log in chain.logs:
            touched[contract.address].append(log)
        return Receipt(tx, True, gas, lane, None, tuple(chain.events))


# --------------------------------------------------------------------------
# Chained contract calls (atomic, DS-only beyond the first hop).
# --------------------------------------------------------------------------

class _ChainFailed(Exception):
    """A call in the chain failed; the whole transaction rolls back."""


class _CallChain:
    """Executes a transaction's (possibly multi-contract) call chain.

    Messages sent to user addresses move native tokens; messages sent
    to *contract* addresses invoke the transition named by the tag —
    but only inside the DS committee (the lookup node's single-contract
    check routes such transactions there, Sec. 4.3).  The entire chain
    is atomic: any failure undoes every state write and balance move.
    """

    __slots__ = ("net", "lane", "state_for", "gas_limit", "deposit",
                 "gas_used", "events", "logs", "_refunds")

    def __init__(self, net: Execution, lane: int, state_for,
                 gas_limit: int, deposit: int):
        self.net = net
        self.lane = lane
        self.state_for = state_for
        self.gas_limit = gas_limit
        # What the payer's portion must keep for the fee.
        self.deposit = deposit
        self.gas_used = 0
        # The first hop's event list, adopted; later hops extend it.
        self.events: list | None = None
        # (contract, state, write log) per call, in order; and balance
        # moves to undo on rollback: (state or address, amount to add).
        self.logs: list = []
        self._refunds: list = []

    def invoke(self, contract, transition: str,
               args: dict | tuple, caller: ByStrVal, amount: int,
               payer: str | None, depth: int) -> None:
        """Run one call of the chain; ``args`` as
        :meth:`~repro.scilla.interpreter.Interpreter.run_transition`
        takes them."""
        state = self.state_for(contract.address)
        # (sender, amount, origin, block_number), positionally: keyword
        # calls of a dataclass __init__ cost twice as much.
        ctx = TxContext(caller, amount, None, self.net.epoch)
        try:
            result = contract.interpreter.run_transition(
                state, transition, args, ctx,
                gas_limit=max(self.gas_limit - self.gas_used, 0))
        except ExecError as exc:
            raise _ChainFailed(str(exc)) from exc
        self.gas_used += result.gas_used
        if not result.success:
            raise _ChainFailed(result.error or "transition failed")

        self.logs.append((contract, state, result.write_log))
        if depth == 0:
            self.events = result.events
        elif result.events:
            self.events.extend(result.events)

        accepted = result.accepted
        if accepted:   # funds offered but not accepted stay with the payer
            # The interpreter already credited the contract; that credit
            # must be undone too if the chain later fails.
            self._refunds.append((state, -accepted))
            # Debit the payer (the user for the first hop, the calling
            # contract afterwards).
            if payer is not None:
                if not self.net._charge(payer, self.lane, accepted,
                                        self.deposit):
                    raise _ChainFailed("insufficient balance for transfer")
                self._refunds.append((payer, accepted))
            else:
                caller_state = self.state_for(caller.hex)
                if caller_state.balance < accepted:
                    raise _ChainFailed(
                        "insufficient contract balance for transfer")
                caller_state.balance -= accepted
                self._refunds.append((caller_state, accepted))

        for msg in result.messages:
            recipient = _pad(msg.recipient)
            callee = self.net.contracts.get(recipient)
            if callee is not None:
                if self.lane != DS:
                    raise _ChainFailed(
                        "contract-to-contract call outside the DS committee")
                if depth + 1 >= MAX_CALL_DEPTH:
                    raise _ChainFailed("call depth exceeded")
                self.invoke(callee, msg.tag, dict(msg.params),
                            ByStrVal(contract.address, ty.BYSTR20),
                            msg.amount, None, depth + 1)
            elif msg.amount > 0:
                if state.balance < msg.amount:
                    raise _ChainFailed(
                        "insufficient contract balance for payout")
                state.balance -= msg.amount
                self.net._credit(recipient, self.lane, msg.amount)
                self._refunds += ((state, msg.amount),
                                  (recipient, -msg.amount))

    def rollback(self) -> None:
        for _, state, log in reversed(self.logs):
            log.rollback(state)
        for target, amount in reversed(self._refunds):
            if target.__class__ is str:
                self.net._credit(target, self.lane, amount)
            else:
                target.balance += amount
        self.logs.clear()
        self._refunds.clear()

    def within_overflow_budget(self) -> bool:
        """Sec. 6's conservative per-shard overflow budget for IntMerge
        components: a transaction may move a component at most
        ``(MAX - v) / N`` away from its epoch-start value ``v``."""
        for contract, state, log in self.logs:
            base = self.net.contracts[contract.address].state
            for key in log.writes:
                if contract.joins.get(key[0]) is not JoinKind.INT_MERGE:
                    continue
                new = state.read(key)
                old = base.read(key)
                if not isinstance(new, IntVal):
                    continue
                old_v = old.value if isinstance(old, IntVal) else 0
                _, max_v = ty.int_bounds(new.typ)
                budget = (max_v - old_v) // self.net.n_shards
                if abs(new.value - old_v) > budget:
                    return False
        return True
