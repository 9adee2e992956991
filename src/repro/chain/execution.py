"""What a shard (or the DS committee) runs between dispatch and the
merge: :class:`Execution`, the part of :class:`~repro.chain.network.
Network` that executes a lane's queue in order — each transaction
checks its nonce, pays gas from the sender's portion for that lane
(Sec. 4.2.2) and runs its call chain atomically — and the account
moves they make."""

from __future__ import annotations

import time
from collections import defaultdict

from ..core.joins import JoinKind
from ..scilla.errors import ExecError
from ..scilla.interpreter import TxContext
from ..scilla.state import ContractState
from ..scilla.values import ByStrVal, IntVal
from ..scilla import types as ty
from .blocks import MicroBlock, Receipt
from .dispatch import DS, _pad
from .transaction import Transaction, charged, credited, funded_row

PAYMENT_GAS = 50
_MAX_AMOUNT = ty.int_bounds(ty.UINT128)[1]
FUNDING = 10**12    # what a created account holds unless told otherwise
MAX_CALL_DEPTH = 3


class Execution:
    """Lanes, transactions and account moves of a network."""

    # -- accounts -------------------------------------------------------------

    def _create_account(self, address: str, balance: int) -> tuple:
        address = _pad(address)
        self.journal.record_row(self.accounts, address,
                                self.accounts.get(address))
        row = self.accounts[address] = funded_row(
            balance, self.n_shards, self.dispatcher.home_shard(address))
        return row

    def _account_at(self, address: str) -> tuple:
        """The account row at a canonical (already padded) address."""
        row = self.accounts.get(address)
        if row is None:
            # Lazily-created zero-balance accounts are a deterministic
            # consequence of execution; they are not WAL inputs.
            return self._create_account(address, balance=0)
        # Every account move goes through here (shard lanes, DS lane,
        # payouts): the handout is where the journal takes the row's
        # pre-image for checkpoint rollback.
        self.journal.record_row(self.accounts, address, row)
        return row

    def _charge(self, address: str, lane: int, amount: int) -> bool:
        """Take ``amount`` from the account's ``lane`` portion; False,
        and nothing moved, if that portion or the balance is short."""
        row = charged(self._account_at(address), lane, amount)
        if row is not None:
            self.accounts[address] = row
        return row is not None

    def _credit(self, address: str, lane: int, amount: int) -> None:
        self.accounts[address] = credited(self._account_at(address), lane,
                                          amount)

    # -- lanes ----------------------------------------------------------------

    def _run_lane(self, lane: int, queue: list[Transaction],
                  gas_limit: int, use_global_state: bool = False,
                  pre_states: dict | None = None):
        """Execute a queue sequentially, as one shard (or the DS) does.
        What is left once the lane's gas is spent is returned deferred."""
        mb = MicroBlock(shard=lane, epoch=self.epoch)
        local_states: dict[str, ContractState] = {}
        touched = defaultdict(list)   # contract -> successful write logs

        def state_for(addr: str) -> ContractState:
            if use_global_state:
                state = self.contracts[addr].state
                if pre_states is not None and addr not in pre_states:
                    # Written in place from here on: pin the pre-image.
                    pre_states[addr] = state.fork()
                return state
            state = local_states.get(addr)
            if state is None:
                state = local_states[addr] = self.contracts[addr].state.fork()
            return state

        t0 = time.perf_counter_ns() if self.metrics.enabled else 0
        deferred: list[Transaction] = []
        for position, tx in enumerate(queue):
            if mb.gas_used >= gas_limit:
                deferred = queue[position:]
                break
            receipt = self._execute(tx, lane, state_for, touched)
            mb.receipts.append(receipt)
            mb.gas_used += receipt.gas_used
        # The lane.* meters: once per finished lane, not per receipt.
        meters, n, ok = self._meters, len(mb.receipts), mb.n_committed
        meters.lane_tx_executed.inc(n)
        meters.lane_tx_ok.inc(ok)
        meters.lane_tx_failed.inc(n - ok)
        meters.lane_gas.inc(mb.gas_used)
        if self.metrics.enabled:
            meters.lane_gas_per_tx.observe_many(
                [receipt.gas_used for receipt in mb.receipts])
            meters.lane_exec_ns.observe(time.perf_counter_ns() - t0)
        return mb, local_states, touched, deferred

    def _execute(self, tx: Transaction, lane: int, state_for,
                 touched: defaultdict) -> Receipt:
        """Run one transaction; success appends its logs to ``touched``."""
        sender_addr, to_addr = tx.sender, tx.to
        self._account_at(sender_addr)
        if not self.nonces.try_accept(sender_addr, tx.nonce, lane):
            return Receipt(tx, False, 0, lane, error="bad nonce")
        if not 0 <= tx.amount <= _MAX_AMOUNT:
            # A Uint128, as Zilliqa's _amount: a negative one would
            # move funds from the recipient to the sender.
            return Receipt(tx, False, 0, lane, error="invalid amount")

        if tx.transition is None:
            if to_addr in self.contracts:
                # Mirrors the dispatcher's "payment to contract"
                # routing: the funds stay with the sender instead of
                # landing in a shadow user account under the contract's
                # address.
                return Receipt(tx, False, PAYMENT_GAS, lane,
                               error="payment to contract address")
            fee = PAYMENT_GAS * tx.gas_price
            if not self._charge(sender_addr, lane, tx.amount + fee):
                return Receipt(tx, False, PAYMENT_GAS, lane,
                               error="insufficient balance")
            self._credit(to_addr, lane, tx.amount)
            return Receipt(tx, True, PAYMENT_GAS, lane)

        contract = self.contracts.get(to_addr)
        if contract is None:
            return Receipt(tx, False, 0, lane, error="unknown contract")

        chain = _CallChain(self, lane, state_for, tx.gas_limit)
        try:
            chain.invoke(contract, tx.transition, dict(tx.args),
                         ByStrVal(sender_addr, ty.BYSTR20), tx.amount,
                         sender_addr, 0)
        except _ChainFailed as exc:
            chain.rollback()
            self._charge(sender_addr, lane, chain.gas_used * tx.gas_price)
            return Receipt(tx, False, chain.gas_used, lane,
                           error=str(exc))

        fee = chain.gas_used * tx.gas_price
        if not self._charge(sender_addr, lane, fee):
            # Gas must be paid even for failed transactions; a sender who
            # cannot pay gets the transaction rejected outright.
            chain.rollback()
            return Receipt(tx, False, chain.gas_used, lane,
                           error="cannot pay gas")

        if self.config.overflow_guard and lane != DS and \
                not chain.within_overflow_budget():
            chain.rollback()
            return Receipt(tx, False, chain.gas_used, lane,
                           error="overflow guard: rerouted")

        for contract, _, log in chain.logs:
            touched[contract.address].append(log)
        return Receipt(tx, True, chain.gas_used, lane, None, chain.events)


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

    __slots__ = ("net", "lane", "state_for", "gas_limit", "gas_used",
                 "events", "logs", "_refunds")

    def __init__(self, net: Execution, lane: int, state_for,
                 gas_limit: int):
        self.net = net
        self.lane = lane
        self.state_for = state_for
        self.gas_limit = gas_limit
        self.gas_used = 0
        self.events: list = []
        # (contract, state, write log) per call, in order; and balance
        # moves to undo on rollback: (state or address, amount to add).
        self.logs: list = []
        self._refunds: list = []

    def invoke(self, contract, transition: str,
               args: dict, caller: ByStrVal, amount: int,
               payer: str | None, depth: int) -> None:
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
        if result.events:
            self.events.extend(result.events)

        accepted = result.accepted
        if accepted:   # funds offered but not accepted stay with the payer
            # The interpreter already credited the contract; that credit
            # must be undone too if the chain later fails.
            self._refunds.append((state, -accepted))
            # Debit the payer (the user for the first hop, the calling
            # contract afterwards).
            if payer is not None:
                if not self.net._charge(payer, self.lane, accepted):
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
