"""What a shard (or the DS committee) runs between dispatch and the
merge: :class:`Execution`, the part of :class:`~repro.chain.network.
Network` that executes a lane's queue in order — each transaction
checks its nonce, pays gas from the sender's portion for that lane
(Sec. 4.2.2) and runs its call atomically, every hop of it — and the
account moves they make."""

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
            balance, self.n_shards, self.dispatcher.homes[address])
        return row

    def _account_at(self, address: str) -> tuple:
        """The account row at a canonical (already padded) address, as
        the open epoch attempt sees it.  Every account move goes through
        here (shard lanes, DS lane, payouts; ``_execute`` does its two
        lookups inline for a sender's existing row): the first handout
        copies the published row into the attempt's buffer, where every
        later read and write of the attempt finds it."""
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

        t0 = time.perf_counter_ns() if self.metrics.enabled else 0
        deferred: list[Transaction] = []
        receipts, gas = mb.receipts, 0
        callers: dict[str, ByStrVal] = {}
        for position, tx in enumerate(queue):
            if gas >= gas_limit:
                deferred = queue[position:]
                break
            receipt = self._execute(tx, lane, local_states, writes, touched,
                                    callers)
            receipts.append(receipt)
            gas += receipt.gas_used
        mb.gas_used = gas
        # The other lane.* meters count once the epoch commits
        # (NetworkMeters.record_lanes).
        if self.metrics.enabled:
            self._meters.lane_exec_ns.observe(time.perf_counter_ns() - t0)
        return mb, local_states, touched, deferred

    def _execute(self, tx: Transaction, lane: int,
                 forks: dict[str, ContractState], writes: dict,
                 touched: defaultdict, callers: dict) -> Receipt:
        """Run one transaction; success appends its logs to ``touched``.
        The sender's row is handed out once, first (into the attempt's
        buffer); every fee charge reads it back from there.  ``forks``
        are the lane's contract states by address: a contract's first
        call forks it, sized by its ``writes`` (``_run_lane``).
        ``callers`` holds the lane's sender values by address.

        The first hop runs here, on every lane: the fork, then the
        transition, then the post-hop work every hop shares
        (:meth:`_settle`), which on a shard lane only moves funds.  The
        common path makes no other call: the sender's row (unless the
        account is new), a gap-free nonce run that grows by one, a first
        nonce included (what :meth:`NonceTracker.try_accept` does in
        that case) and the fee
        are handled here, and ``_settle`` runs only when the hop
        accepted funds, a message carries an amount or names a
        contract, or the lane is the DS committee's."""
        sender, price = tx.sender, tx.gas_price
        accounts = self._account_buffer
        row = accounts.get(sender)
        if row is None:     # ``_account_at``, inline while the row exists
            row = self.accounts.get(sender)
            if row is None:
                row = self._account_at(sender)
            else:
                accounts[sender] = row
        if tx.gas_limit < 0 or price < 0:
            return Receipt(tx, False, 0, lane, error="invalid gas")
        payment = tx.transition is None
        deposit = (PAYMENT_GAS if payment else tx.gas_limit) * price
        slot = lane + 1 if lane >= 0 else -1     # portion_slot(lane)
        if (row[slot] or 0) < deposit or row[0] < deposit:
            return Receipt(tx, False, 0, lane,
                           error="insufficient balance for gas")
        nonces, nonce = self.nonces, tx.nonce
        record = (nonces.buffer.get(sender) or nonces.records.get(sender)
                  or nonces.blank)
        floor = lane + 1 if lane >= 0 else -3   # the lane's nonce floor
        if record[-1] is None and nonce == record[-2] + 1 and \
                nonce > (record[0] or 0) and \
                nonce > (record[floor] or 0) and not nonces.strict:
            # What ``try_accept`` does when a sender's record (buffered,
            # published, or the blank one of a sender never seen) has no
            # gaps and its run grows by one, past every nonce it holds.
            new = list(record)
            new[0] = new[floor] = new[-2] = nonce
            nonces.buffer[sender] = tuple(new)
        elif not nonces.try_accept(sender, nonce, lane):
            return Receipt(tx, False, 0, lane, error="bad nonce")
        amount, to_addr = tx.amount, tx.to
        if not 0 <= amount <= _MAX_AMOUNT:
            # A Uint128, as Zilliqa's _amount: a negative one would
            # move funds from the recipient to the sender.
            return Receipt(tx, False, 0, lane, error="invalid amount")

        contracts = self.contracts
        if payment:
            # The deposit is the fee; nothing has moved the row yet.
            if to_addr in contracts:
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

        contract = contracts.get(to_addr)
        if contract is None:
            return Receipt(tx, False, 0, lane, error="unknown contract")

        caller = callers.get(sender)
        if caller is None:
            # ``sender`` is canonical since the transaction was built:
            # its ByStr20 needs no validation.
            caller = callers[sender] = tuple.__new__(
                ByStrVal, (sender, ty.BYSTR20))
        state = forks.get(to_addr)
        if state is None:
            state = forks[to_addr] = contract.state.fork(writes.get(to_addr))
        try:
            run = contract.interpreter.run_transition(
                state, tx.transition, (tx.arg_names, tx.arg_values),
                # (sender, amount, origin, block_number, timestamp,
                # chain_id), the last two TxContext's defaults.
                tuple.__new__(TxContext,
                              (caller, amount, None, self.epoch, 0, 1)),
                tx.gas_limit)
        except ExecError as exc:
            # No such transition, or not its parameters: nothing ran.
            return Receipt(tx, False, 0, lane, error=str(exc))

        undo = error = None
        if not run.success:
            error = run.error or "transition failed"
        else:
            settle = run.accepted or lane == DS
            if not settle:
                # What ``_settle`` does with a shard lane's message to a
                # user that carries no amount: nothing.  A recipient
                # already canonical is looked up as it is.
                for msg in run.messages:
                    r = msg.recipient
                    if msg.amount or (
                            r if len(r) == 42 and r[:2] == "0x"
                            and r.islower() else _pad(r)) in contracts:
                        settle = True
                        break
            if settle:
                try:
                    undo = self._settle(run, run, contract, state, sender,
                                        lane, deposit, forks, writes, 0,
                                        None)
                except _ChainFailed as exc:
                    error, undo = exc.args
            if error is None and self.config.overflow_guard and \
                    lane != DS and not self._within_overflow_budget(
                        contract, state, run.write_log):
                error = "overflow guard: rerouted"
            if error is not None:
                self._roll_back(state, run.write_log, undo, lane)
        gas = run.gas_used
        if gas > tx.gas_limit:  # a run stopped past its limit pays that
            gas = tx.gas_limit
        # ``charged(row, lane, gas * price)``, inline: the portion still
        # holds the deposit, which covers the fee.
        fee, row = gas * price, accounts[sender]
        new = list(row)
        new[0] -= fee
        new[slot] = (row[slot] or 0) - fee
        accounts[sender] = tuple(new)
        if error is not None:
            return Receipt(tx, False, gas, lane, error=error)

        touched[to_addr].append(run.write_log)
        if undo is not None:
            for entry in undo:
                if len(entry) == 3:     # a later hop's writes
                    touched[entry[0].address].append(entry[2])
        return tuple.__new__(
            Receipt, (tx, True, gas, lane, None, tuple(run.events)))

    # -- hops -----------------------------------------------------------------
    # A later hop is a message a contract sends to another contract.
    # Only the DS committee follows one: the lookup node's
    # single-contract check routes every transaction that may send one
    # there (Sec. 4.3).  A transaction's hops are atomic.

    def _settle(self, top, run, contract, state: ContractState, payer,
                lane: int, deposit: int, forks: dict, writes: dict,
                depth: int, undo: list | None) -> list | None:
        """The work after a hop, the same for the first and every later
        one.  The funds ``run`` accepted (already credited to
        ``state``) are taken from ``payer`` — the sender's address,
        whose lane portion keeps the gas ``deposit``, for the first
        hop; the calling contract's state after that.  Then each
        message ``run`` sent is paid out to a user, or followed into
        the contract it names as the next hop, on the DS lane only.
        ``top`` is the first hop's run: a later hop adds its gas and
        events to it.

        Returns ``undo``, the transaction's journal of what to undo
        besides the first hop's writes, grown by this hop:
        ``(address, amount)`` credits a user's lane portion back,
        ``(state, amount)`` adds to a contract's balance and
        ``(contract, state, log)`` is a later hop's writes; None while
        it is empty.  A failure raises :class:`_ChainFailed`, which
        carries the journal."""
        accepted = run.accepted
        if accepted:   # funds offered but not accepted stay with the payer
            if undo is None:
                undo = []
            undo.append((state, -accepted))
            if payer.__class__ is str:
                if not self._charge(payer, lane, accepted, deposit):
                    raise _ChainFailed("insufficient balance for transfer",
                                       undo)
            elif payer.balance < accepted:
                raise _ChainFailed(
                    "insufficient contract balance for transfer", undo)
            else:
                payer.balance -= accepted
            undo.append((payer, accepted))

        for msg in run.messages:
            recipient = _pad(msg.recipient)
            callee = self.contracts.get(recipient)
            if callee is None:
                if msg.amount > 0:
                    if state.balance < msg.amount:
                        raise _ChainFailed(
                            "insufficient contract balance for payout", undo)
                    state.balance -= msg.amount
                    self._credit(recipient, lane, msg.amount)
                    if undo is None:
                        undo = []
                    undo += ((state, msg.amount), (recipient, -msg.amount))
                continue
            if lane != DS:
                raise _ChainFailed(
                    "contract-to-contract call outside the DS committee",
                    undo)
            if depth + 1 >= MAX_CALL_DEPTH:
                raise _ChainFailed("call depth exceeded", undo)
            callee_state = forks.get(recipient)
            if callee_state is None:
                callee_state = forks[recipient] = \
                    callee.state.fork(writes.get(recipient))
            try:
                hop = callee.interpreter.run_transition(
                    callee_state, msg.tag, dict(msg.params),
                    TxContext(ByStrVal(contract.address, ty.BYSTR20),
                              msg.amount, None, self.epoch),
                    max(top.gas_limit - top.gas_used, 0))
            except ExecError as exc:
                raise _ChainFailed(str(exc), undo) from exc
            top.gas_used += hop.gas_used
            if not hop.success:
                raise _ChainFailed(hop.error or "transition failed", undo)
            top.events.extend(hop.events)
            if undo is None:
                undo = []
            undo.append((callee, callee_state, hop.write_log))
            undo = self._settle(top, hop, callee, callee_state, state, lane,
                                deposit, forks, writes, depth + 1, undo)
        return undo

    def _roll_back(self, state: ContractState, log, undo: list | None,
                   lane: int) -> None:
        """Undo a transaction whose first hop wrote ``log`` into
        ``state``: its journal, newest entry first, then that hop."""
        for entry in reversed(undo or ()):
            if len(entry) == 3:
                entry[2].rollback(entry[1])
            elif entry[0].__class__ is str:
                self._credit(entry[0], lane, entry[1])
            else:
                entry[0].balance += entry[1]
        log.rollback(state)

    def _within_overflow_budget(self, contract, state: ContractState,
                                log) -> bool:
        """Sec. 6's conservative per-shard overflow budget for IntMerge
        components: a transaction may move a component at most
        ``(MAX - v) / N`` away from its epoch-start value ``v``.  Only
        a shard lane checks it, so ``log`` is its transaction's one
        hop."""
        base = contract.state
        for key in log.writes:
            if contract.joins.get(key[0]) is not JoinKind.INT_MERGE:
                continue
            new = state.read(key)
            old = base.read(key)
            if not isinstance(new, IntVal):
                continue
            old_v = old.value if isinstance(old, IntVal) else 0
            _, max_v = ty.int_bounds(new.typ)
            budget = (max_v - old_v) // self.n_shards
            if abs(new.value - old_v) > budget:
                return False
        return True


class _ChainFailed(Exception):
    """A hop failed: the whole transaction rolls back.  Its args are the
    receipt's error and the journal :meth:`Execution._settle` had
    built."""
