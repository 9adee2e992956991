"""Speculative commutativity-aware intra-shard scheduling.

The epoch barrier leaves the paper's last parallelism on the table:
inside one shard lane, transactions still execute strictly serially
even when their static footprints are disjoint.  This module closes
that gap with an *optimistic* scheduler (ROADMAP item 3):

1. **Lock sets from footprints.**  Every transaction gets a lock set
   derived from the deploy-time ``transition_footprints`` (reads ∪
   writes of the raw analysis summaries) resolved against the concrete
   arguments — the same resolution payload slicing performs — plus a
   sender-account lock (gas + nonce) and a contract-balance lock when
   the transition body can ``send`` (the only place contract balance
   is *read*).  A transaction whose accesses the analysis cannot bound
   (⊤ summary, or a contract deployed without a signature) gets no
   lock set and is executed on the strict serial path.

2. **Speculative windows.**  The lane queue is processed in rounds: a
   contiguous window of speculable transactions (one per sender — two
   transactions of one sender always conflict through the account
   lock, so pairing them only wastes work) each executes in a private
   :class:`_Sandbox` against copy-on-write forks of the lane state,
   optionally on a thread pool (``spec_workers``).

3. **In-order commit with exact conflict detection.**  Sandboxes are
   committed strictly in queue order; a transaction commits only if
   its lock set is disjoint from the *exact runtime effects* (journal
   write set, balance deltas, account deltas) of the transactions
   committed before it in the same round.  The committed set is
   therefore always a serial prefix of the queue — serial equivalence
   holds by construction, and a conflict needs no rollback at all:
   the conflicting sandbox (and everything after it) is simply
   discarded and retried in the next round.

4. **Bounded retries, strict-serial fallback.**  A transaction whose
   speculative execution is discarded ``spec_retries`` times flips the
   lane into strict serial order for the rest of the queue.  A
   commit-time inconsistency (defensive nonce re-check) rolls the
   whole round back — lane-fork writes via a private
   :class:`~repro.scilla.state.StateJournal` mark, account and nonce
   moves via explicit undo logs — and continues serially.  An
   unexpected crash inside the machinery *before any serial step ran*
   abandons the lane (full undo) and raises :class:`SpeculationError`,
   which the lane supervisor and the coordinator's serial loop treat
   as "redo this lane without speculation" (``supervise.py``,
   ``network.py``).

The differential battery (``tests/test_speculative_differential.py``),
the Hypothesis property suite (``tests/test_speculate_properties.py``)
and the footprint-soundness oracle (``tests/test_analysis_soundness.py``)
are the correctness story; ``docs/SCHEDULER.md`` is the prose version.
"""

from __future__ import annotations

import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

from ..core.domain import ConstKey, Key, ParamKey
from ..scilla import types as ty
from ..scilla.ast import CallProc, Contract, MatchStmt, Send, Stmt
from ..scilla.interpreter import Interpreter
from ..scilla.state import ContractState, StateJournal, StateKey
from ..scilla.values import ByStrVal, Value
from .blocks import MicroBlock, Receipt
from .dispatch import _pad, key_token
from .lanes import _value_from_token
from .transaction import Account, NonceTracker, Transaction

_UNSET = object()


class SpeculationError(Exception):
    """Speculative lane execution gave up after restoring the
    pre-lane state; the caller must redo the lane without speculation
    (the restore makes that sound)."""


# --------------------------------------------------------------------------
# Lock sets.
#
# Lock tokens (lock sets contain only these four kinds):
#   ("acct", addr)             -- read/write of a user account
#   ("field", caddr, field)    -- whole contract field
#   ("key", caddr, field, tok) -- one top-level map entry
#   ("bal", caddr)             -- contract native balance (read+write)
#
# Effect tokens add credit-only and summary variants:
#   ("acct+", addr)            -- pure credit to a user account
#   ("bal+", caddr)            -- pure credit (accept) to a contract
#   ("key*", caddr, field)     -- marker: some entry of field written
# --------------------------------------------------------------------------

def _resolve_lock_key(key: Key, tx: Transaction, contract) -> Value | None:
    """Concrete runtime value of a symbolic footprint key — the same
    resolution ``lanes._resolve_key_value`` performs, but against the
    deployed contract itself (worker networks have no dispatcher
    registry, yet ``state.immutables`` always ships)."""
    if isinstance(key, ParamKey):
        if key.name in ("_sender", "_origin"):
            return ByStrVal(_pad(tx.sender), ty.BYSTR20)
        return tx.args_dict().get(key.name)
    assert isinstance(key, ConstKey)
    if key.repr.startswith("cparam:"):
        return contract.state.immutables.get(key.repr.removeprefix("cparam:"))
    if key.repr == "_this_address":
        return ByStrVal(_pad(contract.address), ty.BYSTR20)
    return _value_from_token(key.repr)


def _stmts_send(contract_ast: Contract, stmts: tuple[Stmt, ...],
                seen: set[str]) -> bool:
    for st in stmts:
        if isinstance(st, Send):
            return True
        if isinstance(st, MatchStmt):
            for _, body in st.clauses:
                if _stmts_send(contract_ast, body, seen):
                    return True
        elif isinstance(st, CallProc):
            if st.proc in seen:
                continue
            seen.add(st.proc)
            try:
                proc = contract_ast.component(st.proc)
            except KeyError:
                return True        # unknown procedure: be conservative
            if _stmts_send(contract_ast, proc.body, seen):
                return True
    return False


def transition_sends(contract, name: str) -> bool:
    """True iff the transition body (transitively through procedure
    calls) contains a ``send`` — the only construct that *reads*
    contract balance (the payout sufficiency check).  ``accept`` only
    credits, which merges additively and needs no lock."""
    cache = getattr(contract, "_spec_sends", None)
    if cache is None:
        cache = {}
        contract._spec_sends = cache
    hit = cache.get(name)
    if hit is not None:
        return hit
    module = contract.module
    if module is None:
        result = True              # no body to inspect: be conservative
    else:
        try:
            comp = module.contract.component(name)
        except KeyError:
            result = False         # unknown transition never executes
        else:
            result = _stmts_send(module.contract, comp.body, set())
    cache[name] = result
    return result


def transaction_lockset(net, tx: Transaction) -> frozenset | None:
    """The static lock set of one transaction, or ``None`` when its
    accesses cannot be bounded (strict serial path).

    Soundness rests on the footprint axiom — every location a
    transition reads or writes appears in ``transition_footprints``
    (tests/test_analysis_soundness.py is the end-to-end oracle) — plus
    the execution-substrate accesses the footprints don't cover: the
    sender account (gas + nonce), and contract balance for sending
    transitions.
    """
    sender_lock = ("acct", _pad(tx.sender))
    if not tx.is_contract_call:
        # Payments only *read* the sender (charge); the recipient is a
        # pure credit, covered by the committed acct+ effect tokens.
        return frozenset({sender_lock})
    contract = net.contracts.get(_pad(tx.to))
    if contract is None:
        return frozenset({sender_lock})   # rejected before any access
    footprints = contract.footprints
    if footprints is None:
        return None                       # deployed without a signature
    name = tx.transition or ""
    if name not in footprints:
        # run_transition rejects unknown components before any state
        # access; only the sender account is touched.
        return frozenset({sender_lock})
    pfs = footprints[name]
    if pfs is None:
        return None                       # ⊤ summary: unbounded
    caddr = contract.address
    tokens = {sender_lock}
    for pf in pfs:
        if pf.is_whole_field:
            tokens.add(("field", caddr, pf.field))
            continue
        value = _resolve_lock_key(pf.keys[0], tx, contract)
        if value is None:
            tokens.add(("field", caddr, pf.field))
            continue
        try:
            tokens.add(("key", caddr, pf.field, key_token(value)))
        except ValueError:
            tokens.add(("field", caddr, pf.field))
    if transition_sends(contract, name):
        tokens.add(("bal", caddr))
    return frozenset(tokens)


class _EffectSet:
    """Exact runtime effects of the transactions committed so far in
    one round, indexed for O(1) lock conflict checks."""

    __slots__ = ("_tokens",)

    def __init__(self) -> None:
        self._tokens: set = set()

    def add_many(self, tokens) -> None:
        self._tokens.update(tokens)

    def first_conflict(self, lockset: frozenset):
        """The first lock that intersects the committed effects, or
        ``None``.  A credit-only effect (acct+/bal+) conflicts with a
        full lock — the locked transaction may *read* what the credit
        changed — but commits freely past other credits."""
        tokens = self._tokens
        for lock in lockset:
            kind = lock[0]
            if kind == "acct":
                if lock in tokens or ("acct+", lock[1]) in tokens:
                    return lock
            elif kind == "field":
                if lock in tokens or ("key*", lock[1], lock[2]) in tokens:
                    return lock
            elif kind == "key":
                if lock in tokens \
                        or ("field", lock[1], lock[2]) in tokens:
                    return lock
            elif kind == "bal":
                if lock in tokens or ("bal+", lock[1]) in tokens:
                    return lock
        return None


# --------------------------------------------------------------------------
# Sandboxed execution of a single transaction.
# --------------------------------------------------------------------------

class _SandboxContract:
    """Duck-typed ``DeployedContract`` whose ``state`` stays the real
    epoch-start base (the overflow-budget check reads it) and whose
    interpreter is resolved lazily — stub contracts (no module) looked
    up only as payout recipients never need one."""

    __slots__ = ("_sandbox", "_real", "address", "module", "signature",
                 "state")

    def __init__(self, sandbox: "_Sandbox", real) -> None:
        self._sandbox = sandbox
        self._real = real
        self.address = real.address
        self.module = real.module
        self.signature = real.signature
        self.state = real.state

    @property
    def joins(self):
        return self._real.joins

    @property
    def interpreter(self) -> Interpreter:
        return self._sandbox.spec.interpreter_for(self._sandbox.slot,
                                                  self._real)


class _SandboxContracts:
    """``net.contracts`` as seen from inside a sandbox."""

    __slots__ = ("_sandbox", "_cache")

    def __init__(self, sandbox: "_Sandbox") -> None:
        self._sandbox = sandbox
        self._cache: dict[str, _SandboxContract] = {}

    def get(self, addr: str, default=None):
        wrapped = self._cache.get(addr)
        if wrapped is not None:
            return wrapped
        real = self._sandbox.spec.net.contracts.get(addr)
        if real is None:
            return default
        wrapped = _SandboxContract(self._sandbox, real)
        self._cache[addr] = wrapped
        return wrapped

    def __contains__(self, addr: str) -> bool:
        return addr in self._sandbox.spec.net.contracts

    def __getitem__(self, addr: str):
        wrapped = self.get(addr)
        if wrapped is None:
            raise KeyError(addr)
        return wrapped


class _Sandbox:
    """One transaction executed in complete isolation.

    Duck-types the slice of ``Network`` that ``Network._execute`` and
    ``_CallChain`` read, over private CoW state forks, cloned
    accounts, and a sender-seeded nonce tracker, so the *identical*
    execution code runs speculatively — speculation changes
    scheduling, never meaning.  Everything it produces is read by the
    commit pass; nothing it does touches shared state.
    """

    def __init__(self, spec: "_LaneSpeculation", slot: int,
                 tx: Transaction) -> None:
        self.spec = spec
        self.slot = slot
        self.tx = tx
        net = spec.net
        # -- the Network surface _execute / _CallChain read ---------
        self.epoch = net.epoch
        self.n_shards = net.n_shards
        self.overflow_guard = net.overflow_guard
        self._resident_tracker = None   # commit touches the real one
        self.contracts = _SandboxContracts(self)
        sender = _pad(tx.sender)
        self.nonces = NonceTracker(strict=net.nonces.strict)
        used = net.nonces.used.get(sender)
        if used is not None:
            self.nonces.used[sender] = set(used)
        last_global = net.nonces.last_global.get(sender)
        if last_global is not None:
            self.nonces.last_global[sender] = last_global
        last_lane = net.nonces.last_per_lane.get((sender, spec.lane))
        if last_lane is not None:
            self.nonces.last_per_lane[(sender, spec.lane)] = last_lane
        # -- private execution products ------------------------------
        self._journal = StateJournal()
        self._states: dict[str, ContractState] = {}
        self._start_balance: dict[str, int] = {}
        # addr -> (clone, pre_balance, pre_portions, existed),
        # insertion == touch order (the commit pass replays it).
        self._accounts: dict[str, tuple] = {}
        self.touched = defaultdict(list)
        self.receipt: Receipt | None = None
        self.crashed: BaseException | None = None
        self._view = None

    # -- Network surface ----------------------------------------------------

    def state_for(self, addr: str) -> ContractState:
        st = self._states.get(addr)
        if st is None:
            st = self.spec.parent_state(addr).fork()
            st.journal = self._journal
            self._states[addr] = st
            self._start_balance[addr] = st.balance
        return st

    def _account_at(self, address: str) -> Account:
        entry = self._accounts.get(address)
        if entry is None:
            net = self.spec.net
            real = net.accounts.get(address)
            if real is None:
                clone = Account(address, 0)
                clone.split_across(net.n_shards,
                                   net.dispatcher.home_shard(address))
                existed = False
            else:
                clone = Account(address, real.balance,
                                dict(real.shard_portions))
                existed = True
            entry = (clone, clone.balance, dict(clone.shard_portions),
                     existed)
            self._accounts[address] = entry
        return entry[0]

    # -- execution ----------------------------------------------------------

    def run(self) -> None:
        net = self.spec.net
        try:
            self.receipt = type(net)._execute(
                self, self.tx, self.spec.lane, self.state_for,
                self.touched)
        except Exception as exc:      # noqa: BLE001 — retried serially
            self.crashed = exc

    @property
    def nonce_ok(self) -> bool:
        return self.receipt is not None \
            and self.receipt.error != "bad nonce"

    # -- commit-pass views --------------------------------------------------

    def journal_view(self):
        """(ordered deduped write keys per address, balance old-value
        sequences per address) from the private journal."""
        if self._view is None:
            by_id = {id(st): addr for addr, st in self._states.items()}
            writes: dict[str, list[StateKey]] = {}
            seen: set = set()
            balance_olds: dict[str, list[int]] = {}
            for entry in self._journal.entries:
                kind = entry[0]
                if kind == "write":
                    _, st, key, _old = entry
                    addr = by_id.get(id(st))
                    if addr is None or (addr, key) in seen:
                        continue
                    seen.add((addr, key))
                    writes.setdefault(addr, []).append(key)
                elif kind == "balance":
                    _, st, old = entry
                    addr = by_id.get(id(st))
                    if addr is not None:
                        balance_olds.setdefault(addr, []).append(old)
            self._view = (writes, balance_olds)
        return self._view

    def effect_tokens(self) -> list:
        """The transaction's exact runtime effects as conflict tokens.

        Journal keys of a rolled-back (failed) call chain are included
        — their committed values are no-ops, so the only cost is a
        conservative extra conflict.  Credit-only moves are downgraded
        to ``acct+``/``bal+`` so commutative credits (payments and
        accepts into one hot account/contract) commit side by side.
        """
        sender = _pad(self.tx.sender)
        tokens: list = [("acct", sender)]
        writes, balance_olds = self.journal_view()
        for addr, keys in writes.items():
            for field, path in keys:
                if not path:
                    tokens.append(("field", addr, field))
                    continue
                try:
                    tok = key_token(path[0])
                except ValueError:
                    tokens.append(("field", addr, field))
                    continue
                tokens.append(("key", addr, field, tok))
                tokens.append(("key*", addr, field))
        for addr, st in self._states.items():
            delta = st.balance - self._start_balance[addr]
            if delta == 0:
                continue
            seq = balance_olds.get(addr, []) + [st.balance]
            monotonic = all(a <= b for a, b in zip(seq, seq[1:]))
            tokens.append(("bal+" if monotonic else "bal", addr))
        for addr, (clone, pre_bal, pre_portions, existed) \
                in self._accounts.items():
            if addr == sender:
                continue
            bal_d = clone.balance - pre_bal
            portion_ds = [
                clone.shard_portions.get(s, 0) - pre_portions.get(s, 0)
                for s in set(clone.shard_portions) | set(pre_portions)]
            if existed and bal_d == 0 and not any(portion_ds):
                continue
            if bal_d < 0 or any(d < 0 for d in portion_ds):
                tokens.append(("acct", addr))
            else:
                tokens.append(("acct+", addr))
        return tokens


# --------------------------------------------------------------------------
# The per-lane scheduler.
# --------------------------------------------------------------------------

class _LaneSpeculation:
    """Round-based optimistic execution of one lane queue.

    Owns the lane's MicroBlock, local state forks, touched sets and
    deferred list — the exact quadruple ``Network._run_lane`` returns —
    plus the undo machinery (private journal + account/nonce undo
    logs) that makes every speculative mutation of real network state
    reversible until the first strict serial step.
    """

    def __init__(self, net, lane: int, queue: list[Transaction],
                 gas_limit: int) -> None:
        self.net = net
        self.lane = lane
        self.queue = queue
        self.gas_limit = gas_limit
        self.meters = net._meters
        self.batch = max(2, net.spec_batch)
        self.retry_limit = max(0, net.spec_retries)
        self.workers = max(0, net.spec_workers)
        self.mb = MicroBlock(shard=lane, epoch=net.epoch)
        self.local_states: dict[str, ContractState] = {}
        self.touched = defaultdict(list)
        self.deferred: list[Transaction] = []
        self.pos = 0
        self.serial_mode = False
        # True until the first serial step: every real-state mutation
        # so far is covered by the undo logs, so the whole lane can
        # still be abandoned (rolled back) on an unexpected crash.
        self.can_abandon = True
        self.retries: dict[int, int] = {}
        self._locksets: dict[int, frozenset | None] = {}
        # Private undo journal for the lane-local forks.  Deliberately
        # NOT net.journal: speculative entries must never interleave
        # with outstanding checkpoint marks on the network journal.
        self.journal = StateJournal()
        self.lane_mark = self.journal.mark()
        self.acct_undo: list[tuple] = []
        self.nonce_undo: list[tuple] = []
        self._pool: ThreadPoolExecutor | None = None
        self._interp_cache: dict[tuple[int, str], Interpreter] = {}

    # -- shared lookups -----------------------------------------------------

    def parent_state(self, addr: str) -> ContractState:
        st = self.local_states.get(addr)
        if st is not None:
            return st
        return self.net.contracts[addr].state

    def lane_state_for(self, addr: str) -> ContractState:
        st = self.local_states.get(addr)
        if st is None:
            st = self.net.contracts[addr].state.fork()
            st.journal = self.journal
            self.local_states[addr] = st
        return st

    def interpreter_for(self, slot: int, contract) -> Interpreter:
        """Sequential sandboxes may share the contract's interpreter
        (one runs at a time); thread-pooled sandboxes get a private
        instance per (window slot, contract) — ``run_transition``
        installs a per-call gas hook on the instance."""
        if self.workers < 2:
            return contract.interpreter
        key = (slot, contract.address)
        interp = self._interp_cache.get(key)
        if interp is None:
            interp = Interpreter(contract.module)
            self._interp_cache[key] = interp
        return interp

    def _lockset(self, tx: Transaction) -> frozenset | None:
        cached = self._locksets.get(tx.tx_id, _UNSET)
        if cached is not _UNSET:
            return cached
        lockset = transaction_lockset(self.net, tx)
        self._locksets[tx.tx_id] = lockset
        return lockset

    # -- main loop ----------------------------------------------------------

    def run(self):
        net = self.net
        t0 = time.perf_counter_ns() if net.metrics.enabled else 0
        while self.pos < len(self.queue):
            if self.mb.gas_used >= self.gas_limit:
                self.deferred = self.queue[self.pos:]
                break   # retried next epoch when the mempool is enabled
            if self.serial_mode:
                self._serial_step()
                continue
            window = self._form_window()
            if len(window) < 2:
                self._serial_step()
                continue
            self._round(window)
        # Lane meters are recorded once, at lane end: an abandoned lane
        # leaves them untouched, the serial redo counts each receipt once.
        net._record_lane(self.mb, t0)
        return self.mb, self.local_states, self.touched, self.deferred

    def _form_window(self) -> list[tuple[Transaction, frozenset]]:
        """The next speculative window: a contiguous queue prefix of
        speculable transactions with pairwise-distinct senders, cut at
        ``spec_batch``.  Same-sender pairs are excluded up front —
        they always conflict through the account lock, so a
        single-sender queue degrades to serial with zero wasted
        executions."""
        window: list[tuple[Transaction, frozenset]] = []
        senders: set[str] = set()
        limit = min(len(self.queue), self.pos + self.batch)
        for i in range(self.pos, limit):
            tx = self.queue[i]
            lockset = self._lockset(tx)
            if lockset is None:
                break
            sender = _pad(tx.sender)
            if sender in senders:
                break
            senders.add(sender)
            window.append((tx, lockset))
        return window

    def _execute_window(self, window) -> list[_Sandbox]:
        sandboxes = [_Sandbox(self, i, tx)
                     for i, (tx, _) in enumerate(window)]
        if self.workers >= 2 and len(sandboxes) > 1:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix=f"spec-lane-{self.lane}")
            futures = [self._pool.submit(sb.run) for sb in sandboxes]
            for future in futures:
                future.result()   # sb.run traps exceptions itself
        else:
            for sb in sandboxes:
                sb.run()
        return sandboxes

    def _round(self, window) -> None:
        meters = self.meters
        meters.spec_batches.inc()
        meters.spec_attempts.inc(len(window))
        meters.spec_batch_size.observe(len(window))
        sandboxes = self._execute_window(window)

        jmark = self.journal.mark()
        acct_mark = len(self.acct_undo)
        nonce_mark = len(self.nonce_undo)
        touched_snapshot = {a: list(v) for a, v in self.touched.items()}
        states_snapshot = set(self.local_states)

        committed = 0
        round_gas = 0
        round_receipts: list[tuple[Transaction, Receipt]] = []
        effects = _EffectSet()
        gas_stop = False
        try:
            for i, ((tx, lockset), sb) in enumerate(zip(window,
                                                        sandboxes)):
                if self.mb.gas_used + round_gas >= self.gas_limit:
                    # The serial loop's pre-transaction gas check, at
                    # commit granularity — everything after this point
                    # defers, exactly as serial would.
                    gas_stop = True
                    break
                if sb.crashed is not None:
                    break
                if i and effects.first_conflict(lockset) is not None:
                    meters.spec_conflicts.inc()
                    break
                self._commit_one(tx, sb)
                effects.add_many(sb.effect_tokens())
                round_receipts.append((tx, sb.receipt))
                round_gas += sb.receipt.gas_used
                committed += 1
        except SpeculationError:
            # Commit-time inconsistency: undo the whole round (earlier
            # rounds stay committed) and continue strictly serially.
            meters.spec_rescues.inc()
            t0 = time.perf_counter_ns()
            self._rollback_round(jmark, acct_mark, nonce_mark,
                                 touched_snapshot, states_snapshot)
            meters.spec_rollback_ns.observe(time.perf_counter_ns() - t0)
            self.serial_mode = True
            return

        self.journal.release(jmark)
        for tx, receipt in round_receipts:
            self.mb.receipts.append(receipt)
            self.mb.gas_used += receipt.gas_used
            if self.retries.get(tx.tx_id):
                meters.spec_retries.inc()
        meters.spec_commits.inc(committed)
        self.pos += committed
        if gas_stop:
            return   # the main loop defers queue[pos:]
        aborted = window[committed:]
        if aborted:
            meters.spec_aborts.inc(len(aborted))
            for tx, _ in aborted:
                count = self.retries.get(tx.tx_id, 0) + 1
                self.retries[tx.tx_id] = count
                if count > self.retry_limit and not self.serial_mode:
                    meters.spec_serial_fallbacks.inc()
                    self.serial_mode = True
        if committed == 0:
            # The window head crashed in its sandbox (a conflict is
            # impossible at slot 0): reproduce it on the real path,
            # with serial semantics and guaranteed progress.
            self._serial_step()

    # -- committing one sandbox --------------------------------------------

    def _commit_one(self, tx: Transaction, sb: _Sandbox) -> None:
        net = self.net
        sender = _pad(tx.sender)
        # Nonce first: capture undo, replay the acceptance on the real
        # tracker, and cross-check the sandbox verdict.  Same-sender
        # window exclusion makes a mismatch unreachable; the check is
        # the defensive floor under the serial-equivalence claim.
        tracker = net.nonces
        had_entry = sender in tracker.used
        had_nonce = had_entry and tx.nonce in tracker.used[sender]
        self.nonce_undo.append((
            sender, tx.nonce, had_entry, had_nonce,
            tracker.last_global.get(sender),
            tracker.last_per_lane.get((sender, self.lane))))
        accepted = tracker.try_accept(sender, tx.nonce, self.lane)
        if net._resident_tracker is not None:
            net._resident_tracker.touch_nonce(sender)
        if accepted != sb.nonce_ok:
            raise SpeculationError(
                f"lane {self.lane}: nonce verdict diverged at commit "
                f"for tx#{tx.tx_id} (sandbox {sb.nonce_ok}, "
                f"real {accepted})")
        # Contract-state effects: replay the sandbox's journaled write
        # set (current values, deletes as MISSING) onto the lane
        # forks, balances as additive deltas.
        writes, _ = sb.journal_view()
        for addr, sb_st in sb._states.items():
            lane_st = self.lane_state_for(addr)
            for key in writes.get(addr, ()):
                lane_st.write(key, sb_st.read(key))
            delta = sb_st.balance - sb._start_balance[addr]
            if delta:
                lane_st.balance = lane_st.balance + delta
        # Account effects, in sandbox touch order.  net._account is
        # instance-dispatched on purpose: lazy creation, resident
        # tracker touches, and the replica recording shadow all apply
        # exactly as on the serial path.
        for addr, (clone, pre_bal, pre_portions, existed) \
                in sb._accounts.items():
            real_existed = addr in net.accounts
            real = net._account(addr)
            self.acct_undo.append((addr, real.balance,
                                   dict(real.shard_portions),
                                   real_existed))
            bal_d = clone.balance - pre_bal
            if bal_d:
                real.balance += bal_d
            for shard in set(clone.shard_portions) | set(pre_portions):
                d = clone.shard_portions.get(shard, 0) \
                    - pre_portions.get(shard, 0)
                if d:
                    real.shard_portions[shard] = \
                        real.shard_portions.get(shard, 0) + d
        for addr, logs in sb.touched.items():
            self.touched[addr] += logs

    # -- undo ---------------------------------------------------------------

    def _rollback_round(self, jmark: int, acct_mark: int,
                        nonce_mark: int, touched_snapshot: dict,
                        states_snapshot: set) -> None:
        net = self.net
        tracker = net.nonces
        for sender, nonce, had_entry, had_nonce, prev_global, prev_lane \
                in reversed(self.nonce_undo[nonce_mark:]):
            if not had_entry:
                tracker.used.pop(sender, None)
            elif not had_nonce:
                used = tracker.used.get(sender)
                if used is not None:
                    used.discard(nonce)
            if prev_global is None:
                tracker.last_global.pop(sender, None)
            else:
                tracker.last_global[sender] = prev_global
            if prev_lane is None:
                tracker.last_per_lane.pop((sender, self.lane), None)
            else:
                tracker.last_per_lane[(sender, self.lane)] = prev_lane
        del self.nonce_undo[nonce_mark:]
        for addr, balance, portions, existed \
                in reversed(self.acct_undo[acct_mark:]):
            if not existed:
                net.accounts.pop(addr, None)
            else:
                account = net.accounts.get(addr)
                if account is not None:
                    account.balance = balance
                    account.shard_portions = portions
        del self.acct_undo[acct_mark:]
        self.journal.rollback_to(jmark)
        self.journal.release(jmark)
        for addr in list(self.local_states):
            if addr not in states_snapshot:
                self.local_states.pop(addr).journal = None
        self.touched.clear()
        self.touched.update(touched_snapshot)

    def abandon(self) -> None:
        """Restore the exact pre-lane state.  Sound only while
        ``can_abandon`` holds — i.e. before the first serial step put
        un-undoable mutations on the real path."""
        self._rollback_round(self.lane_mark, 0, 0, {}, set())

    def close(self) -> None:
        for st in self.local_states.values():
            st.journal = None
        self.journal.release(self.lane_mark)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        # Test hook: the property suite asserts the private journal
        # drained (depth 0, no outstanding marks) after every lane.
        self.net._spec_last_journal = self.journal

    # -- strict serial path -------------------------------------------------

    def _serial_step(self) -> None:
        self.can_abandon = False
        tx = self.queue[self.pos]
        receipt = self.net._execute(tx, self.lane, self.lane_state_for,
                                    self.touched)
        self.mb.receipts.append(receipt)
        self.mb.gas_used += receipt.gas_used
        if self.retries.get(tx.tx_id):
            self.meters.spec_retries.inc()
        self.pos += 1


def run_speculative_lane(net, lane: int, queue: list[Transaction],
                         gas_limit: int):
    """Entry point ``Network._run_lane`` dispatches to.

    Returns the serial quadruple ``(mb, local_states, touched,
    deferred)``.  An unexpected crash before any serial step abandons
    the lane (full undo of every speculative mutation) and raises
    :class:`SpeculationError` — the supervisor's and coordinator's
    signal to redo the lane without speculation, which the restore
    makes sound.  After a serial step the crash re-raises unchanged,
    exactly as the vanilla serial loop would.
    """
    spec = _LaneSpeculation(net, lane, queue, gas_limit)
    try:
        result = spec.run()
    except Exception as exc:
        if spec.can_abandon:
            try:
                spec.abandon()
            finally:
                spec.close()
            raise SpeculationError(
                f"speculative lane {lane} abandoned after "
                f"{type(exc).__name__}: {exc}") from exc
        spec.close()
        raise
    spec.close()
    return result
