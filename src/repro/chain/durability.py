"""Durability for the network (docs/FAULTS.md, "Crash recovery &
durability"): :class:`NetworkConfig`, whose ``to_obj`` / ``from_obj``
are the WAL ``init`` record and a base restore point's ``config``; and
:class:`Durability`, the part of :class:`~repro.chain.network.Network`
that logs inputs before they execute, cuts each committed epoch's
change set, writes restore points, resumes and replays, and adopts and
flushes paged state."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from ..scilla.backend import (
    SqliteBackend, adopt, paged_base, resolve_backend,
)
from ..scilla.errors import ScillaError
from ..scilla.state import ContractState
from ..scilla import values as scilla_values
from ..scilla.values import MapVal
from .consensus import DEFAULT_COST_MODEL, DS_SIZE, SHARD_SIZE, CostModel
from .execution import FEE_RULE, FUNDING
from .faults import FaultPlan
from .mempool import PoolEntry
from .recovery import ChangeLedger
from .serialization import (
    TransactionRowError, signature_from_obj, transaction_from_obj,
    value_from_json,
)
from .wal import WALError, WriteAheadLog


@dataclass(frozen=True)
class NetworkConfig:
    """Every setting a network's results depend on besides its shard
    count.  Frozen: once the WAL's ``init`` record holds it, a replay
    can trust it is what the network ran with."""

    use_signatures: bool = True
    cost_model: CostModel = DEFAULT_COST_MODEL
    strict_nonces: bool = False
    overflow_guard: bool = False
    fault_plan: FaultPlan | None = None

    def to_obj(self, n_shards: int) -> dict:
        """The WAL ``init`` record / a base restore point's ``config``."""
        plan = self.fault_plan
        return {"n_shards": n_shards,
                "use_signatures": self.use_signatures,
                "cost_model": asdict(self.cost_model),
                "strict_nonces": self.strict_nonces,
                "overflow_guard": self.overflow_guard,
                "fault_plan": plan.to_obj() if plan is not None else None}

    @classmethod
    def from_obj(cls, obj) -> tuple[int, NetworkConfig]:
        """``(n_shards, config)``.  Older builds also logged committee
        sizes, now fixed, and ``carry_backlog`` / ``max_retries`` /
        ``retry_backoff``, now ignored (docs/FAULTS.md)."""
        for key, fixed in (("shard_size", SHARD_SIZE), ("ds_size", DS_SIZE)):
            if obj.get(key, fixed) != fixed:
                raise ValueError(
                    f"logged configuration has {key} = {obj[key]!r}; "
                    f"committee sizes are fixed at shard_size = "
                    f"{SHARD_SIZE}, ds_size = {DS_SIZE}")
        plan = obj["fault_plan"]
        return obj["n_shards"], cls(
            use_signatures=obj["use_signatures"],
            cost_model=CostModel(**obj["cost_model"]),
            strict_nonces=obj["strict_nonces"],
            overflow_guard=obj["overflow_guard"],
            fault_plan=FaultPlan.from_obj(plan) if plan is not None else None)


def _state_counters() -> tuple[int, int, int]:
    """The state engine's process-wide counters, as drained into
    ``state.cow.copies`` / ``state.overlay.*`` at each commit."""
    return (scilla_values.COW_COPIES, scilla_values.OVERLAY_FOLDS,
            scilla_values.OVERLAY_FOLDED_ENTRIES)


def _open_log(data_dir: str, keep_snapshots: int,
              crash_at_barrier: int | None, crash_at_append: int | None):
    """The WAL (torn tail truncated) and restore-point store of
    ``data_dir``; the WAL is closed again if the store cannot open."""
    from .store import SnapshotStore
    wal = WriteAheadLog(data_dir, crash_at_barrier=crash_at_barrier,
                        crash_at_append=crash_at_append)
    try:
        return wal, SnapshotStore(data_dir, keep=keep_snapshots)
    except BaseException:
        wal.close()
        raise


class Durability:
    """WAL, restore points, resume and the paged backend of a network."""

    def _init_durability(self, data_dir: str | None,
                         snapshot_every: int, keep_snapshots: int,
                         crash_at_barrier: int | None,
                         crash_at_append: int | None,
                         state_backend) -> None:
        """The durable half of construction.  Off by default: with
        ``data_dir=None`` nothing here ever touches disk; with one, a
        fresh directory is attached and the ``init`` record logged."""
        # The attached service mempool (repro.chain.service), if any:
        # the one place a gas-deferred transaction waits, embedded in
        # snapshots.  ``restored_mempool``: its pending entries after a
        # resume (tx_id -> PoolEntry, in order), for a ServiceLoop.
        self.mempool = None
        self.restored_mempool: dict[int, PoolEntry] = {}
        # Senders ``auto_fund`` created whose WAL input is not yet
        # logged: they go, as one record, ahead of the next one.
        self._unlogged_accounts: list[str] = []
        # How many epochs committed under each caller-supplied WAL tag
        # (the durable harness uses this to fast-forward generators).
        self.epoch_tags: dict[str, int] = {}
        # Deltas in the restore-point chain Network.resume restored
        # from (the files it rejected, and why: ``store.skipped``).
        self.restored_deltas = 0
        # Free-form durable annotations (repro.eval.chaos marks setup
        # completion here); replicated into snapshots and the WAL.
        self.wal_notes: list = []
        self.wal: WriteAheadLog | None = None
        self.store = None
        self.snapshot_every = snapshot_every
        self._replaying = False
        self._commits_since_snapshot = 0
        # Accumulators + dirty set; kept while durable or replaying.
        self._ledger: ChangeLedger | None = None
        # Out-of-core state (repro.scilla.backend): page cold map
        # entries to the sqlite row store, faulting them back on demand.
        # A pure runtime choice — results are byte-identical with or
        # without it (tests/test_paged_state.py and the suite's paged
        # legs are the oracle) — made here once, off by default.  A
        # paged run's ``init`` record says so, for a resume that finds
        # no restore point; a plain run's is unchanged.  Created after
        # the fresh-directory check so a WALError on a reused data_dir
        # never clobbers an existing backend file.
        if data_dir is not None:
            wal, store = _open_log(data_dir, keep_snapshots,
                                   crash_at_barrier, crash_at_append)
            if wal.recovered or store.paths():
                wal.close()
                raise WALError(
                    f"{data_dir} already holds a log or snapshots; "
                    f"use Network.resume to continue it")
            self.wal, self.store = wal, store
            self._ledger = ChangeLedger(self)
        # A store this network opened is closed by ``close``; one the
        # caller handed in stays the caller's.
        self.state_backend = None
        self._owns_backend = not isinstance(state_backend, SqliteBackend)
        try:
            self.state_backend = resolve_backend(state_backend, data_dir)
        except ValueError:
            self.close()
            raise
        if self.wal is not None:
            init = self.config.to_obj(self.n_shards)
            if self.state_backend is not None:
                init["state_backend"] = self.state_backend.kind
            self._wal_append("init", init, barrier=True)
        self._backend_stats_seen = (
            self.state_backend.stats.snapshot()
            if self.state_backend is not None else None)
        self._state_counters_seen = _state_counters()

    # -- WAL records ----------------------------------------------------------

    def _wal_append(self, type: str, data, barrier: bool = False) -> None:
        if self.wal is None or self._replaying:
            return
        if self._unlogged_accounts:
            self._log_accounts()
        meters = self._meters
        if self.metrics.enabled:
            t0 = time.perf_counter_ns()
            self.wal.append(type, data)
            meters.wal_append_ns.observe(time.perf_counter_ns() - t0)
            if barrier:
                t1 = time.perf_counter_ns()
                self.wal.barrier()
                meters.wal_fsync_ns.observe(time.perf_counter_ns() - t1)
        else:
            self.wal.append(type, data)
            if barrier:
                self.wal.barrier()
        meters.wal_appends.inc()
        if barrier:
            meters.wal_barriers.inc()

    def _log_accounts(self) -> None:
        addresses, self._unlogged_accounts = self._unlogged_accounts, []
        self._wal_append("accounts", {"balance": FUNDING,
                                      "addresses": addresses})

    def wal_note(self, data) -> None:
        """Record a durable, application-level annotation (replayed on
        resume and carried through snapshots)."""
        self.wal_notes.append(data)
        self._wal_append("note", data, barrier=True)

    # -- the committed epoch's change set -------------------------------------

    def _cut_changes(self, outcome, checkpoint):
        """The committed epoch's change set, from what the surviving
        attempt already produced: contract locations (state keys per
        contract) from the merged deltas and the DS lane's write logs;
        touched accounts and senders are the keys of the checkpoint's
        buffers, returned as they are (a view change emptied them of
        the attempts it dropped).  All are dicts, in first-touched
        order, so a delta restore point lists its rows the same under
        every hash seed."""
        locations: dict[str, dict] = {}
        for mb in outcome.microblocks:
            for delta in mb.deltas:
                keys = locations.setdefault(delta.contract, {})
                for column in delta.columns:
                    name = column.field
                    for path in column.rows:
                        keys[name, path] = None
        for addr, logs in outcome.ds_logs.items():
            keys = locations.setdefault(addr, {})
            for log in logs:
                keys.update(dict.fromkeys(log.writes))
        return locations, checkpoint.accounts, checkpoint.nonces

    def _fold_changes(self, pre_states: dict, changed) -> None:
        """Advance the commit digest's accumulators by the change set."""
        t0 = time.perf_counter_ns() if self.metrics.enabled else 0
        self._ledger.commit(self, pre_states, *changed)
        self._meters.commit_changed.inc(sum(map(len, changed[0].values())))
        if self.metrics.enabled:
            self._meters.commit_digest_ns.observe(
                time.perf_counter_ns() - t0)

    def _log_commit(self) -> None:
        """The commit record pins the post-epoch digest (advanced per
        changed location by :meth:`_fold_changes`) so replay detects
        divergence; every ``snapshot_every`` commits a restore point."""
        if self.wal is None or self._replaying:
            return
        self._wal_append("commit", {
            "epoch": self.epoch,
            "digest": self._ledger.digest(self),
            "scheme": 1,
        }, barrier=True)
        self._commits_since_snapshot += 1
        if self._commits_since_snapshot >= self.snapshot_every:
            self.snapshot()

    # -- restore points -------------------------------------------------------

    def snapshot(self) -> None:
        """Persist a restore point now — a base, or a delta against
        the previous one (``store.snapshot_network`` decides) — rotate
        the WAL, and drop the segments and restore points no retained
        one needs."""
        if self.wal is None or self.store is None:
            return
        if self._unlogged_accounts:     # the restore point holds them
            self._log_accounts()
        t0 = time.perf_counter_ns() if self.metrics.enabled else 0
        from .store import snapshot_network
        wal_seq = self.wal.last_seq
        backend_obj = None
        if self.state_backend is not None \
                and self._ledger.wants_base(wal_seq):
            # A paged base pins a copy of the page store, written
            # first: the base names the sidecar and its digest, so a
            # torn sidecar is never adopted (resume verifies it before
            # trusting a row).  A delta reads the rows it lists from
            # the paged maps themselves.
            backend_obj = self.store.save_backend(
                self.state_backend, epoch=self.epoch, wal_seq=wal_seq)
        obj = snapshot_network(self, wal_seq=wal_seq,
                               backend_obj=backend_obj)
        path = self.store.save(obj)
        is_base = "parent" not in obj
        self._ledger.restore_point_written(
            self.store.tip, obj["wal_seq"], obj["rows"], is_base)
        self.wal.rotate()
        self.store.compact()
        # Never past the oldest restore point resume could fall back to.
        self.wal.compact(keep_from_seq=self.store.wal_floor() + 1)
        self._commits_since_snapshot = 0
        meters = self._meters
        (meters.snapshot_bases if is_base else meters.snapshot_deltas).inc()
        meters.snapshot_rows.inc(obj["rows"])
        if self.metrics.enabled:
            meters.snapshot_bytes.inc(path.stat().st_size)
            meters.snapshot_ns.observe(time.perf_counter_ns() - t0)

    def close(self) -> None:
        """Close the WAL and the page store this network opened (from
        ``"sqlite"``, or for a resumed data dir)."""
        if self.wal is not None:
            self.wal.close()
        if self._owns_backend and self.state_backend is not None:
            self.state_backend.close()

    # -- resume and replay ----------------------------------------------------

    @classmethod
    def resume(cls, data_dir: str, snapshot_every: int = 8,
               keep_snapshots: int = 3,
               crash_at_barrier: int | None = None,
               crash_at_append: int | None = None,
               metrics=None, tracer=None):
        """Recover a network from ``data_dir`` after a crash or clean
        shutdown.

        Opens the WAL (validating every record and physically
        truncating a torn tail), loads the newest restorable chain of
        restore points (a base, then each delta whose digest and parent
        link verify), deterministically re-executes the logged records
        past it, and re-attaches durability so the returned network
        keeps logging where the dead process stopped.  The accumulators
        behind the commit digest are checked against a from-scratch
        recomputation twice: as adopted from the chain, and after
        replay.
        """
        from .store import (
            SnapshotError, apply_delta_snapshot, network_from_snapshot,
        )
        wal, store = _open_log(data_dir, keep_snapshots,
                               crash_at_barrier, crash_at_append)
        backend = None
        try:
            chain = store.load_chain()
            snap = chain[0] if chain else None
            # Whether the state pages is the data dir's to say: the
            # base's ``backend`` section, or the ``init`` record's
            # marker.  The live page store is never trusted across a
            # crash (its pragmas skip fsync): it is rebuilt from the
            # base's digest-verified sidecar, or fresh for a WAL-only
            # resume, whose replay repopulates the rows.
            if snap is not None:
                info = snap.get("backend")
                backend = (store.restore_backend(info, data_dir)
                           if info is not None else None)
                net = network_from_snapshot(snap, state_backend=backend,
                                            metrics=metrics,
                                            tracer=tracer)
                for delta in chain[1:]:
                    apply_delta_snapshot(net, delta)
                start_seq = chain[-1]["wal_seq"]
            else:
                if not wal.recovered or wal.recovered[0].type != "init":
                    raise WALError(
                        f"nothing to resume in {data_dir}: no valid "
                        f"snapshot and no init record")
                init = wal.recovered[0]
                backend = resolve_backend(init.data.get("state_backend"),
                                          data_dir)
                net = cls(*NetworkConfig.from_obj(init.data),
                          state_backend=backend, metrics=metrics,
                          tracer=tracer)
                start_seq = init.seq
            net._owns_backend = True    # opened here, for this network
            net._meters.resume_skipped.set(len(store.skipped))
            net.restored_deltas = max(len(chain) - 1, 0)
            ledger = net._ledger = ChangeLedger(net)
            net._meters.digest_full_recomputes.inc()
            embedded = chain[-1].get("accumulators") if chain else None
            if embedded is not None and embedded != ledger.accumulators(net):
                raise SnapshotError(
                    f"restore point at WAL sequence {start_seq} embeds "
                    f"accumulators its own state does not reproduce")
            net._replaying = True
            try:
                for record in wal.recovered:
                    if record.seq > start_seq:
                        net._replay_record(record)
            finally:
                net._replaying = False
            net._meters.digest_full_recomputes.inc()
            if ChangeLedger(net).fields != ledger.fields:
                raise WALError(
                    "incremental accumulators diverged from a "
                    "from-scratch recomputation during replay")
        except BaseException:
            wal.close()
            if backend is not None:
                backend.close()
            raise
        net.wal = wal
        net.store = store
        net.snapshot_every = snapshot_every
        return net

    def _replay_record(self, record) -> None:
        try:
            self._replay(record)
        except TransactionRowError as exc:
            raise WALError(
                f"log record {record.seq} ({record.type}) holds a "
                f"transaction in no form this build reads: {exc}"
            ) from exc

    def _replay(self, record) -> None:
        data = record.data
        if record.type == "account":
            self._create_account(data["address"], data["balance"])
        elif record.type == "accounts":
            for address in data["addresses"]:
                self._create_account(address, data["balance"])
        elif record.type == "deploy":
            weak_reads = data["weak_reads"]
            try:
                self.deploy(
                    data["source"], data["address"],
                    params={k: value_from_json(v)
                            for k, v in data["params"].items()},
                    sharded_transitions=(
                        tuple(data["sharded_transitions"])
                        if data["sharded_transitions"] is not None
                        else None),
                    weak_reads=(weak_reads if isinstance(weak_reads, str)
                                else frozenset(weak_reads)),
                    balance=data["balance"],
                    allow_commutativity=data["allow_commutativity"],
                    proposed_signature=(
                        signature_from_obj(data["proposed_signature"])
                        if data["proposed_signature"] is not None
                        else None))
            except (ScillaError, ValueError) as exc:
                # Older builds logged a deployment before checking it.
                raise WALError(
                    f"log record {record.seq} deploys to "
                    f"{data['address']} a contract the network refused "
                    f"({type(exc).__name__}: {exc}); the log stops "
                    f"there") from exc
        elif record.type == "epoch":
            if data["epoch"] != self.epoch + 1:
                raise WALError(
                    f"replay out of step: log record {record.seq} is "
                    f"epoch {data['epoch']} but the network is at "
                    f"epoch {self.epoch}")
            if data.get("fees") != FEE_RULE:
                # Older builds left a failed payment's fee unpaid and
                # ran calls their portion could not cover.
                raise WALError(
                    f"log record {record.seq} (epoch {data['epoch']}) "
                    f"was executed under fee rule {data.get('fees')!r}, "
                    f"not {FEE_RULE!r}; this build does not replay it "
                    f"(docs/FAULTS.md)")
            pending = self.restored_mempool
            txns = []
            for tx in data["txns"]:
                if isinstance(tx, int):
                    # Named, not carried: journaled at admission.
                    if tx not in pending:
                        raise WALError(
                            f"log record {record.seq} (epoch "
                            f"{data['epoch']}) names transaction {tx}, "
                            f"which no admission record or restore "
                            f"point holds")
                    txns.append(pending[tx].tx)
                else:
                    txns.append(transaction_from_obj(tx))
            block = self.process_epoch(
                txns, unlimited=data["unlimited"], wal_tag=data["tag"])
            # Inputs drained from the restored service pool have their
            # outcome in the block, as the live loop read it: what it
            # deferred stays pending, one deferral on and behind the
            # rest (the loop re-admits; a re-admission record further
            # on says the same); everything else is settled.
            if pending:
                deferred = block.deferred_ids()
                for tx in txns:
                    entry = pending.pop(tx.tx_id, None)
                    if entry is not None and tx.tx_id in deferred:
                        entry.deferrals += 1
                        pending[tx.tx_id] = entry
        elif record.type == "commit":
            if "scheme" not in data:
                # Builds before the accumulator pinned a full-walk
                # digest; their epoch records name no fee rule either.
                raise WALError(
                    f"log record {record.seq} (commit of epoch "
                    f"{data['epoch']}) names no digest scheme; this "
                    f"build checks scheme 1 only (docs/FAULTS.md)")
            digest = self._ledger.digest(self)
            if digest != data["digest"]:
                raise WALError(
                    f"replay diverged at epoch {data['epoch']}: "
                    f"recomputed fingerprint {digest[:12]}… does not "
                    f"match the logged commit {data['digest'][:12]}…")
        elif record.type == "note":
            self.wal_notes.append(data)
        elif record.type == "svc-admit":
            # Service-mode admissions journaled before execution, one
            # pool row each; an entry stays pending until an epoch
            # drains it or a svc-terminal record retires it.
            if not isinstance(data, list):
                raise TransactionRowError(
                    f"not a list of pool rows: {type(data).__name__}")
            for row in data:
                entry = PoolEntry.from_obj(row)
                self.restored_mempool[entry.tx.tx_id] = entry
        elif record.type == "svc-terminal":
            for tx_id in data["ids"]:
                self.restored_mempool.pop(tx_id, None)
        elif record.type == "init":
            raise WALError(
                f"unexpected init record at sequence {record.seq}")
        else:
            raise WALError(f"unknown WAL record type {record.type!r}")

    # -- out-of-core state (repro.scilla.backend) -----------------------------

    def _adopt_state(self, state: ContractState) -> None:
        """Move a freshly built state's top-level map fields into the
        paged backend.  No-op without a backend; maps that already
        page are left alone.  A field initialiser may have written
        through a fork (``builtin put`` on ``Emp``), leaving an overlay
        or a still-shared dict: those are adopted too, so no map is
        left resident by accident.  Only rows are written, and the map
        takes a fresh overlay, so no other holder shares anything."""
        backend = self.state_backend
        if backend is None:
            return
        for value in state.fields.values():
            if isinstance(value, MapVal) and paged_base(value) is None:
                value.entries = adopt(backend, value.entries)
                value._cow = False

    def _fold_overlays(self, write_back: bool) -> None:
        """Every top-level map's commit fold: a dict base takes its
        overlay in place where the overlay alone holds it
        (``MapVal.fold_pending``); with ``write_back``, each paged map
        writes its dirty rows back.  Both run at every commit: nothing
        restores past one, and a retained pre-epoch state holds the
        base a fold would write."""
        for contract in self.contracts.values():
            for value in contract.state.fields.values():
                if value.__class__ is not MapVal:
                    continue
                if paged_base(value) is None:
                    value.fold_pending()
                elif write_back:
                    value.entries.write_back()

    def _settle_state(self) -> None:
        """The state engine's share of an epoch commit: every map's
        commit fold, and its counters into the ``state.*``
        instruments.  Call it once the epoch has dropped its pre-epoch
        states (``pre_states``): a held one keeps the bases it shares
        from folding."""
        meters = self._meters
        # Epoch commit is the writeback point for paged state.
        backend = self.state_backend
        self._fold_overlays(backend is not None)
        now, seen = _state_counters(), self._state_counters_seen
        meters.cow_copies.inc(now[0] - seen[0])
        meters.overlay_folds.inc(now[1] - seen[1])
        meters.overlay_folded_entries.inc(now[2] - seen[2])
        self._state_counters_seen = now
        if backend is None:
            return
        now, seen = backend.stats.snapshot(), self._backend_stats_seen
        meters.backend_faults.inc(now[0] - seen[0])
        meters.backend_evictions.inc(now[1] - seen[1])
        meters.backend_writebacks.inc(now[2] - seen[2])
        meters.backend_read_ns.inc(now[3] - seen[3])
        meters.backend_write_ns.inc(now[4] - seen[4])
        self._backend_stats_seen = now
