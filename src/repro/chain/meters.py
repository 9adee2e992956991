"""The instruments a network records (docs/OBSERVABILITY.md is the
catalogue): declared once per network, recorded from the epoch path,
the lanes and the durable path."""

from __future__ import annotations

from ..obs.metrics import GAS_BUCKETS, NS_BUCKETS
from ..scilla.compile import STATS as COMPILE_STATS
from .dispatch import REASON_KINDS


class NetworkMeters:
    """Every instrument the network records, created once per network.

    Counters without a flag are *deterministic*: their values are a
    pure function of the submitted workload, identical across runs and
    across a crash + resume (``tests/test_telemetry_differential.py``
    enforces this).  WAL and state-engine counters legitimately vary
    between otherwise-identical runs, and every duration histogram is
    wall-clock, so those carry ``deterministic=False``.

    With a disabled registry every attribute is the shared null
    instrument — recording is an empty call.
    """

    def __init__(self, m):
        def varying(name):
            return m.counter(name, deterministic=False)

        def ns(name):
            return m.histogram(name, NS_BUCKETS, deterministic=False)

        self.epochs = m.counter("net.epochs")
        self.tx_dispatched = m.counter("net.tx.dispatched")
        self.tx_committed = m.counter("net.tx.committed")
        self.tx_failed = m.counter("net.tx.failed")
        self.tx_deferred = m.counter("net.tx.deferred")
        self.tx_to_ds = m.counter("net.tx.to_ds")
        self.dispatch_reasons = {k: m.counter(f"net.dispatch.reason.{k}")
                                 for k in REASON_KINDS}
        self.tx_recovered = m.counter("net.tx.recovered")
        self.tx_reexecuted = m.counter("net.tx.reexecuted")
        self.view_changes = m.counter("net.view_changes")
        self.rejected_deltas = m.counter("net.rejected_deltas")
        self.merge_deltas = m.counter("net.merge.deltas")
        self.merge_locations = m.counter("net.merge.locations")
        self.deploys = m.counter("net.deploy.count")
        # Hit/miss attribution reads the process-wide GLOBAL_CACHE,
        # whose warmth a resumed process does not share — a replayed
        # deploy can miss where the original hit.
        self.deploy_cache_hits = varying("net.deploy.cache_hits")
        self.deploy_cache_misses = varying("net.deploy.cache_misses")
        self.lane_tx_executed = m.counter("lane.tx.executed")
        self.lane_tx_ok = m.counter("lane.tx.ok")
        self.lane_tx_failed = m.counter("lane.tx.failed")
        self.lane_gas = m.counter("lane.gas.used")
        self.lane_gas_per_tx = m.histogram("lane.gas_per_tx", GAS_BUCKETS)
        self.wal_appends = varying("net.wal.appends")
        self.wal_barriers = varying("net.wal.barriers")
        self.epoch_ns = ns("net.epoch_ns")
        self.lane_exec_ns = ns("lane.exec_ns")
        self.merge_ns = ns("net.merge_ns")
        self.wal_append_ns = ns("net.wal.append_ns")
        self.wal_fsync_ns = ns("net.wal.fsync_ns")
        self.deploy_ns = ns("net.deploy_ns")
        # O(touched) durability (recovery.ChangeLedger).  The change
        # set is a function of the workload; replay takes no snapshots
        # and a resume recomputes accumulators, so the rest is not.
        self.commit_changed = m.counter("net.commit.changed_locations")
        self.commit_digest_ns = ns("net.commit.digest_ns")
        self.digest_full_recomputes = varying("net.digest.full_recomputes")
        (self.snapshot_bases, self.snapshot_deltas, self.snapshot_rows,
         self.snapshot_bytes) = (
            varying(f"net.snapshot.{what}")
            for what in ("bases", "deltas", "rows", "bytes"))
        self.snapshot_ns = ns("net.snapshot_ns")
        self.resume_skipped = m.gauge(
            "net.resume.skipped_restore_points", deterministic=False)
        # Compiled transitions (repro.scilla.compile), counted at
        # deploy from the source's shared unit: static properties of
        # the source, whichever process later runs it.
        self.compile_units = m.counter("interp.compile.units")
        self.compile_delegated = m.counter("interp.compile.delegated_exprs")
        self.compile_did = {key: m.counter(f"interp.compile.{key}")
                            for key in COMPILE_STATS}
        self.compile_ns = ns("interp.compile_ns")
        # State-engine instruments: copy-on-write activity varies with
        # what else holds a state (a caller's fork, a resume's replay)
        # — non-deterministic by design.
        self.cow_copies = varying("state.cow.copies")
        # Overlay folds (repro.scilla.values.OverlayDict): each is one
        # O(map) dict copy, so a fold storm shows here, not in a
        # profile.  Process-wide like state.cow.copies.
        self.overlay_folds = varying("state.overlay.folds")
        self.overlay_folded_entries = varying("state.overlay.folded_entries")
        self.checkpoint_take_ns = ns("net.checkpoint.take_ns")
        self.checkpoint_restore_ns = ns("net.checkpoint.restore_ns")
        # Out-of-core state backend (repro.scilla.backend): fault,
        # eviction and writeback counts follow cache-residency history
        # (prior epochs, a resume's replay), and the ns totals
        # follow the disk — all non-deterministic by design, so the
        # deterministic-telemetry differential contract is untouched by
        # paging (docs/STATE.md).
        self.backend_faults = varying("state.backend.faults")
        self.backend_evictions = varying("state.backend.evictions")
        self.backend_writebacks = varying("state.backend.writebacks")
        self.backend_read_ns = varying("state.backend.page_read_ns")
        self.backend_write_ns = varying("state.backend.page_write_ns")

    def record_epoch(self, stats, n_deltas: int,
                     merged_locations: int) -> None:
        """One committed epoch's counters, from the *surviving*
        attempt's ``EpochStats`` only: a discarded view-change attempt
        counts nowhere."""
        self.epochs.inc()
        self.tx_dispatched.inc(stats.dispatched)
        self.tx_committed.inc(stats.committed)
        self.tx_failed.inc(stats.failed)
        self.tx_deferred.inc(stats.deferred)
        self.tx_to_ds.inc(stats.to_ds)
        for kind, count in stats.reasons.items():
            self.dispatch_reasons[kind].inc(count)
        self.tx_recovered.inc(stats.recovered)
        self.tx_reexecuted.inc(stats.reexecuted)
        self.view_changes.inc(stats.view_changes)
        self.rejected_deltas.inc(stats.rejected_deltas)
        self.merge_deltas.inc(n_deltas)
        self.merge_locations.inc(merged_locations)

    def record_lanes(self, blocks) -> None:
        """The deterministic ``lane.*`` instruments, once per committed
        epoch from the surviving attempt's lane blocks, before its
        deferral receipts are appended to them: what the lanes executed,
        not what they left for a retry."""
        executed = ok = gas = 0
        observe = self.lane_gas_per_tx.observe_many
        for block in blocks:
            receipts = block.receipts
            executed += len(receipts)
            ok += block.n_committed
            gas += block.gas_used
            observe([receipt.gas_used for receipt in receipts])
        self.lane_tx_executed.inc(executed)
        self.lane_tx_ok.inc(ok)
        self.lane_tx_failed.inc(executed - ok)
        self.lane_gas.inc(gas)
