"""Out-of-core paged state: property battery and durability spine.

The contract this file enforces, in three layers:

* **Observational identity.**  An :class:`~repro.scilla.values.OverlayDict`
  over a :class:`~repro.scilla.backend.RowBase`, under any interleaving
  of dict-protocol operations and write-backs — with a cache small
  enough to force faults and evictions mid-sequence — is byte-identical
  to a plain dict given the same operations.
* **Rollback and CoW invariants survive paging.**  Rolling a
  :class:`~repro.scilla.state.WriteLog` back after evictions restores
  the exact state before its writes; a CoW fork of a paged map copies
  its dirty entries only (never a clean row, never a nested map) and
  isolates both sides; a fork that outlives a write-back raises
  instead of reading the newer rows.
* **The durability spine.**  A paged network takes restore points by
  the plain network's rule, and only a base pins a digest-verified
  sidecar: resume round-trips byte-identically, a tampered or missing
  sidecar is a typed ``StoreError`` (never a silent empty store), and
  retention reclaims sidecars with their bases.
"""

from __future__ import annotations

import os
import resource
import shutil
import sqlite3
from pathlib import Path
from unittest import mock

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.chain.network import Network
from repro.chain.recovery import network_fingerprint, state_fingerprint
from repro.chain.store import DELTA_SUFFIX, SnapshotStore, StoreError
from repro.scilla import types as ty
import repro.scilla.backend as backend_mod
from repro.scilla.backend import (
    RowBase, SqliteBackend, StaleRowsError, adopt, paged_base,
)
from repro.scilla.state import MISSING, ContractState, WriteLog
from repro.scilla.values import MapVal, OverlayDict, StringVal, uint
from repro.workloads.generators import FTTransfer

import repro.scilla.values as values_mod


FIXTURE = Path(__file__).parent / "fixtures" / "paged_restore_point_v4"


def _key(i: int) -> StringVal:
    return StringVal(f"k{i:04d}")


def _cache(rows: int):
    """The row cache held at ``rows`` for the duration of a block."""
    return mock.patch.object(backend_mod, "PAGE_CACHE", rows)


# op = (code, key_index, value); codes: 0 put, 1 pop, 2 get,
# 3 contains, 4 len, 5 full iteration, 6 write-back
OPS = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 15), st.integers(0, 99)),
    max_size=40)
SEED_ENTRIES = st.dictionaries(
    st.integers(0, 15), st.integers(0, 99), max_size=12)


class TestPagedMatchesDict:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEED_ENTRIES, ops=OPS, cache=st.integers(1, 6))
    def test_arbitrary_interleavings(self, seed, ops, cache):
        with _cache(cache):
            self._interleave(seed, ops)

    def _interleave(self, seed, ops):
        plain = {_key(i): uint(v) for i, v in seed.items()}
        backend = SqliteBackend()
        paged = adopt(backend, dict(plain))
        for code, i, v in ops:
            k = _key(i)
            if code == 0:
                plain[k] = uint(v)
                paged[k] = uint(v)
            elif code == 1:
                assert plain.pop(k, None) == paged.pop(k, None)
            elif code == 2:
                assert plain.get(k) == paged.get(k)
            elif code == 3:
                assert (k in plain) == (k in paged)
            elif code == 4:
                assert len(plain) == len(paged)
            elif code == 5:
                assert dict(paged.items()) == plain
            else:
                paged.write_back()
        assert paged == plain
        # Writing back and re-reading through a fresh overlay over the
        # same rows must also agree.
        paged.write_back()
        rows = paged.base
        assert (rows.count, len(paged.over), len(paged.dead)) == \
            (len(plain), 0, 0)
        assert OverlayDict(RowBase(backend, rows.map_id, rows.count)) \
            == plain
        backend.close()


def _paged_state(backend, n: int) -> ContractState:
    balances = MapVal(ty.STRING, ty.UINT128)
    for i in range(n):
        balances.entries[_key(i)] = uint(i)
    state = ContractState(
        address="0x" + "cd" * 20,
        fields={"balances": balances, "supply": uint(n)},
        field_types={"balances": ty.MapType(ty.STRING, ty.UINT128),
                     "supply": ty.UINT128})
    balances.entries = adopt(backend, balances.entries)
    return state


class TestJournalAndCow:
    @settings(max_examples=40, deadline=None)
    @given(writes=st.lists(
        st.tuples(st.booleans(), st.integers(0, 30), st.integers(0, 99)),
        max_size=30))
    def test_rollback_after_eviction_restores_exact_state(self, writes):
        with _cache(2):
            self._roll_back(writes)

    def _roll_back(self, writes):
        backend = SqliteBackend()
        state = _paged_state(backend, 20)
        before = state_fingerprint(state)
        log = WriteLog()
        for is_delete, i, v in writes:
            key = ("balances", (_key(i),))
            value = MISSING if is_delete else uint(v)
            log.record(state, key, value)
            state.write(key, value)
        # The tiny cache forces evictions *between* the logged writes;
        # the undo entries must still restore exactly.
        log.rollback(state)
        assert state_fingerprint(state) == before
        backend.close()

    @mock.patch.object(backend_mod, "PAGE_CACHE", 8)
    def test_cow_fork_never_double_materialises(self):
        backend = SqliteBackend()
        state = _paged_state(backend, 500)
        original = state.fields["balances"]
        for i in range(20):                         # a warm row cache
            original.entries[_key(i)]
        original.put(_key(600), uint(6))            # two dirty entries
        original.remove(_key(3))
        rows = original.entries.base
        assert len(rows.cache) == 8

        fork = original.copy()
        assert fork.entries is original.entries     # O(1) fork
        fork.put(_key(1), uint(999))                # first write owns
        owned = fork.entries
        assert owned is not original.entries
        # Owning copied the overlay's dirty entries, not one clean row:
        # both sides share the base, its rows and its cache.
        assert owned.base is rows
        assert owned.over == {_key(600): uint(6), _key(1): uint(999)}
        assert owned.dead == {_key(3)}
        assert backend.count(rows.map_id) == 500

        # Isolation both ways.
        assert original.entries.get(_key(1)) == uint(1)
        assert fork.entries[_key(1)] == uint(999)
        original.put(_key(2), uint(888))
        assert fork.entries.get(_key(2)) == uint(2)
        assert _key(3) not in fork.entries and _key(3) not in original.entries
        backend.close()

    def test_fork_of_a_map_of_maps_forks_no_child(self):
        inner = ty.MapType(ty.STRING, ty.UINT128)
        allowances = MapVal(ty.STRING, inner, {
            _key(i): MapVal(ty.STRING, ty.UINT128, {_key(0): uint(i)})
            for i in range(4)})
        state = ContractState(
            address="0x" + "ce" * 20, fields={"allowances": allowances},
            field_types={"allowances": ty.MapType(ty.STRING, inner)})
        allowances.entries = adopt(SqliteBackend(), allowances.entries)
        state.write(("allowances", (_key(1), _key(5))), uint(5))
        child = allowances.entries.over[_key(1)]

        fork = state.fork()
        fork.write(("allowances", (_key(2), _key(5))), uint(7))
        owned = fork.fields["allowances"].entries
        # The fork's first write copied the overlay: the child it owned
        # came along shared, not forked.
        assert set(owned.over) == {_key(1), _key(2)}
        assert owned.over[_key(1)] is child
        # A write through it copies it up first; both sides stay apart.
        fork.write(("allowances", (_key(1), _key(6))), uint(8))
        assert owned.over[_key(1)] is not child
        assert fork.read(("allowances", (_key(1), _key(5)))) == uint(5)
        assert fork.read(("allowances", (_key(1), _key(6)))) == uint(8)
        assert state.read(("allowances", (_key(1), _key(6)))) is MISSING
        assert state.read(("allowances", (_key(2), _key(5)))) is MISSING

    def test_own_counts_one_cow_copy(self):
        backend = SqliteBackend()
        state = _paged_state(backend, 10)
        fork = state.fields["balances"].copy()
        before = values_mod.COW_COPIES
        fork.put(_key(0), uint(42))
        fork.put(_key(1), uint(43))      # second write is already owned
        assert values_mod.COW_COPIES == before + 1


class TestEquivalenceAgainstPlainState:
    @pytest.mark.parametrize("spec", ["sqlite", "instance"])
    def test_workload_fingerprints_identical(self, spec):
        """Paged by name or by a store the caller built: the same
        fingerprints as plain dict state."""
        def run(backend_spec):
            wl = FTTransfer(n_users=12, txns_per_epoch=25, seed=3)
            net = Network(4, state_backend=backend_spec)
            wl.setup(net)
            for epoch in range(1, 7):
                net.process_epoch(wl.transactions(epoch))
            return network_fingerprint(net)

        assert run(None) == run(
            SqliteBackend() if spec == "instance" else spec)

    @mock.patch.object(backend_mod, "PAGE_CACHE", 1)
    def test_a_fork_does_not_outlive_a_write_back(self):
        """A fork promises deep-copy behaviour.  Over paged state it
        used to read the rows written back after it was taken, once its
        own resident rows were evicted; now it raises instead."""
        wl = FTTransfer(n_users=12, txns_per_epoch=25, seed=3)
        net = Network(4, state_backend="sqlite")
        wl.setup(net)
        net.process_epoch(wl.transactions(1))
        c = next(iter(net.contracts.values()))
        held = c.state.fork()
        taken = state_fingerprint(held)
        assert taken == state_fingerprint(c.state)
        for epoch in range(2, 5):
            net.process_epoch(wl.transactions(epoch))
        assert state_fingerprint(c.state) != taken
        with pytest.raises(StaleRowsError, match="written back"):
            state_fingerprint(held)

    def test_a_second_thread_cannot_use_the_page_store(self):
        """One thread per process (DESIGN.md §3): sqlite's own
        same-thread check is the page store's guard."""
        from concurrent.futures import ThreadPoolExecutor

        store = SqliteBackend()
        try:
            store.put_many(store.new_map(), [("k", "v")])
            with ThreadPoolExecutor(1) as pool, \
                    pytest.raises(sqlite3.ProgrammingError, match="thread"):
                pool.submit(store.get, 0, "k").result()
            assert store.get(0, "k") == "v"
        finally:
            store.close()


class TestDurabilitySpine:
    def _durable_run(self, data_dir, *, epochs=6, backend="sqlite"):
        """An FT run restoring every 2 epochs: bases and deltas
        alternate, and the newest restore point is a base."""
        wl = FTTransfer(n_users=10, txns_per_epoch=20, seed=5)
        net = Network(2, data_dir=data_dir, snapshot_every=2,
                      state_backend=backend)
        wl.setup(net)
        for epoch in range(1, epochs + 1):
            net.process_epoch(wl.transactions(epoch))
        fp = network_fingerprint(net)
        net.close()
        return fp

    def test_resume_round_trips_byte_identical(self, tmp_path):
        d = str(tmp_path)
        fp = self._durable_run(d)
        resumed = Network.resume(d)
        assert network_fingerprint(resumed) == fp
        assert resumed.state_backend is not None
        assert resumed.state_backend.kind == "sqlite"
        # The restored state is still paged, not silently inlined.
        some_state = next(iter(resumed.contracts.values())).state
        assert any(paged_base(v) is not None
                   for v in some_state.fields.values())
        resumed.close()

    def test_resume_matches_backendless_resume(self, tmp_path):
        plain = str(tmp_path / "plain")
        paged = str(tmp_path / "paged")
        fp_plain = self._durable_run(plain, backend=None)
        fp_paged = self._durable_run(paged, backend="sqlite")
        assert fp_plain == fp_paged
        a = Network.resume(plain)
        b = Network.resume(paged)
        assert network_fingerprint(a) == network_fingerprint(b)
        a.close()
        b.close()

    def test_no_map_stays_resident_and_sidecar_holds_every_entry(
            self, tmp_path):
        """No silent resident fallback: FungibleToken's ``balances``
        initialiser writes through a fork (``builtin put`` on ``Emp``),
        so the map reaches ``_adopt_state`` as an overlay — it must be
        paged all the same, stay paged across epochs, and the snapshot
        sidecar must hold exactly the live entries."""
        d = str(tmp_path)
        wl = FTTransfer(n_users=10, txns_per_epoch=20, seed=5)
        net = Network(2, data_dir=d, snapshot_every=2,
                      state_backend="sqlite")
        wl.setup(net)
        for epoch in range(1, 7):       # epoch 6 ends on a snapshot
            net.process_epoch(wl.transactions(epoch))
        live = 0
        for contract in net.contracts.values():
            for name, value in contract.state.fields.items():
                if isinstance(value, MapVal):
                    rows = paged_base(value)
                    assert rows is not None, name
                    assert net.state_backend.count(rows.map_id) \
                        == len(value.entries)
                    live += len(value.entries)
        net.close()
        assert live >= 10
        conn = sqlite3.connect(self._newest_sidecar(d))
        try:
            rows = conn.execute("SELECT COUNT(*) FROM kv").fetchone()[0]
        finally:
            conn.close()
        assert rows == live

    def _newest_sidecar(self, data_dir):
        store = SnapshotStore(data_dir)
        sidecars = store.backend_paths()
        assert sidecars, "durable paged run produced no sidecar"
        return sidecars[-1]

    def test_an_older_paged_restore_point_resumes(self, tmp_path):
        """``fixtures/paged_restore_point_v4`` was written before a paged
        map became an overlay on a row base: a sqlite-paged FT run
        (``Network(2, data_dir=…, state_backend="sqlite")``,
        ``FTTransfer(n_users=6, txns_per_epoch=4, seed=7)``, two epochs
        with a checkpoint held across the second, so its rows were not
        written back), saved with ``net.snapshot()``.  Its sidecar's
        digest still verifies, the ``PagedMap``'s five dirty rows lie
        over the sidecar's rows, and the state is what that run had."""
        shutil.copytree(FIXTURE, tmp_path / "data")
        net = Network.resume(str(tmp_path / "data"))
        try:
            assert network_fingerprint(net) == {
                "0x" + "c0" * 20: "5a221a9ec29717fdf876ecd06244a941"
                                  "0c31cd68669e8bcabb8e4960013df43e"}
            balances = net.contracts["0x" + "c0" * 20].state.fields[
                "balances"]
            entries = balances.entries
            assert paged_base(balances) is entries.base
            assert (len(entries.over), len(entries.dead), len(entries),
                    entries.base.count) == (5, 0, 7, 7)
        finally:
            net.close()

    def test_tampered_sidecar_is_a_typed_store_error(self, tmp_path):
        d = str(tmp_path)
        self._durable_run(d)
        sidecar = self._newest_sidecar(d)
        conn = sqlite3.connect(sidecar)
        conn.execute(
            "UPDATE kv SET v = '\"forged\"' WHERE (map_id, k) IN "
            "(SELECT map_id, k FROM kv LIMIT 1)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="digest mismatch"):
            Network.resume(d)

    def test_missing_sidecar_is_a_typed_store_error(self, tmp_path):
        d = str(tmp_path)
        self._durable_run(d)
        self._newest_sidecar(d).unlink()
        with pytest.raises(StoreError, match="missing backend sidecar"):
            Network.resume(d)

    def test_unreadable_sidecar_is_a_typed_store_error(self, tmp_path):
        d = str(tmp_path)
        self._durable_run(d)
        self._newest_sidecar(d).write_bytes(b"not a database")
        with pytest.raises(StoreError, match="unreadable"):
            Network.resume(d)

    def test_compaction_reclaims_paired_sidecars(self, tmp_path):
        d = str(tmp_path)
        self._durable_run(d, epochs=12)
        store = SnapshotStore(d)
        bases = {p.name[len("snap-"):-len(".json")]
                 for p in store.paths() if not p.name.endswith(DELTA_SUFFIX)}
        sidecars = {p.name[len("state-"):-len(".sqlite")]
                    for p in store.backend_paths()}
        # Retention kept `keep` restore points and the base under them;
        # each retained base kept its sidecar, and nothing else did.
        assert bases and sidecars == bases

    def test_restore_points_follow_the_plain_rule(self, tmp_path):
        """The same run, plain and paged, writes the same kinds of
        restore point — 1 base + 5 deltas over 12 epochs at
        ``snapshot_every=2`` — and the paged one pins one sidecar, its
        base's; both resume to the uninterrupted state."""
        def run(data_dir, backend):
            wl = FTTransfer(n_users=200, txns_per_epoch=10, seed=5)
            net = Network(2, data_dir=data_dir, snapshot_every=2,
                          keep_snapshots=10, state_backend=backend)
            wl.setup(net)
            for epoch in range(1, 13):
                net.process_epoch(wl.transactions(epoch))
            fp = network_fingerprint(net)
            net.close()
            store = SnapshotStore(data_dir)
            kinds = "".join("D" if p.name.endswith(DELTA_SUFFIX) else "B"
                            for p in store.paths())
            resumed = Network.resume(data_dir)
            assert network_fingerprint(resumed) == fp
            assert (resumed.state_backend is None) is (backend is None)
            assert resumed.restored_deltas == kinds.count("D")
            resumed.close()
            return kinds, len(store.backend_paths()), fp

        plain = run(str(tmp_path / "plain"), None)
        paged = run(str(tmp_path / "paged"), "sqlite")
        assert plain == ("BDDDDD", 0, paged[2])
        assert paged == ("BDDDDD", 1, plain[2])


class TestOutOfCoreSoak:
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SOAK_RSS_MB"),
        reason="set REPRO_SOAK_RSS_MB to run the bounded-memory soak")
    def test_million_entry_service_run_stays_bounded(self):
        from repro.eval.state_bench import run_oocore_soak
        ceiling = float(os.environ["REPRO_SOAK_RSS_MB"])
        entries = int(os.environ.get("REPRO_SOAK_ENTRIES", "1000000"))
        report = run_oocore_soak(entries=entries, ticks=8,
                                 txns_per_tick=200,
                                 compare_resident=False)
        assert report["committed"] > 0
        assert report["backend"]["faults"] > 0
        rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        assert rss_mb < ceiling, (
            f"out-of-core soak RSS {rss_mb:.0f} MiB over ceiling "
            f"{ceiling:.0f} MiB (entries={entries})")
