"""Out-of-core paged state: property battery and durability spine.

The contract this file enforces, in three layers:

* **Observational identity.**  A :class:`~repro.scilla.backend.PagedDict`
  under any interleaving of dict-protocol operations — with a cache
  small enough to force faults and evictions mid-sequence — is
  byte-identical to a plain dict given the same operations, for both
  backends.
* **Journal and CoW invariants survive paging.**  Rolling a
  :class:`~repro.scilla.state.StateJournal` checkpoint back after
  evictions restores the exact pre-mark state; a CoW fork of a paged
  map copies only the resident overlay (never the backing rows) and
  isolates both sides.
* **The durability spine.**  Snapshots of a sqlite-backed network pin
  a digest-verified sidecar: resume round-trips byte-identically, a
  tampered or missing sidecar is a typed ``StoreError`` (never a
  silent empty store), and retention reclaims sidecars with their
  snapshots.
"""

from __future__ import annotations

import os
import resource
import sqlite3

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.chain.network import Network
from repro.chain.recovery import network_fingerprint, state_fingerprint
from repro.chain.store import SnapshotStore, StoreError
from repro.scilla import types as ty
from repro.scilla.backend import MemoryBackend, PagedDict, SqliteBackend
from repro.scilla.state import ContractState, StateJournal
from repro.scilla.values import MapVal, StringVal, uint
from repro.workloads.generators import FTTransfer

import repro.scilla.values as values_mod


def _key(i: int) -> StringVal:
    return StringVal(f"k{i:04d}")


def _backend(kind: str):
    return MemoryBackend() if kind == "memory" else SqliteBackend()


def _paged_from(backend, entries: dict, cache: int) -> PagedDict:
    return PagedDict.adopt(backend, entries, cache_limit=cache)


# op = (code, key_index, value); codes: 0 put, 1 pop, 2 get,
# 3 contains, 4 len, 5 full iteration
OPS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 15), st.integers(0, 99)),
    max_size=40)
SEED_ENTRIES = st.dictionaries(
    st.integers(0, 15), st.integers(0, 99), max_size=12)


class TestPagedMatchesDict:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEED_ENTRIES, ops=OPS, kind=st.sampled_from(
        ["memory", "sqlite"]), cache=st.integers(1, 6))
    def test_arbitrary_interleavings(self, seed, ops, kind, cache):
        plain = {_key(i): uint(v) for i, v in seed.items()}
        backend = _backend(kind)
        paged = _paged_from(backend, dict(plain), cache)
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
            else:
                assert dict(paged.items()) == plain
        assert paged == plain
        # Writing back and re-reading through a fresh view over the
        # same rows must also agree.
        paged.flush()
        fresh = PagedDict(backend, paged.map_id, count=len(plain),
                          cache_limit=cache)
        assert fresh == plain
        backend.close()

    @settings(max_examples=25, deadline=None)
    @given(seed=SEED_ENTRIES, ops=OPS, cache=st.integers(1, 4))
    def test_backends_agree_on_digest(self, seed, ops, cache):
        digests = []
        for kind in ("memory", "sqlite"):
            backend = _backend(kind)
            paged = _paged_from(
                backend, {_key(i): uint(v) for i, v in seed.items()},
                cache)
            for code, i, v in ops:
                if code == 0:
                    paged[_key(i)] = uint(v)
                elif code == 1:
                    paged.pop(_key(i), None)
            paged.flush()
            digests.append(backend.digest())
            backend.close()
        assert digests[0] == digests[1]


def _paged_state(backend, n: int, cache: int) -> ContractState:
    balances = MapVal(ty.STRING, ty.UINT128)
    for i in range(n):
        balances.entries[_key(i)] = uint(i)
    state = ContractState(
        address="0x" + "cd" * 20,
        fields={"balances": balances, "supply": uint(n)},
        field_types={"balances": ty.MapType(ty.STRING, ty.UINT128),
                     "supply": ty.UINT128})
    balances.entries = PagedDict.adopt(backend, balances.entries,
                                       cache_limit=cache)
    return state


class TestJournalAndCow:
    @settings(max_examples=40, deadline=None)
    @given(writes=st.lists(
        st.tuples(st.booleans(), st.integers(0, 30), st.integers(0, 99)),
        max_size=30),
        kind=st.sampled_from(["memory", "sqlite"]))
    def test_rollback_after_eviction_restores_exact_state(
            self, writes, kind):
        backend = _backend(kind)
        state = _paged_state(backend, 20, cache=2)
        journal = StateJournal()
        state.journal = journal
        before = state_fingerprint(state)
        mark = journal.mark()
        for is_delete, i, v in writes:
            if is_delete:
                state.map_delete("balances", (_key(i),))
            else:
                state.map_put("balances", (_key(i),), uint(v))
        # The tiny cache forces evictions *between* the journaled
        # writes; the undo entries must still restore exactly.
        journal.rollback_to(mark)
        journal.release(mark)
        assert state_fingerprint(state) == before
        backend.close()

    def test_cow_fork_never_double_materialises(self):
        backend = SqliteBackend()
        state = _paged_state(backend, 500, cache=8)
        original = state.fields["balances"]
        rows_before = backend.count(original.entries.map_id)

        fork = original.copy()
        assert fork.entries is original.entries     # O(1) fork

        fork.put(_key(1), uint(999))                # first write owns
        assert isinstance(fork.entries, PagedDict)
        assert fork.entries is not original.entries
        # Both sides keep sharing the same backing rows: owning copied
        # the resident overlay only, it did not clone the map rows or
        # pull them into memory.
        assert fork.entries.map_id == original.entries.map_id
        assert backend.count(original.entries.map_id) == rows_before
        assert len(fork.entries._local) <= 8 + len(
            fork.entries._dirty) + 1

        # Isolation both ways.
        assert original.entries.get(_key(1)) == uint(1)
        assert fork.entries[_key(1)] == uint(999)
        original.put(_key(2), uint(888))
        assert fork.entries.get(_key(2)) == uint(2)
        backend.close()

    def test_own_counts_one_cow_copy(self):
        backend = MemoryBackend()
        state = _paged_state(backend, 10, cache=4)
        fork = state.fields["balances"].copy()
        before = values_mod.COW_COPIES
        fork.put(_key(0), uint(42))
        fork.put(_key(1), uint(43))      # second write is already owned
        assert values_mod.COW_COPIES == before + 1


class TestEquivalenceAgainstPlainState:
    @pytest.mark.parametrize("kind", ["memory", "sqlite"])
    def test_workload_fingerprints_identical(self, kind):
        def run(backend_spec):
            wl = FTTransfer(n_users=12, txns_per_epoch=25, seed=3)
            net = Network(4, use_signatures=True, state_backend=backend_spec)
            wl.setup(net)
            for epoch in range(1, 7):
                net.process_epoch(wl.transactions(epoch))
            return network_fingerprint(net)

        assert run("none") == run(kind)


class TestDurabilitySpine:
    def _durable_run(self, data_dir, *, epochs=6, backend="sqlite"):
        wl = FTTransfer(n_users=10, txns_per_epoch=20, seed=5)
        net = Network(2, use_signatures=True,
                      data_dir=data_dir, snapshot_every=2,
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
        assert any(isinstance(getattr(v, "entries", None), PagedDict)
                   for v in some_state.fields.values())
        resumed.close()

    def test_resume_matches_backendless_resume(self, tmp_path):
        plain = str(tmp_path / "plain")
        paged = str(tmp_path / "paged")
        fp_plain = self._durable_run(plain, backend="none")
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
        net = Network(2, use_signatures=True,
                      data_dir=d, snapshot_every=2,
                      state_backend="sqlite")
        wl.setup(net)
        for epoch in range(1, 7):       # epoch 6 ends on a snapshot
            net.process_epoch(wl.transactions(epoch))
        live = 0
        for contract in net.contracts.values():
            for name, value in contract.state.fields.items():
                if isinstance(value, MapVal):
                    assert isinstance(value.entries, PagedDict), name
                    assert net.state_backend.count(
                        value.entries.map_id) == len(value.entries)
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
        snaps = {p.name[len("snap-"):-len(".json")]
                 for p in store.paths()}
        sidecars = {p.name[len("state-"):-len(".sqlite")]
                    for p in store.backend_paths()}
        # Retention kept `keep` snapshots; every surviving sidecar is
        # paired with a surviving snapshot, and the newest snapshot's
        # sidecar survived.
        assert sidecars <= snaps
        assert max(snaps) in sidecars


class TestOutOfCoreSoak:
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SOAK_RSS_MB"),
        reason="set REPRO_SOAK_RSS_MB to run the bounded-memory soak")
    def test_million_entry_service_run_stays_bounded(self):
        from repro.eval.state_bench import run_oocore_soak
        ceiling = float(os.environ["REPRO_SOAK_RSS_MB"])
        entries = int(os.environ.get("REPRO_SOAK_ENTRIES", "1000000"))
        report = run_oocore_soak(entries=entries, ticks=8,
                                 txns_per_tick=200, cache=4096,
                                 compare_resident=False)
        assert report["committed"] > 0
        assert report["backend"]["faults"] > 0
        rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        assert rss_mb < ceiling, (
            f"out-of-core soak RSS {rss_mb:.0f} MiB over ceiling "
            f"{ceiling:.0f} MiB (entries={entries})")
