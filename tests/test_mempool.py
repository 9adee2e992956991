"""Unit tests for the bounded admission-controlled mempool
(``repro.chain.mempool``): admission rules, capacity behaviour,
deterministic shedding, drain order, and the exactly-one-terminal
accounting partition."""

import pytest

from repro.chain.mempool import (
    AdmissionStatus, Mempool, MempoolConfig, PoolEntry, RejectReason,
    TerminalKind,
)
from repro.chain.transaction import Transaction

CONTRACT = "0x" + "c0" * 20
# Senders, canonical: a transaction's addresses are from construction.
A, B, C = ("0x" + hexbyte * 20 for hexbyte in ("aa", "bb", "cc"))
CHEAP, RICH = "0x" + "01" * 20, "0x" + "09" * 20


def tx(sender: str, nonce: int, gas_price: int = 1) -> Transaction:
    return Transaction(sender=sender, to=CONTRACT, nonce=nonce,
                       gas_price=gas_price)


def fill(pool: Mempool, sender: str, nonces) -> list:
    return [pool.submit(tx(sender, n)) for n in nonces]


def assert_partition(pool: Mempool) -> None:
    assert pool.accounted() == pool.counters["submitted"]


class TestAdmission:
    def test_contiguous_nonces_admit(self):
        pool = Mempool()
        receipts = fill(pool, A, [5, 6, 7])
        assert all(r.admitted for r in receipts)
        assert pool.occupancy == 3
        assert pool.nonce_floor[A] == 7
        assert_partition(pool)

    def test_first_submission_sets_the_floor(self):
        # The pool cannot know where an unseen sender's sequence
        # starts, so any first nonce is accepted and becomes the floor.
        pool = Mempool()
        assert pool.submit(tx(A, 42)).admitted
        assert pool.nonce_floor[A] == 42

    def test_nonce_gap_rejected(self):
        pool = Mempool()
        fill(pool, A, [1])
        r = pool.submit(tx(A, 3))
        assert r.status is AdmissionStatus.REJECTED
        assert r.reason is RejectReason.NONCE_GAP
        assert pool.occupancy == 1
        assert_partition(pool)

    def test_nonce_duplicate_rejected(self):
        pool = Mempool()
        fill(pool, A, [1, 2])
        for stale in (2, 1, 0):
            r = pool.submit(tx(A, stale))
            assert r.reason is RejectReason.NONCE_DUPLICATE
        assert_partition(pool)

    def test_one_sender_is_one_queue_whatever_its_spelling(self):
        pool = Mempool()
        assert pool.submit(tx("0x" + "AB" * 20, 1)).admitted
        r = pool.submit(tx("0x" + "ab" * 20, 1))
        assert r.reason is RejectReason.NONCE_DUPLICATE
        assert list(pool.queues) == ["0x" + "ab" * 20]
        assert pool.submit(tx("0x" + "Ab" * 20, 2)).admitted
        assert pool.occupancy == 2
        assert_partition(pool)

    def test_per_sender_cap(self):
        pool = Mempool(MempoolConfig(capacity=100, per_sender=2))
        fill(pool, A, [1, 2])
        r = pool.submit(tx(A, 3))
        assert r.reason is RejectReason.SENDER_FULL
        # Other senders are unaffected.
        assert pool.submit(tx(B, 1)).admitted
        assert_partition(pool)


class TestCapacityAndPriority:
    def cfg(self):
        # high_water 1.0 disables backpressure so these tests exercise
        # the hard cap in isolation.
        return MempoolConfig(capacity=2, per_sender=8,
                             high_water=1.0, low_water=0.5)

    def test_full_pool_rejects_equal_priority(self):
        pool = Mempool(self.cfg())
        fill(pool, A, [1])
        fill(pool, B, [1])
        r = pool.submit(tx(C, 1, gas_price=1))
        assert r.reason is RejectReason.POOL_FULL
        assert_partition(pool)

    def test_full_pool_sheds_outranked_tail(self):
        pool = Mempool(self.cfg())
        pool.submit(tx(A, 1, gas_price=1))
        pool.submit(tx(B, 1, gas_price=5))
        r = pool.submit(tx(C, 1, gas_price=3))
        assert r.admitted
        # The cheapest tail (A) was shed; the floor rolled back so
        # the client can resubmit the same nonce.
        assert pool.counters["shed"] == 1
        assert A not in pool.queues
        assert pool.nonce_floor[A] == 0
        assert pool.submit(tx(A, 1, gas_price=9)).admitted
        assert pool.counters["shed"] == 2   # someone else paid
        assert pool.occupancy == 2
        assert_partition(pool)


class TestBackpressure:
    def test_hysteresis_and_retry_after(self):
        pool = Mempool(MempoolConfig(capacity=10, per_sender=10,
                                     high_water=0.8, low_water=0.5))
        fill(pool, A, range(1, 9))        # occupancy 8 == high mark
        r = pool.submit(tx(B, 1))
        assert r.status is AdmissionStatus.BACKPRESSURE
        assert r.retry_after >= 1
        assert pool.backpressure_active
        # Draining to the low mark releases it.
        pool.drain(2)                        # occupancy 6 > low mark 5
        pool.update_backpressure()
        assert pool.backpressure_active
        pool.drain(1)                        # occupancy 5 == low mark
        pool.update_backpressure()
        assert not pool.backpressure_active
        assert pool.submit(tx(B, 1)).admitted
        assert_partition(pool)

    def test_backpressured_submissions_are_accounted(self):
        pool = Mempool(MempoolConfig(capacity=4, per_sender=8,
                                     high_water=0.5, low_water=0.25))
        fill(pool, A, [1, 2])
        assert pool.submit(
            tx(B, 1)).status is AdmissionStatus.BACKPRESSURE
        assert pool.counters["backpressured"] == 1
        assert_partition(pool)


class TestDrainAndOutcomes:
    def test_drain_preserves_global_arrival_and_nonce_order(self):
        pool = Mempool()
        pool.submit(tx(A, 1))
        pool.submit(tx(B, 7))
        pool.submit(tx(A, 2))
        pool.submit(tx(B, 8))
        drained = pool.drain(10)
        assert [(t.sender, t.nonce) for t in drained] == [
            (A, 1), (B, 7), (A, 2), (B, 8)]
        assert pool.occupancy == 0
        assert len(pool.inflight) == 4
        assert_partition(pool)

    def test_drain_respects_batch_limit(self):
        pool = Mempool()
        fill(pool, A, [1, 2, 3])
        assert [t.nonce for t in pool.drain(2)] == [1, 2]
        assert pool.occupancy == 1

    def test_resolve_and_leftovers_partition(self):
        pool = Mempool()
        fill(pool, A, [1, 2])
        t1, t2 = pool.drain(2)
        assert pool.resolve(t1.tx_id, TerminalKind.COMMITTED)
        assert pool.resolve(t1.tx_id, TerminalKind.COMMITTED) is None
        leftovers = pool.resolve_leftover_inflight()
        assert [e.tx.tx_id for e in leftovers] == [t2.tx_id]
        assert pool.counters["committed"] == 1
        assert pool.counters["dropped"] == 1
        assert not pool.inflight
        assert_partition(pool)

    def test_readmit_goes_to_the_front(self):
        pool = Mempool()
        fill(pool, A, [1, 2])
        (t1,) = pool.drain(1)
        pool.readmit(t1, deferrals=1)
        assert [t.nonce for t in pool.drain(2)] == [1, 2]
        assert pool.counters["readmitted"] == 1
        assert_partition(pool)

    def test_readmit_refuses_nonce_disorder(self):
        pool = Mempool()
        fill(pool, A, [1, 2])
        t1, t2 = pool.drain(2)
        pool.readmit(t1, deferrals=1)
        with pytest.raises(ValueError):
            pool.readmit(t2, deferrals=1)   # head nonce 1 < 2

    def test_dead_letter_is_terminal(self):
        pool = Mempool()
        fill(pool, A, [1])
        (t1,) = pool.drain(1)
        pool.dead_letter(t1, deferrals=5)
        assert pool.counters["dead-lettered"] == 1
        assert not pool.inflight
        assert_partition(pool)


class TestShedding:
    def test_shed_to_capacity_is_deterministic_and_tail_only(self):
        pool = Mempool(MempoolConfig(capacity=10, per_sender=10,
                                     high_water=1.0, low_water=0.5))
        fill(pool, CHEAP, [1, 2, 3])
        [pool.submit(tx(RICH, n, gas_price=9)) for n in (1, 2, 3)]
        # Readmissions bypass the cap; shrink it to force eviction.
        pool.config.capacity = 4
        shed = pool.shed_to_capacity()
        # Cheapest tails go first, youngest arrival breaking ties:
        # nonce 3 then nonce 2 of the cheap sender.
        assert [(e.tx.sender, e.tx.nonce) for e in shed] == [
            (CHEAP, 3), (CHEAP, 2)]
        # Remaining queue is still nonce-contiguous from its head.
        assert [e.tx.nonce for e in pool.queues[CHEAP]] == [1]
        assert pool.nonce_floor[CHEAP] == 1
        assert pool.occupancy == 4
        assert_partition(pool)

    def test_shed_prefers_most_deferred_on_price_ties(self):
        pool = Mempool(MempoolConfig(capacity=10, per_sender=10,
                                     high_water=1.0, low_water=0.5))
        fill(pool, A, [1])
        fill(pool, B, [1])
        (t_b,) = [e.tx for e in [pool.queues[B][0]]]
        drained = pool.drain(10)
        pool.readmit(drained[0], deferrals=0)    # a, never deferred
        pool.readmit(t_b, deferrals=3)           # b, deferred 3 times
        pool.config.capacity = 1
        shed = pool.shed_to_capacity()
        assert [e.tx.sender for e in shed] == [B]
        assert_partition(pool)


class TestRestore:
    def test_snapshot_round_trip(self):
        pool = Mempool()
        pool.submit(tx(A, 1))
        pool.submit(tx(B, 4))
        pool.submit(tx(A, 2))
        obj = pool.to_obj()
        entries = [PoolEntry.from_obj(e, seq=i)
                   for i, e in enumerate(obj["entries"])]
        restored = Mempool()
        restored.restore(entries, nonce_floor={A: 2, B: 4})
        assert restored.occupancy == 3
        assert [t.nonce for t in restored.drain(10)
                if t.sender == A] == [1, 2]
        assert restored.nonce_floor == {A: 2, B: 4}
        assert_partition(restored)

    def test_restore_resorts_deferred_prepends(self):
        # A deferred re-admission is prepended live, so the flat
        # drain-order list can hold a sender's nonces out of order;
        # restore re-sorts each sender's slice by nonce.
        entries = [
            PoolEntry(tx(A, 2), seq=0),
            PoolEntry(tx(A, 1), seq=1, deferrals=1),
        ]
        pool = Mempool()
        pool.restore(entries)
        assert [e.tx.nonce for e in pool.queues[A]] == [1, 2]
        assert pool.counters["submitted"] == 2
        assert_partition(pool)

    def test_pending_entries_matches_drain_order(self):
        pool = Mempool()
        for sender, nonce in [(A, 1), (B, 9), (A, 2), (C, 5)]:
            pool.submit(tx(sender, nonce))
        pending_ids = [e.tx.tx_id for e in pool.pending_entries()]
        drained_ids = [t.tx_id for t in pool.drain(10)]
        assert pending_ids == drained_ids


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"capacity": 0},
        {"per_sender": 0},
        {"high_water": 0.0},
        {"high_water": 1.5},
        {"low_water": 0.9, "high_water": 0.8},
    ])
    def test_bad_configs_raise(self, kwargs):
        with pytest.raises(ValueError):
            MempoolConfig(**kwargs)

    def test_marks(self):
        cfg = MempoolConfig(capacity=100, high_water=0.85,
                            low_water=0.6)
        assert cfg.high_mark == 85
        assert cfg.low_mark == 60
