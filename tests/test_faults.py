"""FaultPlan / FaultInjector unit tests (determinism, churn, tampering)."""

import random

from repro.chain.faults import (
    CHURN_FAULTS, DELTA_FAULTS, EQUIVALENCE_PRESERVING,
    MICROBLOCK_FAULTS, FaultEvent, FaultInjector,
    FaultKind, FaultPlan, _perturb_key,
)
from repro.chain.transaction import payment
from repro.scilla.values import (
    ADTVal, BNumVal, ByStrVal, StringVal, uint,
)
from repro.scilla import types as ty
from repro.chain.dispatch import key_token


def test_random_plan_is_deterministic():
    a = FaultPlan.random(seed=42, epochs=20, n_shards=4, churn_rate=0.2)
    b = FaultPlan.random(seed=42, epochs=20, n_shards=4, churn_rate=0.2)
    assert a.events == b.events
    assert a.describe() == b.describe()
    c = FaultPlan.random(seed=43, epochs=20, n_shards=4, churn_rate=0.2)
    assert a.events != c.events


def test_random_plan_schedules_at_most_one_lane_fault_per_cell():
    plan = FaultPlan.random(seed=7, epochs=50, n_shards=4,
                            crash_rate=0.3, delay_rate=0.3,
                            drop_rate=0.2, corrupt_rate=0.1,
                            forge_rate=0.1)
    seen = set()
    for event in plan.events:
        assert event.shard is not None
        assert (event.epoch, event.shard) not in seen
        seen.add((event.epoch, event.shard))
    assert len(plan) > 0


def test_lane_fault_queries_partition_kinds():
    events = [
        FaultEvent(3, FaultKind.CRASH_SHARD, 0),
        FaultEvent(3, FaultKind.DELAY_MICROBLOCK, 1),
        FaultEvent(3, FaultKind.CORRUPT_DELTA, 2),
        FaultEvent(4, FaultKind.DROP_TX),
    ]
    plan = FaultPlan(events)
    injector = FaultInjector(plan)
    assert injector.crashed_shards(3) == [0]
    assert injector.microblock_faults(3) == {
        1: FaultKind.DELAY_MICROBLOCK}
    assert injector.delta_faults(3) == {2: FaultKind.CORRUPT_DELTA}
    assert injector.crashed_shards(4) == []
    assert plan.events_for(4) == [FaultEvent(4, FaultKind.DROP_TX)]


def test_equivalence_preserving_classification():
    assert MICROBLOCK_FAULTS | DELTA_FAULTS | {FaultKind.CRASH_SHARD} \
        == EQUIVALENCE_PRESERVING
    lanes_only = FaultPlan([FaultEvent(1, FaultKind.CRASH_SHARD, 0)])
    assert lanes_only.equivalence_preserving
    with_churn = FaultPlan([FaultEvent(1, FaultKind.CRASH_SHARD, 0),
                            FaultEvent(2, FaultKind.DROP_TX)])
    assert not with_churn.equivalence_preserving
    assert CHURN_FAULTS.isdisjoint(EQUIVALENCE_PRESERVING)


def test_churn_drop_duplicate_reorder():
    txns = [payment(f"0x{i:040x}", f"0x{i + 1:040x}", 1, nonce=1)
            for i in range(8)]
    plan = FaultPlan([FaultEvent(1, FaultKind.DROP_TX),
                      FaultEvent(2, FaultKind.DUPLICATE_TX),
                      FaultEvent(3, FaultKind.REORDER_TXNS)])
    injector = FaultInjector(plan)
    log: list[str] = []
    dropped = injector.churn_mempool(1, txns, log)
    assert len(dropped) == len(txns) - 1
    assert len(injector.dropped) == 1
    duplicated = injector.churn_mempool(2, txns, log)
    assert len(duplicated) == len(txns) + 1
    reordered = injector.churn_mempool(3, txns, log)
    assert sorted(t.tx_id for t in reordered) == \
        sorted(t.tx_id for t in txns)
    assert injector.churn_mempool(4, txns, log) == txns  # no event
    assert len(log) == 3
    # Deterministic: a fresh injector makes the same choices.
    again = FaultInjector(FaultPlan(plan.events, seed=plan.seed))
    assert [t.tx_id for t in again.churn_mempool(3, txns, [])] == \
        [t.tx_id for t in reordered]


def test_perturb_key_changes_token_but_keeps_type():
    for value in (uint(5), StringVal("abc"),
                  ByStrVal("0x" + "ab" * 20, ty.PrimType("ByStr20")),
                  BNumVal(12)):
        for step in range(4):
            out = _perturb_key(value, step)
            assert out is not None
            assert type(out) is type(value)
            assert key_token(out) != key_token(value)
    adt = ADTVal("Bool", "True", ())
    assert _perturb_key(adt, 0) is None


def test_plan_sorts_events_deterministically():
    rng = random.Random(0)
    events = [FaultEvent(rng.randrange(5), FaultKind.CRASH_SHARD,
                         rng.randrange(3)) for _ in range(10)]
    a = FaultPlan(events)
    b = FaultPlan(list(reversed(events)))
    assert a.events == b.events
