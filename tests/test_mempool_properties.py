"""Property tests for the mempool (Hypothesis).

The safety arguments the service mode leans on, under *arbitrary*
interleavings of submissions, drains, outcome resolution, deferral
re-admission, and shedding:

* **Conservation / exactly-one-terminal**: every submitted transaction
  is, at every instant, in exactly one place — a terminal counter, the
  pending queues, or the inflight set — and the counters partition
  ``submitted`` exactly.  No transaction is ever lost or counted twice.
* **Per-sender nonce order**: each sender's pending queue is strictly
  ascending and contiguous in nonce, and drains preserve that order.
* **Capacity**: after settlement (``shed_to_capacity``) occupancy
  never exceeds the configured cap, and the shed choice is a function
  of pool state alone (re-running the same op sequence sheds the same
  transactions).
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.chain.mempool import (
    Mempool, MempoolConfig, TerminalKind,
)
from repro.chain.transaction import Transaction

CONTRACT = "0x" + "c0" * 20
SENDERS = ["s0", "s1", "s2", "s3"]

# One op: (kind, sender index, offset/extra, gas price)
ops = st.lists(
    st.tuples(
        st.sampled_from(["submit", "submit_gap", "submit_dup",
                         "drain", "commit", "fail", "defer",
                         "drop_leftovers", "shed", "backpressure"]),
        st.integers(min_value=0, max_value=len(SENDERS) - 1),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=5),
    ),
    min_size=1, max_size=60,
)

configs = st.builds(
    MempoolConfig,
    capacity=st.integers(min_value=2, max_value=12),
    per_sender=st.integers(min_value=1, max_value=6),
    high_water=st.just(1.0),   # hard-cap focus; hysteresis is unit-tested
    low_water=st.just(0.5),
)


class Driver:
    """Replays one op sequence against a pool, tracking every tx id.

    ``defer`` readmits nonce *n* only in front of a pending *n + 1* (or
    into an empty queue), and only once no later nonce of its sender is
    still inflight.  That mirrors the one ordering production uses:
    ``ServiceLoop._absorb_outcomes`` readmits an epoch's deferrals
    nonce-descending after the whole epoch has settled, so a readmitted
    transaction never jumps a later one of its sender that is still
    inflight (which would leave a gap in the pending queue).
    """

    def __init__(self, config: MempoolConfig):
        self.pool = Mempool(config)
        self.admitted_ids: set[int] = set()
        self.terminal_ids: set[int] = set()
        self.drained: list = []     # inflight, in drain order

    def step(self, op) -> None:
        kind, s, extra, price = op
        pool = self.pool
        sender = SENDERS[s]
        if kind.startswith("submit"):
            floor = pool.nonce_floor.get(sender, 0)
            nonce = floor + 1
            if kind == "submit_gap":
                nonce = floor + 1 + extra
            elif kind == "submit_dup":
                nonce = max(floor - extra, 0)
            tx = Transaction(sender=sender, to=CONTRACT, nonce=nonce,
                             gas_price=price)
            before = {e.tx.tx_id for q in pool.queues.values()
                      for e in q}
            receipt = pool.submit(tx)
            if receipt.admitted:
                self.admitted_ids.add(tx.tx_id)
            # Priority admission may have shed an incumbent.
            after = {e.tx.tx_id for q in pool.queues.values()
                     for e in q}
            self.terminal_ids |= before - after - {tx.tx_id}
        elif kind == "drain":
            self.drained.extend(pool.drain(extra))
        elif kind in ("commit", "fail"):
            if self.drained:
                tx = self.drained.pop(0)
                outcome = (TerminalKind.COMMITTED if kind == "commit"
                           else TerminalKind.FAILED)
                if pool.resolve(tx.tx_id, outcome) is not None:
                    self.terminal_ids.add(tx.tx_id)
        elif kind == "defer":
            if self.drained:
                tx = self.drained.pop(0)
                entry = pool.inflight.get(tx.tx_id)
                if entry is None:
                    return
                head = pool.queues.get(tx.sender)
                if head and head[0].tx.nonce != tx.nonce + 1:
                    return   # disorder readmit is unit-tested to raise
                if any(e.tx.sender == tx.sender and e.tx.nonce > tx.nonce
                       for e in pool.inflight.values()):
                    return   # the loop readmits nonce-descending
                pool.inflight.pop(tx.tx_id)
                pool.readmit(tx, entry.deferrals + 1)
        elif kind == "drop_leftovers":
            for entry in pool.resolve_leftover_inflight():
                self.terminal_ids.add(entry.tx.tx_id)
            self.drained.clear()
        elif kind == "shed":
            for entry in pool.shed_to_capacity():
                self.terminal_ids.add(entry.tx.tx_id)
        elif kind == "backpressure":
            pool.update_backpressure()

    def settle(self) -> None:
        for entry in self.pool.shed_to_capacity():
            self.terminal_ids.add(entry.tx.tx_id)

    # -- invariants --------------------------------------------------------

    def check_partition(self) -> None:
        pool = self.pool
        assert pool.accounted() == pool.counters["submitted"]
        assert pool.count == sum(len(q) for q in pool.queues.values())

    def check_no_tx_lost(self) -> None:
        pool = self.pool
        live = {e.tx.tx_id for q in pool.queues.values() for e in q}
        inflight = set(pool.inflight)
        # Exactly one place for every admitted transaction...
        assert live | inflight | self.terminal_ids >= self.admitted_ids
        # ...and never two at once.
        assert not (live & inflight)
        assert not (live & self.terminal_ids)
        assert not (inflight & self.terminal_ids)

    def check_nonce_order(self) -> None:
        for sender, queue in self.pool.queues.items():
            nonces = [e.tx.nonce for e in queue]
            assert nonces == list(range(nonces[0],
                                        nonces[0] + len(nonces))), \
                f"{sender}: non-contiguous pending nonces {nonces}"


@settings(max_examples=80, deadline=None)
@given(configs, ops)
# Found by Hypothesis against the looser guard (head nonce >= n): nonce
# 1 readmitted while 2 is inflight and 3 pending left pending [1, 3].
@example(MempoolConfig(capacity=12, per_sender=6, high_water=1.0,
                       low_water=0.5),
         [("submit", 0, 1, 1)] * 3 + [("drain", 0, 2, 1),
                                      ("defer", 0, 1, 1)])
# Its sibling through an empty queue: 2 and 3 inflight, 1 readmitted,
# then a fresh submission of 4 left pending [1, 4].
@example(MempoolConfig(capacity=12, per_sender=6, high_water=1.0,
                       low_water=0.5),
         [("submit", 0, 1, 1)] * 3 + [("drain", 0, 3, 1),
                                      ("defer", 0, 1, 1),
                                      ("submit", 0, 1, 1)])
def test_invariants_hold_under_arbitrary_interleavings(config, sequence):
    driver = Driver(config)
    for op in sequence:
        driver.step(op)
        driver.check_partition()
        driver.check_nonce_order()
        driver.check_no_tx_lost()
    driver.settle()
    assert driver.pool.occupancy <= config.capacity
    driver.check_partition()
    driver.check_no_tx_lost()


@settings(max_examples=40, deadline=None)
@given(configs, ops)
def test_shedding_is_deterministic(config, sequence):
    def run():
        driver = Driver(config)
        for op in sequence:
            driver.step(op)
        driver.settle()
        return (sorted(driver.terminal_ids),
                dict(driver.pool.counters),
                [(e.tx.sender, e.tx.nonce)
                 for e in driver.pool.pending_entries()])

    # tx_ids differ between runs (global counter), so compare shapes:
    # counters and the exact pending population must be identical.
    first, second = run(), run()
    assert first[1] == second[1]
    assert first[2] == second[2]


@settings(max_examples=60, deadline=None)
@given(ops)
def test_drain_order_is_per_sender_fifo(sequence):
    driver = Driver(MempoolConfig(capacity=64, per_sender=16,
                                  high_water=1.0, low_water=0.5))
    for op in sequence:
        driver.step(op)
    drained = driver.pool.drain(64)
    seen: dict[str, int] = {}
    for tx in drained:
        last = seen.get(tx.sender)
        assert last is None or tx.nonce > last
        seen[tx.sender] = tx.nonce
