"""Accounts, split-balance gas accounting, and nonce tracking."""

import pickle

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.chain import Network, NetworkConfig
from repro.chain.dispatch import DS
from repro.chain.transaction import (
    NonceTracker, Transaction, call, charged, credited, funded_row, payment,
    portion_slot, used_runs,
)
from repro.scilla.values import uint


# -- transactions --------------------------------------------------------------

def test_call_constructor():
    tx = call("0xaa", "0xcc", "Transfer", {"amount": uint(1)}, nonce=3)
    assert tx.is_contract_call
    assert tx.transition == "Transfer"
    assert tx.args_dict()["amount"] == uint(1)
    assert tx.nonce == 3


def test_payment_constructor():
    tx = payment("0xaa", "0xbb", amount=10, nonce=1)
    assert not tx.is_contract_call
    assert tx.amount == 10


def test_tx_ids_unique():
    a, b = payment("0xaa", "0xbb", 1), payment("0xaa", "0xbb", 1)
    assert a.tx_id != b.tx_id


def test_transaction_is_slotted_and_keeps_value_semantics():
    """No instance dict; equality, hash and pickling over the nine
    fields, as the frozen dataclass it replaced had them."""
    tx = call("0xaa", "0xcc", "Transfer", {"amount": uint(1)}, nonce=3)
    assert not hasattr(tx, "__dict__")
    twin = Transaction(tx.sender, tx.to, 3, 0, 50_000, 1, "Transfer",
                       tx.args, tx_id=tx.tx_id)
    assert twin == tx and hash(twin) == hash(tx)
    assert twin != Transaction(tx.sender, tx.to, 3, tx_id=tx.tx_id)
    copy = pickle.loads(pickle.dumps(tx))
    assert copy == tx and copy.tx_id == tx.tx_id
    assert repr(tx).startswith(f"Transaction(sender='{tx.sender}', ")


# -- split-balance account rows ---------------------------------------------------

def _portions(row, n_shards):
    """A row's portions by lane, as the ``Account`` dict held them."""
    return {lane: row[portion_slot(lane)] for lane in (*range(n_shards), -1)}


def test_split_preserves_total():
    row = funded_row(1000, 4, 2)
    assert row[0] == 1000
    assert sum(_portions(row, 4).values()) == 1000


def test_home_shard_gets_largest_portion():
    portions = _portions(funded_row(1000, 4, 2), 4)
    assert portions[2] == max(portions.values())
    assert portions == {0: 100, 1: 100, 2: 500, 3: 100, -1: 200}


def test_ds_portion_exists():
    assert _portions(funded_row(1000, 3, 0), 3)[-1] is not None


def test_charge_respects_portion():
    row = funded_row(1000, 4, 0)
    small_shard = 1
    portion = row[portion_slot(small_shard)]
    assert charged(row, small_shard, portion + 1) is None
    row = charged(row, small_shard, portion)
    assert _portions(row, 4)[small_shard] == 0
    assert row[0] == 1000 - portion


def test_credit_updates_total_and_portion():
    row = credited(funded_row(0, 2, 0), 1, 50)
    assert row[0] == 50
    assert _portions(row, 2)[1] == 50


def test_funded_rows_are_shared_and_split_in_integers():
    """One tuple per (balance, shard count, home shard); the home half
    is ``balance // 2`` — ``int(balance * 0.5)`` below 2**53."""
    assert funded_row(10**12, 4, 1) is funded_row(10**12, 4, 1)
    for balance in (0, 1, 999, 10**12 + 1, 2**53 - 1):
        assert funded_row(balance, 4, 3)[portion_slot(3)] == \
            int(balance * 0.5)


# -- nonce tracking -----------------------------------------------------------------

def test_relaxed_allows_gaps_within_lane():
    t = NonceTracker(strict=False)
    assert t.try_accept("a", 1, lane=0)
    assert t.try_accept("a", 5, lane=0)     # gap is fine
    assert not t.try_accept("a", 3, lane=0)  # but not going backwards


def test_relaxed_lanes_are_independent():
    """Nonces {1,3,5} in one shard and {2,4} in another can proceed in
    parallel — the paper's Sec. 4.2.1 example."""
    t = NonceTracker(strict=False)
    for n in (1, 3, 5):
        assert t.try_accept("a", n, lane=0)
    for n in (2, 4):
        assert t.try_accept("a", n, lane=1)


def test_replay_rejected_across_lanes():
    t = NonceTracker(strict=False)
    assert t.try_accept("a", 7, lane=0)
    assert not t.try_accept("a", 7, lane=1)


def test_strict_requires_gap_free_sequence():
    t = NonceTracker(strict=True)
    assert t.try_accept("a", 1, lane=0)
    assert not t.try_accept("a", 3, lane=0)  # gap refused
    assert t.try_accept("a", 2, lane=1)      # exact successor, any lane
    assert t.try_accept("a", 3, lane=0)


def test_senders_tracked_independently():
    t = NonceTracker()
    assert t.try_accept("a", 1, lane=0)
    assert t.try_accept("b", 1, lane=0)


def test_used_nonces_are_a_run_plus_gaps():
    """A sender who never skips a nonce holds no set; a gap holds the
    nonces above it until it is filled."""
    t = NonceTracker(n_shards=2)
    for n in range(1, 6):
        assert t.try_accept("a", n, lane=n % 2)
    assert t.records["a"][-2:] == (5, None)
    assert t.try_accept("a", 8, lane=-1)
    assert t.try_accept("a", 9, lane=-1)
    assert used_runs(t.records["a"]) == [[1, 5], [8, 9]]
    assert not t.try_accept("a", 9, lane=0)        # replay of a gap nonce
    assert t.try_accept("a", 7, lane=0) and t.try_accept("a", 6, lane=1)
    assert t.records["a"][-2:] == (9, None)       # gap filled: set dropped


# -- lanes and the nonce rule ---------------------------------------------------
# A lane checks a nonce inline when a sender's record (buffered, published
# or, for a sender never seen, the blank one) has no gaps and its run
# grows by one, and calls ``try_accept`` otherwise: its verdicts, and the
# table an epoch publishes, are a plain tracker's fed the same calls in
# the order the lanes run (shards 0 to 3, then the DS committee).

SLOTS = """
scilla_version 0
library Slots
contract Slots ()
field m : Map Uint128 Uint128 = Emp Uint128 Uint128
transition Put (k: Uint128)
  one = Uint128 1;
  m[k] := one
end
"""
SLOTS_ADDR = "0x" + "5a" * 20
SENDERS = ["0x" + c * 40 for c in "123"]
LANES = (0, 1, 2, 3, DS)


def _lane_tx(net, keys, sender, nonce, lane):
    """A transaction of ``sender`` that ``lane`` runs: a ``Put`` whose
    key that shard owns, or, for the DS committee, a payment to the
    contract (refused after its nonce is checked)."""
    if lane == DS:
        return Transaction(sender, SLOTS_ADDR, nonce, gas_limit=1_000)
    return call(sender, SLOTS_ADDR, "Put", {"k": keys[lane]}, nonce=nonce,
                gas_limit=1_000)


def _slots_network(strict: bool):
    """The Slots contract on four shards, each sender with an account,
    and a key of ``m`` per shard lane."""
    net = Network(4, NetworkConfig(strict_nonces=strict))
    net.deploy(SLOTS, SLOTS_ADDR, {}, sharded_transitions=("Put",))
    for sender in SENDERS:
        net.create_account(sender)
    keys = {}
    for k in range(64):
        keys.setdefault(net.dispatcher.dispatch(
            call(SENDERS[0], SLOTS_ADDR, "Put", {"k": uint(k)})).shard,
            uint(k))
    return net, keys


# Every epoch, first-ever senders too: a fresh account per lane and mode
# whose first nonce is 1 (the blank record's run grows by one), or not.
FIRST_NONCES = [[(-1, 1, lane) for lane in LANES]
                + [(-1, 2, lane) for lane in LANES]
                + [(0, 1, lane) for lane in LANES]]


@settings(max_examples=40, deadline=None)
@given(strict=st.booleans(),
       epochs=st.lists(st.lists(st.tuples(
           st.integers(-1, len(SENDERS) - 1), st.integers(1, 8),
           st.sampled_from(LANES)), max_size=14), min_size=1, max_size=3))
@example(strict=False, epochs=FIRST_NONCES)
@example(strict=True, epochs=FIRST_NONCES)
def test_lane_nonce_verdicts_are_try_accept_s(strict, epochs):
    """A sender index of -1 is a first-ever sender: an account created
    just before the epoch, with no nonce record anywhere."""
    net, keys = _slots_network(strict)
    reference = NonceTracker(strict=strict, n_shards=4)
    fresh = iter(f"0x{i:040x}" for i in range(1, 10**6))
    for drawn in epochs:
        senders = [SENDERS[s] if s >= 0 else next(fresh)
                   for s, _, _ in drawn]
        for sender in set(senders) - set(SENDERS):
            net.create_account(sender)
        txs = [_lane_tx(net, keys, sender, nonce, lane)
               for sender, (_, nonce, lane) in zip(senders, drawn)]
        lanes = {tx.tx_id: lane for tx, (_, _, lane) in zip(txs, drawn)}
        receipts = net.process_epoch(txs, unlimited=True).all_receipts
        assert len(receipts) == len(txs)
        for r in receipts:
            assert r.shard == lanes[r.tx.tx_id]
            accepted = reference.try_accept(r.tx.sender, r.tx.nonce, r.shard)
            assert (r.error == "bad nonce") is (not accepted), r
        assert dict(net.nonces.records) == dict(reference.records)


def test_a_first_nonce_is_checked_inline(monkeypatch):
    """A sender with no record anywhere whose first nonce is 1 is
    accepted without ``try_accept``: its blank record's run grows by
    one.  Any other first nonce, and strict mode, still call it."""
    calls = []
    accept = NonceTracker.try_accept

    def counted(self, sender, nonce, lane):
        calls.append((sender, nonce, lane))
        return accept(self, sender, nonce, lane)
    monkeypatch.setattr(NonceTracker, "try_accept", counted)
    for strict in (False, True):
        net, keys = _slots_network(strict)
        firsts = [f"0x{i:040x}" for i in range(1, 11)]
        for sender in firsts:
            net.create_account(sender)
        txs = [_lane_tx(net, keys, sender, 1 + (i >= 5), LANES[i % 5])
               for i, sender in enumerate(firsts)]
        del calls[:]
        receipts = net.process_epoch(txs, unlimited=True).all_receipts
        refused = sorted(r.tx.sender for r in receipts
                         if r.error == "bad nonce")
        # Nonce 2 leaves a gap (relaxed) or is not the next (strict).
        assert refused == (firsts[5:] if strict else [])
        checked = firsts if strict else firsts[5:]
        assert sorted(sender for sender, _, _ in calls) == checked
