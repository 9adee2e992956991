"""Accounts, split-balance gas accounting, and nonce tracking."""

import pickle

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
