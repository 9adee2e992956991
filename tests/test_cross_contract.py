"""Cross-contract call chains (DS committee only, atomic).

Zilliqa executes a transaction's full chain of contract calls
atomically; CoSplit routes any transaction that might call another
contract to the DS committee (the single-contract check of Sec. 4.3).
These tests cover the happy path, depth limits, fund flow, and the
all-or-nothing rollback."""

import pytest

from repro.chain import Network, call
from repro.chain.execution import MAX_CALL_DEPTH
from repro.scilla.values import addr, uint

USER = "0x" + "11" * 20
RECEIVER_ADDR = "0x" + "aa" * 20
FORWARDER_ADDR = "0x" + "bb" * 20

RECEIVER = """
scilla_version 0
library Receiver
contract Receiver (owner: ByStr20)
field received : Uint128 = Uint128 0
field calls : Uint128 = Uint128 0

transition Ping (from: ByStr20)
  accept;
  r <- received;
  nr = builtin add r _amount;
  received := nr;
  c <- calls;
  one = Uint128 1;
  nc = builtin add c one;
  calls := nc
end

transition Reject (from: ByStr20)
  e = { _exception : "Nope" };
  throw e
end
"""

FORWARDER = """
scilla_version 0
library Forwarder
contract Forwarder (target: ByStr20)
field forwarded : Uint128 = Uint128 0

transition Fwd ()
  accept;
  f <- forwarded;
  nf = builtin add f _amount;
  forwarded := nf;
  msg = { _tag : "Ping"; _recipient : target; _amount : _amount;
          from : _sender };
  msgs = one_msg msg;
  send msgs
end

transition FwdToRejector ()
  accept;
  f <- forwarded;
  nf = builtin add f _amount;
  forwarded := nf;
  msg = { _tag : "Reject"; _recipient : target; _amount : Uint128 0;
          from : _sender };
  msgs = one_msg msg;
  send msgs
end

transition FwdLoop ()
  msg = { _tag : "FwdLoop"; _recipient : _this_address;
          _amount : Uint128 0 };
  msgs = one_msg msg;
  send msgs
end
"""


@pytest.fixture
def net():
    network = Network(3)
    network.create_account(USER)
    network.deploy(RECEIVER, RECEIVER_ADDR, {"owner": addr(USER)})
    network.deploy(FORWARDER, FORWARDER_ADDR,
                   {"target": addr(RECEIVER_ADDR)})
    return network


def receiver(net):
    return net.contracts["0x" + "aa" * 20]


def forwarder(net):
    return net.contracts["0x" + "bb" * 20]


def test_chain_moves_funds_through_two_contracts(net):
    block = net.process_epoch(
        [call(USER, FORWARDER_ADDR, "Fwd", {}, nonce=1, amount=500)],
        unlimited=True)
    (r,) = block.all_receipts
    assert r.success
    assert r.shard == -1  # DS committee
    assert receiver(net).state.fields["received"] == uint(500)
    assert receiver(net).state.balance == 500
    assert forwarder(net).state.balance == 0  # passed everything on


def test_failed_inner_call_rolls_back_whole_chain(net):
    before_fwd = forwarder(net).state.fields["forwarded"]
    block = net.process_epoch(
        [call(USER, FORWARDER_ADDR, "FwdToRejector", {}, nonce=1,
              amount=300)],
        unlimited=True)
    (r,) = block.all_receipts
    assert not r.success
    assert "Nope" in r.error
    # The forwarder's own write and accepted funds are undone too.
    assert forwarder(net).state.fields["forwarded"] == before_fwd
    assert forwarder(net).state.balance == 0
    assert receiver(net).state.fields["calls"] == uint(0)


def test_failed_chain_still_charges_gas(net):
    before = net.balance(USER)
    block = net.process_epoch(
        [call(USER, FORWARDER_ADDR, "FwdToRejector", {}, nonce=1,
              amount=300)],
        unlimited=True)
    (r,) = block.all_receipts
    assert not r.success
    after = net.balance(USER)
    assert after == before - r.gas_used  # gas paid, amount returned


def test_self_call_loop_hits_depth_limit(net):
    block = net.process_epoch(
        [call(USER, FORWARDER_ADDR, "FwdLoop", {}, nonce=1)],
        unlimited=True)
    (r,) = block.all_receipts
    assert not r.success
    assert "depth" in r.error
    assert MAX_CALL_DEPTH >= 2


def test_chain_gas_accumulates_across_calls(net):
    single = net.process_epoch(
        [call(USER, RECEIVER_ADDR, "Ping", {"from": addr(USER)},
              nonce=1, amount=10)],
        unlimited=True).all_receipts[0]
    chained = net.process_epoch(
        [call(USER, FORWARDER_ADDR, "Fwd", {}, nonce=2, amount=10)],
        unlimited=True).all_receipts[0]
    assert chained.gas_used > single.gas_used


def test_contract_call_from_shard_lane_fails_cleanly():
    """If a transaction that sends to a contract somehow ends up in a
    shard (mis-dispatch), it must fail rather than silently drop the
    inner call."""
    net = Network(3)
    net.create_account(USER)
    net.deploy(RECEIVER, RECEIVER_ADDR, {"owner": addr(USER)})
    net.deploy(FORWARDER, FORWARDER_ADDR, {"target": addr(RECEIVER_ADDR)})
    tx = call(USER, FORWARDER_ADDR, "Fwd", {}, nonce=1, amount=100)
    mb, _, _, _ = net._run_lane(0, [tx], gas_limit=10**9)
    (r,) = mb.receipts
    assert not r.success
    assert "DS committee" in r.error
