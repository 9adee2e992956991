"""Cross-contract call chains (DS committee only, atomic).

Zilliqa executes a transaction's full chain of contract calls
atomically; CoSplit routes any transaction that might call another
contract to the DS committee (the single-contract check of Sec. 4.3).
These tests cover the happy path, depth limits, fund flow, and the
all-or-nothing rollback."""

import pytest

from repro.chain import Network, Transaction, call
from repro.chain.dispatch import DS
from repro.chain.execution import MAX_CALL_DEPTH
from repro.scilla.errors import ExecError
from repro.scilla.interpreter import TxContext
from repro.scilla.values import StringVal, addr, uint

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
  calls := nc;
  e = { _eventname : "Pinged"; amount : _amount };
  event e
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
  e = { _eventname : "Forwarded"; amount : _amount };
  event e;
  msg = { _tag : "Ping"; _recipient : target; _amount : _amount;
          from : _sender };
  msgs = one_msg msg;
  send msgs
end

transition FwdUnaccepted ()
  f <- forwarded;
  one = Uint128 1;
  nf = builtin add f one;
  forwarded := nf;
  msg = { _tag : "Ping"; _recipient : target; _amount : _amount;
          from : _sender };
  msgs = one_msg msg;
  send msgs
end

transition Spin ()
  accept;
  f <- forwarded;
  one = Uint128 1;
  nf = builtin add f one;
  forwarded := nf;
  msg = { _tag : "Spin"; _recipient : _this_address; _amount : _amount };
  msgs = one_msg msg;
  send msgs
end

transition Pay (to: ByStr20, amount: Uint128)
  accept;
  f <- forwarded;
  one = Uint128 1;
  nf = builtin add f one;
  forwarded := nf;
  msg = { _tag : "Paid"; _recipient : to; _amount : amount };
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


# -- the lane envelope's failure paths ---------------------------------------
# Every receipt text below is what a lane has always reported; each
# failure leaves the forked fields and balances as they were and charges
# the sender exactly ``gas_used × gas_price``.

PRICE = 3
OTHER = "0x" + "22" * 20


def priced(transition, args=None, amount=0, to=FORWARDER_ADDR):
    return Transaction(sender=USER, to=to, nonce=1, amount=amount,
                       gas_limit=50_000, gas_price=PRICE,
                       transition=transition,
                       args=tuple((args or {}).items()))


def run_alone(net, lane, tx):
    """One transaction on one lane; its receipt and the lane's forks."""
    before = net.balance(USER), net.balance(USER, lane)
    mb, forks, touched, _ = net._run_lane(lane, [tx], gas_limit=10**9)
    (r,) = mb.receipts
    fee = r.gas_used * PRICE
    if not r.success:
        assert not touched
        assert (net.balance(USER), net.balance(USER, lane)) == \
            (before[0] - fee, before[1] - fee)
    return r, forks


def assert_untouched(forks, address, **fields):
    state = forks[address]
    assert state.balance == 0
    for name, value in fields.items():
        assert state.fields[name] == value


def test_contract_call_from_shard_lane_fails_cleanly(net):
    """If a transaction that sends to a contract somehow ends up in a
    shard (mis-dispatch), it must fail rather than silently drop the
    inner call: the hop it ran is undone and its gas paid."""
    r, forks = run_alone(net, 0, priced("Fwd", amount=100))
    assert (r.success, r.error) == (
        False, "contract-to-contract call outside the DS committee")
    assert r.gas_used > 0 and r.events == ()
    assert_untouched(forks, FORWARDER_ADDR, forwarded=uint(0))
    assert RECEIVER_ADDR not in forks


def test_an_accept_the_sender_cannot_cover_is_undone():
    """The sender's portion covers the gas deposit but not the amount
    on top of it: the accepted funds and the transition's writes go."""
    net = Network(3)
    net.create_account(USER, balance=2_000_000)
    net.deploy(RECEIVER, RECEIVER_ADDR, {"owner": addr(USER)})
    portion = net.balance(USER, 0)
    deposit = 50_000 * PRICE
    assert portion >= deposit
    tx = priced("Ping", {"from": addr(USER)},
                amount=portion - deposit + 1, to=RECEIVER_ADDR)
    r, forks = run_alone(net, 0, tx)
    assert (r.success, r.error) == (False, "insufficient balance for transfer")
    assert r.gas_used > 0
    assert_untouched(forks, RECEIVER_ADDR, received=uint(0), calls=uint(0))


@pytest.mark.parametrize("lane", [0, DS])
def test_a_payout_beyond_the_contract_balance_is_undone(net, lane):
    tx = priced("Pay", {"to": addr(OTHER), "amount": uint(501)},
                amount=500)
    r, forks = run_alone(net, lane, tx)
    assert (r.success, r.error) == (
        False, "insufficient contract balance for payout")
    assert r.gas_used > 0
    assert_untouched(forks, FORWARDER_ADDR, forwarded=uint(0))
    assert net.balance(OTHER) == 0


def test_a_payout_the_contract_covers_moves_to_the_recipient(net):
    tx = priced("Pay", {"to": addr(OTHER), "amount": uint(200)},
                amount=500)
    before = net.balance(USER, 0)
    r, forks = run_alone(net, 0, tx)
    assert r.success, r.error
    assert forks[FORWARDER_ADDR].balance == 300
    assert forks[FORWARDER_ADDR].fields["forwarded"] == uint(1)
    assert (net.balance(OTHER), net.balance(OTHER, 0)) == (200, 200)
    assert net.balance(USER, 0) == before - 500 - r.gas_used * PRICE


@pytest.mark.parametrize("transition, args", [
    ("NoSuchTransition", {}),
    ("Ping", {"sender": addr(USER)}),
    ("Ping", {}),
], ids=["unknown", "wrong-name", "missing"])
def test_a_call_the_contract_cannot_take_fails_as_the_reference_does(
        net, transition, args):
    contract = receiver(net)
    with pytest.raises(ExecError) as reference:
        contract.interpreter.interpret_transition(
            contract.state.fork(), transition, args,
            TxContext(addr(USER)))
    r, forks = run_alone(net, 0, priced(transition, args, to=RECEIVER_ADDR))
    assert (r.success, r.error, r.gas_used) == (
        False, str(reference.value), 0)
    assert_untouched(forks, RECEIVER_ADDR, received=uint(0), calls=uint(0))


# -- DS call chains ------------------------------------------------------------

def test_a_chain_receipt_holds_every_hop_s_events_in_order(net):
    r, _ = run_alone(net, DS, priced("Fwd", amount=40))
    assert r.success, r.error
    assert [(e.get("_eventname"), e.get("amount")) for e in r.events] == [
        (StringVal("Forwarded"), uint(40)), (StringVal("Pinged"), uint(40))]


def test_the_depth_limit_undoes_every_hop(net):
    r, forks = run_alone(net, DS, priced("Spin", amount=70))
    assert (r.success, r.error) == (False, "call depth exceeded")
    # Every hop costs the same: the chain ran exactly MAX_CALL_DEPTH.
    contract = forwarder(net)
    hop = contract.interpreter.interpret_transition(
        contract.state.fork(), "Spin", {}, TxContext(addr(USER), 70))
    assert r.gas_used == MAX_CALL_DEPTH * hop.gas_used
    assert_untouched(forks, FORWARDER_ADDR, forwarded=uint(0))


def test_each_accept_is_debited_from_its_payer(net):
    """Hop 0 takes the user's funds, hop 1 the forwarder's."""
    before = net.balance(USER, DS)
    r, forks = run_alone(net, DS, priced("Fwd", amount=500))
    assert r.success, r.error
    assert net.balance(USER, DS) == before - 500 - r.gas_used * PRICE
    assert forks[FORWARDER_ADDR].balance == 0
    assert forks[RECEIVER_ADDR].balance == 500
    assert forks[RECEIVER_ADDR].fields["received"] == uint(500)


def test_a_calling_contract_pays_what_its_callee_accepts(net):
    """The forwarder did not accept the user's funds, so it cannot
    cover what the receiver accepts: the whole chain is undone."""
    r, forks = run_alone(net, DS, priced("FwdUnaccepted", amount=500))
    assert (r.success, r.error) == (
        False, "insufficient contract balance for transfer")
    assert_untouched(forks, FORWARDER_ADDR, forwarded=uint(0))
    assert_untouched(forks, RECEIVER_ADDR, received=uint(0), calls=uint(0))
