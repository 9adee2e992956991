"""Differential oracle: dispatch plans ≡ the reference dispatcher.

``Dispatcher.dispatch`` runs a closure lowered once per (contract,
transition) at registration; ``Dispatcher.dispatch_reference`` re-derives
the decision procedure of Sec. 4.3 per transaction and is the executable
specification.  Shard *and* reason string must agree on every input —
transaction arguments are untrusted, so that includes calls no honest
client sends: missing, reordered and duplicated argument names, aliasing
keys, contract addresses where a user is expected.

* every transition of all 52 corpus contracts, selected and unselected
  (two selections per contract), under signature and default dispatch;
* payments, unknown contracts and transitions, short-form addresses;
* registration order: a contract deployed *after* a plan was lowered
  changes ``UserAddr``, and unregistering it changes it back.
"""

import random

import pytest

from repro.chain.dispatch import (
    DS, REASON_KINDS, DeployedSignature, Dispatcher,
)
from repro.chain.transaction import Transaction, call, payment
from repro.contracts import CORPUS
from repro.core.pipeline import run_pipeline_cached
from repro.scilla.interpreter import Interpreter
from repro.scilla import types as ty
from repro.scilla.values import MapVal, StringVal, addr, uint

from .test_compiled_equivalence import ADMIN, OTHER, THIS, candidates

USER = "0x" + "5e" * 20
# OTHER is registered as a second contract, so ByStr20 candidates cover
# "recipient is a contract"; ADMIN and USER are plain users.
SENDERS = (ADMIN, USER, OTHER, "0xab")

# Reason-string prefix -> DispatchDecision.kind.
KIND_OF = {
    "constraints satisfied": "satisfied", "unconstrained": "unconstrained",
    "⊥": "bot", "unresolvable": "unresolvable",
    "aliasing keys": "aliasing_keys",
    "non-user recipient": "non_user_recipient",
    "conflicting ownership": "conflicting_ownership",
    "transition not sharded": "transition_not_sharded",
    "payment to contract": "payment_to_contract", "payment": "payment",
    "unknown contract": "unknown_contract", "co-located": "co_located",
    "cross-shard contract call": "cross_shard_call",
}


def kind_of(reason: str) -> str:
    return next(kind for prefix, kind in KIND_OF.items()
                if reason == prefix or reason.startswith(prefix + " ")
                or reason.startswith(prefix + ":"))


def agree(d: Dispatcher, tx: Transaction) -> str:
    """Assert plan ≡ reference on ``tx``; returns the reason kind."""
    try:
        want = d.dispatch_reference(tx)
    except Exception as exc:            # noqa: BLE001 — compared below
        with pytest.raises(type(exc)):
            d.dispatch(tx)
        return "raised"
    got = d.dispatch(tx)
    assert (got.shard, got.reason) == (want.shard, want.reason), (
        f"{tx} args={[(k, str(v)) for k, v in tx.args]}: "
        f"plan {got} != reference {want}")
    assert got.kind == kind_of(want.reason)
    return got.kind


def dispatchers(name: str):
    """(dispatcher, transitions, adts) for one corpus contract: all
    transitions selected, every other one selected, a deployment whose
    contract parameters the lookup node lacks (``cparam:`` keys do not
    resolve), and the default strategy (signatures off, and an unsigned
    deployment)."""
    result = run_pipeline_cached(CORPUS[name], name)
    interp = Interpreter(result.module)
    contract = result.module.contract
    immutables = {p.name: candidates(p.typ, interp.adts)[0]
                  for p in contract.params}
    names = [t.name for t in contract.transitions]
    for n_shards, selected, use, known in (
            (4, names, True, immutables), (3, names[::2], True, immutables),
            (4, names, True, {}), (4, names, False, immutables),
            (4, None, True, immutables)):
        d = Dispatcher(n_shards, use_signatures=use)
        sig = (result.signature(tuple(selected))
               if selected is not None else None)
        d.register_contract(DeployedSignature(THIS, sig, known))
        d.register_contract(DeployedSignature(OTHER, None, {}))
        yield d, contract.transitions, interp.adts


def transactions(comp, adts, rng):
    """Calls of one transition: the ordinary ones, then the shapes only
    an adversary sends."""
    pools = {p.name: candidates(p.typ, adts) for p in comp.params}
    if not all(pools.values()):
        return
    names = list(pools)
    for i in range(6):
        pick = (lambda pool: pool[0]) if i == 0 else rng.choice
        args = [(n, pick(pools[n])) for n in names]
        sender = rng.choice(SENDERS)
        yield Transaction(sender, rng.choice((THIS, THIS, "0x" + "c0" * 20)),
                          nonce=1, transition=comp.name, args=tuple(args),
                          amount=rng.choice((0, 5)))
        if i == 1:
            # Aliasing: every address argument is the sender.
            yield call(sender, THIS, comp.name, {
                n: (addr(sender) if str(p.typ) == "ByStr20" else v)
                for (n, v), p in zip(args, comp.params)})
        elif i == 2:
            for drop in range(len(args)):
                yield Transaction(sender, THIS, 1, transition=comp.name,
                                  args=tuple(args[:drop] + args[drop + 1:]))
        elif i == 3:
            yield Transaction(sender, THIS, 1, transition=comp.name,
                              args=tuple(reversed(args)))
        elif i == 4 and args:
            # A repeated name: the last occurrence wins.
            n = rng.choice(names)
            dup = (n, rng.choice(pools[n]))
            yield Transaction(sender, THIS, 1, transition=comp.name,
                              args=tuple(args + [dup]))
            yield Transaction(sender, THIS, 1, transition=comp.name,
                              args=tuple([dup] + args))
        elif i == 5 and args:
            # A value of the wrong kind under a real name; a map is no
            # key at all (``key_token`` raises in both alike).
            for bad in (StringVal("x"), MapVal(ty.BYSTR20, ty.UINT128)):
                yield Transaction(sender, THIS, 1, transition=comp.name,
                                  args=tuple([(names[0], bad)] + args[1:]))


def corpus_kinds(name: str) -> list[str]:
    rng = random.Random(name)
    kinds = []
    for d, transitions, adts in dispatchers(name):
        for comp in transitions:
            kinds += [agree(d, tx) for tx in transactions(comp, adts, rng)]
        for sender in SENDERS:
            kinds += [agree(d, tx) for tx in (
                call(sender, THIS, "NoSuchTransition", {"x": uint(1)}),
                call(sender, "0x" + "77" * 20, "Transfer", {}),
                payment(sender, THIS, 1), payment(sender, USER, 1),
                payment(sender, "0x5e", 1))]
    return kinds


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_contract_plans_equal_reference(name):
    assert len(corpus_kinds(name)) >= 100


def test_corpus_sweep_reaches_every_reason():
    """Vacuity floor for the test above: the generated transactions
    really do take every branch a plan can lower to."""
    kinds = [k for name in sorted(CORPUS) for k in corpus_kinds(name)]
    assert len(CORPUS) == 52
    for kind in (*REASON_KINDS, "raised"):
        assert kinds.count(kind) >= 20, kind


def ft_dispatcher() -> Dispatcher:
    result = run_pipeline_cached(CORPUS["FungibleToken"], "FungibleToken")
    d = Dispatcher(4)
    d.register_contract(DeployedSignature(
        THIS, result.signature(("Mint", "Transfer")),
        {"contract_owner": addr(ADMIN)}))
    return d


def test_user_addr_sees_contracts_deployed_after_lowering():
    d = ft_dispatcher()
    tx = call(USER, THIS, "Transfer", {"to": addr(OTHER), "amount": uint(1)})
    assert agree(d, tx) in ("satisfied", "conflicting_ownership")
    d.register_contract(DeployedSignature(OTHER, None, {}))
    assert agree(d, tx) == "non_user_recipient"
    d.unregister_contract(OTHER)
    assert agree(d, tx) in ("satisfied", "conflicting_ownership")


def test_registration_pads_and_unregistration_drops_the_plans():
    """A short-form address registers the contract ``dispatch`` looks
    up; once unregistered its plans are gone with it."""
    d = Dispatcher(4)
    result = run_pipeline_cached(CORPUS["FungibleToken"], "FungibleToken")
    d.register_contract(DeployedSignature(
        "0xc0", result.signature(("Transfer",)), {}))
    tx = call(USER, "0x" + "0" * 38 + "c0", "Transfer",
              {"to": addr(ADMIN), "amount": uint(1)})
    assert d.is_contract("0x" + "0" * 38 + "c0")
    assert agree(d, tx) != "unknown_contract"
    d.unregister_contract("0xc0")
    assert agree(d, tx) == "unknown_contract"
    assert d.dispatch(tx).shard == DS
