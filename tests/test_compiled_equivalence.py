"""Differential oracle: compiled transitions ≡ the reference interpreter.

``Interpreter.run_transition`` runs Python generated once per contract
source (``repro.scilla.compile``); ``Interpreter.interpret_transition``
walks the AST and is the executable specification.  Everything the
chain can observe of a transition must agree between the two: success,
gas, accepted funds, messages, events, the error string, the write set,
and the contract state afterwards — which on failure is the rolled-back
state.

* every transition of all 52 corpus contracts, on states both sides
  evolve in lockstep, with generated arguments, senders and amounts
  that reach success and the failure paths (paused, not owner,
  insufficient funds, arithmetic bounds, match failure);
* the same on a journaled fork of a fork with a mark outstanding,
  where undo logs, journal entries and CoW privatisations must agree
  too, and the fork's parent must not change (the owned write);
* a gas-limit sweep from 0 to ``gas_used`` on a succeeding and a failing
  call of every corpus transition, so out-of-gas lands on every charge
  point of every segment;
* floors on what the second lowering pass did, so that routing
  everything back through the generic rules fails a test;
* Hypothesis-generated contracts (the grammar of
  ``tests/test_random_contracts.py``);
* two deployments of one source run the *same* function object, and
  nothing compiled rides on a pickled module.
"""

import pickle
import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.chain import Network
from repro.contracts import CORPUS
from repro.scilla import types as ty
from repro.scilla import values as scilla_values
from repro.scilla.compile import STATS, unit_for
from repro.scilla.errors import ScillaError
from repro.scilla.interpreter import Interpreter, TxContext
from repro.scilla.parser import parse_module
from repro.scilla.state import MISSING, StateJournal
from repro.scilla.values import (
    ADTVal, BNumVal, ByStrVal, IntVal, MapVal, StringVal, addr, bool_val,
    canonical, uint,
)

from .test_random_contracts import (
    CONTRACT, USERS, _transitions, _workload, render_contract,
)

ADMIN = "0x" + "ab" * 20     # every ByStr20 contract parameter
OTHER = "0x" + "0c" * 20
THIS = "0x" + "c0" * 20


# -- the comparison ----------------------------------------------------------

def snapshot(state):
    return ({name: canonical(v) for name, v in state.fields.items()},
            state.balance)


def plain(value):
    return "MISSING" if value is MISSING else canonical(value)


def observed(result, state):
    """Everything of one execution the chain can see."""
    log = result.write_log
    return {
        "success": result.success, "gas_used": result.gas_used,
        "accepted": result.accepted, "messages": result.messages,
        "events": result.events, "error": result.error,
        "writes": None if log is None else
        [(k, plain(v)) for k, v in log.writes.items()],
        "state": snapshot(state),
    }


def run_both(interp, compiled_state, reference_state, name, args, ctx,
             gas_limit=100_000):
    """Run ``name`` compiled on one state and interpreted on the other;
    assert they agree on everything and return the compiled result."""
    def run(method, state):
        try:
            return observed(method(state, name, dict(args), ctx,
                                   gas_limit=gas_limit), state)
        except ScillaError as exc:      # raised, not returned
            return {"raised": f"{type(exc).__name__}: {exc}",
                    "state": snapshot(state)}
    got = run(interp.run_transition, compiled_state)
    want = run(interp.interpret_transition, reference_state)
    assert got == want, (
        f"{interp.contract.name}.{name} diverged "
        f"(gas_limit={gas_limit}, sender={ctx.sender}, "
        f"args={ {k: str(v) for k, v in args.items()} }):\n"
        f"  compiled:    {got}\n  interpreted: {want}")
    return got


# -- generated inputs --------------------------------------------------------

def candidates(t, adts) -> list:
    """A few values of type ``t``, ordinary ones first."""
    if isinstance(t, ty.PrimType):
        if t.name in ty.INT_TYPE_NAMES:
            lo, hi = ty.int_bounds(t)
            return [IntVal(v, t) for v in (2, 0, 10**6, hi)]
        if t.name == "String":
            return [StringVal("probe"), StringVal("")]
        if t.name == "BNum":
            return [BNumVal(1), BNumVal(10**6)]
        if t.name == "ByStr20":
            return [ByStrVal(ADMIN, t), ByStrVal(OTHER, t)]
        if t.name.startswith("ByStr"):
            width = ty.bystr_width(t) or 4
            return [ByStrVal("0x" + b * width, t) for b in ("ab", "01")]
    if isinstance(t, ty.MapType):
        return [MapVal(t.key, t.value)]
    if isinstance(t, ty.ADTType):
        if t.name == "Bool":
            return [bool_val(True), bool_val(False)]
        out = []
        adt = adts.adts.get(t.name)
        subst = dict(zip(adt.tparams, t.targs)) if adt else {}
        for cdef in (adt.constructors if adt else ()):
            if cdef.name in ("Cons", "Succ"):
                continue            # keep recursive types finite
            args = [candidates(ty.substitute(a, subst), adts)
                    for a in cdef.arg_types]
            if all(args):
                out.append(ADTVal(t.name, cdef.name, t.targs,
                                  tuple(a[0] for a in args)))
        if t.name == "List" and out:
            inner = candidates(t.targs[0], adts)
            if inner:
                out.append(ADTVal("List", "Cons", t.targs,
                                  (inner[0], out[0])))
        return out
    return []


def variants(comp, adts, rng, n: int):
    """``n`` (args, ctx) pairs for one transition: the all-ordinary
    call from the admin first, then sampled ones."""
    pools = {p.name: candidates(p.typ, adts) for p in comp.params}
    if not all(pools.values()):
        return
    for i in range(n):
        pick = (lambda pool: pool[0]) if i == 0 else rng.choice
        args = {name: pick(pool) for name, pool in pools.items()}
        sender = ADMIN if i == 0 else rng.choice((ADMIN, ADMIN, OTHER))
        origin = rng.choice((None, None, OTHER))
        yield args, TxContext(sender=sender, origin=origin,
                              amount=rng.choice((100, 0, 100, 10**9)),
                              block_number=rng.choice((1, 5, 10**6 + 1)))


def deploy_pair(name):
    module = parse_module(CORPUS[name], name)
    interp = Interpreter(module)
    params = {p.name: candidates(p.typ, interp.adts)[0]
              for p in module.contract.params}
    return interp, interp.deploy(THIS, params), interp.deploy(THIS, params)


# -- the corpus --------------------------------------------------------------

def lockstep_sweep(name) -> list[str]:
    """Run every transition of corpus contract ``name`` both ways on
    states that evolve in lockstep; returns each call's error ("ok"
    for none).  Three sweeps, the middle one in reverse order, so calls
    meet the state earlier ones left (a pause outlives its sweep)."""
    interp, compiled_state, reference_state = deploy_pair(name)
    # A function per transition; the corpus defines every procedure
    # before its callers, so all of them are lowered into those.
    assert interp.unit.units == len(interp.contract.transitions)
    rng = random.Random(name)
    transitions = interp.contract.transitions
    errors = []
    for sweep in range(3):
        for comp in (transitions if sweep != 1 else transitions[::-1]):
            for args, ctx in variants(comp, interp.adts, rng, 4):
                got = run_both(interp, compiled_state, reference_state,
                               comp.name, args, ctx)
                errors.append(got.get("error") or got.get("raised") or "ok")
    return errors


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_contract_compiled_equals_interpreted(name):
    n_transitions = len(parse_module(CORPUS[name]).contract.transitions)
    assert len(lockstep_sweep(name)) >= 4 * n_transitions


def test_corpus_sweep_reaches_success_and_the_failure_paths():
    """Vacuity floor for the test above: the generated inputs really do
    commit, hit the guards (paused, not owner, insufficient funds) and
    fail arithmetic bounds — and every corpus transition lowers (the
    34 procedures into their callers)."""
    errors = [e for name in sorted(CORPUS) for e in lockstep_sweep(name)]
    assert sum(unit_for(Interpreter(parse_module(src))).units
               for src in CORPUS.values()) == 190

    def count(fragment: str) -> int:
        return sum(fragment in e for e in errors)
    assert count("ok") >= 500
    assert count("exception thrown") >= 500
    for fragment in ("Paused", "NotOwner", "InsufficientFunds",
                     "add out of bounds", "sub out of bounds"):
        assert count(fragment) >= 5, fragment


# -- on a journaled fork of a fork --------------------------------------------

def plain_key(key):
    return key[0], tuple(canonical(k) for k in key[1])


def journaled_sweep(name) -> int:
    """The lockstep sweep where the chain runs transitions: on a fork
    of a fork, journal attached, mark outstanding.  The owned write
    bypasses ``record`` + ``map_put``, so besides ``observed`` the undo
    log (keys, values, order), the journal's entries and the number of
    CoW privatisations must agree after every call; the parent must not
    change; and ``rollback_to(mark)`` must undo both alike."""
    interp, *roots = deploy_pair(name)
    transitions = interp.contract.transitions
    rng = random.Random(name)
    for comp in transitions:            # so that the maps hold something
        for args, ctx in variants(comp, interp.adts, rng, 2):
            for root in roots:
                try:
                    interp.interpret_transition(root, comp.name, dict(args),
                                                ctx)
                except ScillaError:
                    pass
    parents = [root.fork() for root in roots]
    before = [snapshot(parent) for parent in parents]
    states = [parent.fork() for parent in parents]
    journals = [StateJournal(), StateJournal()]
    for state, journal in zip(states, journals):
        state.journal = journal
    marks = [journal.mark() for journal in journals]
    start = snapshot(states[0])
    methods = (interp.run_transition, interp.interpret_transition)

    def run(side, comp, args, ctx):
        state, journal = states[side], journals[side]
        seq, copies = journal.seq, scilla_values.COW_COPIES
        try:
            result = methods[side](state, comp.name, dict(args), ctx)
            seen = observed(result, state)
            log = result.write_log
            seen["undo"] = None if log is None else [
                (plain_key(k), plain(v)) for k, v in log.undo.items()]
        except ScillaError as exc:
            seen = {"raised": f"{type(exc).__name__}: {exc}",
                    "state": snapshot(state)}
        seen["journal"] = [
            (e[0], plain_key(e[2]), plain(e[3])) if e[0] == "write"
            else (e[0], e[2]) for e in journal.entries[seq - journal.seq:]
        ] if journal.seq > seq else []
        seen["cow_copies"] = scilla_values.COW_COPIES - copies
        return seen

    calls = 0
    for comp in transitions + transitions[::-1]:
        for args, ctx in variants(comp, interp.adts, rng, 3):
            got, want = run(0, comp, args, ctx), run(1, comp, args, ctx)
            assert got == want, (
                f"{name}.{comp.name} diverged on a journaled fork:\n"
                f"  compiled:    {got}\n  interpreted: {want}")
            calls += 1
    assert [snapshot(parent) for parent in parents] == before
    for journal, mark in zip(journals, marks):
        journal.rollback_to(mark)
    assert snapshot(states[0]) == snapshot(states[1]) == start
    assert [snapshot(parent) for parent in parents] == before
    return calls


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_contract_alike_on_a_journaled_fork_of_a_fork(name):
    n_transitions = len(parse_module(CORPUS[name]).contract.transitions)
    assert journaled_sweep(name) >= 6 * n_transitions


# -- what the second pass did --------------------------------------------------

def test_second_pass_did_its_work_on_the_corpus():
    """Vacuity guard for the lowering itself.  The generic rules are the
    same function as the special ones, so a refactor that routes every
    site through them would still pass the oracle — and only show in a
    benchmark.  Floors over the 52 contracts (today's values: 3382
    charges at 1367 sites, 144/144 Options, 199 Bools, 322 builtins, 32
    messages of the 31 ``send`` statements, 182 writes)."""
    total = dict.fromkeys(STATS, 0)
    for src in CORPUS.values():
        for key, n in unit_for(Interpreter(parse_module(src))).totals.items():
            total[key] += n
    assert total["charges"] >= 3300
    assert total["charge_sites"] <= 0.45 * total["charges"]
    assert total["unboxed_options"] == total["options"] >= 140
    assert total["unboxed_bools"] >= 190
    assert total["guarded_builtins"] >= 300
    assert total["static_sends"] >= 31
    assert total["fused_writes"] >= 175


def test_second_pass_on_fungible_token_transfer():
    """The hot path, exactly: no boxed Option, one static send, two
    owned writes, and 72 gas charged at 8 sites on the success path (23
    before this pass)."""
    interp, state, _ = deploy_pair("FungibleToken")
    unit = interp.unit
    assert unit.stats["t_Transfer"] == {
        "charges": 33, "charge_sites": 10, "options": 2,
        "unboxed_options": 2, "unboxed_bools": 1, "guarded_builtins": 3,
        "static_sends": 1, "fused_writes": 2}
    source = unit.source("Transfer")
    assert source.count("def ") == 1        # procedures lowered into it
    assert "ADTVal('Option'" not in source and "_to_outmsg(msg" not in source
    entry = unit.entry("Transfer")
    sites = {n for n, line in enumerate(source.splitlines(), 1)
             if line.lstrip().startswith("g += ")}
    hit = []

    def tracer(frame, event, arg):
        if frame.f_code is not entry.__code__:
            return None
        if event == "line" and frame.f_lineno in sites:
            hit.append(frame.f_lineno)
        return tracer
    args = {"to": addr(OTHER), "amount": uint(1)}
    for n_sites, gas in ((7, 68), (8, 72)):  # a new recipient, then a known
        del hit[:]
        sys.settrace(tracer)
        try:
            result = interp.run_transition(state, "Transfer", dict(args),
                                           TxContext(sender=ADMIN))
        finally:
            sys.settrace(None)
        assert result.success and result.gas_used == gas
        assert len(hit) == n_sites


def test_wrong_kind_arguments_fail_alike():
    """Transaction arguments come from outside: a value of the wrong
    kind must take the reference's failure path, not crash the
    generated code."""
    interp, compiled_state, reference_state = deploy_pair("FungibleToken")
    for bad in (uint(3), StringVal("x"), bool_val(True),
                MapVal(ty.BYSTR20, ty.UINT128)):
        for name, args in (
                ("Transfer", {"to": addr(OTHER), "amount": bad}),
                ("Transfer", {"to": bad, "amount": uint(1)}),
                ("ChangeOwner", {"new_owner": bad}),
                ("Pause", {})):
            try:
                run_both(interp, compiled_state, reference_state, name,
                         args, TxContext(sender=ADMIN))
            except TypeError:
                # An unhashable map as a map key escapes both alike.
                assert isinstance(bad, MapVal)
                compiled_state = reference_state.fork()


ROUGH_EDGES = """
scilla_version 0

library Rough

let zero = Uint128 0

contract Rough ()

field n : Uint128 = zero
field m : Map Uint128 (Map Uint128 Uint128) = Emp Uint128 (Map Uint128 Uint128)

procedure Bump (by: Uint128)
  cur <- n;
  next = builtin add cur by;
  n := next
end

transition StmtMatch (flag: Bool)
  match flag with
  | True => Bump zero
  end
end

transition ExprMatch (flag: Bool)
  one = Uint128 1;
  by = match flag with
       | False => one
       end;
  Bump by
end

transition Unbound ()
  Bump zero;
  x = builtin add zero nowhere;
  n := x
end

transition UnboundFunction ()
  Bump zero;
  x = nowhere zero
end

transition NoSuchProcedure ()
  Bump zero;
  Missing zero
end

transition WrongArity ()
  Bump zero zero
end

transition CallsTransition ()
  WrongArity
end

transition BadBuiltin ()
  x = builtin add zero;
  n := x
end

transition NoSuchBuiltin ()
  x = builtin frobnicate zero;
  n := x
end

transition BadConstructor ()
  x = Some {Uint128} zero zero;
  y = Nope zero
end

transition NoSuchField ()
  Bump zero;
  x <- nowhere;
  nowhere := x
end

transition NotAMap (k: Uint128)
  x <- n[k];
  n[k] := zero
end

transition TooDeep (k: Uint128)
  m[k][k] := zero;
  x <- m[k][k][k];
  e <- exists m[k][k][k];
  delete m[k][k][k]
end

transition EventOfInt ()
  event zero
end

transition SendOfInt ()
  send zero
end

transition ThrowBare ()
  Bump zero;
  throw
end

transition Shadows (k: Uint128)
  zero = Uint128 5;
  k = builtin add k zero;
  match k with
  | zero => m[zero][k] := zero
  end;
  Bump zero
end
"""


def test_rough_edges_fail_alike():
    """Ill-formed programs the parser admits, non-exhaustive matches
    and shadowing: same error, same gas, at the same point."""
    interp = Interpreter(parse_module(ROUGH_EDGES))
    compiled_state = interp.deploy(THIS, {})
    reference_state = interp.deploy(THIS, {})
    errors = {}
    for comp in interp.contract.transitions:
        for flag in (True, False):
            args = {p.name: bool_val(flag) if p.typ == ty.BOOL else uint(3)
                    for p in comp.params}
            got = run_both(interp, compiled_state, reference_state,
                           comp.name, args, TxContext(sender=ADMIN))
            errors[comp.name, flag] = got.get("error") or got.get("raised")
    assert "match failure" in errors["StmtMatch", False]
    assert "match failure" in errors["ExprMatch", True]
    assert errors["StmtMatch", True] is None
    assert "unbound identifier" in errors["Unbound", True]
    assert "unbound function" in errors["UnboundFunction", True]
    assert "no component" in errors["NoSuchProcedure", True]
    assert errors["Shadows", True] is None
    assert sum(e is not None for e in errors.values()) >= 30


SHADOWED_FUNCTIONS = """
scilla_version 0

library Shadowed

let one_msg = fun (m: Message) => one_msg m
let inc = fun (x: Uint128) => let one = Uint128 1 in builtin add x one
let inc = fun (x: Uint128) => let y = inc x in inc y
let inc = fun (x: Uint128) => let y = inc x in inc y

contract Shadowed ()

field n : Uint128 = Uint128 0

transition Go (by: Uint128)
  next = inc by;
  n := next;
  msg = {_tag: "Went"; _recipient: _sender; _amount: Uint128 0; n: next};
  msgs = one_msg msg;
  send msgs
end
"""


def test_library_function_shadowing_and_calling_its_namesake():
    """Each library ``fun`` is its own ``def``, also when it shadows
    (a prelude or library function) the very function it calls."""
    interp = Interpreter(parse_module(SHADOWED_FUNCTIONS))
    compiled_state = interp.deploy(THIS, {})
    reference_state = interp.deploy(THIS, {})
    got = run_both(interp, compiled_state, reference_state, "Go",
                   {"by": uint(3)}, TxContext(sender=ADMIN))
    assert got["success"] and len(got["messages"]) == 1
    assert compiled_state.fields["n"] == uint(7)
    assert interp.unit.delegated == 0       # all four ran as defs
    for limit in range(got["gas_used"] + 1):
        run_both(interp, compiled_state, reference_state, "Go",
                 {"by": uint(3)}, TxContext(sender=ADMIN), gas_limit=limit)


# -- gas ---------------------------------------------------------------------

FT_SETUP = [("Mint", {"recipient": addr(OTHER), "amount": uint(500)}, ADMIN),
            ("IncreaseAllowance",
             {"spender": addr(ADMIN), "amount": uint(50)}, OTHER)]
NFT_ID = IntVal(7, ty.UINT256)
NFT_SETUP = [("Mint", {"to": addr(OTHER), "token_id": NFT_ID}, ADMIN)]
UD_NODE = ByStrVal("0x" + "11" * 32, ty.BYSTR32)

# (contract, setup, transition, args, sender, amount): success paths,
# guard failures and arithmetic failures, across flat and nested maps,
# procedures, library calls, events, sends and accept.
GAS_SWEEPS = [
    ("FungibleToken", FT_SETUP, "Transfer",
     {"to": addr(ADMIN), "amount": uint(5)}, OTHER, 0),
    ("FungibleToken", FT_SETUP, "Transfer",
     {"to": addr(ADMIN), "amount": uint(5000)}, OTHER, 0),
    ("FungibleToken", FT_SETUP, "TransferFrom",
     {"from": addr(OTHER), "to": addr(ADMIN), "amount": uint(5)}, ADMIN, 0),
    ("FungibleToken", FT_SETUP, "Mint",
     {"recipient": addr(OTHER), "amount": uint(5)}, ADMIN, 0),
    ("FungibleToken", FT_SETUP, "Mint",
     {"recipient": addr(OTHER), "amount": uint(5)}, OTHER, 0),
    ("FungibleToken", FT_SETUP, "Burn", {"amount": uint(5)}, OTHER, 0),
    ("FungibleToken", FT_SETUP, "ChangeTreasury",
     {"new_treasury": addr(OTHER)}, ADMIN, 0),
    ("NonfungibleToken", NFT_SETUP, "Transfer",
     {"token_owner": addr(OTHER), "to": addr(ADMIN), "token_id": NFT_ID},
     OTHER, 0),
    ("NonfungibleToken", NFT_SETUP, "Mint",
     {"to": addr(ADMIN), "token_id": IntVal(8, ty.UINT256)}, ADMIN, 0),
    ("Crowdfunding", [], "Donate", {}, OTHER, 100),
    ("Crowdfunding", [("Donate", {}, OTHER)], "GetFunds", {}, ADMIN, 0),
    ("UD_registry", [], "Bestow",
     {"node": UD_NODE, "owner": addr(OTHER), "resolver": addr(ADMIN)},
     ADMIN, 0),
    ("ProofIPFS", [], "Register", {"ipfs_hash": UD_NODE}, OTHER, 0),
    ("ProofIPFS", [], "RegisterBatch",
     {"hashes": ADTVal("List", "Cons", (ty.BYSTR32,), (
         UD_NODE, ADTVal("List", "Nil", (ty.BYSTR32,))))}, OTHER, 0),
]


@pytest.mark.parametrize(
    "case", GAS_SWEEPS, ids=[f"{c[0]}.{c[2]}-{i}"
                             for i, c in enumerate(GAS_SWEEPS)])
def test_out_of_gas_lands_alike_on_every_charge_point(case):
    name, setup, transition, args, sender, amount = case
    interp, base, _ = deploy_pair(name)
    for s_name, s_args, s_sender in setup:
        result = interp.interpret_transition(
            base, s_name, s_args, TxContext(sender=s_sender, amount=100))
        assert result.success, result.error
    ctx = TxContext(sender=sender, amount=amount)
    gas_used, stops = gas_sweep(interp, base, transition, args, ctx)
    assert gas_used > 10
    # Gas runs out at many distinct points, not just at entry.
    assert stops >= 5


def gas_sweep(interp, base, transition, args, ctx) -> tuple[int, int]:
    """Run one call under every limit 0…``gas_used``; returns
    (``gas_used``, distinct points at which gas ran out)."""
    full = run_both(interp, base.fork(), base.fork(), transition, args, ctx)
    stops = set()
    for limit in range(full["gas_used"] + 1):
        got = run_both(interp, base.fork(), base.fork(), transition, args,
                       ctx, gas_limit=limit)
        if got["error"] and "out of gas" in got["error"]:
            stops.add(got["gas_used"])
            assert got["state"] == snapshot(base)
    return full["gas_used"], len(stops)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_out_of_gas_lands_alike_across_the_corpus(name):
    """Segments span statements, arms and procedure calls, so the sweep
    covers the first succeeding and the first failing generated call of
    *every* corpus transition, on a state earlier calls have filled."""
    interp, base, _ = deploy_pair(name)
    rng = random.Random(name)
    swept = 0
    for comp in interp.contract.transitions:
        kinds = set()
        for args, ctx in variants(comp, interp.adts, rng, 6):
            try:
                outcome = interp.interpret_transition(
                    base.fork(), comp.name, dict(args), ctx).success
            except ScillaError:
                continue            # raised, not returned: no gas to sweep
            if outcome not in kinds:
                kinds.add(outcome)
                gas_used, stops = gas_sweep(interp, base, comp.name, args, ctx)
                # Gas runs out at many distinct points, not just at entry.
                assert stops >= 5 or gas_used < 30, (comp.name, gas_used)
                swept += 1
            if outcome:             # let later transitions meet its effects
                interp.interpret_transition(base, comp.name, dict(args), ctx)
    assert swept >= len(interp.contract.transitions)


# -- generated contracts ------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(_transitions, _workload, st.integers(20, 120))
def test_generated_contracts_compiled_equals_interpreted(
        transitions, workload, gas_limit):
    interp = Interpreter(parse_module(render_contract(transitions)))
    params = {"owner": addr(USERS[0])}
    compiled_state = interp.deploy(CONTRACT, params)
    reference_state = interp.deploy(CONTRACT, params)
    names = sorted(transitions)
    for i, (name, sender, a, b, v) in enumerate(workload):
        if name not in transitions:
            name = names[i % len(names)]
        args = {"who_a": addr(USERS[a]), "who_b": addr(USERS[b]),
                "v": uint(v)}
        ctx = TxContext(sender=USERS[sender], amount=v)
        # Every third call under a tight limit: out-of-gas mid-body.
        run_both(interp, compiled_state, reference_state, name, args, ctx,
                 gas_limit=gas_limit if i % 3 == 2 else 100_000)


# -- sharing and pickling ------------------------------------------------------

def test_two_deployments_of_one_source_run_the_same_function_object():
    source = CORPUS["FungibleToken"]
    a = Interpreter(parse_module(source, "first"))
    b = Interpreter(parse_module(source, "second"))
    assert a is not b and a.module is not b.module
    assert a.unit is b.unit is unit_for(a)
    assert a.unit.entry("Transfer") is b.unit.entry("Transfer")
    other = Interpreter(parse_module(CORPUS["NonfungibleToken"]))
    assert other.unit is not a.unit

    net = Network(n_shards=2)
    params = {"contract_owner": addr(ADMIN), "name": StringVal("T"),
              "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
              "init_supply": uint(10)}
    first = net.deploy(source, "0x" + "d1" * 20, params)
    second = net.deploy(source, "0x" + "d2" * 20,
                        {**params, "contract_owner": addr(OTHER)})
    assert first.interpreter.unit.entry("Transfer") is \
        second.interpreter.unit.entry("Transfer") is a.unit.entry("Transfer")
    # One function, two deployments: immutables arrive at run time.
    for contract, owner in ((first, ADMIN), (second, OTHER)):
        for sender in (ADMIN, OTHER):
            got = run_both(contract.interpreter, contract.state.fork(),
                           contract.state.fork(), "Pause", {},
                           TxContext(sender=sender))
            assert got["success"] == (sender == owner)


def test_compiled_units_never_ride_on_pickled_objects():
    from repro.core.pipeline import run_pipeline_cached

    result = run_pipeline_cached(CORPUS["FungibleToken"], "pickled")
    interp = Interpreter(result.module)
    interp.unit.entry("Transfer")       # lowered and linked
    for obj in (result.module, result):
        clone = pickle.loads(pickle.dumps(obj))
        assert not any("unit" in k for k in vars(clone))
    revived = Interpreter(pickle.loads(pickle.dumps(result.module)))
    assert revived.unit is interp.unit      # found again by source hash

    # An Interpreter that has run compiled code (a DeployedContract
    # holds one) pickles without its unit and finds it again.
    net = Network(n_shards=2)
    deployed = net.deploy(CORPUS["FungibleToken"], THIS, {
        "contract_owner": addr(ADMIN), "name": StringVal("T"),
        "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
        "init_supply": uint(10)})
    assert deployed.interpreter.run_transition(
        deployed.state, "Pause", {}, TxContext(sender=ADMIN)).success
    for obj in (deployed.interpreter, deployed):
        clone = pickle.loads(pickle.dumps(obj))
        clone = getattr(clone, "interpreter", clone)
        assert clone._unit is None and clone.unit is interp.unit
