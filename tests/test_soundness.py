"""The soundness oracle (DESIGN.md §5, invariants 1 and 6).

Transactions dispatched to different shards commute, so the sharded
final state is the state of *every* serial order consistent with the
lanes — strong swappability (Bartoletti, Galletta and Murgia).  Each
scenario runs sharded, then Hypothesis samples linearisations: each
shard lane's order kept, the shard lanes interleaved, the DS lane after
its epoch's shard lanes, epochs in order.  The serial reference
(``tests/helpers.py``) must replay every committed transaction
successfully in each of them and reach the sharded final state.  At
run time an epoch without an IntMerge overflow must have no view change
and no excluded lane: no fault is injected here, so a lane the DS
committee refuses is a signature that under-constrained it.

The oracle is shown to fail: three mutants of the signature derivation,
applied with ``monkeypatch``, must each be caught within a fixed,
derandomised example budget — or be a gap DESIGN.md §7 documents.
"""

import dataclasses
import functools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, Phase, given, settings

from repro.chain import Network, call
from repro.chain.consensus import CostModel
from repro.contracts import CORPUS
from repro.core import signature as derivation
from repro.core.cache import GLOBAL_CACHE
from repro.core.constraints import Owns
from repro.eval.service import run_service
from repro.scilla import types as ty
from repro.scilla.values import IntVal, StringVal, addr, uint

from .helpers import contract_states, record_blocks, serial_replay

TOKEN = "0x" + "c0" * 20
ADMIN = "0x" + "ad" * 20
USERS = ["0x" + f"{i:040x}" for i in range(1, 13)]
ORDERS = 3      # random linearisations per example, besides lane order
# What the interleavings draw from: one seed per example, so a run of
# thousands of transactions costs Hypothesis one draw, not thousands.
ORDER = st.randoms(use_true_random=True)


def run_sharded(source, params, selection, epochs, n_shards):
    net = Network(n_shards)
    for user in (ADMIN, *USERS):
        net.create_account(user)
    net.deploy(source, TOKEN, params, sharded_transitions=selection)
    return net, [net.process_epoch(txns, unlimited=True) for txns in epochs]


def assert_sound(net, blocks, rng) -> None:
    for block in blocks:
        if "merge-overflow" not in block.excluded_lanes.values():
            assert block.stats.view_changes == 0, block.fault_log
            assert not block.excluded_lanes, block.fault_log
    sharded = contract_states(net)
    assert serial_replay(net, blocks) == sharded
    for _ in range(ORDERS):
        assert serial_replay(net, blocks, rng) == sharded


# -- corpus scenarios: FT and NFT ---------------------------------------------

FT = (CORPUS["FungibleToken"],
      {"contract_owner": addr(ADMIN), "name": StringVal("T"),
       "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
       "init_supply": uint(0)},
      ("Mint", "Transfer", "TransferFrom"))
NFT = (CORPUS["NonfungibleToken"],
       {"contract_owner": addr(ADMIN), "name": StringVal("N"),
        "symbol": StringVal("N")},
       ("Mint", "Transfer"))


def mints(amount, users=USERS):
    return [call(ADMIN, TOKEN, "Mint",
                 {"recipient": addr(u), "amount": uint(amount)},
                 nonce=i + 1) for i, u in enumerate(users)]


def transfer(sender, to, amount, nonce):
    return call(sender, TOKEN, "Transfer",
                {"to": addr(to), "amount": uint(amount)}, nonce=nonce)


def ft_transfers():
    """Everyone sends two transfers; all commit."""
    n = len(USERS)
    rounds = [transfer(u, USERS[(i + step) % n], amount, nonce)
              for i, u in enumerate(USERS)
              for nonce, step, amount in ((1, 3, 10 + i), (2, 5, 7))]
    return [mints(1000), rounds], 3 * n


def ft_one_recipient():
    """Every shard contributes an IntMerge delta to one balance."""
    return ([mints(100), [transfer(u, USERS[0], 25, 1) for u in USERS[1:]]],
            2 * len(USERS) - 1)


def ft_overdrafts():
    """Failed transactions leave no trace."""
    return ([mints(10, USERS[:1]),
             [transfer(u, USERS[0], 999, 1) for u in USERS[1:6]]], 1)


def nft_transfers():
    uint256 = ty.PrimType("Uint256")
    owners = [USERS[i % len(USERS)] for i in range(20)]
    minted = [call(ADMIN, TOKEN, "Mint",
                   {"to": addr(owner), "token_id": IntVal(i, uint256)},
                   nonce=i + 1) for i, owner in enumerate(owners)]
    moved = [call(owner, TOKEN, "Transfer",
                  {"token_owner": addr(owner),
                   "to": addr(USERS[(i + 1) % len(USERS)]),
                   "token_id": IntVal(i, uint256)},
                  nonce=owners[:i + 1].count(owner))
             for i, owner in enumerate(owners)]
    return [minted, moved], 40


SCENARIOS = {"ft-transfers": (FT, ft_transfers),
             "ft-one-recipient": (FT, ft_one_recipient),
             "ft-overdrafts": (FT, ft_overdrafts),
             "nft-transfers": (NFT, nft_transfers)}


@functools.cache
def corpus_run(name, n_shards):
    contract, scenario = SCENARIOS[name]
    epochs, expected = scenario()
    net, blocks = run_sharded(*contract, epochs, n_shards)
    assert sum(block.stats.committed for block in blocks) == expected
    return net, blocks


@pytest.mark.parametrize("n_shards", range(1, 6))
@pytest.mark.parametrize("name", SCENARIOS)
@settings(max_examples=8, deadline=None)
@given(rng=ORDER)
def test_corpus_scenarios_are_linearisable(name, n_shards, rng):
    assert_sound(*corpus_run(name, n_shards), rng)


def test_final_state_is_independent_of_shard_count():
    states = [contract_states(corpus_run("ft-transfers", n)[0])
              for n in range(1, 6)]
    assert all(state == states[0] for state in states)


_ft_ops = st.lists(
    st.tuples(st.sampled_from(["mint", "transfer", "allow", "from"]),
              st.integers(0, len(USERS) - 1),
              st.integers(0, len(USERS) - 1), st.integers(1, 50)),
    min_size=1, max_size=25)


@settings(max_examples=25, deadline=None)
@given(_ft_ops, st.integers(1, 5), ORDER)
def test_random_ft_workloads_are_linearisable(ops, n_shards, rng):
    nonces: dict[str, int] = {}

    def tx(sender, transition, **args):
        nonces[sender] = nonces.get(sender, 0) + 1
        return call(sender, TOKEN, transition, args, nonce=nonces[sender])

    setup = [tx(ADMIN, "Mint", recipient=addr(u), amount=uint(200))
             for u in USERS]
    txns = []
    for op, i, j, amount in ops:
        a, b, v = USERS[i], USERS[j], uint(amount)
        if op == "mint":
            txns.append(tx(ADMIN, "Mint", recipient=addr(a), amount=v))
        elif op == "transfer" and a != b:
            txns.append(tx(a, "Transfer", to=addr(b), amount=v))
        elif op == "allow":
            txns.append(tx(a, "IncreaseAllowance", spender=addr(b),
                           amount=v))
        elif op == "from" and a != b:
            txns.append(tx(b, "TransferFrom", **{"from": addr(a)},
                           to=addr(b), amount=v))
    assert_sound(*run_sharded(*FT, [setup, txns], n_shards), rng)


# -- generated contracts -------------------------------------------------------

KEYS = ["who_a", "who_b", "_sender"]


def _peek(p, target, default):
    return [f"  {p}_opt <- {target};",
            f"  {p}_cur = match {p}_opt with",
            f"          | Some b => b",
            f"          | None => {default}",
            f"          end;"]


def _throw_if_below(p, i, then):
    return [f"  {p}_low = builtin lt {p}_cur v;",
            f"  match {p}_low with",
            f"  | True =>",
            f"    e{i} = {{ _exception : \"Low\" }};",
            f"    throw e{i}",
            f"  | False =>",
            *then,
            f"  end;"]


def render_transition(name: str, ops) -> str:
    lines = [f"transition {name} (who_a: ByStr20, who_b: ByStr20,"
             f" v: Uint128)"]
    for i, (kind, key, arg) in enumerate(ops):
        p = f"x{i}"
        if kind in ("bump", "credit"):      # big / zero-consistent default
            default = "big" if kind == "bump" else "zero"
            lines += _peek(p, f"m[{key}]", default) + [
                f"  {p}_new = builtin {arg or 'add'} {p}_cur v;",
                f"  m[{key}] := {p}_new;"]
        elif kind == "overwrite":
            lines += [f"  m[{key}] := v;"]
        elif kind == "guarded_sub":
            lines += _peek(p, f"m[{key}]", "big") + _throw_if_below(
                p, i, [f"    {p}_new = builtin sub {p}_cur v;",
                       f"    m[{key}] := {p}_new"])
        elif kind == "transfer":            # reads m[who_a], writes m[who_b]
            lines += _peek(p, "m[who_a]", "zero") + _throw_if_below(
                p, i, [f"    {p}_new = builtin sub {p}_cur v;",
                       f"    m[who_a] := {p}_new;",
                       f"    {p}_to <- m[who_b];",
                       f"    {p}_b = match {p}_to with",
                       f"          | Some b => b",
                       f"          | None => zero",
                       f"          end;",
                       f"    {p}_sum = builtin add {p}_b v;",
                       f"    m[who_b] := {p}_sum"])
        elif kind == "nested" and arg == "overwrite":
            lines += [f"  mm[{key}][_sender] := v;"]
        elif kind == "nested":
            lines += _peek(p, f"mm[{key}][_sender]", "zero") + [
                f"  {p}_new = builtin add {p}_cur v;",
                f"  mm[{key}][_sender] := {p}_new;"]
        elif kind == "bump_scalar":
            lines += [f"  {p}_s <- n;",
                      f"  {p}_new = builtin add {p}_s v;",
                      f"  n := {p}_new;"]
        elif kind == "delete":
            lines += [f"  delete m[{key}];"]
        elif kind == "accept":
            lines += ["  accept;"]
        elif kind == "notify":
            lines += [f"  msg{i} = {{ _tag : \"Note\"; _recipient : {key};"
                      f" _amount : Uint128 0; v : v }};",
                      f"  msgs{i} = one_msg msg{i};",
                      f"  send msgs{i};"]
    return "\n".join(lines).rstrip(";") + "\nend"


def render_contract(transitions: dict[str, list]) -> str:
    rendered = "\n\n".join(render_transition(name, ops)
                           for name, ops in transitions.items())
    return f"""
scilla_version 0

library Fuzzed

let big = Uint128 1000000
let zero = Uint128 0

contract Fuzzed (owner: ByStr20)

field m : Map ByStr20 Uint128 = Emp ByStr20 Uint128
field mm : Map ByStr20 (Map ByStr20 Uint128) =
  Emp ByStr20 (Map ByStr20 Uint128)
field n : Uint128 = Uint128 0

{rendered}
"""


_key = st.sampled_from(KEYS)
_op = st.one_of(
    st.tuples(st.just("bump"), _key, st.sampled_from(["add", "sub"])),
    st.tuples(st.just("credit"), _key, st.just("")),
    st.tuples(st.just("overwrite"), _key, st.just("")),
    st.tuples(st.just("guarded_sub"), _key, st.just("")),
    st.tuples(st.just("transfer"), st.just(""), st.just("")),
    st.tuples(st.just("nested"), st.sampled_from(["who_a", "who_b"]),
              st.sampled_from(["credit", "overwrite"])),
    st.tuples(st.just("bump_scalar"), st.just(""), st.just("")),
    st.tuples(st.just("delete"), _key, st.just("")),
    st.tuples(st.just("accept"), st.just(""), st.just("")),
    st.tuples(st.just("notify"), st.sampled_from(["who_a", "who_b"]),
              st.just("")),
)
NAMES = ["Go", "Run", "Act"]
_transitions = st.dictionaries(st.sampled_from(NAMES),
                               st.lists(_op, min_size=1, max_size=5),
                               min_size=1, max_size=3)
_workload = st.lists(
    st.tuples(st.sampled_from(NAMES),   # transition (if present)
              st.integers(0, 5),        # sender
              st.integers(0, 1),        # who_a: hot keys, so entries
              st.integers(0, 1),        # who_b  collide and alias often
              st.integers(1, 40),       # v
              st.integers(1, 2)),       # nonce step: relaxed-nonce gaps
    min_size=2, max_size=12)
_generated = (_transitions, _workload, st.integers(0, 12),
              st.integers(2, 5), ORDER)


def check_generated(transitions, workload, split, n_shards, rng):
    source = render_contract(transitions)
    nonces: dict[str, int] = {}
    txns = []
    for name, s_i, a_i, b_i, v, step in workload:
        if name in transitions:
            sender = USERS[s_i]
            nonces[sender] = nonces.get(sender, 0) + step
            txns.append(call(sender, TOKEN, name,
                             {"who_a": addr(USERS[a_i]),
                              "who_b": addr(USERS[b_i]), "v": uint(v)},
                             nonce=nonces[sender]))
    epochs = [e for e in (txns[:split], txns[split:]) if e]
    net, blocks = run_sharded(source, {"owner": addr(USERS[0])},
                              tuple(sorted(transitions)), epochs, n_shards)
    assert_sound(net, blocks, rng)


@settings(max_examples=100, deadline=None)
@given(*_generated)
def test_generated_contracts_are_linearisable(transitions, workload, split,
                                              n_shards, rng):
    check_generated(transitions, workload, split, n_shards, rng)


# -- service runs: floods, stalls, gas deferrals, shedding ----------------------

TIGHT_COST = CostModel(gas_per_second=25_000.0, consensus_base_s=2.0,
                       consensus_per_node2_s=0.01,
                       shard_gas_limit=300, ds_gas_limit=300)
SERVICE_RUNS = {
    "flood-and-stall": dict(population=2000, ticks=8, txns_per_tick=100,
                            capacity=350, shards=4, seed=11,
                            flood_rate=0.4, stall_rate=0.25, fault_seed=3),
    # Tight gas limits force heavy deferral; the small capacity makes
    # the re-admissions overflow, so the shed path runs too.
    "deferral-and-shed": dict(population=150, ticks=8, txns_per_tick=60,
                              capacity=48, shards=2, seed=4,
                              cost_model=TIGHT_COST, max_deferrals=6,
                              drain_ticks=96),
}


@functools.cache
def service_run(name):
    with pytest.MonkeyPatch.context() as monkeypatch:
        blocks = record_blocks(monkeypatch)
        run = run_service(**SERVICE_RUNS[name])
    r = run.report
    assert r.partition_ok and r.committed > 0
    if name == "flood-and-stall":
        assert r.stalled_ticks > 0
    else:
        assert r.readmitted > 0 and r.shed + r.dead_lettered > 0
    return run.net, blocks


@pytest.mark.parametrize("name", SERVICE_RUNS)
@settings(max_examples=3, deadline=None)
@given(rng=ORDER)
def test_service_runs_are_linearisable(name, rng):
    assert_sound(*service_run(name), rng)


# -- signature mutants ---------------------------------------------------------

def drop_one_owns(monkeypatch):
    """The first ``Owns`` (by transition, then text) leaves the signature."""
    derive = derivation.derive_signature

    def mutant(*args, **kwargs):
        sig = derive(*args, **kwargs)
        for t, cs in sorted(sig.constraints.items()):
            owns = sorted((c for c in cs if isinstance(c, Owns)), key=str)
            if owns:
                return dataclasses.replace(
                    sig, constraints={**sig.constraints, t: cs - {owns[0]}})
        return sig
    monkeypatch.setattr(derivation, "derive_signature", mutant)


def misclassify_m(monkeypatch):
    """Every write to ``m`` is called commutative: ``m`` joins by
    IntMerge and the constraints follow."""
    honest = derivation.is_commutative_write
    monkeypatch.setattr(derivation, "is_commutative_write",
                        lambda write: write.pf.field == "m" or honest(write))


def drop_no_aliases(monkeypatch):
    monkeypatch.setattr(derivation, "_alias_constraints", lambda _: set())


BUDGET = 100    # generated examples a mutant may survive


@pytest.mark.parametrize("mutant", [
    drop_one_owns, misclassify_m,
    pytest.param(drop_no_aliases, marks=pytest.mark.xfail(
        strict=True, reason="a documented gap: DESIGN.md §7"))])
def test_the_oracle_kills_a_signature_mutant(mutant, monkeypatch):
    mutant(monkeypatch)
    within_budget = settings(
        max_examples=BUDGET, derandomize=True, database=None,
        deadline=None, phases=[Phase.generate], report_multiple_bugs=False,
        suppress_health_check=list(HealthCheck))
    with pytest.raises(AssertionError):
        within_budget(given(*_generated)(check_generated))()


PROBE = {"Go": [("overwrite", "who_a", ""), ("transfer", "", "")]}


@pytest.mark.parametrize("mutant",
                         [drop_one_owns, misclassify_m, drop_no_aliases])
def test_the_summary_cache_does_not_hide_a_mutant(mutant, monkeypatch):
    def deploy():
        return Network(2).deploy(render_contract(PROBE), TOKEN,
                                 {"owner": addr(USERS[0])},
                                 sharded_transitions=("Go",)).signature
    honest = deploy()
    hits = GLOBAL_CACHE.stats.hits
    mutant(monkeypatch)
    assert deploy() != honest
    assert GLOBAL_CACHE.stats.hits == hits + 1
