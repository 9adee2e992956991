"""Analysis soundness against the interpreter (DESIGN.md invariant 4).

Two checks across the executable corpus contracts:

* **Footprint coverage** — every state location a transition actually
  writes during execution is covered by the inferred summary: either a
  Write effect whose pseudo-field may alias the location, or a ⊤
  effect.
* **Commutativity** — writes the analysis marks additive-commutative
  really commute: running two transactions in both orders from the
  same start state yields identical final states (when both orders
  succeed).
"""

import itertools

import pytest

from repro.core.domain import ConstKey, ParamKey
from repro.core.signature import derive_signature, is_commutative_write
from repro.core.summary import analyze_module
from repro.contracts import CORPUS
from repro.scilla.interpreter import Interpreter, TxContext
from repro.scilla.parser import parse_module
from repro.scilla.values import (
    IntVal, StringVal, addr, bool_val, canonical, uint,
)
from repro.scilla import types as ty
from repro.chain.dispatch import key_token

ADMIN = "0x" + "ad" * 20
ALICE = "0x" + "a1" * 20
BOB = "0x" + "b0" * 20


def footprint_covers(summary, field, key_values, args, sender) -> bool:
    """Does the summary cover a concrete written location?"""
    if summary.has_top:
        return True
    symbols = {name: key_token(v) for name, v in args.items()}
    symbols["_sender"] = f"ByStr20|{sender}"
    for write in summary.writes():
        if write.pf.field != field:
            continue
        if not write.pf.keys:         # whole-field write covers entries
            return True
        if len(write.pf.keys) != len(key_values):
            continue
        ok = True
        for sym_key, actual in zip(write.pf.keys, key_values):
            if isinstance(sym_key, ParamKey):
                expected = symbols.get(sym_key.name)
            else:
                assert isinstance(sym_key, ConstKey)
                expected = sym_key.repr
            if expected != key_token(actual) and expected is not None:
                ok = False
                break
            if expected is None:
                ok = False
                break
        if ok:
            return True
    return False


def run_and_check_footprint(source, contract_params, transition, args,
                            setup=(), sender=ALICE):
    module = parse_module(source)
    interp = Interpreter(module)
    state = interp.deploy("0xc0", contract_params)
    for s_trans, s_args, s_sender in setup:
        r = interp.run_transition(state, s_trans, s_args,
                                  TxContext(sender=s_sender, amount=100))
        assert r.success, r.error
    summary = analyze_module(module)[transition]
    result = interp.run_transition(state, transition, args,
                                   TxContext(sender=sender, amount=100))
    assert result.success, result.error
    for field, keys in result.write_log.writes:
        assert footprint_covers(summary, field, keys, args, sender), (
            f"{transition} wrote {field}{list(map(str, keys))} outside "
            f"its inferred footprint:\n{summary}")


def test_ft_transfer_footprint():
    run_and_check_footprint(
        CORPUS["FungibleToken"],
        {"contract_owner": addr(ADMIN), "name": StringVal("T"),
         "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
         "init_supply": uint(0)},
        "Transfer", {"to": addr(BOB), "amount": uint(5)},
        setup=[("Mint", {"recipient": addr(ALICE), "amount": uint(100)},
                ADMIN)])


def test_ft_transfer_from_footprint():
    run_and_check_footprint(
        CORPUS["FungibleToken"],
        {"contract_owner": addr(ADMIN), "name": StringVal("T"),
         "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
         "init_supply": uint(0)},
        "TransferFrom",
        {"from": addr(ALICE), "to": addr(BOB), "amount": uint(5)},
        setup=[
            ("Mint", {"recipient": addr(ALICE), "amount": uint(100)},
             ADMIN),
            ("IncreaseAllowance",
             {"spender": addr(BOB), "amount": uint(50)}, ALICE),
        ],
        sender=BOB)


def test_nft_transfer_footprint():
    run_and_check_footprint(
        CORPUS["NonfungibleToken"],
        {"contract_owner": addr(ADMIN), "name": StringVal("N"),
         "symbol": StringVal("N")},
        "Transfer",
        {"token_owner": addr(ALICE), "to": addr(BOB),
         "token_id": IntVal(7, ty.PrimType("Uint256"))},
        setup=[("Mint", {"to": addr(ALICE),
                         "token_id": IntVal(7, ty.PrimType("Uint256"))},
                ADMIN)])


def test_crowdfunding_donate_footprint():
    from repro.scilla.values import BNumVal
    run_and_check_footprint(
        CORPUS["Crowdfunding"],
        {"campaign_owner": addr(ADMIN), "goal": uint(10**9),
         "deadline": BNumVal(100)},
        "Donate", {})


def test_ud_bestow_footprint():
    from repro.scilla.values import ByStrVal
    node = ByStrVal("0x" + "11" * 32, ty.PrimType("ByStr32"))
    run_and_check_footprint(
        CORPUS["UD_registry"],
        {"initial_admin": addr(ADMIN), "initial_registrar": addr(ADMIN)},
        "Bestow",
        {"node": node, "owner": addr(ALICE), "resolver": addr(BOB)},
        sender=ADMIN)


# -- commutativity of comm-marked writes -------------------------------------------


def _final_state(interp, state, txns):
    state = state.fork()
    for transition, args, sender in txns:
        result = interp.run_transition(
            state, transition, dict(args), TxContext(sender=sender))
        if not result.success:
            return None
        state.balance += result.accepted
    return {k: canonical(v) for k, v in state.fields.items()}


def assert_commutes(source, contract_params, tx1, tx2, setup=()):
    module = parse_module(source)
    interp = Interpreter(module)
    state = interp.deploy("0xc0", contract_params)
    for transition, args, sender in setup:
        r = interp.run_transition(state, transition, dict(args),
                                  TxContext(sender=sender))
        assert r.success, r.error
    ab = _final_state(interp, state, [tx1, tx2])
    ba = _final_state(interp, state, [tx2, tx1])
    assert ab is not None and ba is not None
    assert ab == ba


FT_PARAMS = {"contract_owner": addr(ADMIN), "name": StringVal("T"),
             "symbol": StringVal("T"), "decimals": IntVal(6, ty.UINT32),
             "init_supply": uint(0)}


def test_analysis_marks_ft_writes_commutative_and_they_commute():
    module = parse_module(CORPUS["FungibleToken"])
    summaries = analyze_module(module)
    transfer_writes = summaries["Transfer"].writes()
    assert all(is_commutative_write(w) for w in transfer_writes
               if w.pf.field == "balances")
    # Two transfers into the same recipient from different senders.
    setup = [("Mint", {"recipient": addr(ALICE), "amount": uint(100)},
              ADMIN),
             ("Mint", {"recipient": addr(BOB), "amount": uint(100)},
              ADMIN)]
    carol = "0x" + "cc" * 20
    assert_commutes(
        CORPUS["FungibleToken"], FT_PARAMS,
        ("Transfer", {"to": addr(carol), "amount": uint(10)}, ALICE),
        ("Transfer", {"to": addr(carol), "amount": uint(20)}, BOB),
        setup=setup)


def test_mints_to_same_recipient_commute():
    assert_commutes(
        CORPUS["FungibleToken"], FT_PARAMS,
        ("Mint", {"recipient": addr(ALICE), "amount": uint(3)}, ADMIN),
        ("Mint", {"recipient": addr(ALICE), "amount": uint(4)}, ADMIN))


def test_noncommutative_writes_not_marked():
    """Overwrites (UD record configuration) must not be marked
    commutative — and indeed they do not commute."""
    module = parse_module(CORPUS["UD_registry"])
    summaries = analyze_module(module)
    writes = [w for w in summaries["ConfigureResolver"].writes()
              if w.pf.field == "resolvers"]
    assert writes and not any(is_commutative_write(w) for w in writes)


def test_corpus_comm_marked_writes_commute_under_random_pairs():
    """For the three token-like corpus contracts, derive signatures and
    double-check a concrete commuting pair per IntMerge field."""
    for name in ("XSGD", "MyRewardsToken", "BoltAnalytics"):
        module = parse_module(CORPUS[name])
        summaries = analyze_module(module)
        sig = derive_signature(name, summaries, tuple(summaries))
        from repro.core.joins import JoinKind
        intmerge_fields = [f for f, j in sig.joins.items()
                           if j is JoinKind.INT_MERGE]
        assert intmerge_fields, f"{name} should have IntMerge fields"


# -- corpus-wide footprint oracle against the StateJournal ---------------------
#
# ``transition_footprints`` (repro.core.effects) states, per
# transition, the locations it may touch at this granularity: a
# whole-field token, or a (field, first-map-key) token.  Its soundness
# axiom is that every location a transition touches at runtime falls
# inside that static over-approximation — checked here end-to-end over
# the whole corpus, against the StateJournal's own entries, rather
# than hand-picked transitions.


def _synth_value(t, probe_addr):
    """A syntactically valid value of type ``t``, or None."""
    from repro.scilla.values import ADTVal, BNumVal, ByStrVal, MapVal
    if isinstance(t, ty.PrimType):
        name = t.name
        if name in ty.INT_TYPE_NAMES:
            return IntVal(2, t)
        if name == "String":
            return StringVal("probe")
        if name == "BNum":
            return BNumVal(1)
        if name.startswith("ByStr"):
            width = ty.bystr_width(t)
            if name == "ByStr20":
                return ByStrVal(probe_addr, t)
            return ByStrVal("0x" + "ab" * (width or 4), t)
    if isinstance(t, ty.ADTType):
        if t.name == "Bool":
            return bool_val(True)
        if t.name == "Option":
            return ADTVal("Option", "None", t.targs)
        if t.name == "List":
            return ADTVal("List", "Nil", t.targs)
    if isinstance(t, ty.MapType):
        return MapVal(t.key, t.value)
    return None


def _footprint_tokens(pfs, args, sender, immutables, this_address):
    """The (field, first-key-token) tokens of a static footprint —
    ``(field, None)`` is the whole-field token."""
    from repro.chain.dispatch import value_from_token
    from repro.scilla.values import ByStrVal
    tokens = set()
    for pf in pfs:
        if pf.is_whole_field:
            tokens.add((pf.field, None))
            continue
        key = pf.keys[0]
        if isinstance(key, ParamKey):
            if key.name in ("_sender", "_origin"):
                value = ByStrVal(sender, ty.BYSTR20)
            else:
                value = args.get(key.name)
        elif key.repr.startswith("cparam:"):
            value = immutables.get(key.repr.removeprefix("cparam:"))
        elif key.repr == "_this_address":
            value = ByStrVal(this_address, ty.BYSTR20)
        else:
            value = value_from_token(key.repr)
        if value is None:
            tokens.add((pf.field, None))
            continue
        try:
            tokens.add((pf.field, key_token(value)))
        except ValueError:
            tokens.add((pf.field, None))
    return tokens


def test_corpus_journal_writes_fall_inside_static_footprints():
    """Every StateJournal write entry recorded while running the
    corpus transitions lies inside ``transition_footprints``."""
    from repro.core.effects import transition_footprints
    from repro.scilla.state import StateJournal
    from repro.scilla.errors import ScillaError

    from .test_interpreter import SHADOWED_LIBRARY_NAMES

    # Beside the corpus: a procedure whose map key is a library name
    # its caller shadows — under dynamic scoping the write escapes.
    sources = {**CORPUS, "~Shadow": SHADOWED_LIBRARY_NAMES}
    probe = "0x" + "ab" * 20   # contract params, sender and origin
    deployed = 0
    executed = 0
    succeeded = 0
    violations = []
    for name in sorted(sources):
        module = parse_module(sources[name], name)
        params = {p.name: _synth_value(p.typ, probe)
                  for p in module.contract.params}
        if any(v is None for v in params.values()):
            continue
        interp = Interpreter(module)
        try:
            base = interp.deploy("0xc0", params)
        except ScillaError:
            continue   # init expressions reject the synthetic params
        deployed += 1
        footprints = transition_footprints(analyze_module(module))
        for comp in module.contract.transitions:
            args = {p.name: _synth_value(p.typ, probe)
                    for p in comp.params}
            if any(v is None for v in args.values()):
                continue
            pfs = footprints[comp.name]
            state = base.fork()
            journal = StateJournal()
            state.journal = journal
            try:
                result = interp.run_transition(
                    state, comp.name, args,
                    TxContext(sender=probe, amount=100))
            except ScillaError:
                continue
            executed += 1
            succeeded += result.success
            if pfs is None:
                continue   # ⊤ summary: everything is covered
            tokens = _footprint_tokens(pfs, args, probe,
                                       state.immutables, "0xc0")
            for entry in journal.entries:
                if entry[0] != "write":
                    continue
                _, _st, (fld, keys), _old = entry
                if (fld, None) in tokens:
                    continue
                try:
                    tok = key_token(keys[0]) if keys else None
                except ValueError:
                    tok = None
                if tok is None or (fld, tok) not in tokens:
                    violations.append(
                        f"{name}.{comp.name} wrote {fld}"
                        f"{[str(k) for k in keys]} outside its "
                        f"static footprint")
    assert not violations, "\n".join(violations)
    # Vacuity floor: the corpus-wide sweep must actually exercise the
    # corpus, not skip its way to green.
    assert deployed >= 40, f"only {deployed} contracts deployed"
    assert executed >= 150, f"only {executed} transitions executed"
    assert succeeded >= 60, f"only {succeeded} transitions succeeded"
