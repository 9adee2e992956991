"""Interpreter tests: expression evaluation, transition execution,
rollback, gas, messages, procedures, and the prelude."""

import pytest

from repro.scilla import parse_module
from repro.scilla.errors import ExecError, GasError
from repro.scilla.interpreter import Interpreter, TxContext
from repro.scilla.parser import parse_expression
from repro.scilla import types as ty
from repro.scilla.values import (
    ADTVal, BNumVal, IntVal, MapVal, StringVal, addr, bool_val, uint,
    value_to_list, Env,
)


def eval_expr(source: str):
    module = parse_module("""
    scilla_version 0
    contract Empty (o: ByStr20)
    transition Nop ()
    end
    """)
    interp = Interpreter(module)
    return interp.eval_expr(parse_expression(source), interp.lib_env)


# -- pure evaluation ----------------------------------------------------------

def test_literal():
    assert eval_expr("Uint128 5") == uint(5)


def test_let_and_builtin():
    assert eval_expr(
        "let a = Uint128 2 in let b = Uint128 3 in builtin add a b") == \
        uint(5)


def test_function_application():
    assert eval_expr(
        "let f = fun (x: Uint128) => builtin add x x in"
        " let two = Uint128 2 in f two") == uint(4)


def test_curried_application():
    assert eval_expr(
        "let f = fun (x: Uint128) => fun (y: Uint128) =>"
        " builtin sub x y in"
        " let a = Uint128 10 in let b = Uint128 4 in f a b") == uint(6)


def test_closure_captures_environment():
    assert eval_expr(
        "let k = Uint128 7 in"
        " let f = fun (x: Uint128) => builtin add x k in"
        " let one = Uint128 1 in f one") == uint(8)


def test_match_expression_peel():
    assert eval_expr(
        "let o = let v = Uint128 3 in Some {Uint128} v in"
        " match o with | Some x => x | None => Uint128 0 end") == uint(3)


def test_match_first_clause_wins():
    assert eval_expr(
        "let b = True in match b with | True => Uint128 1"
        " | _ => Uint128 2 end") == uint(1)


def test_type_function_instantiation():
    assert eval_expr(
        "let id = tfun 'A => fun (x: 'A) => x in"
        " let f = @id Uint128 in let v = Uint128 9 in f v") == uint(9)


def test_constructor_evaluation():
    v = eval_expr("let x = Uint128 1 in Some {Uint128} x")
    assert isinstance(v, ADTVal)
    assert v.constructor == "Some"
    assert v.args == (uint(1),)


def test_prelude_bool_helpers():
    assert eval_expr("let a = True in let b = False in andb a b") == \
        bool_val(False)
    assert eval_expr("let a = True in let b = False in orb a b") == \
        bool_val(True)
    assert eval_expr("let a = False in negb a") == bool_val(True)


def test_native_list_fold():
    assert eval_expr(
        "let nil = Nil {Uint128} in"
        " let one = Uint128 1 in let two = Uint128 2 in"
        " let l1 = Cons {Uint128} two nil in"
        " let l2 = Cons {Uint128} one l1 in"
        " let f = fun (acc: Uint128) => fun (x: Uint128) =>"
        "   builtin add acc x in"
        " let folder = @list_foldl Uint128 Uint128 in"
        " let zero = Uint128 0 in"
        " folder f zero l2") == uint(3)


def test_native_list_map_and_length():
    result = eval_expr(
        "let nil = Nil {Uint128} in"
        " let one = Uint128 1 in"
        " let l = Cons {Uint128} one nil in"
        " let f = fun (x: Uint128) => builtin add x x in"
        " let mapper = @list_map Uint128 Uint128 in"
        " mapper f l")
    assert value_to_list(result) == [uint(2)]


# -- transition execution ----------------------------------------------------------

COUNTER = """
scilla_version 0

library Counter

let one = Uint128 1

contract Counter (owner: ByStr20)

field count : Uint128 = Uint128 0
field log : Map ByStr20 Uint128 = Emp ByStr20 Uint128

transition Bump ()
  c <- count;
  new_c = builtin add c one;
  count := new_c;
  log[_sender] := new_c
end

transition BumpThenFail ()
  c <- count;
  new_c = builtin add c one;
  count := new_c;
  throw
end

transition PayMe ()
  accept;
  msg = { _tag : "Thanks"; _recipient : _sender; _amount : Uint128 0 };
  msgs = one_msg msg;
  send msgs;
  e = { _eventname : "Paid"; amount : _amount };
  event e
end
"""


@pytest.fixture
def counter():
    module = parse_module(COUNTER)
    interp = Interpreter(module)
    state = interp.deploy("0x01", {"owner": addr("0xaa")})
    return interp, state


def test_deploy_initialises_fields(counter):
    _, state = counter
    assert state.fields["count"] == uint(0)
    assert isinstance(state.fields["log"], MapVal)


def test_deploy_rejects_wrong_params():
    module = parse_module(COUNTER)
    interp = Interpreter(module)
    with pytest.raises(ExecError):
        interp.deploy("0x01", {"not_owner": addr("0xaa")})


def test_transition_mutates_state(counter):
    interp, state = counter
    result = interp.run_transition(state, "Bump", {},
                                   TxContext(sender="0xbb"))
    assert result.success
    assert state.fields["count"] == uint(1)
    assert len(state.fields["log"].entries) == 1


def test_failed_transition_rolls_back(counter):
    interp, state = counter
    result = interp.run_transition(state, "BumpThenFail", {},
                                   TxContext(sender="0xbb"))
    assert not result.success
    assert "thrown" in result.error
    assert state.fields["count"] == uint(0)


def test_unknown_transition_params_rejected(counter):
    interp, state = counter
    with pytest.raises(ExecError):
        interp.run_transition(state, "Bump", {"extra": uint(1)},
                              TxContext(sender="0xbb"))


def test_gas_metering_and_exhaustion(counter):
    interp, state = counter
    ok = interp.run_transition(state, "Bump", {}, TxContext(sender="0xbb"))
    assert ok.gas_used > 0
    result = interp.run_transition(state, "Bump", {},
                                   TxContext(sender="0xbb"), gas_limit=3)
    assert not result.success
    assert "gas" in result.error
    assert state.fields["count"] == uint(1)  # rolled back


def test_accept_and_messages(counter):
    interp, state = counter
    result = interp.run_transition(state, "PayMe", {},
                                   TxContext(sender="0xbb", amount=500))
    assert result.success
    assert result.accepted == 500
    assert state.balance == 500
    assert len(result.messages) == 1
    msg = result.messages[0]
    assert msg.tag == "Thanks"
    assert msg.amount == 0
    assert len(result.events) == 1


def test_no_accept_means_no_balance_change(counter):
    interp, state = counter
    interp.run_transition(state, "Bump", {},
                          TxContext(sender="0xbb", amount=500))
    assert state.balance == 0


def test_write_log_records_touched_keys(counter):
    interp, state = counter
    result = interp.run_transition(state, "Bump", {},
                                   TxContext(sender="0xbb"))
    keys = set(result.write_log.writes)
    assert ("count", ()) in keys
    assert any(k[0] == "log" and len(k[1]) == 1 for k in keys)


def test_sender_visible_as_implicit_param(counter):
    interp, state = counter
    interp.run_transition(state, "Bump", {}, TxContext(sender="0xbb"))
    (entry_key,) = state.fields["log"].entries
    assert entry_key.hex.endswith("bb")


PROC = """
scilla_version 0

library P

contract P (o: ByStr20)

field total : Uint128 = Uint128 0

procedure AddTwice (x: Uint128)
  t <- total;
  a = builtin add t x;
  b = builtin add a x;
  total := b
end

transition Go (v: Uint128)
  AddTwice v;
  AddTwice v
end
"""


def test_procedure_calls_share_state():
    module = parse_module(PROC)
    interp = Interpreter(module)
    state = interp.deploy("0x01", {"o": addr("0xaa")})
    result = interp.run_transition(state, "Go", {"v": uint(5)},
                                   TxContext(sender="0xbb"))
    assert result.success
    assert state.fields["total"] == uint(20)


# A well-typed contract whose transition shadows two library names a
# procedure uses.  Procedures are lexically scoped: ``Reset`` must see
# the library's ``zero`` and ``slot``, not the caller's locals.
SHADOWED_LIBRARY_NAMES = """
scilla_version 0

library Shadow

let zero = Uint128 0
let slot = Uint128 1

contract Shadow ()

field f : Uint128 = Uint128 7
field m : Map Uint128 Uint128 = Emp Uint128 Uint128

procedure Reset ()
  f := zero;
  m[slot] := zero
end

transition Go (k: Uint128)
  zero = Uint128 42;
  slot = k;
  Reset
end
"""


@pytest.mark.parametrize("method", ["run_transition", "interpret_transition"])
def test_procedures_do_not_see_the_callers_locals(method):
    interp = Interpreter(parse_module(SHADOWED_LIBRARY_NAMES))
    state = interp.deploy("0x01", {})
    result = getattr(interp, method)(state, "Go", {"k": uint(9)},
                                     TxContext(sender="0xbb"))
    assert result.success, result.error
    assert state.fields["f"] == uint(0)
    assert dict(state.fields["m"].entries) == {uint(1): uint(0)}


def test_blocknumber_visible():
    src = """
    scilla_version 0
    contract B (o: ByStr20)
    field last : BNum = BNum 0
    transition Record ()
      blk <- & BLOCKNUMBER;
      last := blk
    end
    """
    module = parse_module(src)
    interp = Interpreter(module)
    state = interp.deploy("0x01", {"o": addr("0xaa")})
    interp.run_transition(state, "Record", {},
                          TxContext(sender="0xbb", block_number=42))
    assert state.fields["last"] == BNumVal(42)


def test_nested_map_create_and_rollback():
    src = """
    scilla_version 0
    contract N (o: ByStr20)
    field m : Map ByStr20 (Map ByStr20 Uint128) =
      Emp ByStr20 (Map ByStr20 Uint128)
    transition Put (a: ByStr20, b: ByStr20, v: Uint128)
      m[a][b] := v
    end
    transition PutThenFail (a: ByStr20, b: ByStr20, v: Uint128)
      m[a][b] := v;
      throw
    end
    """
    module = parse_module(src)
    interp = Interpreter(module)
    state = interp.deploy("0x01", {"o": addr("0xaa")})
    args = {"a": addr("0x01"), "b": addr("0x02"), "v": uint(7)}
    # Failure: intermediate map must vanish on rollback.
    result = interp.run_transition(state, "PutThenFail", dict(args),
                                   TxContext(sender="0xbb"))
    assert not result.success
    assert not state.fields["m"].entries
    # Success: nested entry created.
    result = interp.run_transition(state, "Put", dict(args),
                                   TxContext(sender="0xbb"))
    assert result.success
    assert state.fields["m"].entries[addr("0x01")].entries[addr("0x02")] \
        == uint(7)


def test_nested_constructor_patterns():
    """Patterns like ``Pair (Some x) y`` destructure in one match."""
    result = eval_expr(
        "let v = Uint128 5 in"
        " let o = Some {Uint128} v in"
        " let s = \"tag\" in"
        " let p = Pair {(Option Uint128)} {String} o s in"
        " match p with"
        " | Pair (Some x) label => x"
        " | Pair None label => Uint128 0"
        " end")
    assert result == uint(5)


def test_nested_pattern_falls_through_to_none_case():
    result = eval_expr(
        "let o = None {Uint128} in"
        " let s = \"tag\" in"
        " let p = Pair {(Option Uint128)} {String} o s in"
        " match p with"
        " | Pair (Some x) label => x"
        " | Pair None label => Uint128 7"
        " end")
    assert result == uint(7)


def test_wildcard_inside_constructor_pattern():
    result = eval_expr(
        "let v = Uint128 3 in"
        " let o = Some {Uint128} v in"
        " match o with"
        " | Some _ => Uint128 1"
        " | None => Uint128 0"
        " end")
    assert result == uint(1)


def test_list_pattern_destructuring():
    result = eval_expr(
        "let nil = Nil {Uint128} in"
        " let a = Uint128 10 in"
        " let b = Uint128 20 in"
        " let l1 = Cons {Uint128} b nil in"
        " let l2 = Cons {Uint128} a l1 in"
        " match l2 with"
        " | Cons head rest => head"
        " | Nil => Uint128 0"
        " end")
    assert result == uint(10)
