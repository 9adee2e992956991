"""Definitional interpreter for Scilla contracts.

Transitions execute against a :class:`ContractState` under a
:class:`TxContext` with gas metering.  The interpreter mutates the
state in place, recording an undo log; if the transition aborts
(``throw``, failed builtin, out of gas) the state is rolled back and
the failure reported in the invocation's result (a finished
:class:`_Run`).

This mirrors the role of Zilliqa's scilla-runner in the paper's
evaluation: it is the substrate whose sequential execution cost the
sharded chain parallelises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import ast
from . import types as ty
from .ast import (
    Accept, App, Atom, Bind, BinderPat, Builtin, CallProc, Constr, ConstructorPat, Event, Expr, Fun, Ident, Let,
    LibTypeDef, LitAtom, Literal, Load, MapDelete, MapGet,
    MapGetExists, MapUpdate, MatchExpr, MatchStmt, MessageExpr, Module,
    Pattern, ReadBlockchain, Send, Stmt, Store, TApp, TFun, Throw, Var,
    WildcardPat,
)
from .builtins import get_builtin
from .errors import EvalError, ExecError, GasError, ScillaError
from .parser import parse_module
from .state import MISSING, ContractState, WriteLog, _Missing
from .types import (
    ADTDef, BUILTIN_ADTS, ConstructorDef, MapType, PrimType,
    ScillaType, substitute,
)
from .values import (
    ADTVal, BNumVal, ByStrVal, Closure, Env, IntVal, MapVal, MsgVal,
    StringVal, TypeClosure, Value, addr, bool_val, none, some, value_to_list,
)

# --------------------------------------------------------------------------
# Gas schedule (simplified from the Zilliqa cost model; absolute values
# matter only relative to each other for the throughput experiments).
# --------------------------------------------------------------------------

GAS_TRANSITION_BASE = 10
GAS_STATEMENT = 1
GAS_STATE_ACCESS = 4
GAS_SEND_PER_MSG = 8
GAS_EVENT = 4


class OutMsg(NamedTuple):
    """An outgoing message emitted by ``send``: a tuple, so a compiled
    ``send`` builds it with one ``tuple.__new__``."""

    tag: str
    recipient: str
    amount: int
    params: tuple[tuple[str, Value], ...] = ()


class TxContext(NamedTuple):
    """Blockchain-provided context for one transition invocation: a
    tuple, so a lane builds it with one ``tuple.__new__``."""

    sender: str | ByStrVal
    amount: int = 0
    origin: str | ByStrVal | None = None    # None: the sender
    block_number: int = 1
    timestamp: int = 0
    chain_id: int = 1


# --------------------------------------------------------------------------
# Native (Python-implemented) polymorphic library functions.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NativeFun(Value):
    """A curried native library function (list folds etc.).

    Scilla has no general recursion; list/nat traversals come from the
    standard library's recursion principles.  We model those as native
    values.  Type applications are recorded (they pick result element
    types) and positional arguments accumulate until saturation.
    """

    name: str
    arity: int
    targs: tuple[ScillaType, ...] = ()
    args: tuple[Value, ...] = ()

    def __str__(self) -> str:
        return f"<native {self.name}>"


NATIVE_ARITIES = {
    "list_foldl": 3,   # @list_foldl 'A 'B : ('B -> 'A -> 'B) -> 'B -> List 'A -> 'B
    "list_foldr": 3,
    "list_map": 2,
    "list_filter": 2,
    "list_length": 1,
    "list_mem": 2,     # eq-based membership: elem -> list -> Bool
    "list_append": 2,
    "list_reverse": 1,
    "nat_fold": 3,     # (B -> Nat -> B) -> B -> Nat -> B
    "fst": 1,
    "snd": 1,
}


def native_env() -> Env:
    env = Env()
    for name, arity in NATIVE_ARITIES.items():
        env = env.bind(name, NativeFun(name, arity))
    return env


# --------------------------------------------------------------------------
# Type substitution inside expressions (for tfun application).
# --------------------------------------------------------------------------

def subst_expr_types(expr: Expr, subst: dict[str, ScillaType]) -> Expr:
    """Substitute type variables throughout an expression."""
    def st(t: ScillaType | None) -> ScillaType | None:
        return substitute(t, subst) if t is not None else None

    def satom(a: Atom) -> Atom:
        if isinstance(a, LitAtom):
            return LitAtom(a.value, substitute(a.typ, subst), a.loc)
        return a

    if isinstance(expr, Literal):
        return Literal(expr.value, substitute(expr.typ, subst), expr.loc)
    if isinstance(expr, Var):
        return expr
    if isinstance(expr, MessageExpr):
        return MessageExpr(
            tuple((k, satom(v)) for k, v in expr.fields), expr.loc)
    if isinstance(expr, Constr):
        return Constr(
            expr.constructor,
            tuple(substitute(t, subst) for t in expr.type_args),
            tuple(satom(a) for a in expr.args), expr.loc)
    if isinstance(expr, Builtin):
        return Builtin(expr.name, tuple(satom(a) for a in expr.args), expr.loc)
    if isinstance(expr, Let):
        return Let(expr.name, st(expr.annot),
                   subst_expr_types(expr.bound, subst),
                   subst_expr_types(expr.body, subst), expr.loc)
    if isinstance(expr, Fun):
        return Fun(expr.param, substitute(expr.param_type, subst),
                   subst_expr_types(expr.body, subst), expr.loc)
    if isinstance(expr, App):
        return App(expr.func, tuple(satom(a) for a in expr.args), expr.loc)
    if isinstance(expr, MatchExpr):
        return MatchExpr(
            expr.scrutinee,
            tuple((p, subst_expr_types(e, subst)) for p, e in expr.clauses),
            expr.loc)
    if isinstance(expr, TFun):
        inner = {k: v for k, v in subst.items() if k != expr.tvar}
        return TFun(expr.tvar, subst_expr_types(expr.body, inner), expr.loc)
    if isinstance(expr, TApp):
        return TApp(expr.func,
                    tuple(substitute(t, subst) for t in expr.type_args),
                    expr.loc)
    raise EvalError(f"unknown expression node {expr!r}")


# --------------------------------------------------------------------------
# ADT registry.
# --------------------------------------------------------------------------

class ADTRegistry:
    """All ADTs in scope: built-ins plus user library type definitions."""

    def __init__(self) -> None:
        self.adts: dict[str, ADTDef] = dict(BUILTIN_ADTS)
        self.by_constructor: dict[str, ADTDef] = {}
        for adt in self.adts.values():
            for c in adt.constructors:
                self.by_constructor[c.name] = adt

    def define(self, typedef: LibTypeDef) -> None:
        constructors = tuple(
            ConstructorDef(name, args) for name, args in typedef.constructors
        )
        adt = ADTDef(typedef.name, (), constructors)
        self.adts[typedef.name] = adt
        for c in constructors:
            self.by_constructor[c.name] = adt

    def lookup_constructor(self, name: str) -> tuple[ADTDef, ConstructorDef]:
        if name not in self.by_constructor:
            raise EvalError(f"unknown constructor {name!r}")
        adt = self.by_constructor[name]
        return adt, adt.constructor(name)


# --------------------------------------------------------------------------
# Pattern matching.
# --------------------------------------------------------------------------

def match_pattern(pat: Pattern, value: Value) -> list[tuple[str, Value]] | None:
    """Try to match; returns bindings or None."""
    if isinstance(pat, WildcardPat):
        return []
    if isinstance(pat, BinderPat):
        return [(pat.name, value)]
    if isinstance(pat, ConstructorPat):
        if not isinstance(value, ADTVal) or value.constructor != pat.constructor:
            return None
        if len(pat.args) not in (0, len(value.args)):
            return None
        bindings: list[tuple[str, Value]] = []
        for sub, arg in zip(pat.args, value.args):
            inner = match_pattern(sub, arg)
            if inner is None:
                return None
            bindings.extend(inner)
        return bindings
    raise EvalError(f"unknown pattern {pat!r}")


# --------------------------------------------------------------------------
# The interpreter proper.
# --------------------------------------------------------------------------

class Interpreter:
    """Evaluator for one contract module."""

    def __init__(self, module: Module):
        self.module = module
        self.contract = module.contract
        self.adts = ADTRegistry()
        # Gas hook installed by _Run while a transition executes, so
        # builtin applications inside pure expressions are metered too.
        self._charge = None
        self._unit = None
        self.lib_env = self._build_library_env()

    def __getstate__(self):
        # Compiled functions do not pickle: the unit stays process-local.
        return {**self.__dict__, "_unit": None, "_charge": None}

    # -- setup ----------------------------------------------------------------

    def _build_library_env(self) -> Env:
        env = native_env()
        for lib in (_prelude().library, self.module.library):
            if lib is None:
                continue
            for entry in lib.entries:
                if isinstance(entry, LibTypeDef):
                    self.adts.define(entry)
                else:
                    env = env.bind(entry.name, self.eval_expr(entry.expr, env))
        return env

    def deploy(self, address: str, params: dict[str, Value],
               balance: int = 0) -> ContractState:
        """Instantiate contract state from immutable parameters."""
        expected = {p.name for p in self.contract.params}
        given = set(params)
        if expected != given:
            raise ExecError(
                f"contract parameter mismatch: expected {sorted(expected)}, "
                f"got {sorted(given)}")
        env = self.lib_env
        immutables = dict(params)
        immutables.setdefault("_this_address", addr(address))
        for name, value in immutables.items():
            env = env.bind(name, value)
        fields: dict[str, Value] = {}
        field_types: dict[str, ScillaType] = {}
        for fld in self.contract.fields:
            fields[fld.name] = self.eval_expr(fld.init, env)
            field_types[fld.name] = fld.typ
        return ContractState(address, fields, field_types, immutables, balance)

    # -- expression evaluation ---------------------------------------------------

    def eval_atom(self, atom: Atom, env: Env) -> Value:
        if isinstance(atom, Ident):
            value = env.lookup(atom.name)
            if value is None:
                raise EvalError(f"unbound identifier {atom.name!r}", atom.loc)
            return value
        return self._literal_value(atom.value, atom.typ)

    def _literal_value(self, raw: object, typ: ScillaType) -> Value:
        if isinstance(typ, PrimType):
            if ty.is_int_type(typ):
                assert isinstance(raw, int)
                return IntVal(raw, typ)
            if typ.name == "String":
                assert isinstance(raw, str)
                return StringVal(raw)
            if typ.name.startswith("ByStr"):
                assert isinstance(raw, str)
                return ByStrVal(raw, typ)
            if typ.name == "BNum":
                assert isinstance(raw, int)
                return BNumVal(raw)
        if isinstance(typ, MapType):
            return MapVal(typ.key, typ.value)
        raise EvalError(f"cannot build literal of type {typ}")

    def eval_expr(self, expr: Expr, env: Env) -> Value:
        if isinstance(expr, Literal):
            return self._literal_value(expr.value, expr.typ)
        if isinstance(expr, Var):
            value = env.lookup(expr.name)
            if value is None:
                raise EvalError(f"unbound identifier {expr.name!r}", expr.loc)
            return value
        if isinstance(expr, MessageExpr):
            return MsgVal(tuple(
                (name, self.eval_atom(atom, env)) for name, atom in expr.fields))
        if isinstance(expr, Constr):
            return self._eval_constr(expr, env)
        if isinstance(expr, Builtin):
            defn = get_builtin(expr.name)
            args = [self.eval_atom(a, env) for a in expr.args]
            if len(args) != defn.arity:
                raise EvalError(
                    f"builtin {expr.name} expects {defn.arity} args, got "
                    f"{len(args)}", expr.loc)
            if self._charge is not None:
                self._charge(defn.gas)
            return defn.impl(args)
        if isinstance(expr, Let):
            bound = self.eval_expr(expr.bound, env)
            return self.eval_expr(expr.body, env.bind(expr.name, bound))
        if isinstance(expr, Fun):
            return Closure(expr.param, expr.param_type, expr.body, env)
        if isinstance(expr, App):
            func = env.lookup(expr.func.name)
            if func is None:
                raise EvalError(f"unbound function {expr.func.name!r}", expr.loc)
            for atom in expr.args:
                func = self.apply(func, self.eval_atom(atom, env), expr.loc)
            return func
        if isinstance(expr, MatchExpr):
            scrutinee = self.eval_atom(expr.scrutinee, env)
            for pat, body in expr.clauses:
                bindings = match_pattern(pat, scrutinee)
                if bindings is not None:
                    return self.eval_expr(body, env.bind_many(bindings))
            raise EvalError(f"match failure on {scrutinee}", expr.loc)
        if isinstance(expr, TFun):
            return TypeClosure(expr.tvar, expr.body, env)
        if isinstance(expr, TApp):
            func = env.lookup(expr.func.name)
            if func is None:
                raise EvalError(f"unbound identifier {expr.func.name!r}", expr.loc)
            for targ in expr.type_args:
                func = self.type_apply(func, targ, expr.loc)
            return func
        raise EvalError(f"unknown expression node {expr!r}")

    def _eval_constr(self, expr: Constr, env: Env) -> Value:
        adt, cdef = self.adts.lookup_constructor(expr.constructor)
        args = tuple(self.eval_atom(a, env) for a in expr.args)
        if len(args) != len(cdef.arg_types):
            raise EvalError(
                f"constructor {expr.constructor} expects "
                f"{len(cdef.arg_types)} args, got {len(args)}", expr.loc)
        return ADTVal(adt.name, expr.constructor, expr.type_args, args)

    def apply(self, func: Value, arg: Value, loc: ast.Loc) -> Value:
        if isinstance(func, Closure):
            return self.eval_expr(func.body, func.env.bind(func.param, arg))
        if isinstance(func, NativeFun):
            collected = func.args + (arg,)
            if len(collected) < func.arity:
                return NativeFun(func.name, func.arity, func.targs, collected)
            return self._run_native(func.name, func.targs, collected, loc)
        raise EvalError(f"cannot apply non-function {func}", loc)

    def type_apply(self, func: Value, targ: ScillaType, loc: ast.Loc) -> Value:
        if isinstance(func, TypeClosure):
            body = subst_expr_types(func.body, {func.tvar: targ})
            return self.eval_expr(body, func.env)
        if isinstance(func, NativeFun):
            return NativeFun(func.name, func.arity, func.targs + (targ,), func.args)
        raise EvalError(f"cannot instantiate non-type-function {func}", loc)

    def _run_native(self, name: str, targs: tuple[ScillaType, ...],
                    args: tuple[Value, ...], loc: ast.Loc) -> Value:
        elem_t = targs[0] if targs else ty.TypeVar("'A")
        if name == "list_foldl":
            f, acc, lst = args
            for item in value_to_list(lst):
                acc = self.apply(self.apply(f, acc, loc), item, loc)
            return acc
        if name == "list_foldr":
            f, acc, lst = args
            for item in reversed(value_to_list(lst)):
                acc = self.apply(self.apply(f, item, loc), acc, loc)
            return acc
        if name == "list_map":
            f, lst = args
            items = [self.apply(f, item, loc) for item in value_to_list(lst)]
            out_t = targs[1] if len(targs) > 1 else elem_t
            out: Value = ADTVal("List", "Nil", (out_t,))
            for item in reversed(items):
                out = ADTVal("List", "Cons", (out_t,), (item, out))
            return out
        if name == "list_filter":
            f, lst = args
            items = [item for item in value_to_list(lst)
                     if self.apply(f, item, loc) == bool_val(True)]
            out = ADTVal("List", "Nil", (elem_t,))
            for item in reversed(items):
                out = ADTVal("List", "Cons", (elem_t,), (item, out))
            return out
        if name == "list_length":
            (lst,) = args
            return IntVal(len(value_to_list(lst)), ty.UINT32)
        if name == "list_mem":
            needle, lst = args
            found = any(item == needle for item in value_to_list(lst))
            return bool_val(found)
        if name == "list_append":
            a, b = args
            items = value_to_list(a)
            out = b
            for item in reversed(items):
                out = ADTVal("List", "Cons", (elem_t,), (item, out))
            return out
        if name == "list_reverse":
            (lst,) = args
            out = ADTVal("List", "Nil", (elem_t,))
            for item in value_to_list(lst):
                out = ADTVal("List", "Cons", (elem_t,), (item, out))
            return out
        if name == "nat_fold":
            f, acc, nat = args
            count = 0
            v = nat
            while isinstance(v, ADTVal) and v.constructor == "Succ":
                count += 1
                v = v.args[0]
            for _ in range(count):
                acc = self.apply(f, acc, loc)
            return acc
        if name == "fst":
            (p,) = args
            if isinstance(p, ADTVal) and p.constructor == "Pair":
                return p.args[0]
            raise EvalError("fst expects a pair", loc)
        if name == "snd":
            (p,) = args
            if isinstance(p, ADTVal) and p.constructor == "Pair":
                return p.args[1]
            raise EvalError("snd expects a pair", loc)
        raise EvalError(f"unknown native function {name}", loc)

    # -- transition execution -------------------------------------------------------

    def _transition(self, name: str, args: dict[str, Value]) -> ast.Component:
        try:
            component = self.contract.component(name)
        except KeyError as exc:
            raise ExecError(str(exc)) from exc
        if not component.is_transition:
            raise ExecError(f"{name} is a procedure, not a transition")
        expected = {p.name for p in component.params}
        if expected != set(args):
            raise ExecError(
                f"transition {name} parameter mismatch: expected "
                f"{sorted(expected)}, got {sorted(args)}")
        return component

    @property
    def unit(self):
        """This source's compiled unit (repro.scilla.compile), shared
        process-wide and looked up on first use."""
        if self._unit is None:
            from .compile import unit_for
            self._unit = unit_for(self)
        return self._unit

    def run_transition(self, state: ContractState, name: str,
                       args: dict[str, Value] | tuple, ctx: TxContext,
                       gas_limit: int = 100_000) -> _Run:
        """Execute a transition; rolls state back on failure.  Runs
        its compiled unit: the entry point of the chain and the lanes.
        The finished :class:`_Run` is the result.  ``args`` maps each
        parameter to its value, or is a transaction's ``(names,
        values)``: when the names are the parameters in declaration
        order, the values pass as they are, with no dict built."""
        unit = self._unit or self.unit
        params = unit.params.get(name)
        if args.__class__ is tuple and args[0] == params:
            values = args[1]
        else:
            if args.__class__ is tuple:     # last duplicate wins
                args = dict(zip(*args))
            if params is None or args.keys() != set(params):
                self._transition(name, args)    # raises the reference's error
            values = tuple([args[p] for p in params])
        run = _Run(self, state, ctx, gas_limit)
        # Meter builtins inside pure expressions while it runs.
        self._charge = run.charge
        try:
            # Linked already (read without a frame), or linked now.
            (unit._entries.get(name) or unit.entry(name))(run, values)
        except ScillaError as exc:
            return run.failed(exc)
        finally:
            self._charge = None
        if run.accepted:    # on a fork: the epoch installs it
            state.balance += run.accepted
        run.success = True
        return run

    def interpret_transition(self, state: ContractState, name: str,
                             args: dict[str, Value], ctx: TxContext,
                             gas_limit: int = 100_000) -> _Run:
        """:meth:`run_transition` by definition: walk the AST.  The
        reference the differential oracle holds compiled units to."""
        component = self._transition(name, args)
        run = _Run(self, state, ctx, gas_limit)
        self._charge = run.charge
        try:
            run.interpret(component, args)
        except ScillaError as exc:
            return run.failed(exc)
        finally:
            self._charge = None
        if run.accepted:
            state.balance += run.accepted
        run.success = True
        return run


_MAX_AMOUNT = ty.int_bounds(ty.UINT128)[1]
_NO_AMOUNT = IntVal(0, ty.UINT128)


class _Run:
    """One transition invocation: its mutable execution context while
    it runs, and once ``run_transition`` returns it, its result —
    ``success``, ``gas_used``, ``accepted`` (funds taken from
    ``_amount``), the ``messages`` (:class:`OutMsg`) it sent, the
    ``events`` it emitted, ``error`` (None on success) and
    ``write_log``.  A failed run carries no messages, events or write
    log, and ``accepted`` 0: its state is already rolled back."""

    __slots__ = ("interp", "state", "ctx", "gas_limit", "gas_used",
                 "accepted", "messages", "events", "write_log", "sender",
                 "origin", "amount", "entry_env", "success", "error")

    def __init__(self, interp: Interpreter, state: ContractState,
                 ctx: TxContext, gas_limit: int):
        self.interp = interp
        self.state = state
        self.ctx = ctx
        self.gas_limit = gas_limit
        self.gas_used = 0
        self.accepted = 0
        self.messages: list[OutMsg] = []
        self.events: list[MsgVal] = []
        self.write_log = tuple.__new__(WriteLog, ({}, {}))
        self.error = None
        # The implicit parameters (the chain hands the sender over as
        # a ready ByStr20 value, built once per transaction).
        raw, origin, amount = ctx.sender, ctx.origin, ctx.amount
        self.sender = sender = \
            raw if raw.__class__ is ByStrVal else addr(raw)
        self.origin = sender if origin is None or origin is raw \
            or origin == raw else addr(origin)
        if amount == 0:
            self.amount = _NO_AMOUNT
        elif 0 < amount <= _MAX_AMOUNT:     # the bounds check, done
            self.amount = IntVal.checked(amount, ty.UINT128)
        else:                               # raises what it always did
            self.amount = IntVal(amount, ty.UINT128)

    def charge(self, amount: int) -> None:
        self.gas_used += amount
        if self.gas_used > self.gas_limit:
            raise GasError(f"out of gas (limit {self.gas_limit})")

    def failed(self, exc: ScillaError) -> _Run:
        """End the run as a failure: its writes rolled back, nothing
        accepted, sent or emitted."""
        self.write_log.rollback(self.state)
        self.success, self.error = False, str(exc)
        self.accepted, self.write_log = 0, None
        self.messages.clear()
        self.events.clear()
        return self

    def interpret(self, component: ast.Component, args) -> None:
        env = self.interp.lib_env
        for pname, pvalue in self.state.immutables.items():
            env = env.bind(pname, pvalue)
        env = env.bind("_sender", self.sender)
        env = env.bind("_origin", self.origin)
        # What every procedure starts from, whoever calls it.
        self.entry_env = env = env.bind("_amount", self.amount)
        self.charge(GAS_TRANSITION_BASE)
        for pname, pvalue in args.items():
            env = env.bind(pname, pvalue)
        self.exec_stmts(component.body, env)

    # -- statement execution ---------------------------------------------------

    def exec_stmts(self, stmts: tuple[Stmt, ...], env: Env) -> Env:
        for stmt in stmts:
            env = self.exec_stmt(stmt, env)
        return env

    def exec_stmt(self, stmt: Stmt, env: Env) -> Env:
        self.charge(GAS_STATEMENT)
        interp = self.interp
        if isinstance(stmt, Bind):
            value = interp.eval_expr(stmt.expr, env)
            return env.bind(stmt.lhs, value)
        if isinstance(stmt, Load):
            self.charge(GAS_STATE_ACCESS)
            value = self.state.get_field(stmt.field)
            if isinstance(value, MapVal):
                value = value.copy()
            return env.bind(stmt.lhs, value)
        if isinstance(stmt, Store):
            self.charge(GAS_STATE_ACCESS)
            value = interp.eval_atom(stmt.rhs, env)
            self.write_log.record(self.state, (stmt.field, ()), value)
            self.state.write((stmt.field, ()), value)
            return env
        if isinstance(stmt, MapGet):
            self.charge(GAS_STATE_ACCESS)
            keys = tuple(interp.eval_atom(k, env) for k in stmt.keys)
            raw = self.state.map_get(stmt.map, keys)
            value_t = _map_leaf_type(self.state.field_types.get(stmt.map), len(keys))
            if isinstance(raw, _Missing):
                return env.bind(stmt.lhs, none(value_t))
            if isinstance(raw, MapVal):
                raw = raw.copy()
            return env.bind(stmt.lhs, some(raw, value_t))
        if isinstance(stmt, MapGetExists):
            self.charge(GAS_STATE_ACCESS)
            keys = tuple(interp.eval_atom(k, env) for k in stmt.keys)
            raw = self.state.map_get(stmt.map, keys)
            return env.bind(stmt.lhs, bool_val(not isinstance(raw, _Missing)))
        if isinstance(stmt, MapUpdate):
            self.charge(GAS_STATE_ACCESS)
            keys = tuple(interp.eval_atom(k, env) for k in stmt.keys)
            value = interp.eval_atom(stmt.rhs, env)
            self.write_log.record(self.state, (stmt.map, keys), value)
            self.state.map_put(stmt.map, keys, value)
            return env
        if isinstance(stmt, MapDelete):
            self.charge(GAS_STATE_ACCESS)
            keys = tuple(interp.eval_atom(k, env) for k in stmt.keys)
            self.write_log.record(self.state, (stmt.map, keys), MISSING)
            self.state.map_delete(stmt.map, keys)
            return env
        if isinstance(stmt, ReadBlockchain):
            value: Value
            if stmt.entry == "BLOCKNUMBER":
                value = BNumVal(self.ctx.block_number)
            elif stmt.entry == "TIMESTAMP":
                value = IntVal(self.ctx.timestamp, ty.UINT64)
            else:  # CHAINID
                value = IntVal(self.ctx.chain_id, ty.UINT32)
            return env.bind(stmt.lhs, value)
        if isinstance(stmt, MatchStmt):
            scrutinee = interp.eval_atom(stmt.scrutinee, env)
            for pat, body in stmt.clauses:
                bindings = match_pattern(pat, scrutinee)
                if bindings is not None:
                    self.exec_stmts(body, env.bind_many(bindings))
                    return env
            raise ExecError(f"match failure on {scrutinee}", stmt.loc)
        if isinstance(stmt, Accept):
            if self.accepted == 0:
                self.accepted = self.ctx.amount
            return env
        if isinstance(stmt, Send):
            value = interp.eval_atom(stmt.arg, env)
            msgs = value_to_list(value) if isinstance(value, ADTVal) else [value]
            for msg in msgs:
                self.charge(GAS_SEND_PER_MSG)
                self.messages.append(_to_outmsg(msg, stmt.loc))
            return env
        if isinstance(stmt, Event):
            self.charge(GAS_EVENT)
            value = interp.eval_atom(stmt.arg, env)
            if not isinstance(value, MsgVal):
                raise ExecError("event expects a message value", stmt.loc)
            self.events.append(value)
            return env
        if isinstance(stmt, Throw):
            if stmt.arg is not None:
                value = interp.eval_atom(stmt.arg, env)
                raise ExecError(f"exception thrown: {value}", stmt.loc)
            raise ExecError("exception thrown", stmt.loc)
        if isinstance(stmt, CallProc):
            return self._call_procedure(stmt, env)
        raise ExecError(f"unknown statement {stmt!r}", stmt.loc)

    def _call_procedure(self, stmt: CallProc, env: Env) -> Env:
        interp = self.interp
        try:
            proc = interp.contract.component(stmt.proc)
        except KeyError as exc:
            raise ExecError(str(exc), stmt.loc) from exc
        if proc.is_transition:
            raise ExecError(f"cannot call transition {stmt.proc} as procedure",
                            stmt.loc)
        if len(stmt.args) != len(proc.params):
            raise ExecError(
                f"procedure {stmt.proc} expects {len(proc.params)} args, got "
                f"{len(stmt.args)}", stmt.loc)
        values = [interp.eval_atom(a, env) for a in stmt.args]
        # Procedures see library/contract/implicit bindings plus their own
        # params, not the caller's locals.
        pairs = [(p.name, v) for p, v in zip(proc.params, values)]
        self.exec_stmts(proc.body, self.entry_env.bind_many(pairs))
        return env


def _map_leaf_type(field_type: ScillaType | None, depth: int) -> ScillaType:
    t = field_type
    for _ in range(depth):
        if isinstance(t, MapType):
            t = t.value
        else:
            return ty.TypeVar("'V")
    return t if t is not None else ty.TypeVar("'V")


def _to_outmsg(msg: Value, loc: ast.Loc) -> OutMsg:
    if not isinstance(msg, MsgVal):
        raise ExecError("send expects messages", loc)
    tag = msg.get("_tag")
    recipient = msg.get("_recipient")
    amount = msg.get("_amount")
    if not isinstance(tag, StringVal) or not isinstance(recipient, ByStrVal):
        raise ExecError("message needs _tag and _recipient", loc)
    amt = amount.value if isinstance(amount, IntVal) else 0
    params = tuple(
        (k, v) for k, v in msg.fields
        if k not in ("_tag", "_recipient", "_amount"))
    return OutMsg(tag.value, recipient.hex, amt, params)


# --------------------------------------------------------------------------
# Prelude: Scilla-source standard helpers available to every contract.
# --------------------------------------------------------------------------

PRELUDE_SOURCE = """
scilla_version 0

library Prelude

let one_msg = fun (msg: Message) =>
  let nil_msg = Nil {Message} in
  Cons {Message} msg nil_msg

let two_msgs = fun (m1: Message) => fun (m2: Message) =>
  let nil_msg = Nil {Message} in
  let one = Cons {Message} m2 nil_msg in
  Cons {Message} m1 one

let andb = fun (a: Bool) => fun (b: Bool) =>
  match a with
  | True => b
  | False => False
  end

let orb = fun (a: Bool) => fun (b: Bool) =>
  match a with
  | True => True
  | False => b
  end

let negb = fun (a: Bool) =>
  match a with
  | True => False
  | False => True
  end

let option_uint128 = fun (default: Uint128) => fun (opt: Option Uint128) =>
  match opt with
  | Some v => v
  | None => default
  end

let option_is_some = tfun 'A =>
  fun (opt: Option 'A) =>
  match opt with
  | Some v => True
  | None => False
  end

contract Prelude
transition Noop ()
end
"""

_PRELUDE_MODULE: Module | None = None


def _prelude() -> Module:
    global _PRELUDE_MODULE
    if _PRELUDE_MODULE is None:
        _PRELUDE_MODULE = parse_module(PRELUDE_SOURCE, "<prelude>")
    return _PRELUDE_MODULE
