"""Compile each transition to Python once per contract source.

``Interpreter.interpret_transition`` walks the AST and stays the
executable specification; this module lowers the same AST to Python
source, once, and ``Interpreter.run_transition`` runs the result.  The
generated code calls the *same* ``BuiltinDef.impl``, ``WriteLog.record``,
``ContractState.map_put/map_delete/write`` and ``_to_outmsg`` in the
same order and charges gas at the same points, so gas, error strings,
the rollback point, undo capture, journal hooks and CoW privatisations
are the reference's (oracle: ``tests/test_compiled_equivalence.py``;
lowering table: docs/LANGUAGE.md, "Execution").

Expressions outside the first-order fragment — ``fun``/``tfun`` values,
type and partial application, native folds, ``Emp``, anything
ill-formed — are delegated to ``Interpreter.eval_expr`` under an ``Env``
of the locals in scope, and counted.  A :class:`ContractUnit` holds
nothing per-deployment (immutables, state and context arrive through
``run``) and lives only in the process-local :data:`_UNITS` table,
never on anything that is pickled.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass

from ..core.cache import ANALYSIS_VERSION
from .ast import (
    Accept, App, Bind, BinderPat, Builtin, CallProc, Component, Constr,
    ConstructorPat, Event, Fun, Ident, Let, Literal, Load,
    MapDelete, MapGet, MapGetExists, MapUpdate, MatchExpr, MatchStmt,
    MessageExpr, ReadBlockchain, Send, Store, Throw, Var,
)
from .builtins import REGISTRY
from .errors import EvalError, ExecError, GasError, ScillaError
from .interpreter import (
    GAS_EVENT, GAS_SEND_PER_MSG, GAS_STATE_ACCESS, GAS_STATEMENT,
    GAS_TRANSITION_BASE, _map_leaf_type, _to_outmsg,
)
from .state import MISSING
from .types import UINT32, UINT64, MapType
from .values import (
    ADTVal, BNumVal, Closure, Env, FALSE, IntVal, MapVal, MsgVal, TRUE,
    none, value_to_list,
)

# Process-local: (ANALYSIS_VERSION, source hash) -> unit, the key
# SummaryCache uses, so deployments of one source and every lane's
# private Interpreter share a unit (it grows like SummaryCache does).
_UNITS: dict[tuple, "ContractUnit"] = {}
# Guards the table and a unit's lazy linking (thread lanes share units).
_LOCK = threading.RLock()


def unit_for(interp) -> "ContractUnit":
    """The shared compiled unit of ``interp``'s contract source."""
    digest = interp.module.source_hash
    if not digest:      # a module not parsed from text: nothing shares it
        return ContractUnit(interp)
    key = (ANALYSIS_VERSION, digest)
    with _LOCK:         # once per Interpreter, which keeps the result
        unit = _UNITS.get(key)
        if unit is None:
            unit = _UNITS[key] = ContractUnit(interp)
    return unit


def _oog(run, parts=()):
    """Out of gas.  A fused charge names its ``parts``: they are
    replayed one by one so ``gas_used`` stops where the reference's
    sequential charges would have."""
    if parts:
        used = run.gas_used - sum(parts)
        for part in parts:
            used += part
            if used > run.gas_limit:
                break
        run.gas_used = used
    raise GasError(f"out of gas (limit {run.gas_limit})")


_SUPPORT = {
    "ADTVal": ADTVal, "BNumVal": BNumVal, "Env": Env, "IntVal": IntVal,
    "MapVal": MapVal, "MsgVal": MsgVal, "MISSING": MISSING, "TRUE": TRUE,
    "FALSE": FALSE, "EvalError": EvalError, "ExecError": ExecError,
    "UINT32": UINT32, "UINT64": UINT64, "_oog": _oog,
    "_to_outmsg": _to_outmsg, "value_to_list": value_to_list,
}

# Locals a generated function sets up on entry, when its body names them.
_PROLOGUE = {
    "state": "run.state", "fields": "run.state.fields",
    "imm": "run.state.immutables", "lim": "run.gas_limit",
    "log": "run.log", "_sender": "run.sender", "_origin": "run.origin",
    "_amount": "run.amount",
}
# The charge the reference makes right after a statement's own, with
# nothing observable in between: fused into it (see ``_oog``).
_FUSED = {**dict.fromkeys((Load, Store, MapGet, MapGetExists, MapUpdate,
                           MapDelete), (GAS_STATE_ACCESS,)),
          Event: (GAS_EVENT,)}
_PROLOGUE_RE = re.compile(r"\b(%s)\b" % "|".join(_PROLOGUE))
_CONST_RE = re.compile(r"\bK\d+\b")


@dataclass
class _LibFun:
    """A library ``fun`` chain: lowered to a ``def`` when first applied
    at its full arity."""

    name: str
    params: list[str]
    body: object
    scope: dict[str, str]       # library names visible at its definition
    env: Env                    # the same, as the reference's Env
    pyname: str | None = None


class ContractUnit:
    """Generated Python for one contract source: source text for every
    component up front (what ``interp.compile.*`` counts and ``repro
    compile`` prints), bytecode lazily, per transition plus the
    procedures and library functions it reaches, on its first call."""

    def __init__(self, interp):
        self.interp = interp        # for its ADT registry and literals
        self.contract = interp.contract
        self.ns: dict = {**_SUPPORT, "LIBENV": interp.lib_env}
        self.sources: dict[str, str] = {}
        self.deps: dict[str, set[str]] = {}
        self.delegated = 0
        self._libfuns: dict[str, _LibFun] = {}
        self._entries: dict[str, object] = {}
        self.field_types = {f.name: f.typ for f in self.contract.fields}
        self.scope = self._base_scope(interp)
        for comp in self.contract.components:
            if _pyname(comp) not in self.sources:   # the first of a name wins
                _Fn(self, _pyname(comp)).component(comp)
        # Components lowered (library functions are ``l…``).
        self.units = sum(name[0] in "tp" for name in self.sources)

    def _base_scope(self, interp) -> dict[str, str]:
        """What a component sees before its own parameters: library
        values as constants, then immutables, then the implicit ones."""
        nodes, env = [], interp.lib_env
        while env.parent is not None:           # the root Env is empty
            nodes.append(env)
            env = env.parent
        scope: dict[str, str] = {}
        for node in reversed(nodes):            # oldest binding first
            (name, value), = node.bindings
            const = self.const(value)
            # A ``let f = fun …`` entry closes over exactly the library
            # before it, which ``scope`` mirrors at this point.
            if isinstance(value, Closure) and value.env is node.parent:
                params, body = [value.param], value.body
                while isinstance(body, Fun):
                    params.append(body.param)
                    body = body.body
                self._libfuns[const] = _LibFun(name, params, body,
                                               dict(scope), value.env)
            scope[name] = const
        for name in [p.name for p in self.contract.params] + ["_this_address"]:
            scope[name] = f"imm[{name!r}]"
        for name in ("_sender", "_origin", "_amount"):
            scope[name] = name
        return scope

    def const(self, value) -> str:
        """A fresh global name holding ``value`` in the generated module
        (``ns`` only grows, so its size never repeats)."""
        name = f"K{len(self.ns)}"
        self.ns[name] = value
        return name

    def libfun(self, const: str | None, n_args: int) -> str | None:
        """The ``def`` for the library function behind ``const`` when
        ``n_args`` saturates it, lowering it on first use."""
        lf = self._libfuns.get(const)
        if lf is None or len(lf.params) != n_args:
            return None
        if lf.pyname is None:
            # Named after its constant: a function may shadow, and
            # call, an earlier one of the same Scilla name.
            lf.pyname = f"l{const}_{_ident(lf.name)}"
            _Fn(self, lf.pyname).libfun(lf)
        return lf.pyname

    # -- linking ---------------------------------------------------------------

    def entry(self, name: str):
        """The compiled ``f(run, args)`` of transition ``name``."""
        fn = self._entries.get(name)
        if fn is None:
            pyname = f"t_{_ident(name)}"
            with _LOCK:
                for dep in self._reach(pyname, {}):
                    if dep not in self.ns:
                        origin = f"<scilla {self.contract.name}.{dep}>"
                        exec(compile(self.sources[dep], origin, "exec"),
                             self.ns)
                fn = self._entries[name] = self.ns[pyname]
        return fn

    def _reach(self, pyname: str, seen: dict) -> dict:
        """``pyname`` and every function it can call, in ``seen``."""
        if pyname not in seen:
            seen[pyname] = None
            for dep in sorted(self.deps[pyname]):
                self._reach(dep, seen)
        return seen

    def source(self, name: str) -> str:
        """Generated source of transition ``name`` and all it reaches;
        the constants ``K<n>`` it names are in :attr:`ns`."""
        return "\n\n".join(self.sources[dep] for dep in
                           self._reach(f"t_{_ident(name)}", {})) + "\n"


def _ident(name: str) -> str:
    return name if name.isidentifier() else "v"


def _pyname(comp: Component) -> str:
    return f"{'t' if comp.is_transition else 'p'}_{_ident(comp.name)}"


class _Fn:
    """One Python function under construction."""

    def __init__(self, unit: ContractUnit, pyname: str):
        self.unit, self.pyname = unit, pyname
        self.lines: list[str] = []
        self.depth, self.n_locals = 1, 0
        self.deps: set[str] = set()
        # Delegated expressions resolve library names in this Env
        # constant; ``base`` is the scope whose constants it holds.
        self.parent_env, self.base = "LIBENV", unit.scope

    # -- emission -------------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def local(self, name: str) -> str:
        self.n_locals += 1
        return f"{_ident(name)}_{self.n_locals}"

    def bind(self, name: str, py: str, scope: dict) -> dict:
        """``scope`` with ``name`` bound to the value of ``py`` (every
        generated local is assigned once, so a plain name is aliased)."""
        if not py.isidentifier():
            local = self.local(name)
            self.emit(f"{local} = {py}")
            py = local
        return {**scope, name: py}

    def charge(self, *parts: int) -> None:
        self.emit(f"g = run.gas_used + {sum(parts)}; run.gas_used = g")
        tail = f", {parts}" if len(parts) > 1 else ""
        self.emit(f"if g > lim: _oog(run{tail})")

    def finish(self, params: str, first: list[str]) -> None:
        used = set(_PROLOGUE_RE.findall("\n".join(first + self.lines)))
        head = [f"def {self.pyname}({params}):"] + [
            f"    {name} = {init}" for name, init in _PROLOGUE.items()
            if name in used]
        self.unit.sources[self.pyname] = "\n".join(
            head + first + self.lines)
        self.unit.deps[self.pyname] = self.deps

    # -- entry points -----------------------------------------------------------

    def component(self, comp: Component) -> None:
        scope = self.unit.scope
        names = [self.local(p.name) for p in comp.params]
        scope = {**scope, **{p.name: n for p, n in zip(comp.params, names)}}
        if comp.is_transition:
            self.charge(GAS_TRANSITION_BASE)
            first, self.lines = self.lines, []
            first += [f"    {n} = args[{p.name!r}]"
                      for p, n in zip(comp.params, names)]
            params = "run, args"
        else:
            first, params = [], ", ".join(["run"] + names)
        self.stmts(comp.body, scope)
        if not self.lines:
            self.emit("pass")
        self.finish(params, first)

    def libfun(self, lf: _LibFun) -> None:
        self.parent_env = self.unit.const(lf.env)
        self.base = lf.scope
        names = [self.local(p) for p in lf.params]
        scope = {**lf.scope, **dict(zip(lf.params, names))}
        self.emit(f"return {self.expr(lf.body, scope)}")
        self.finish(", ".join(["run"] + names), [])

    # -- atoms and expressions --------------------------------------------------

    def var(self, name: str, loc, scope: dict) -> str:
        """What ``name`` resolves to; unbound, the reference's error."""
        return scope.get(name) or self.delegate(Var(name, loc), scope)

    def literal(self, raw, typ) -> str | None:
        """A constant for a literal; None for one to delegate (a map,
        built per use; a malformed one, which raises when reached)."""
        try:
            return None if isinstance(typ, MapType) else \
                self.unit.const(self.unit.interp._literal_value(raw, typ))
        except ScillaError:
            return None

    def atom(self, atom, scope: dict) -> str:
        if isinstance(atom, Ident):
            return self.var(atom.name, atom.loc, scope)
        return self.literal(atom.value, atom.typ) or self.delegate(
            Literal(atom.value, atom.typ, atom.loc), scope)

    def atoms(self, atoms, scope: dict) -> str:
        """A tuple display of the atoms' values."""
        return "(%s)" % "".join(f"{self.atom(a, scope)}, " for a in atoms)

    def delegate(self, expr, scope: dict) -> str:
        """``expr`` through the reference evaluator, under an Env of the
        non-library names in scope."""
        self.unit.delegated += 1
        pairs = "".join(
            f"({name!r}, {py}), " for name, py in scope.items()
            if self.base.get(name) != py or not _CONST_RE.fullmatch(py))
        return (f"run.interp.eval_expr({self.unit.const(expr)}, "
                f"Env(({pairs}), {self.parent_env}))")

    def expr(self, e, scope: dict) -> str:
        """Emit what ``e`` needs and return a Python expression for its
        value, to be consumed by the very next emitted line."""
        unit = self.unit
        if isinstance(e, Literal):
            return self.literal(e.value, e.typ) or self.delegate(e, scope)
        if isinstance(e, Var):
            return self.var(e.name, e.loc, scope)
        if isinstance(e, MessageExpr):
            values = [self.atom(a, scope) for _, a in e.fields]
            if all(_CONST_RE.fullmatch(v) for v in values):
                return unit.const(MsgVal(tuple(
                    (k, unit.ns[v]) for (k, _), v in zip(e.fields, values))))
            inner = "".join(f"({k!r}, {v}), "
                            for (k, _), v in zip(e.fields, values))
            return f"MsgVal(({inner}))"
        if isinstance(e, Constr):
            ctor = unit.interp.adts.by_constructor.get(e.constructor)
            if ctor is None or len(e.args) != len(
                    ctor.constructor(e.constructor).arg_types):
                return self.delegate(e, scope)      # raises when reached
            if not e.args:
                return unit.const(
                    ADTVal(ctor.name, e.constructor, e.type_args))
            return (f"ADTVal({ctor.name!r}, {e.constructor!r}, "
                    f"{unit.const(e.type_args)}, {self.atoms(e.args, scope)})")
        if isinstance(e, Builtin):
            defn = REGISTRY.get(e.name)
            args = ", ".join(self.atom(a, scope) for a in e.args)
            # The reference evaluates the atoms before it charges: one
            # that can raise is left to it, like any ill-formed builtin.
            if defn is None or len(e.args) != defn.arity or "eval_expr(" in args:
                return self.delegate(e, scope)
            self.charge(defn.gas)
            return f"{unit.const(defn.impl)}([{args}])"
        if isinstance(e, Let):
            return self.expr(e.body, self.bind(
                e.name, self.expr(e.bound, scope), scope))
        if isinstance(e, App):
            pyname = unit.libfun(scope.get(e.func.name), len(e.args))
            if pyname is None:
                return self.delegate(e, scope)
            self.deps.add(pyname)
            args = "".join(f", {self.atom(a, scope)}" for a in e.args)
            return f"{pyname}(run{args})"
        if isinstance(e, MatchExpr):
            result = self.local("m")
            self.match(e, scope, EvalError, lambda body, inner: self.emit(
                f"{result} = {self.expr(body, inner)}"))
            return result
        return self.delegate(e, scope)      # Fun, TFun, TApp

    # -- pattern matching -------------------------------------------------------

    def pattern(self, pat, value: str, conds: list, binds: list) -> None:
        """Conditions under which ``pat`` matches the value of the
        Python expression ``value``, and the binders it introduces."""
        if isinstance(pat, BinderPat):
            binds.append((pat.name, value))
        elif isinstance(pat, ConstructorPat):
            conds.append(f"{value}.__class__ is ADTVal and "
                         f"{value}.constructor == {pat.constructor!r}")
            if pat.args:
                conds.append(f"len({value}.args) == {len(pat.args)}")
            for i, sub in enumerate(pat.args):
                self.pattern(sub, f"{value}.args[{i}]", conds, binds)

    def match(self, node, scope: dict, error, body) -> None:
        """An if/elif chain over ``node.clauses``; ``body(clause body,
        clause scope)`` emits one arm."""
        subject = self.var(node.scrutinee.name, node.scrutinee.loc, scope)
        if not subject.isidentifier():
            scope = self.bind(node.scrutinee.name, subject, scope)
            subject = scope[node.scrutinee.name]
        keyword = "if"
        for pat, clause in node.clauses:
            conds: list[str] = []
            binds: list[tuple[str, str]] = []
            self.pattern(pat, subject, conds, binds)
            self.emit(f"{keyword} {' and '.join(conds)}:" if conds
                      else "else:" if keyword == "elif" else "if True:")
            self.depth += 1
            inner = scope
            for name, py in reversed(binds):     # the first binder wins
                inner = self.bind(name, py, inner)
            mark = len(self.lines)
            body(clause, inner)
            if len(self.lines) == mark:
                self.emit("pass")
            self.depth -= 1
            if not conds:
                return
            keyword = "elif"
        self.emit(f"else: raise {error.__name__}('match failure on %s' % "
                  f"({subject},), {self.unit.const(node.loc)})")

    # -- statements -------------------------------------------------------------

    def stmts(self, body, scope: dict) -> None:
        for stmt in body:
            scope = self.stmt(stmt, scope) or scope

    def map_read(self, stmt, scope: dict) -> str:
        """Emit the raw read of ``stmt.map[stmt.keys]`` into a local."""
        raw, keys = self.local("raw"), [self.atom(k, scope) for k in stmt.keys]
        read = f"state.map_get({stmt.map!r}, ({', '.join(keys)},))"
        if len(keys) == 1 and stmt.map in self.unit.field_types:
            self.emit(f"m = fields[{stmt.map!r}]")
            read = (f"m.entries.get({keys[0]}, MISSING) "
                    f"if m.__class__ is MapVal else {read}")
        self.emit(f"{raw} = {read}")
        return raw

    def write(self, key: str, value: str, apply: str) -> None:
        """Emit a state write: undo capture, then the owned write path."""
        self.emit(f"v = {value}")
        self.emit(f"log.record(state, {key}, v)")
        self.emit(f"state.{apply}")

    def stmt(self, s, scope: dict) -> dict | None:
        """Emit one statement; returns the scope it extends, if any."""
        unit = self.unit
        self.charge(GAS_STATEMENT, *_FUSED.get(type(s), ()))
        if isinstance(s, Bind):
            return self.bind(s.lhs, self.expr(s.expr, scope), scope)
        if isinstance(s, Load):
            value = self.local(s.lhs)
            self.emit(f"{value} = fields[{s.field!r}]"
                      if s.field in unit.field_types
                      else f"{value} = state.get_field({s.field!r})")
            self.emit(f"if {value}.__class__ is MapVal: "
                      f"{value} = {value}.copy()")
            return {**scope, s.lhs: value}
        if isinstance(s, MapGet):
            raw = self.map_read(s, scope)
            leaf = _map_leaf_type(unit.field_types.get(s.map), len(s.keys))
            value = self.local(s.lhs)
            self.emit(f"if {raw} is MISSING: "
                      f"{value} = {unit.const(none(leaf))}")
            self.emit("else:")
            self.emit(f"    if {raw}.__class__ is MapVal: "
                      f"{raw} = {raw}.copy()")
            self.emit(f"    {value} = ADTVal('Option', 'Some', "
                      f"{unit.const((leaf,))}, ({raw},))")
            return {**scope, s.lhs: value}
        if isinstance(s, MapGetExists):
            raw = self.map_read(s, scope)
            return self.bind(
                s.lhs, f"FALSE if {raw} is MISSING else TRUE", scope)
        if isinstance(s, ReadBlockchain):
            return self.bind(s.lhs, {
                "BLOCKNUMBER": "BNumVal(run.ctx.block_number)",
                "TIMESTAMP": "IntVal(run.ctx.timestamp, UINT64)",
            }.get(s.entry, "IntVal(run.ctx.chain_id, UINT32)"), scope)
        if isinstance(s, Store):
            key = unit.const((s.field, ()))
            self.write(key, self.atom(s.rhs, scope), f"write({key}, v)")
        elif isinstance(s, MapUpdate):
            self.emit(f"ks = {self.atoms(s.keys, scope)}")
            self.write(f"({s.map!r}, ks)", self.atom(s.rhs, scope),
                       f"map_put({s.map!r}, ks, v)")
        elif isinstance(s, MapDelete):
            self.emit(f"ks = {self.atoms(s.keys, scope)}")
            self.write(f"({s.map!r}, ks)", "MISSING",
                       f"map_delete({s.map!r}, ks)")
        elif isinstance(s, MatchStmt):
            self.match(s, scope, ExecError, self.stmts)
        elif isinstance(s, Accept):
            self.emit("if run.accepted == 0: run.accepted = run.ctx.amount")
        elif isinstance(s, Send):
            self.emit(f"v = {self.atom(s.arg, scope)}")
            self.emit("for msg in (value_to_list(v) "
                      "if v.__class__ is ADTVal else [v]):")
            self.depth += 1
            self.charge(GAS_SEND_PER_MSG)
            self.emit(f"run.messages.append(_to_outmsg(msg, "
                      f"{unit.const(s.loc)}))")
            self.depth -= 1
        elif isinstance(s, Event):
            self.emit(f"v = {self.atom(s.arg, scope)}")
            self.emit(f"if v.__class__ is not MsgVal: raise ExecError("
                      f"'event expects a message value', "
                      f"{unit.const(s.loc)})")
            self.emit("run.events.append(v)")
        elif isinstance(s, Throw):
            message = "'exception thrown'" if s.arg is None else \
                f"'exception thrown: %s' % ({self.atom(s.arg, scope)},)"
            self.emit(f"raise ExecError({message}, {unit.const(s.loc)})")
        elif isinstance(s, CallProc):
            self.call(s, scope)
        else:
            raise ExecError(f"unknown statement {s!r}", s.loc)
        return None

    def call(self, s: CallProc, scope: dict) -> None:
        """A procedure call: the callee is a function of its own
        parameters only, so it cannot see the caller's locals."""
        try:
            proc = self.unit.contract.component(s.proc)
            message = None
            if proc.is_transition:
                message = f"cannot call transition {s.proc} as procedure"
            elif len(s.args) != len(proc.params):
                message = (f"procedure {s.proc} expects {len(proc.params)} "
                           f"args, got {len(s.args)}")
        except KeyError as exc:
            message = str(exc)
        if message is not None:
            self.emit(f"raise ExecError({message!r}, "
                      f"{self.unit.const(s.loc)})")
            return
        self.deps.add(_pyname(proc))
        args = "".join(f", {self.atom(a, scope)}" for a in s.args)
        self.emit(f"{_pyname(proc)}(run{args})")
