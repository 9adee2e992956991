"""Compile each transition to Python once per contract source.

``Interpreter.interpret_transition`` walks the AST and stays the
executable specification; this module lowers the same AST to Python
source, once, and ``Interpreter.run_transition`` runs the result.  The
generated code is observably the reference — success, gas, error
strings, the rollback point, undo capture, journal entries and CoW
privatisations (oracle: ``tests/test_compiled_equivalence.py``; lowering
table: docs/LANGUAGE.md, "Execution") — but does only the transition's
work.  Scilla is in A-normal form, so what that takes is syntactic:
gas is charged once per straight-line *segment*, from a local
(``_Fn.charge`` / ``fence``); a value the runtime itself builds and the
next ``match`` / ``send`` / ``event`` takes apart again is never boxed
(the ``_Opt`` / ``_Bool`` / ``_Msg`` / ``_List`` scope entries);
arithmetic and comparisons run on operands whose *class* is checked,
every failure through the registry ``impl`` (``repro.scilla.builtins``);
a write is one owned write (``repro.scilla.state.owned_put``); and a
procedure defined before its caller is lowered into it.

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
    ConstructorPat, Event, Expr, Fun, Ident, Let, Literal, Load,
    MapDelete, MapGet, MapGetExists, MapUpdate, MatchExpr, MatchStmt,
    MessageExpr, ReadBlockchain, Send, Stmt, Store, Throw, Var,
)
from .builtins import FAST_TESTS, FAST_VALUES, REGISTRY
from .errors import EvalError, ExecError, GasError, ScillaError
from .interpreter import (
    GAS_EVENT, GAS_SEND_PER_MSG, GAS_STATE_ACCESS, GAS_STATEMENT,
    GAS_TRANSITION_BASE, OutMsg, _map_leaf_type, _to_outmsg,
)
from .state import MISSING, owned_put, owned_write
from .types import BUILTIN_ADTS, UINT32, UINT64, MapType
from .values import (
    ADTVal, BNumVal, ByStrVal, Closure, Env, FALSE, IntVal, MapVal, MsgVal,
    StringVal, TRUE, none, value_to_list,
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
    """Out of gas.  A segment's charge names its ``parts``: they are
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
    "ADTVal": ADTVal, "BNumVal": BNumVal, "ByStrVal": ByStrVal, "Env": Env,
    "IntVal": IntVal, "MapVal": MapVal, "MsgVal": MsgVal, "OutMsg": OutMsg,
    "MISSING": MISSING, "TRUE": TRUE, "FALSE": FALSE,
    "EvalError": EvalError, "ExecError": ExecError,
    "UINT32": UINT32, "UINT64": UINT64, "_oog": _oog,
    "_to_outmsg": _to_outmsg, "value_to_list": value_to_list,
    "owned_put": owned_put, "owned_write": owned_write,
    **{f"fast_{name}": fast
       for name, fast in (*FAST_VALUES.items(), *FAST_TESTS.items())},
}

# Locals a generated function sets up on entry, when its body names them.
_PROLOGUE = {
    "state": "run.state", "fields": "run.state.fields",
    "imm": "run.state.immutables", "lim": "run.gas_limit",
    "g": "run.gas_used", "log": "run.log", "_sender": "run.sender",
    "_origin": "run.origin", "_amount": "run.amount",
}
# The charge the reference makes right after a statement's own.
_ACCESS = {**dict.fromkeys((Load, Store, MapGet, MapGetExists, MapUpdate,
                            MapDelete), (GAS_STATE_ACCESS,)),
           Event: (GAS_EVENT,)}
_PROLOGUE_RE = re.compile(r"\b(%s)\b" % "|".join(_PROLOGUE))
_CONST_RE = re.compile(r"\bK\d+\b")

# What the second pass did, per generated function (``ContractUnit.stats``)
# and summed (``ContractUnit.totals``, the ``interp.compile.*`` counters).
STATS = ("charges", "charge_sites", "options", "unboxed_options",
         "unboxed_bools", "guarded_builtins", "static_sends", "fused_writes")


def _count(node, out: dict) -> dict:
    """Occurrences of each name in ``node``.  Names can be rebound, so a
    count of one is an upper bound for every binding of that name."""
    if node.__class__ is tuple:
        for item in node:
            _count(item, out)
    elif isinstance(node, (Ident, Var)):
        out[node.name] = out.get(node.name, 0) + 1
    elif isinstance(node, (Expr, Stmt)):
        for item in vars(node).values():
            _count(item, out)
    return out


# -- values known by construction ---------------------------------------------
# A scope maps a name to a Python expression (str) or to one of these: a
# value the runtime itself is about to build, kept unboxed until something
# needs the real one (``box``).  Boxing is pure, so *where* it happens is
# unobservable; what consumes them unboxed is ``match``, ``send``, ``event``.

@dataclass
class _Opt:
    """The ``Option`` of a map read: ``raw`` holds the entry or MISSING."""
    raw: str
    leaf: object
    left = ("Some", "None")

    def box(self, fn) -> str:
        const = fn.unit.const
        return (f"({const(none(self.leaf))} if {self.raw} is MISSING else "
                f"ADTVal('Option', 'Some', {const((self.leaf,))}, "
                f"({self.raw},)))")

    def test(self, fn, pat, conds, binds) -> bool:
        if pat.constructor == "Some" and len(pat.args) < 2:
            conds.append(f"{self.raw} is not MISSING")
            return not pat.args or fn.pattern(pat.args[0], self.raw,
                                              conds, binds)
        conds.append(f"{self.raw} is MISSING")
        return pat.constructor == "None" and not pat.args   # else: no match


@dataclass
class _Bool:
    """A ``Bool`` the runtime computed: ``cond`` is a Python condition."""
    cond: str
    left = ("True", "False")

    def box(self, fn) -> str:
        return f"(TRUE if {self.cond} else FALSE)"

    def test(self, fn, pat, conds, binds) -> bool:
        conds.append(self.cond if pat.constructor == "True"
                     else f"not ({self.cond})")
        return pat.constructor in self.left and not pat.args  # else: no match


@dataclass
class _Msg:
    """A message expression: field names and Python expressions."""
    fields: list

    def box(self, fn) -> str:
        ns = fn.unit.ns
        if all(_CONST_RE.fullmatch(py) for _, py in self.fields):
            return fn.unit.const(MsgVal(tuple(
                (k, ns[py]) for k, py in self.fields)))
        # A pair of two constants (``_eventname``, ``_tag``) is one too.
        return "MsgVal((%s))" % "".join(
            f"{fn.unit.const((k, ns[py]))}, " if _CONST_RE.fullmatch(py)
            else f"({k!r}, {py}), " for k, py in self.fields)

    def get(self, name: str) -> str | None:
        return next((py for k, py in self.fields if k == name), None)


@dataclass
class _List:
    """``Nil`` (``head`` None) or ``Cons head tail`` with a known tail."""
    targs: str
    head: object = None
    tail: "_List | None" = None

    def box(self, fn) -> str:
        if self.tail is None:
            return self.targs        # the Nil constant itself
        return (f"ADTVal('List', 'Cons', {self.targs}, "
                f"({fn.py(self.head)}, {self.tail.box(fn)}, ))")

    def items(self) -> list:
        return [] if self.tail is None else [self.head] + self.tail.items()


@dataclass
class _LibFun:
    """A library ``fun`` chain: lowered to a ``def`` when first applied
    at its full arity — or, when its body only names and constructs
    (``one_msg``), lowered into each caller, where the shape survives."""

    name: str
    params: list[str]
    body: object
    scope: dict[str, str]       # library names visible at its definition
    env: Env                    # the same, as the reference's Env
    pyname: str | None = None
    envconst: str | None = None     # the constant holding ``env``
    charges: bool = False           # does calling it move ``run.gas_used``


def _constructive(e) -> bool:     # names and constructs only
    if isinstance(e, Let):
        return _constructive(e.bound) and _constructive(e.body)
    return isinstance(e, (Var, Constr, MessageExpr))


class ContractUnit:
    """Generated Python for one contract source: source text for every
    transition up front, with the procedures and library functions it
    calls rather than absorbs (what ``interp.compile.*`` counts and
    ``repro compile`` prints); bytecode lazily, per transition plus
    what it reaches, on its first call."""

    def __init__(self, interp):
        self.interp = interp        # for its ADT registry and literals
        self.contract = interp.contract
        self.ns: dict = {**_SUPPORT, "LIBENV": interp.lib_env}
        self.sources: dict[str, str] = {}
        self.deps: dict[str, set[str]] = {}
        self.stats: dict[str, dict[str, int]] = {}
        self.delegated = 0
        self._libfuns: dict[str, _LibFun] = {}
        self._entries: dict[str, object] = {}
        self.uses: dict[str, dict] = {}     # component -> ``_count``
        self.field_types = {f.name: f.typ for f in self.contract.fields}
        self.scope = self._base_scope(interp)
        # Of each name the first component: where it stands (a call is
        # lowered into its caller only when the callee comes earlier) and,
        # for transitions, the parameter names ``run_transition`` checks.
        components = self.contract.components
        first = {c.name: c for c in reversed(components)}
        self.order = {name: components.index(c) for name, c in first.items()}
        self.params = {name: frozenset(p.name for p in c.params)
                       for name, c in first.items() if c.is_transition}
        for comp in self.contract.transitions:
            self.lower(comp)
        # ``t_…`` and ``p_…``: transitions; procedures no call absorbed.
        self.units = sum(name[0] in "tp" for name in self.sources)

    @property
    def totals(self) -> dict[str, int]:
        return {key: sum(stats[key] for stats in self.stats.values())
                for key in STATS}

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

    def lower(self, comp: Component) -> str:
        """The function of ``comp`` (of a name, the first), generated once."""
        pyname = f"{'t' if comp.is_transition else 'p'}_{_ident(comp.name)}"
        if pyname not in self.sources:
            self.sources[pyname] = ""       # a recursive call finds it
            _Fn(self, pyname).component(comp)
        return pyname

    def libfun(self, const: str | None, n_args: int) -> _LibFun | None:
        """The library function behind ``const`` when ``n_args``
        saturates it, its ``def`` lowered on first use."""
        lf = self._libfuns.get(const)
        if lf is None or len(lf.params) != n_args:
            return None
        if lf.pyname is None and not _constructive(lf.body):
            # Named after its constant: a function may shadow, and
            # call, an earlier one of the same Scilla name.
            lf.pyname = f"l{const}_{_ident(lf.name)}"
            _Fn(self, lf.pyname).libfun(lf)
        return lf

    # -- linking ---------------------------------------------------------------

    def entry(self, name: str):
        """The compiled ``f(run, args)`` of transition ``name``."""
        fn = self._entries.get(name)
        if fn is None:
            pyname = f"t_{_ident(name)}"
            with _LOCK:
                for dep in self._reach(pyname, {}):
                    if dep not in self.ns:
                        at = f"<scilla {self.contract.name}.{dep}>"
                        exec(compile(self.sources[dep], at, "exec"), self.ns)
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


class _Fn:
    """One Python function under construction."""

    def __init__(self, unit: ContractUnit, pyname: str):
        self.unit, self.pyname = unit, pyname
        self.lines: list = []
        self.depth, self.n_locals = 1, 0
        self.deps: set[str] = set()
        self.stats = unit.stats[pyname] = dict.fromkeys(STATS, 0)
        # Delegated expressions resolve library names in this Env
        # constant; ``base`` is the scope whose constants it holds.
        self.parent_env, self.base = "LIBENV", unit.scope
        # The open gas segment, (index of its line, parts); charges and raise
        # points emitted so far: a segment spans only arms that added none.
        self.seg: tuple | None = None
        self.ticks = 0
        self.charges = False    # does calling this function move gas_used
        self.uses: dict = {}    # name -> occurrences, body being lowered
        self.order = len(unit.contract.components)   # … and its position
        # Declared map field -> local holding it, class checked on every
        # path to here; ``kills`` counts what invalidated any.
        self.guarded: dict[str, str] = {}
        self.kills = 0

    # -- emission -------------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def local(self, name: str) -> str:
        self.n_locals += 1
        return f"{_ident(name)}_{self.n_locals}"

    def py(self, value) -> str:
        """The Python expression of a scope entry, boxed if need be."""
        return value if value.__class__ is str else value.box(self)

    def bind(self, name: str, value, scope: dict) -> dict:
        """``scope`` with ``name`` bound to ``value`` (every generated
        local is assigned once, so a plain name is aliased).  A value
        known by construction stays unboxed for a name used once."""
        if value.__class__ is not str:
            if self.uses.get(name, 0) <= 1:
                return {**scope, name: value}
            value = value.box(self)
        if not value.isidentifier():
            local = self.local(name)
            self.emit(f"{local} = {value}")
            value = local
        return {**scope, name: value}

    # -- gas ------------------------------------------------------------------
    # A segment is a maximal run of charges with nothing between them that
    # can raise a ScillaError or look at ``run.gas_used``; its parts are
    # summed into one charge where the first stood.  Failure rolls state
    # back, so hoisting a charge above a write is exact; above a raise
    # point it would not be — whatever can raise calls ``fence``.

    def charge(self, *parts: int, counted: bool = True) -> None:
        if counted:
            self.stats["charges"] += len(parts)
        self.ticks += 1
        self.charges = True
        if self.seg is None:
            self.stats["charge_sites"] += 1
            self.seg = (len(self.lines), [])
            self.lines.append("    " * self.depth)
        self.seg[1].extend(parts)

    def close(self) -> None:
        if self.seg is not None:
            at, parts = self.seg
            pad, self.seg = self.lines[at], None
            tail = f", {tuple(parts)}" if len(parts) > 1 else ""
            self.lines[at] = (f"{pad}g += {sum(parts)}; run.gas_used = g\n"
                              f"{pad}if g > lim: _oog(run{tail})")

    def fence(self, reload: bool = False) -> None:
        """What was just emitted can raise (``reload``: or charges on
        its own): no later charge may move above it."""
        self.close()
        self.ticks += 1
        if reload:
            self.charges = True
            self.emit("g = run.gas_used")

    def arm(self, lower) -> None:
        """Lower one arm of a branch (or a loop body) one level in: a
        segment cannot start outside it and end inside."""
        guarded, self.guarded = self.guarded, dict(self.guarded)
        outer, self.seg = self.seg, None
        self.depth += 1
        mark = len(self.lines)
        lower()
        if len(self.lines) == mark:
            self.emit("pass")
        self.close()
        self.depth -= 1
        self.seg, self.guarded = outer, guarded

    def branch(self):
        """``join = self.branch()`` before the arms, ``join()`` after: the
        open segment goes on only past arms that neither charged nor can
        raise, guards only past ones that replaced no map field."""
        ticks, kills = self.ticks, self.kills

        def join() -> None:
            if self.ticks != ticks:
                self.close()
            if self.kills != kills:
                self.guarded = {}
        return join

    def finish(self, params: str, first: list[str]) -> None:
        self.close()
        used = set(_PROLOGUE_RE.findall("\n".join(first + self.lines)))
        head = [f"def {self.pyname}({params}):"] + [
            f"    {name} = {init}" for name, init in _PROLOGUE.items()
            if name in used]
        self.unit.sources[self.pyname] = "\n".join(head + first + self.lines)
        self.unit.deps[self.pyname] = self.deps

    # -- entry points -----------------------------------------------------------

    def component(self, comp: Component) -> None:
        names = [self.local(p.name) for p in comp.params]
        scope = {**self.unit.scope,
                 **{p.name: n for p, n in zip(comp.params, names)}}
        if comp.is_transition:
            first = [f"    {n} = args[{p.name!r}]"
                     for p, n in zip(comp.params, names)]
            params = "run, args"
            self.charge(GAS_TRANSITION_BASE)
        else:
            first, params = [], ", ".join(["run"] + names)
        self.body(comp, scope)
        if not self.lines:
            self.emit("pass")
        self.finish(params, first)

    def body(self, comp: Component, scope: dict) -> None:
        """The statements of ``comp``, here: its own function or a caller."""
        outer = self.uses, self.order
        self.uses = self.unit.uses.get(comp.name) or self.unit.uses.setdefault(
            comp.name, _count(comp.body, {}))
        self.order = self.unit.order[comp.name]
        self.stmts(comp.body, scope)
        self.uses, self.order = outer

    def enter(self, lf: _LibFun) -> None:
        """Lower in the context of ``lf``'s definition from here on."""
        if lf.envconst is None:
            lf.envconst = self.unit.const(lf.env)
        self.parent_env, self.base = lf.envconst, lf.scope
        self.uses = _count(lf.body, {})

    def libfun(self, lf: _LibFun) -> None:
        self.enter(lf)
        names = [self.local(p) for p in lf.params]
        scope = {**lf.scope, **dict(zip(lf.params, names))}
        self.emit(f"return {self.py(self.expr(lf.body, scope))}")
        lf.charges = self.charges
        self.finish(", ".join(["run"] + names), [])

    # -- atoms and expressions --------------------------------------------------

    def var(self, name: str, loc, scope: dict) -> str:
        """What ``name`` resolves to; unbound, the reference's error."""
        return self.py(scope.get(name) or self.delegate(Var(name, loc), scope))

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

    def arg(self, atom, scope: dict):
        # ``atom``, except that a value known by construction stays so.
        return isinstance(atom, Ident) and scope.get(atom.name) or \
            self.atom(atom, scope)

    def delegate(self, expr, scope: dict) -> str:
        """``expr`` through the reference evaluator, under an Env of the
        non-library names in scope; its value lands in a local, where
        the reference evaluates it.  It can raise, and charge."""
        self.unit.delegated += 1
        pairs = "".join(
            f"({name!r}, {self.py(value)}), " for name, value in scope.items()
            if self.base.get(name) != value or not _CONST_RE.fullmatch(value))
        local = self.local("d")
        self.emit(f"{local} = run.interp.eval_expr({self.unit.const(expr)}, "
                  f"Env(({pairs}), {self.parent_env}))")
        self.fence(reload=True)
        return local

    def expr(self, e, scope: dict):
        """Emit what ``e`` needs and return its value: a Python
        expression to be consumed by the very next emitted line, or a
        value known by construction."""
        unit = self.unit
        if isinstance(e, Literal):
            return self.literal(e.value, e.typ) or self.delegate(e, scope)
        if isinstance(e, Var):
            return scope.get(e.name) or self.delegate(e, scope)
        if isinstance(e, MessageExpr):
            return _Msg([(k, self.atom(a, scope)) for k, a in e.fields])
        if isinstance(e, Constr):
            ctor = unit.interp.adts.by_constructor.get(e.constructor)
            if ctor is None or len(e.args) != len(
                    ctor.constructor(e.constructor).arg_types):
                return self.delegate(e, scope)      # raises when reached
            builtin_list = ctor is BUILTIN_ADTS["List"]
            if not e.args:
                nil = unit.const(ADTVal(ctor.name, e.constructor, e.type_args))
                return _List(nil) if builtin_list else nil
            tail = e.args[-1]       # a list known so far stays known
            tail = builtin_list and isinstance(tail, Ident) and \
                scope.get(tail.name)
            if isinstance(tail, _List):
                return _List(unit.const(e.type_args),
                             self.arg(e.args[0], scope), tail)
            args = "".join(f"{self.atom(a, scope)}, " for a in e.args)
            return (f"ADTVal({ctor.name!r}, {e.constructor!r}, "
                    f"{unit.const(e.type_args)}, ({args}))")
        if isinstance(e, Builtin):
            defn = REGISTRY.get(e.name)
            if defn is None or len(e.args) != defn.arity:
                return self.delegate(e, scope)      # raises when reached
            # The reference's order: atoms, charge, application (can raise).
            args = ", ".join(self.atom(a, scope) for a in e.args)
            self.charge(defn.gas)
            fast = e.name in FAST_VALUES or e.name in FAST_TESTS
            self.stats["guarded_builtins"] += fast
            value = self.local(e.name)
            self.emit(f"{value} = fast_{e.name}({args})" if fast else
                      f"{value} = {unit.const(defn.impl)}([{args}])")
            self.fence()
            return _Bool(value) if e.name in FAST_TESTS else value
        if isinstance(e, Let):
            return self.expr(e.body, self.bind(
                e.name, self.expr(e.bound, scope), scope))
        if isinstance(e, App):
            lf = unit.libfun(scope.get(e.func.name), len(e.args))
            if lf is None:
                return self.delegate(e, scope)
            if lf.pyname is None:   # names and constructs only: lowered here
                inner = {**lf.scope, **{p: self.arg(a, scope)
                                        for p, a in zip(lf.params, e.args)}}
                outer = self.parent_env, self.base, self.uses
                self.enter(lf)
                value = self.expr(lf.body, inner)
                self.parent_env, self.base, self.uses = outer
                return value
            self.deps.add(lf.pyname)
            args = "".join(f", {self.atom(a, scope)}" for a in e.args)
            value = self.local(lf.name)
            self.emit(f"{value} = {lf.pyname}(run{args})")
            self.fence(reload=lf.charges)
            return value
        if isinstance(e, MatchExpr):
            result = self.local("m")
            self.match(e, scope, EvalError, lambda body, inner: self.emit(
                f"{result} = {self.py(self.expr(body, inner))}"))
            return result
        return self.delegate(e, scope)      # Fun, TFun, TApp

    # -- pattern matching -------------------------------------------------------

    def pattern(self, pat, value, conds: list, binds: list) -> bool:
        """Conditions under which ``pat`` matches ``value`` and the
        binders it introduces; False when it statically cannot."""
        if isinstance(pat, BinderPat):
            binds.append((pat.name, value))
        elif isinstance(pat, ConstructorPat):
            if value.__class__ is not str:
                # The runtime built it: no class, constructor, arity test.
                return value.test(self, pat, conds, binds)
            conds.append(f"{value}.__class__ is ADTVal and "
                         f"{value}.constructor == {pat.constructor!r}")
            if pat.args:
                conds.append(f"len({value}.args) == {len(pat.args)}")
            for i, sub in enumerate(pat.args):
                self.pattern(sub, f"{value}.args[{i}]", conds, binds)
        return True

    def match(self, node, scope: dict, error, body, carry=()) -> None:
        """An if/elif chain over ``node.clauses``; ``body(clause body,
        clause scope)`` emits one arm.  ``carry`` is charged first thing
        in whichever arm runs."""
        name = node.scrutinee.name
        subject = scope.get(name) or self.delegate(
            Var(name, node.scrutinee.loc), scope)
        if not hasattr(subject, "left") and not (
                subject.__class__ is str and subject.isidentifier()):
            scope = self.bind(name, self.py(subject), scope)
            subject = scope[name]
        # The constructors a value the runtime built can still be.
        left = list(getattr(subject, "left", ()))
        if left:
            self.stats["unboxed_options" if isinstance(subject, _Opt)
                       else "unboxed_bools"] += 1
        join, keyword = self.branch(), "if"
        for pat, clause in node.clauses:
            conds: list[str] = []
            binds: list[tuple[str, object]] = []
            if not self.pattern(pat, subject, conds, binds):
                continue
            if len(conds) == 1 and pat.constructor in left:
                left.remove(pat.constructor)
                if not left:
                    conds = []      # the last it can be: no test
            self.emit(f"{keyword} {' and '.join(conds)}:" if conds
                      else "else:" if keyword == "elif" else "if True:")

            def lower():
                inner = scope
                if carry:
                    self.charge(*carry, counted=False)
                for bound, value in reversed(binds):  # the first binder wins
                    inner = self.bind(bound, value, inner)
                body(clause, inner)
            self.arm(lower)
            if not conds:
                return join()
            keyword = "elif"

        def fail():
            if carry:
                self.charge(*carry, counted=False)
            self.emit(f"raise {error.__name__}('match failure on %s' % "
                      f"({self.py(subject)},), {self.unit.const(node.loc)})")
            self.fence()
        if keyword == "elif":
            self.emit("else:")
            self.arm(fail)
        else:
            fail()
        join()

    # -- statements -------------------------------------------------------------

    def stmts(self, body, scope: dict) -> None:
        for stmt in body:
            scope = self.stmt(stmt, scope) or scope

    def map_field(self, name: str, keys: list[str], cold: str) -> str | None:
        """A local holding declared map field ``name``, known to be a
        ``MapVal`` (one-key accesses; None for any other path).  The first
        on a path checks the class, else runs ``cold``: the reference's
        calls, for its error."""
        if len(keys) != 1 or not isinstance(
                self.unit.field_types.get(name), MapType):
            return None
        m = self.guarded.get(name)
        if m is None:
            m = self.guarded[name] = self.local("map")
            self.emit(f"{m} = fields[{name!r}]")
            self.emit(f"if {m}.__class__ is not MapVal: {cold}")
            self.fence()
        return m

    def map_read(self, stmt, scope: dict) -> str:
        """Emit the raw read of ``stmt.map[stmt.keys]`` into a local."""
        raw, keys = self.local("raw"), [self.atom(k, scope) for k in stmt.keys]
        read = f"state.map_get({stmt.map!r}, ({', '.join(keys)},))"
        m = self.map_field(stmt.map, keys, read)
        if m is None:
            self.emit(f"{raw} = {read}")
            self.fence()
        else:
            self.emit(f"{raw} = {m}.entries.get({keys[0]}, MISSING)")
        return raw

    def map_write(self, stmt, value: str, scope: dict) -> None:
        """``stmt.map[stmt.keys] := value`` (MISSING deletes)."""
        keys = [self.atom(k, scope) for k in stmt.keys]
        key = f"({stmt.map!r}, ({''.join(k + ', ' for k in keys)}))"
        spec = (f"log.record(state, {key}, {value}); "
                f"state.write({key}, {value})")
        m = self.map_field(stmt.map, keys, spec)
        if m is None:
            self.emit(f"ks = {key}")
            self.emit(spec.replace(key, "ks"))
            self.fence()
        else:
            self.stats["fused_writes"] += 1
            self.emit(f"owned_put(state, log, {m}, {key}, {value})")

    def stmt(self, s, scope: dict) -> dict | None:
        """Emit one statement; returns the scope it extends, if any."""
        unit = self.unit
        if isinstance(s, MatchStmt) and self.seg is None and \
                s.scrutinee.name in scope and any(b for _, b in s.clauses):
            # This charge would stand alone before the branch: make it in
            # the arms, ahead of their own (nothing in between can raise).
            self.stats["charges"] += 1
            return self.match(s, scope, ExecError, self.stmts,
                              (GAS_STATEMENT,))
        self.charge(GAS_STATEMENT, *_ACCESS.get(type(s), ()))
        if isinstance(s, Bind):
            return self.bind(s.lhs, self.expr(s.expr, scope), scope)
        if isinstance(s, Load):
            value = self.local(s.lhs)
            if s.field in unit.field_types:
                self.emit(f"{value} = fields[{s.field!r}]")
            else:
                self.emit(f"{value} = state.get_field({s.field!r})")
                self.fence()
            self.emit(f"if {value}.__class__ is MapVal: "
                      f"{value} = {value}.copy()")
            return {**scope, s.lhs: value}
        if isinstance(s, MapGet):
            raw = self.map_read(s, scope)
            self.emit(f"if {raw}.__class__ is MapVal: {raw} = {raw}.copy()")
            self.stats["options"] += 1
            return self.bind(s.lhs, _Opt(raw, _map_leaf_type(
                unit.field_types.get(s.map), len(s.keys))), scope)
        if isinstance(s, MapGetExists):
            return self.bind(s.lhs, _Bool(
                f"{self.map_read(s, scope)} is not MISSING"), scope)
        if isinstance(s, ReadBlockchain):
            scope = self.bind(s.lhs, {
                "BLOCKNUMBER": "BNumVal(run.ctx.block_number)",
                "TIMESTAMP": "IntVal(run.ctx.timestamp, UINT64)",
            }.get(s.entry, "IntVal(run.ctx.chain_id, UINT32)"), scope)
            if s.entry != "BLOCKNUMBER":
                self.fence()    # out of the type's bounds, IntVal raises
            return scope
        if isinstance(s, Store):
            self.emit(f"owned_write(state, log, {unit.const((s.field, ()))}, "
                      f"{self.atom(s.rhs, scope)})")
            if self.guarded.pop(s.field, None):
                self.kills += 1
        elif isinstance(s, MapUpdate):
            self.map_write(s, self.atom(s.rhs, scope), scope)
        elif isinstance(s, MapDelete):
            self.map_write(s, "MISSING", scope)
        elif isinstance(s, MatchStmt):
            self.match(s, scope, ExecError, self.stmts)
        elif isinstance(s, Accept):
            self.emit("if run.accepted == 0: run.accepted = run.ctx.amount")
        elif isinstance(s, Send):
            self.send(s, scope)
        elif isinstance(s, Event):
            value = scope.get(s.arg.name) if isinstance(s.arg, Ident) else None
            if not isinstance(value, _Msg):     # else a message, known
                value = self.atom(s.arg, scope)
                self.emit(f"if {value}.__class__ is not MsgVal: raise "
                          f"ExecError('event expects a message value', "
                          f"{unit.const(s.loc)})")
                self.fence()
            self.emit(f"run.events.append({self.py(value)})")
        elif isinstance(s, Throw):
            message = "'exception thrown'" if s.arg is None else \
                f"'exception thrown: %s' % ({self.atom(s.arg, scope)},)"
            self.emit(f"raise ExecError({message}, {unit.const(s.loc)})")
            self.fence()
        elif isinstance(s, CallProc):
            self.call(s, scope)
        else:
            raise ExecError(f"unknown statement {s!r}", s.loc)
        return None

    def send(self, s: Send, scope: dict) -> None:
        """Per message, the charge and the ``OutMsg``.  A list of messages
        known by construction, each with a constant string ``_tag``, is
        unrolled, the fields read off the expressions (``_to_outmsg``
        keeps the failure path)."""
        unit, loc = self.unit, self.unit.const(s.loc)
        value = scope.get(s.arg.name) if isinstance(s.arg, Ident) else None
        msgs = value.items() if isinstance(value, _List) else [None]
        if not all(isinstance(m, _Msg) and m.get("_recipient") and isinstance(
                unit.ns.get(m.get("_tag")), StringVal) for m in msgs):
            self.emit(f"v = {self.atom(s.arg, scope)}")
            self.emit("for msg in (value_to_list(v) "
                      "if v.__class__ is ADTVal else [v]):")
            join = self.branch()

            def each():
                self.charge(GAS_SEND_PER_MSG)
                self.emit(f"run.messages.append(_to_outmsg(msg, {loc}))")
                self.fence()
            self.arm(each)
            return join()
        for m in msgs:
            self.stats["static_sends"] += 1
            self.charge(GAS_SEND_PER_MSG)
            to, amount = m.get("_recipient"), m.get("_amount")
            if amount and _CONST_RE.fullmatch(amount):  # read it now
                amount = unit.ns[amount]
                amount = amount.value if isinstance(amount, IntVal) else 0
            elif amount:
                amount = (f"{amount}.value if {amount}.__class__ is IntVal "
                          "else 0")
            params = "".join(
                f"({k!r}, {py}), " for k, py in m.fields
                if k not in ("_tag", "_recipient", "_amount"))
            self.emit(f"if {to}.__class__ is ByStrVal: run.messages.append("
                      f"OutMsg({unit.ns[m.get('_tag')].value!r}, {to}.hex, "
                      f"{amount or 0}, ({params})))")
            self.emit(f"else: _to_outmsg({m.box(self)}, {loc})")
            self.fence()

    def call(self, s: CallProc, scope: dict) -> None:
        """A procedure call: the callee sees its own parameters only, not
        the caller's locals.  One defined before the body being lowered (as
        Scilla requires, so the nesting ends) is lowered into it."""
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
            return self.fence()
        args = [self.atom(a, scope) for a in s.args]
        if self.unit.order[proc.name] < self.order:
            return self.body(proc, {**self.unit.scope, **{
                p.name: a for p, a in zip(proc.params, args)}})
        callee = self.unit.lower(proc)
        self.deps.add(callee)
        self.emit(f"{callee}(run{''.join(', ' + a for a in args)})")
        self.fence(reload=True)
        self.guarded, self.kills = {}, self.kills + 1
