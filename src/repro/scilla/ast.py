"""Scilla abstract syntax, mirroring Fig. 4 of the CoSplit paper.

Expressions are in A-normal form: applications, builtins, constructors
and messages take *atoms* (identifiers or literals) as arguments, and
all intermediate results are bound with ``let`` (in expressions) or
``=`` (in statements).  This is exactly the discipline of the real
Scilla language and is what makes the CoSplit effect analysis a direct
transcription of the syntax.

Every node carries an optional source location for error messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .types import ScillaType


@dataclass(frozen=True)
class Loc:
    """A source location: line and column (1-based)."""

    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NOLOC = Loc()


# --------------------------------------------------------------------------
# Atoms: arguments to applications, builtins, constructors, messages.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Ident:
    """An identifier occurrence."""

    name: str
    loc: Loc = NOLOC

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class LitAtom:
    """A literal used in argument position (e.g. ``Uint128 0``)."""

    value: object
    typ: ScillaType
    loc: Loc = NOLOC

    def __str__(self) -> str:
        return f"{self.typ} {self.value!r}"


Atom = Union[Ident, LitAtom]


# --------------------------------------------------------------------------
# Patterns.
# --------------------------------------------------------------------------

class Pattern:
    __slots__ = ()


@dataclass(frozen=True)
class WildcardPat(Pattern):
    loc: Loc = NOLOC

    def __str__(self) -> str:
        return "_"


@dataclass(frozen=True)
class BinderPat(Pattern):
    name: str
    loc: Loc = NOLOC

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConstructorPat(Pattern):
    constructor: str
    args: tuple[Pattern, ...] = ()
    loc: Loc = NOLOC

    def __str__(self) -> str:
        if not self.args:
            return self.constructor
        inner = " ".join(
            f"({a})" if isinstance(a, ConstructorPat) and a.args else str(a)
            for a in self.args
        )
        return f"{self.constructor} {inner}"


def pattern_binders(pat: Pattern) -> list[str]:
    """All variable names bound by a pattern, in left-to-right order."""
    if isinstance(pat, BinderPat):
        return [pat.name]
    if isinstance(pat, ConstructorPat):
        out: list[str] = []
        for sub in pat.args:
            out.extend(pattern_binders(sub))
        return out
    return []


# --------------------------------------------------------------------------
# Expressions (pure fragment).
# --------------------------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """``val v`` — a literal of a primitive type."""

    value: object
    typ: ScillaType
    loc: Loc = NOLOC


@dataclass(frozen=True)
class Var(Expr):
    """``var i`` — a variable reference."""

    name: str
    loc: Loc = NOLOC


@dataclass(frozen=True)
class MessageExpr(Expr):
    """``message (i -> atom)`` — a message/event/exception record.

    ``fields`` maps field names (``_tag``, ``_recipient``, ``_amount``,
    user payload names …) to atoms.
    """

    fields: tuple[tuple[str, Atom], ...]
    loc: Loc = NOLOC


@dataclass(frozen=True)
class Constr(Expr):
    """``constr c t i`` — saturated constructor application."""

    constructor: str
    type_args: tuple[ScillaType, ...]
    args: tuple[Atom, ...]
    loc: Loc = NOLOC


@dataclass(frozen=True)
class Builtin(Expr):
    """``builtin blt i`` — application of a built-in operation."""

    name: str
    args: tuple[Atom, ...]
    loc: Loc = NOLOC


@dataclass(frozen=True)
class Let(Expr):
    """``let i = e1 in e2`` with optional type annotation."""

    name: str
    annot: ScillaType | None
    bound: Expr
    body: Expr
    loc: Loc = NOLOC


@dataclass(frozen=True)
class Fun(Expr):
    """``fun (i : t) => e`` — a single-argument function."""

    param: str
    param_type: ScillaType
    body: Expr
    loc: Loc = NOLOC


@dataclass(frozen=True)
class App(Expr):
    """``app i i_j`` — application of a function to atoms."""

    func: Ident
    args: tuple[Atom, ...]
    loc: Loc = NOLOC


@dataclass(frozen=True)
class MatchExpr(Expr):
    """``match i pat => e`` — pattern match in expression position."""

    scrutinee: Ident
    clauses: tuple[tuple[Pattern, Expr], ...]
    loc: Loc = NOLOC


@dataclass(frozen=True)
class TFun(Expr):
    """``tfun 'A => e`` — type abstraction."""

    tvar: str
    body: Expr
    loc: Loc = NOLOC


@dataclass(frozen=True)
class TApp(Expr):
    """``inst i t`` / ``@i t`` — type instantiation."""

    func: Ident
    type_args: tuple[ScillaType, ...]
    loc: Loc = NOLOC


# --------------------------------------------------------------------------
# Statements (effectful fragment).
# --------------------------------------------------------------------------

class Stmt:
    __slots__ = ()


@dataclass(frozen=True)
class Load(Stmt):
    """``i1 <- f`` — read a whole contract field into a local."""

    lhs: str
    field: str
    loc: Loc = NOLOC


@dataclass(frozen=True)
class Store(Stmt):
    """``f := i2`` — overwrite a whole contract field."""

    field: str
    rhs: Atom
    loc: Loc = NOLOC


@dataclass(frozen=True)
class Bind(Stmt):
    """``i = e`` — pure binding of an expression."""

    lhs: str
    expr: Expr
    loc: Loc = NOLOC


@dataclass(frozen=True)
class MapUpdate(Stmt):
    """``m[k...] := v`` — in-place update of a (possibly nested) map."""

    map: str
    keys: tuple[Atom, ...]
    rhs: Atom
    loc: Loc = NOLOC


@dataclass(frozen=True)
class MapGet(Stmt):
    """``i <- m[k...]`` — fetch ``Some v``/``None`` from a map."""

    lhs: str
    map: str
    keys: tuple[Atom, ...]
    loc: Loc = NOLOC


@dataclass(frozen=True)
class MapGetExists(Stmt):
    """``i <- exists m[k...]`` — key-membership test (Bool)."""

    lhs: str
    map: str
    keys: tuple[Atom, ...]
    loc: Loc = NOLOC


@dataclass(frozen=True)
class MapDelete(Stmt):
    """``delete m[k...]`` — remove a key from a map."""

    map: str
    keys: tuple[Atom, ...]
    loc: Loc = NOLOC


@dataclass(frozen=True)
class ReadBlockchain(Stmt):
    """``i <- & BLOCKNUMBER`` — read blockchain metadata."""

    lhs: str
    entry: str
    loc: Loc = NOLOC


@dataclass(frozen=True)
class MatchStmt(Stmt):
    """``match i pat => s`` — pattern match in statement position."""

    scrutinee: Ident
    clauses: tuple[tuple[Pattern, tuple[Stmt, ...]], ...]
    loc: Loc = NOLOC


@dataclass(frozen=True)
class Accept(Stmt):
    """``accept`` — accept the incoming native-token amount."""

    loc: Loc = NOLOC


@dataclass(frozen=True)
class Send(Stmt):
    """``send i`` — emit a list of messages."""

    arg: Atom
    loc: Loc = NOLOC


@dataclass(frozen=True)
class Event(Stmt):
    """``event i`` — emit an event."""

    arg: Atom
    loc: Loc = NOLOC


@dataclass(frozen=True)
class Throw(Stmt):
    """``throw [i]`` — abort the transition with an exception."""

    arg: Atom | None = None
    loc: Loc = NOLOC


@dataclass(frozen=True)
class CallProc(Stmt):
    """``ProcName a1 a2 …`` — call a contract procedure."""

    proc: str
    args: tuple[Atom, ...] = ()
    loc: Loc = NOLOC


# --------------------------------------------------------------------------
# Top-level declarations.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    """A typed formal parameter (of a transition, procedure, contract)."""

    name: str
    typ: ScillaType
    loc: Loc = NOLOC

    def __str__(self) -> str:
        return f"{self.name}: {self.typ}"


@dataclass(frozen=True)
class LibEntry:
    """``let name [: t] = expr`` at library level."""

    name: str
    annot: ScillaType | None
    expr: Expr
    loc: Loc = NOLOC


@dataclass(frozen=True)
class LibTypeDef:
    """A user-defined ADT: ``type T = | C1 of t... | C2``."""

    name: str
    constructors: tuple[tuple[str, tuple[ScillaType, ...]], ...]
    loc: Loc = NOLOC


@dataclass(frozen=True)
class Library:
    name: str
    entries: tuple[Union[LibEntry, LibTypeDef], ...] = ()


@dataclass(frozen=True)
class Field:
    """A mutable contract field declaration with initialiser."""

    name: str
    typ: ScillaType
    init: Expr
    loc: Loc = NOLOC


@dataclass(frozen=True)
class Component:
    """A transition or procedure: named, typed params, body."""

    kind: str  # "transition" | "procedure"
    name: str
    params: tuple[Param, ...]
    body: tuple[Stmt, ...]
    loc: Loc = NOLOC

    @property
    def is_transition(self) -> bool:
        return self.kind == "transition"


@dataclass(frozen=True)
class Contract:
    name: str
    params: tuple[Param, ...]
    fields: tuple[Field, ...]
    components: tuple[Component, ...]
    loc: Loc = NOLOC

    @property
    def transitions(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if c.is_transition)

    @property
    def procedures(self) -> tuple[Component, ...]:
        return tuple(c for c in self.components if not c.is_transition)

    def component(self, name: str) -> Component:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(f"contract {self.name} has no component {name}")

    def field(self, name: str) -> Field:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"contract {self.name} has no field {name}")


@dataclass(frozen=True)
class Module:
    """A whole ``.scilla`` file: version, optional library, contract."""

    version: int
    library: Library | None
    contract: Contract
    source_name: str = "<unknown>"
    # SHA-256 of the text ``parse_module`` read; "" for a module built
    # any other way.  The content address compiled units are shared
    # under (repro.scilla.compile), not part of the module's identity.
    source_hash: str = field(default="", compare=False)


# Implicit parameters available in every transition body.
IMPLICIT_PARAMS = ("_sender", "_origin", "_amount")

# Reserved message field names.
MSG_TAG = "_tag"
MSG_RECIPIENT = "_recipient"
MSG_AMOUNT = "_amount"
MSG_EVENTNAME = "_eventname"
MSG_EXCEPTION = "_exception"
