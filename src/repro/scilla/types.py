"""Scilla type representations.

Scilla is an explicitly-typed, ML-style language (System F without
recursion).  Types are immutable values used by the parser, the
typechecker, the interpreter (for literal construction and ``Emp``
maps), and the CoSplit analysis (which is type-agnostic but carries
types around in summaries for reporting).

The primitive numeric types mirror Zilliqa's: signed/unsigned integers
of widths 32/64/128/256, strings, fixed-width byte strings (``ByStr20``
is an address), and block numbers (``BNum``).  ``Bool``, ``Option``,
``List``, ``Pair`` and ``Nat`` are algebraic data types, exactly as in
the real language.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ScillaType:
    """Base class for all Scilla types."""

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


class PrimType(ScillaType, str):
    """A primitive type such as ``Uint128`` or ``String``: its name, as
    a ``str`` subclass, so that the type tag inside every runtime value
    hashes and compares in C.  A ``PrimType`` therefore equals the plain
    string of its name (and hashes like it); nothing in ``src/``
    compares the two.  Unpickling goes through :func:`prim`, which keeps
    ``a.typ is b.typ`` true across a process boundary."""

    __slots__ = ()

    def __new__(cls, name: str) -> "PrimType":
        return str.__new__(cls, name)

    __str__ = str.__str__       # the plain string, without a Python frame
    name = property(str.__str__)

    def __repr__(self) -> str:
        return f"PrimType(name={str.__repr__(self)})"

    def __reduce__(self):
        return prim, (str.__str__(self),)


@dataclass(frozen=True)
class MapType(ScillaType):
    """``Map kt vt`` — a finite map stored in a contract field."""

    key: ScillaType
    value: ScillaType

    def __str__(self) -> str:
        return f"Map {wrap(self.key)} {wrap(self.value)}"


@dataclass(frozen=True)
class FunType(ScillaType):
    """``t1 -> t2`` — the type of pure (library) functions."""

    arg: ScillaType
    ret: ScillaType

    def __str__(self) -> str:
        return f"{wrap(self.arg)} -> {self.ret}"


@dataclass(frozen=True)
class ADTType(ScillaType):
    """An instantiated algebraic data type, e.g. ``Option Uint128``."""

    name: str
    targs: tuple[ScillaType, ...] = ()

    def __str__(self) -> str:
        if not self.targs:
            return self.name
        args = " ".join(wrap(t) for t in self.targs)
        return f"{self.name} {args}"


@dataclass(frozen=True)
class TypeVar(ScillaType):
    """A type variable bound by ``tfun``, written ``'A``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PolyFun(ScillaType):
    """``forall 'A. t`` — the type of a type function (``tfun``)."""

    tvar: str
    body: ScillaType

    def __str__(self) -> str:
        return f"forall {self.tvar}. {self.body}"


def wrap(t: ScillaType) -> str:
    """Parenthesise compound types when nested in another type."""
    if isinstance(t, (MapType, FunType, PolyFun)):
        return f"({t})"
    if isinstance(t, ADTType) and t.targs:
        return f"({t})"
    return str(t)


# --------------------------------------------------------------------------
# Well-known primitive types.
# --------------------------------------------------------------------------

INT_WIDTHS = (32, 64, 128, 256)

INT32 = PrimType("Int32")
INT64 = PrimType("Int64")
INT128 = PrimType("Int128")
INT256 = PrimType("Int256")
UINT32 = PrimType("Uint32")
UINT64 = PrimType("Uint64")
UINT128 = PrimType("Uint128")
UINT256 = PrimType("Uint256")
STRING = PrimType("String")
BNUM = PrimType("BNum")
BYSTR20 = PrimType("ByStr20")
BYSTR32 = PrimType("ByStr32")
BYSTR = PrimType("ByStr")
MESSAGE = PrimType("Message")
EVENT = PrimType("Event")
EXCEPTION = PrimType("Exception")

# One shared instance per well-known name: values decoded from the wire,
# parsed from source or built by ``uint()`` then carry the *same* type
# object, so ``a.typ is b.typ`` holds on the arithmetic fast paths and a
# large map does not hold one PrimType per entry.
_PRIMS: dict[str, PrimType] = {t.name: t for t in (
    INT32, INT64, INT128, INT256, UINT32, UINT64, UINT128, UINT256, STRING,
    BNUM, BYSTR20, BYSTR32, BYSTR, MESSAGE, EVENT, EXCEPTION,
    PrimType("ByStr33"), PrimType("ByStr64"))}


def prim(name: str) -> PrimType:
    """The primitive type called ``name``: the shared instance of a
    well-known one, a fresh (equal, unshared) one for any other."""
    return _PRIMS.get(name) or PrimType(name)


SIGNED_INT_NAMES = {f"Int{w}" for w in INT_WIDTHS}
UNSIGNED_INT_NAMES = {f"Uint{w}" for w in INT_WIDTHS}
INT_TYPE_NAMES = SIGNED_INT_NAMES | UNSIGNED_INT_NAMES
BYSTR_NAMES = {"ByStr20", "ByStr32", "ByStr64", "ByStr33", "ByStr"}
PRIM_TYPE_NAMES = (
    INT_TYPE_NAMES | BYSTR_NAMES
    | {"String", "BNum", "Message", "Event", "Exception"}
)


def is_int_type(t: ScillaType) -> bool:
    return isinstance(t, PrimType) and t.name in INT_TYPE_NAMES


def is_signed(t: ScillaType) -> bool:
    return isinstance(t, PrimType) and t.name in SIGNED_INT_NAMES


def is_unsigned(t: ScillaType) -> bool:
    return isinstance(t, PrimType) and t.name in UNSIGNED_INT_NAMES


# Inclusive (min, max) per integer type name, worked out once: every
# IntVal construction and arithmetic builtin asks.
_INT_BOUNDS: dict[str, tuple[int, int]] = {
    **{f"Int{w}": (-(1 << (w - 1)), (1 << (w - 1)) - 1) for w in INT_WIDTHS},
    **{f"Uint{w}": (0, (1 << w) - 1) for w in INT_WIDTHS},
}


def int_bounds(t: ScillaType) -> tuple[int, int]:
    """Inclusive (min, max) representable values of an integer type."""
    bounds = _INT_BOUNDS.get(t) if isinstance(t, PrimType) else None
    if bounds is None:
        raise ValueError(f"not an integer type: {t}")
    return bounds


def bystr_width(t: ScillaType) -> int | None:
    """Byte width of a fixed-size ByStr type, or None for ``ByStr``."""
    assert isinstance(t, PrimType) and t.name in BYSTR_NAMES
    suffix = t.name.removeprefix("ByStr")
    return int(suffix) if suffix else None


# --------------------------------------------------------------------------
# Built-in algebraic data types.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructorDef:
    """One constructor of an ADT: name and argument types.

    Argument types may mention the ADT's type parameters as TypeVar.
    """

    name: str
    arg_types: tuple[ScillaType, ...] = ()


@dataclass(frozen=True)
class ADTDef:
    """Definition of an algebraic data type."""

    name: str
    tparams: tuple[str, ...]
    constructors: tuple[ConstructorDef, ...] = field(default=())

    def constructor(self, name: str) -> ConstructorDef:
        for c in self.constructors:
            if c.name == name:
                return c
        raise KeyError(f"ADT {self.name} has no constructor {name}")


BOOL_ADT = ADTDef("Bool", (), (ConstructorDef("True"), ConstructorDef("False")))
OPTION_ADT = ADTDef(
    "Option", ("'A",),
    (ConstructorDef("Some", (TypeVar("'A"),)), ConstructorDef("None")),
)
LIST_ADT = ADTDef(
    "List", ("'A",),
    (
        ConstructorDef("Cons", (TypeVar("'A"), ADTType("List", (TypeVar("'A"),)))),
        ConstructorDef("Nil"),
    ),
)
PAIR_ADT = ADTDef(
    "Pair", ("'A", "'B"),
    (ConstructorDef("Pair", (TypeVar("'A"), TypeVar("'B"))),),
)
NAT_ADT = ADTDef(
    "Nat", (),
    (ConstructorDef("Succ", (ADTType("Nat"),)), ConstructorDef("Zero")),
)

BUILTIN_ADTS: dict[str, ADTDef] = {
    adt.name: adt for adt in (BOOL_ADT, OPTION_ADT, LIST_ADT, PAIR_ADT, NAT_ADT)
}

BOOL = ADTType("Bool")
NAT = ADTType("Nat")


def option_of(t: ScillaType) -> ADTType:
    return ADTType("Option", (t,))


def list_of(t: ScillaType) -> ADTType:
    return ADTType("List", (t,))


def pair_of(a: ScillaType, b: ScillaType) -> ADTType:
    return ADTType("Pair", (a, b))


def substitute(t: ScillaType, subst: dict[str, ScillaType]) -> ScillaType:
    """Capture-avoiding substitution of type variables in ``t``."""
    if isinstance(t, TypeVar):
        return subst.get(t.name, t)
    if isinstance(t, MapType):
        return MapType(substitute(t.key, subst), substitute(t.value, subst))
    if isinstance(t, FunType):
        return FunType(substitute(t.arg, subst), substitute(t.ret, subst))
    if isinstance(t, ADTType):
        return ADTType(t.name, tuple(substitute(a, subst) for a in t.targs))
    if isinstance(t, PolyFun):
        inner = {k: v for k, v in subst.items() if k != t.tvar}
        return PolyFun(t.tvar, substitute(t.body, inner))
    return t


def free_tvars(t: ScillaType) -> set[str]:
    """The set of free type-variable names in ``t``."""
    if isinstance(t, TypeVar):
        return {t.name}
    if isinstance(t, MapType):
        return free_tvars(t.key) | free_tvars(t.value)
    if isinstance(t, FunType):
        return free_tvars(t.arg) | free_tvars(t.ret)
    if isinstance(t, ADTType):
        out: set[str] = set()
        for a in t.targs:
            out |= free_tvars(a)
        return out
    if isinstance(t, PolyFun):
        return free_tvars(t.body) - {t.tvar}
    return set()


def is_storable(t: ScillaType) -> bool:
    """Whether values of this type may be stored in a contract field.

    Functions, type functions and open types are not storable, in line
    with the real Scilla restrictions.
    """
    if isinstance(t, (FunType, PolyFun, TypeVar)):
        return False
    if isinstance(t, MapType):
        return is_storable(t.key) and is_storable(t.value)
    if isinstance(t, ADTType):
        return all(is_storable(a) for a in t.targs)
    if isinstance(t, PrimType):
        return t.name not in {"Message", "Event", "Exception"}
    return True
