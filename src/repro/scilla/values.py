"""Runtime values for the Scilla definitional interpreter.

Values are deliberately simple wrappers.  The immutable data values
are named tuples (hashed and compared in C, usable as map keys:
docs/LANGUAGE.md, "Runtime values"); maps are mutable dictionaries
owned by the contract state.  Maps copy structurally (copy-on-write): a
``copy()`` is O(1) and shares the entry container with its source;
the first write through either side lays a small private overlay
(:class:`OverlayDict`) over the shared, from then on frozen, entries
(see docs/STATE.md for the aliasing invariant).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Any

from . import types as ty
from .ast import Expr
from .errors import EvalError
from .types import PrimType, ScillaType


class Value:
    """Base class for all runtime values."""

    __slots__ = ()


class TupleValue(Value):
    """Mixin of the six immutable data values, each a named tuple of its
    fields: hashing, equality and allocation stay in C and no value
    carries an instance dict.  None of them may define ``__hash__`` or
    ``__eq__``; two values are equal iff their fields are (values of
    two classes never are: arity or payload class differs).  Validation
    lives in ``__new__``; only ``IntVal.checked`` and unpickling
    (``_make``) go around it."""

    __slots__ = ()

    def __reduce__(self):
        return self._make, (tuple(self),)


class IntVal(namedtuple("IntVal", "value typ"), TupleValue):
    """A bounded signed/unsigned integer."""

    __slots__ = ()

    def __new__(cls, value: int, typ: PrimType) -> "IntVal":
        lo, hi = ty.int_bounds(typ)
        if not lo <= value <= hi:
            raise EvalError(f"integer {value} out of bounds for {typ}")
        return tuple.__new__(cls, (value, typ))

    @classmethod
    def checked(cls, value: int, typ: PrimType) -> "IntVal":
        """An IntVal whose bounds the caller has already checked (the
        arithmetic builtins do, to raise their own error)."""
        return tuple.__new__(cls, (value, typ))

    def __str__(self) -> str:
        return f"{self.typ} {self.value}"


class StringVal(namedtuple("StringVal", "value"), TupleValue):
    __slots__ = ()

    def __str__(self) -> str:
        return f'"{self.value}"'


class ByStrVal(namedtuple("ByStrVal", "hex typ"), TupleValue):
    """A byte string, stored as a ``0x…`` lowercase hex literal."""

    __slots__ = ()

    def __new__(cls, hex: str, typ: PrimType) -> "ByStrVal":
        if not hex.startswith("0x"):
            raise EvalError(f"malformed byte string {hex!r}")
        return tuple.__new__(cls, (hex, typ))

    @property
    def nbytes(self) -> int:
        return (len(self.hex) - 2) // 2

    def __str__(self) -> str:
        return self.hex


class BNumVal(namedtuple("BNumVal", "value"), TupleValue):
    """A block number."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"BNum {self.value}"


class ADTVal(namedtuple("ADTVal", "adt constructor targs args",
                        defaults=((),)), TupleValue):
    """A saturated constructor application (Bool, Option, List, …)."""

    __slots__ = ()

    def __str__(self) -> str:
        if not self.args:
            return self.constructor
        return f"({self.constructor} {' '.join(str(a) for a in self.args)})"


# Process-wide count of copy-on-write privatisations (``MapVal._own``
# calls that found the wrapper shared).  Read by the chain telemetry
# (``state.cow.copies``) and by the benchmark's golden values.
COW_COPIES = 0

# An overlay folds into a fresh flat base once it holds more than
# len(base) // OVERLAY_FOLD_DIVISOR + OVERLAY_FOLD_SLACK pending
# writes and tombstones: each fold is one C-speed dict copy, so a write
# costs amortised O(1) whatever the map's size.
OVERLAY_FOLD_DIVISOR = 8
OVERLAY_FOLD_SLACK = 64

# Process-wide fold count and entries those folds copied
# (``state.overlay.folds`` / ``state.overlay.folded_entries``).
OVERLAY_FOLDS = 0
OVERLAY_FOLDED_ENTRIES = 0

_ABSENT = object()


class OverlayDict:
    """A private overlay over a shared, frozen base: the one container
    that sits over a shared map.

    Drop-in for ``MapVal.entries`` (full dict protocol, pickles to a
    plain dict).  ``base`` is never mutated once an overlay wraps it —
    any number of overlays may share it — and every write lands in
    ``over`` (``dead`` holds tombstones of deleted base keys), so
    privatising a shared map costs O(overlay), never O(map).  A base
    is a plain dict, folded into a fresh one once enough is pending,
    or a paged map's ``repro.scilla.backend.RowBase``: then ``over`` /
    ``dead`` are its dirty rows and tombstones, :meth:`write_back` is
    the fold, and iteration streams the rows.

    Over a dict base, iteration order equals the plain dict's the
    overlay stands in for: base order, an overwrite keeps its position,
    new keys follow in insertion order, and a deleted-then-reinserted
    base key (in both ``dead`` and ``over``) moves to the end.  A fold
    preserves exactly that order, so *when* it happens is unobservable.

    Map-valued children: those in ``base`` are shared with every other
    overlay on it and are never mutated in place; a nested write
    copies one *up* into ``over`` before it goes through it.  ``kids``
    names the keys of ``over`` holding a ``MapVal``; a child there with
    ``_cow`` clear belongs to this overlay alone.
    """

    __slots__ = ("base", "over", "dead", "kids", "_count")

    def __init__(self, base: dict):
        self.base = base
        self.over: dict[Value, Value] = {}
        self.dead: set[Value] = set()
        self.kids: set[Value] = set()
        self._count = len(base)

    # -- reads ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: Value) -> bool:
        if key in self.over:
            return True
        return key in self.base and key not in self.dead

    def get(self, key: Value, default=None):
        value = self.over.get(key, _ABSENT)
        if value is not _ABSENT:
            return value
        if self.dead and key in self.dead:
            return default
        return self.base.get(key, default)

    def __getitem__(self, key: Value) -> Value:
        value = self.get(key, _ABSENT)
        if value is _ABSENT:
            raise KeyError(key)
        return value

    def _flat(self):
        """Every live entry as one dict in iteration order; ``base``
        itself (read-only!) while nothing is pending.  Over a row base,
        a view that streams them."""
        if not isinstance(self.base, dict):
            return self.base.view(self)
        if not self.over and not self.dead:
            return self.base
        flat = self.base.copy()
        for key in self.dead:
            del flat[key]
        flat.update(self.over)
        return flat

    def __iter__(self):
        return iter(self._flat())

    def keys(self):
        return self._flat().keys()

    def values(self):
        return self._flat().values()

    def items(self):
        return self._flat().items()

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if isinstance(other, OverlayDict):
            other = other._flat()
        elif not isinstance(other, dict):
            return NotImplemented
        return self._flat() == other

    def __repr__(self) -> str:
        return (f"OverlayDict(n={self._count}, base={len(self.base)}, "
                f"over={len(self.over)}, dead={len(self.dead)})")

    def __reduce__(self):
        return (dict, (self._flat(),))

    # -- writes --------------------------------------------------------------

    def __setitem__(self, key: Value, value: Value) -> None:
        over = self.over
        held = len(over)
        over[key] = value
        if type(value) is MapVal:
            self.kids.add(key)
        elif self.kids:
            self.kids.discard(key)
        if len(over) != held:
            if key not in self.base or key in self.dead:
                self._count += 1
            self._fold_if_due()

    def pop(self, key: Value, *default):
        value = self.over.pop(key, _ABSENT)
        if value is _ABSENT:
            if key not in self.base or key in self.dead:
                if default:
                    return default[0]
                raise KeyError(key)
            value = self.base[key]
            self.dead.add(key)
        else:
            self.kids.discard(key)
            if key in self.base:
                self.dead.add(key)
        self._count -= 1
        self._fold_if_due()
        return value

    def __delitem__(self, key: Value) -> None:
        self.pop(key)

    def _fold_if_due(self, writes: int = 0) -> bool:
        """Fold, and say so, once what is pending — plus ``writes`` the
        caller is about to make — passes the threshold."""
        # Owned children stay in ``over`` across a fold, so they do not
        # count as pending (or one fold would trigger the next).
        pending = len(self.over) + len(self.dead) - len(self.kids) + writes
        due = pending > (len(self.base) // OVERLAY_FOLD_DIVISOR
                         + OVERLAY_FOLD_SLACK)
        if due:
            self._fold()
        return due

    def _fold(self) -> None:
        global OVERLAY_FOLDS, OVERLAY_FOLDED_ENTRIES
        if not isinstance(self.base, dict):
            return                  # a row base folds at commit only
        flat = self._flat()
        if flat is self.base:       # nothing pending: a fold ahead of writes
            flat = flat.copy()
        OVERLAY_FOLDS += 1
        OVERLAY_FOLDED_ENTRIES += len(flat)
        over = self.over
        # The new base first: every intermediate state reads the same.
        self.base = flat
        self.over = {key: over[key] for key in self.kids}
        self.dead = set()

    def write_back(self) -> None:
        """The fold over a row base (``RowBase.write_back``).  Only the
        network's commit path calls it, with an empty journal, so no
        rollback can cross it."""
        if self.over or self.dead:
            self.base = self.base.write_back(self.over, self.dead,
                                             self._count)
            self.over = {}
            self.dead = set()
            self.kids = set()

    # -- copy-on-write hooks (MapVal._own / ContractState._descend) ----------

    def private_copy(self) -> "OverlayDict":
        """The privatisation step of ``MapVal._own``: a fresh overlay
        on the same base.  Children owned so far become shared by the
        two sides, so they are flagged; either side copies them up
        again before writing through them."""
        over = self.over
        for key in self.kids:
            over[key]._cow = True
        clone = OverlayDict(self.base)
        clone.over = over.copy()
        clone.dead = self.dead.copy()
        clone.kids = self.kids.copy()
        clone._count = self._count
        return clone

    def own_child(self, key: Value) -> Value:
        """The (present) entry at ``key`` as a child this overlay may
        mutate in place: a base child, or one flagged shared, is
        replaced in ``over`` by a fork of itself first."""
        child = self.over.get(key, _ABSENT)
        shared = child is _ABSENT
        if shared:
            child = self.base[key]
        if type(child) is MapVal and (shared or child._cow):
            child = child.copy()
            self.over[key] = child
            self.kids.add(key)
        return child


@dataclass
class MapVal(Value):
    """A mutable finite map; contract state owns these.

    Copies share structure: ``copy()`` returns a new wrapper over the
    *same* entry container, marking both sides copy-on-write.  The
    first write through either wrapper privatises it (``_own``): a
    shared dict becomes the frozen base of a small private
    :class:`OverlayDict` (O(1)), a shared overlay is copied onto its
    own base (O(overlay)), and map-valued children are forked lazily,
    when a nested write walks through them.  The
    invariant: a ``MapVal`` whose ``_cow`` flag is clear is referenced
    by exactly one owner chain, so writing its entries is private.

    Mutate only through :meth:`put` / :meth:`remove` or the owned
    write paths of ``ContractState``; writing ``entries`` directly is
    safe only on a freshly constructed map that was never copied.
    """

    key_type: ScillaType
    value_type: ScillaType
    entries: dict[Value, Value] = field(default_factory=dict)
    _cow: bool = field(default=False, repr=False, compare=False)

    def copy(self) -> "MapVal":
        """O(1) structural-sharing copy (both sides become CoW)."""
        self._cow = True
        fork = MapVal(self.key_type, self.value_type, self.entries)
        fork._cow = True
        return fork

    def _own(self, writes: int = 0) -> None:
        """Make this wrapper the sole writer of its entries: the shared
        container is left to the other holders and a private overlay
        on it takes its place.  A writer that knows how many ``writes``
        it is about to make (the FSD merge) says so: when they would
        fold the overlay anyway it folds first — one flat copy — and
        the writes land in that plain private dict.  Never for a map
        of maps (a flat copy shares the children an overlay copies up)
        nor over a row base (its fold is the commit's write-back)."""
        if self._cow:
            global COW_COPIES
            COW_COPIES += 1
            entries = self.entries
            entries = (entries.private_copy()
                       if entries.__class__ is OverlayDict
                       else OverlayDict(entries))
            if (writes and isinstance(entries.base, dict)
                    and not isinstance(self.value_type, ty.MapType)
                    and entries._fold_if_due(writes)):
                entries = entries.base
            self.entries = entries
            self._cow = False

    def put(self, key: Value, value: Value) -> None:
        self._own()
        self.entries[key] = value

    def remove(self, key: Value) -> None:
        self._own()
        self.entries.pop(key, None)

    def __str__(self) -> str:
        inner = ", ".join(f"{k} => {v}" for k, v in self.entries.items())
        return f"{{{inner}}}"


@dataclass(frozen=True)
class Closure(Value):
    """A function value with its captured environment."""

    param: str
    param_type: ScillaType
    body: Expr
    env: "Env"

    def __str__(self) -> str:
        return f"<fun ({self.param}: {self.param_type})>"


@dataclass(frozen=True)
class TypeClosure(Value):
    """A type-function value (``tfun``)."""

    tvar: str
    body: Expr
    env: "Env"

    def __str__(self) -> str:
        return f"<tfun {self.tvar}>"


class MsgVal(namedtuple("MsgVal", "fields"), TupleValue):
    """A message, event or exception record."""

    __slots__ = ()

    def get(self, name: str) -> Value | None:
        for k, v in self.fields:
            if k == name:
                return v
        return None

    def __str__(self) -> str:
        inner = "; ".join(f"{k}: {v}" for k, v in self.fields)
        return f"{{{inner}}}"


@dataclass(frozen=True)
class Env:
    """An immutable chained environment for closures.

    A plain persistent association structure: lookups walk parent
    chains.  Kept tiny because Scilla contracts have shallow scopes.
    """

    bindings: tuple[tuple[str, Value], ...] = ()
    parent: "Env | None" = None

    def bind(self, name: str, value: Value) -> "Env":
        return Env(((name, value),), self)

    def bind_many(self, pairs: list[tuple[str, Value]]) -> "Env":
        return Env(tuple(pairs), self) if pairs else self

    def lookup(self, name: str) -> Value | None:
        env: Env | None = self
        while env is not None:
            for k, v in env.bindings:
                if k == name:
                    return v
            env = env.parent
        return None


# --------------------------------------------------------------------------
# Convenience constructors used across the codebase.
# --------------------------------------------------------------------------

TRUE = ADTVal("Bool", "True", ())
FALSE = ADTVal("Bool", "False", ())


def bool_val(flag: bool) -> ADTVal:
    return TRUE if flag else FALSE


def some(value: Value, typ: ScillaType) -> ADTVal:
    return ADTVal("Option", "Some", (typ,), (value,))


def none(typ: ScillaType) -> ADTVal:
    return ADTVal("Option", "None", (typ,))


def nil(typ: ScillaType) -> ADTVal:
    return ADTVal("List", "Nil", (typ,))


def cons(head: Value, tail: Value, typ: ScillaType) -> ADTVal:
    return ADTVal("List", "Cons", (typ,), (head, tail))


def list_to_value(items: list[Value], typ: ScillaType) -> ADTVal:
    out = nil(typ)
    for item in reversed(items):
        out = cons(item, out, typ)
    return out


def value_to_list(v: Value) -> list[Value]:
    items: list[Value] = []
    while isinstance(v, ADTVal) and v.constructor == "Cons":
        items.append(v.args[0])
        v = v.args[1]
    return items


def pair(a: Value, b: Value, ta: ScillaType, tb: ScillaType) -> ADTVal:
    return ADTVal("Pair", "Pair", (ta, tb), (a, b))


def uint(value: int, width: int = 128) -> IntVal:
    return IntVal(value, ty.prim(f"Uint{width}"))


def sint(value: int, width: int = 128) -> IntVal:
    return IntVal(value, ty.prim(f"Int{width}"))


def pad_address(address: str) -> str:
    """The canonical form of an address: ``0x`` + 40 lowercase hex.
    An address already in that form is returned itself, not a copy."""
    if len(address) == 42 and address[:2] == "0x":
        lowered = address.lower()    # full length already: nothing to pad
        return address if lowered == address else lowered
    body = address[2:] if address.startswith("0x") else address
    return "0x" + body.rjust(40, "0").lower()


def addr(hexstr: "str | ByStrVal") -> ByStrVal:
    """Build a ByStr20 address value from a hex string (0x-prefixed);
    a ready value passes through."""
    if isinstance(hexstr, ByStrVal):
        return hexstr
    return ByStrVal(pad_address(hexstr), ty.BYSTR20)


def type_of_value(v: Value) -> ScillaType:
    """Recover the Scilla type of a runtime value (best effort)."""
    if isinstance(v, IntVal):
        return v.typ
    if isinstance(v, StringVal):
        return ty.STRING
    if isinstance(v, ByStrVal):
        return v.typ
    if isinstance(v, BNumVal):
        return ty.BNUM
    if isinstance(v, ADTVal):
        return ty.ADTType(v.adt, v.targs)
    if isinstance(v, MapVal):
        return ty.MapType(v.key_type, v.value_type)
    if isinstance(v, MsgVal):
        return ty.MESSAGE
    if isinstance(v, Closure):
        return ty.FunType(v.param_type, ty.TypeVar("'_ret"))
    raise EvalError(f"cannot type value {v!r}")


def values_equal(a: Value, b: Value) -> bool:
    """Structural equality used by ``builtin eq`` and map keys."""
    if isinstance(a, MapVal) and isinstance(b, MapVal):
        if set(a.entries) != set(b.entries):
            return False
        return all(values_equal(v, b.entries[k]) for k, v in a.entries.items())
    return a == b


def canonical(v: Value) -> Any:
    """A canonical, JSON-ish representation used for hashing/serialisation."""
    if isinstance(v, IntVal):
        return {"t": str(v.typ), "v": v.value}
    if isinstance(v, StringVal):
        return {"t": "String", "v": v.value}
    if isinstance(v, ByStrVal):
        return {"t": str(v.typ), "v": v.hex}
    if isinstance(v, BNumVal):
        return {"t": "BNum", "v": v.value}
    if isinstance(v, ADTVal):
        return {
            "t": v.adt,
            "c": v.constructor,
            "a": [canonical(a) for a in v.args],
        }
    if isinstance(v, MapVal):
        items = sorted(
            ((repr(canonical(k)), canonical(val)) for k, val in v.entries.items()),
            key=lambda kv: kv[0],
        )
        return {"t": "Map", "v": items}
    if isinstance(v, MsgVal):
        return {"t": "Msg", "v": [(k, canonical(val)) for k, val in v.fields]}
    raise EvalError(f"cannot serialise value {v!r}")
