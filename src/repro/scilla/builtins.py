"""Built-in operations of the Scilla standard execution environment.

Each builtin has an implementation over runtime values and a typing
rule used by the typechecker.  Arithmetic is checked: results that do
not fit the operand type raise :class:`OutOfBoundsError`, matching
Scilla's safe-by-default integers (this is what makes `sub` fail on
insufficient balance in token contracts).

The CoSplit analysis cares about two properties captured here:

* ``COMMUTATIVE_ADDITIVE`` — builtins whose repeated application to a
  field commutes (integer ``add``/``sub`` by amounts not derived from
  the field itself);
* ``GAS_COSTS`` — per-builtin gas, used by the chain's cost model.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass
from typing import Callable

from . import types as ty
from .errors import EvalError, OutOfBoundsError
from .types import (
    ADTType, MapType, PrimType, ScillaType, BOOL, BNUM, STRING, UINT32,
    is_int_type, int_bounds,
)
from .values import (
    ADTVal, BNumVal, ByStrVal, IntVal, MapVal, StringVal, TRUE, Value,
    bool_val, list_to_value, pair, some, none, values_equal, canonical,
)

Impl = Callable[[list[Value]], Value]
TypeRule = Callable[[list[ScillaType]], ScillaType]


@dataclass(frozen=True)
class BuiltinDef:
    name: str
    arity: int
    impl: Impl
    type_rule: TypeRule
    gas: int = 1


REGISTRY: dict[str, BuiltinDef] = {}

# Builtins whose effect on a field commutes when the field contributes
# linearly (cardinality 1) to the written value.  See Sec. 3.4 of the
# paper: addition commutes; subtraction is addition of a negated
# constant, so it commutes too (and its bounds-check failure is what
# enforces no-double-spend sequentially within the owning shard).
COMMUTATIVE_ADDITIVE = {"add", "sub"}


def register(name: str, arity: int, type_rule: TypeRule, gas: int = 1):
    def wrap(impl: Impl) -> Impl:
        REGISTRY[name] = BuiltinDef(name, arity, impl, type_rule, gas)
        return impl
    return wrap


def get_builtin(name: str) -> BuiltinDef:
    if name not in REGISTRY:
        raise EvalError(f"unknown builtin {name!r}")
    return REGISTRY[name]


# --------------------------------------------------------------------------
# Typing-rule helpers.
# --------------------------------------------------------------------------

def _same_int_binop(args: list[ScillaType]) -> ScillaType:
    a, b = args
    if not (is_int_type(a) and a == b):
        raise EvalError(f"integer builtin applied to {a}, {b}")
    return a


def _int_cmp(args: list[ScillaType]) -> ScillaType:
    _same_int_binop(args)
    return BOOL


def _eq_rule(args: list[ScillaType]) -> ScillaType:
    a, b = args
    if a != b:
        raise EvalError(f"eq applied to different types {a}, {b}")
    return BOOL


def _concat_rule(args: list[ScillaType]) -> ScillaType:
    a, b = args
    if a == STRING and b == STRING:
        return STRING
    if (isinstance(a, PrimType) and a.name.startswith("ByStr")
            and isinstance(b, PrimType) and b.name.startswith("ByStr")):
        wa, wb = ty.bystr_width(a), ty.bystr_width(b)
        if wa is not None and wb is not None:
            name = f"ByStr{wa + wb}"
            return ty.prim(name if name in ty.BYSTR_NAMES else "ByStr")
        return ty.BYSTR
    raise EvalError(f"concat applied to {a}, {b}")


# --------------------------------------------------------------------------
# Integer arithmetic.
# --------------------------------------------------------------------------

def _check_int(value: int, typ: PrimType, op: str) -> IntVal:
    lo, hi = int_bounds(typ)
    if not lo <= value <= hi:
        raise OutOfBoundsError(f"{op} out of bounds for {typ}: {value}")
    return IntVal.checked(value, typ)


def _int_args(args: list[Value], op: str) -> tuple[int, int, PrimType]:
    a, b = args
    if not isinstance(a, IntVal) or not isinstance(b, IntVal) or a.typ != b.typ:
        raise EvalError(f"{op} expects two integers of the same type")
    return a.value, b.value, a.typ


@register("add", 2, _same_int_binop, gas=4)
def _add(args: list[Value]) -> Value:
    a, b, typ = _int_args(args, "add")
    return _check_int(a + b, typ, "add")


@register("sub", 2, _same_int_binop, gas=4)
def _sub(args: list[Value]) -> Value:
    a, b, typ = _int_args(args, "sub")
    return _check_int(a - b, typ, "sub")


@register("mul", 2, _same_int_binop, gas=5)
def _mul(args: list[Value]) -> Value:
    a, b, typ = _int_args(args, "mul")
    return _check_int(a * b, typ, "mul")


@register("div", 2, _same_int_binop, gas=5)
def _div(args: list[Value]) -> Value:
    a, b, typ = _int_args(args, "div")
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return _check_int(q, typ, "div")


@register("rem", 2, _same_int_binop, gas=5)
def _rem(args: list[Value]) -> Value:
    a, b, typ = _int_args(args, "rem")
    if b == 0:
        raise EvalError("remainder by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return _check_int(a - b * q, typ, "rem")


@register("pow", 2, lambda ts: _pow_rule(ts), gas=8)
def _pow(args: list[Value]) -> Value:
    a, b = args
    if not isinstance(a, IntVal) or not isinstance(b, IntVal):
        raise EvalError("pow expects integers")
    if b.typ != UINT32:
        raise EvalError("pow exponent must be Uint32")
    return _check_int(a.value ** b.value, a.typ, "pow")


def _pow_rule(args: list[ScillaType]) -> ScillaType:
    base, expo = args
    if not is_int_type(base) or expo != UINT32:
        raise EvalError(f"pow applied to {base}, {expo}")
    return base


@register("lt", 2, _int_cmp, gas=4)
def _lt(args: list[Value]) -> Value:
    a, b, _ = _int_args(args, "lt")
    return bool_val(a < b)


@register("uint_le", 2, _int_cmp, gas=4)
def _uint_le(args: list[Value]) -> Value:
    # Convenience comparison used by several corpus contracts.
    a, b, _ = _int_args(args, "uint_le")
    return bool_val(a <= b)


@register("eq", 2, _eq_rule, gas=4)
def _eq(args: list[Value]) -> Value:
    return bool_val(values_equal(args[0], args[1]))


# --------------------------------------------------------------------------
# Two-argument fast paths for compiled transitions (repro.scilla.compile).
# Guarded on the operands' *class*, not on a static type: transaction
# arguments and stored state are unchecked.  Whenever a guard or a bounds
# test fails they call the registry ``impl`` above, which raises the
# reference's error — so they agree with it by construction.
# --------------------------------------------------------------------------

def _fast_arith(op, impl: Impl):
    bounds = ty._INT_BOUNDS

    def fast(a: Value, b: Value) -> Value:
        if a.__class__ is IntVal and b.__class__ is IntVal:
            typ = a.typ
            if typ is b.typ or typ == b.typ:
                value = op(a.value, b.value)
                lo, hi = bounds[typ]
                if lo <= value <= hi:
                    return IntVal.checked(value, typ)
        return impl([a, b])
    return fast


def _fast_compare(op, impl: Impl):
    def fast(a: Value, b: Value) -> bool:
        if a.__class__ is IntVal and b.__class__ is IntVal and (
                a.typ is b.typ or a.typ == b.typ):
            return op(a.value, b.value)
        return impl([a, b]) is TRUE
    return fast


def _fast_eq(a: Value, b: Value) -> bool:
    cls = a.__class__
    if cls is b.__class__ and (cls is ByStrVal or cls is IntVal):
        return a == b           # one tuple comparison, in C
    return _eq([a, b]) is TRUE


def _fast_blt(a: Value, b: Value) -> bool:
    if a.__class__ is BNumVal and b.__class__ is BNumVal:
        return a.value < b.value
    return _blt([a, b]) is TRUE


# builtin name -> fast path: those returning the value, and the tests,
# which return a Python bool (``TRUE if … else FALSE`` boxes it).
FAST_VALUES = {"add": _fast_arith(operator.add, _add),
               "sub": _fast_arith(operator.sub, _sub),
               "mul": _fast_arith(operator.mul, _mul)}
FAST_TESTS = {"lt": _fast_compare(operator.lt, _lt),
              "uint_le": _fast_compare(operator.le, _uint_le),
              "eq": _fast_eq, "blt": _fast_blt}


# --------------------------------------------------------------------------
# Strings and byte strings.
# --------------------------------------------------------------------------

@register("concat", 2, _concat_rule, gas=4)
def _concat(args: list[Value]) -> Value:
    a, b = args
    if isinstance(a, StringVal) and isinstance(b, StringVal):
        return StringVal(a.value + b.value)
    if isinstance(a, ByStrVal) and isinstance(b, ByStrVal):
        joined = a.hex + b.hex[2:]
        nbytes = (len(joined) - 2) // 2
        name = f"ByStr{nbytes}"
        typ = ty.prim(name if name in ty.BYSTR_NAMES else "ByStr")
        return ByStrVal(joined, typ)
    raise EvalError("concat expects two strings or two byte strings")


@register("strlen", 1, lambda ts: _expect(ts[0], STRING, UINT32), gas=2)
def _strlen(args: list[Value]) -> Value:
    (a,) = args
    if not isinstance(a, StringVal):
        raise EvalError("strlen expects a string")
    return IntVal(len(a.value), UINT32)


@register("substr", 3, lambda ts: _substr_rule(ts), gas=4)
def _substr(args: list[Value]) -> Value:
    s, start, length = args
    if (not isinstance(s, StringVal) or not isinstance(start, IntVal)
            or not isinstance(length, IntVal)):
        raise EvalError("substr expects (String, Uint32, Uint32)")
    if start.value + length.value > len(s.value):
        raise EvalError("substr out of bounds")
    return StringVal(s.value[start.value:start.value + length.value])


def _substr_rule(args: list[ScillaType]) -> ScillaType:
    s, a, b = args
    if s != STRING or a != UINT32 or b != UINT32:
        raise EvalError("substr applied to wrong types")
    return STRING


def _expect(actual: ScillaType, expected: ScillaType, result: ScillaType) -> ScillaType:
    if actual != expected:
        raise EvalError(f"builtin expected {expected}, got {actual}")
    return result


@register("to_string", 1, lambda ts: STRING, gas=2)
def _to_string(args: list[Value]) -> Value:
    return StringVal(str(args[0]))


# --------------------------------------------------------------------------
# Hashing and signatures (deterministic stand-ins for real crypto).
# --------------------------------------------------------------------------

def _hash_value(v: Value, algo: str) -> ByStrVal:
    payload = json.dumps(canonical(v), sort_keys=True).encode()
    digest = hashlib.new(algo, payload).hexdigest()
    return ByStrVal("0x" + digest[:64], ty.BYSTR32)


@register("sha256hash", 1, lambda ts: ty.BYSTR32, gas=12)
def _sha256hash(args: list[Value]) -> Value:
    return _hash_value(args[0], "sha256")


@register("keccak256hash", 1, lambda ts: ty.BYSTR32, gas=12)
def _keccak256hash(args: list[Value]) -> Value:
    # Python's hashlib lacks keccak; sha3_256 is a faithful stand-in for
    # a 32-byte collision-resistant digest, which is all contracts need.
    return _hash_value(args[0], "sha3_256")


@register("ripemd160hash", 1, lambda ts: ty.BYSTR20, gas=12)
def _ripemd160hash(args: list[Value]) -> Value:
    payload = json.dumps(canonical(args[0]), sort_keys=True).encode()
    digest = hashlib.sha256(payload).hexdigest()
    return ByStrVal("0x" + digest[:40], ty.BYSTR20)


@register("schnorr_verify", 3, lambda ts: BOOL, gas=20)
def _schnorr_verify(args: list[Value]) -> Value:
    """Deterministic signature check stand-in.

    A "signature" is valid iff it equals the sha256 of (pubkey, msg).
    This preserves the control-flow shape contracts rely on without
    implementing elliptic curves.
    """
    pubkey, msg, signature = args
    expected = _hash_value(pair(pubkey, msg, ty.BYSTR, ty.BYSTR), "sha256")
    return bool_val(isinstance(signature, ByStrVal)
                    and signature.hex == expected.hex)


def make_schnorr_signature(pubkey: Value, msg: Value) -> ByStrVal:
    """Produce a signature that :func:`_schnorr_verify` accepts (test aid)."""
    return _hash_value(pair(pubkey, msg, ty.BYSTR, ty.BYSTR), "sha256")


# --------------------------------------------------------------------------
# Block numbers.
# --------------------------------------------------------------------------

@register("blt", 2, lambda ts: _expect(ts[0], BNUM, BOOL), gas=4)
def _blt(args: list[Value]) -> Value:
    a, b = args
    if not isinstance(a, BNumVal) or not isinstance(b, BNumVal):
        raise EvalError("blt expects two block numbers")
    return bool_val(a.value < b.value)


@register("badd", 2, lambda ts: BNUM, gas=4)
def _badd(args: list[Value]) -> Value:
    a, b = args
    if not isinstance(a, BNumVal) or not isinstance(b, IntVal):
        raise EvalError("badd expects (BNum, UintX)")
    return BNumVal(a.value + b.value)


@register("bsub", 2, lambda ts: ty.INT256, gas=4)
def _bsub(args: list[Value]) -> Value:
    a, b = args
    if not isinstance(a, BNumVal) or not isinstance(b, BNumVal):
        raise EvalError("bsub expects two block numbers")
    return IntVal(a.value - b.value, ty.INT256)


# --------------------------------------------------------------------------
# Conversions.
# --------------------------------------------------------------------------

def _register_conversions() -> None:
    for width in ty.INT_WIDTHS:
        for prefix in ("Uint", "Int"):
            target = ty.prim(f"{prefix}{width}")

            def impl(args: list[Value], target: PrimType = target) -> Value:
                (a,) = args
                if isinstance(a, IntVal):
                    value = a.value
                elif isinstance(a, StringVal):
                    value = int(a.value)
                else:
                    raise EvalError(f"cannot convert {a} to {target}")
                lo, hi = int_bounds(target)
                if not lo <= value <= hi:
                    return none(target)
                return some(IntVal.checked(value, target), target)

            name = f"to_{prefix.lower()}{width}"
            REGISTRY[name] = BuiltinDef(
                name, 1, impl,
                lambda ts, target=target: ADTType("Option", (target,)),
                gas=2,
            )


_register_conversions()


@register("to_nat", 1, lambda ts: _expect(ts[0], UINT32, ty.NAT), gas=4)
def _to_nat(args: list[Value]) -> Value:
    (a,) = args
    if not isinstance(a, IntVal):
        raise EvalError("to_nat expects Uint32")
    out = ADTVal("Nat", "Zero", ())
    for _ in range(a.value):
        out = ADTVal("Nat", "Succ", (), (out,))
    return out


# --------------------------------------------------------------------------
# Pure map builtins (on map *values*, not contract fields).
# --------------------------------------------------------------------------

def _map_rule_put(args: list[ScillaType]) -> ScillaType:
    m, k, v = args
    if not isinstance(m, MapType) or m.key != k or m.value != v:
        raise EvalError(f"put applied to {m}, {k}, {v}")
    return m


@register("put", 3, _map_rule_put, gas=8)
def _put(args: list[Value]) -> Value:
    m, k, v = args
    if not isinstance(m, MapVal):
        raise EvalError("put expects a map")
    out = m.copy()
    out.put(k, v)  # owned write: never leaks into the shared dict
    return out


def _map_rule_get(args: list[ScillaType]) -> ScillaType:
    m, k = args
    if not isinstance(m, MapType) or m.key != k:
        raise EvalError(f"get applied to {m}, {k}")
    return ADTType("Option", (m.value,))


@register("get", 2, _map_rule_get, gas=8)
def _get(args: list[Value]) -> Value:
    m, k = args
    if not isinstance(m, MapVal):
        raise EvalError("get expects a map")
    v = m.entries.get(k)
    if v is not None:
        return some(v, m.value_type)
    return none(m.value_type)


@register("contains", 2, lambda ts: BOOL, gas=8)
def _contains(args: list[Value]) -> Value:
    m, k = args
    if not isinstance(m, MapVal):
        raise EvalError("contains expects a map")
    return bool_val(k in m.entries)


@register("remove", 2, lambda ts: ts[0], gas=8)
def _remove(args: list[Value]) -> Value:
    m, k = args
    if not isinstance(m, MapVal):
        raise EvalError("remove expects a map")
    out = m.copy()
    out.remove(k)
    return out


def _map_rule_to_list(args: list[ScillaType]) -> ScillaType:
    (m,) = args
    if not isinstance(m, MapType):
        raise EvalError(f"to_list applied to {m}")
    return ty.list_of(ty.pair_of(m.key, m.value))


@register("to_list", 1, _map_rule_to_list, gas=8)
def _to_list(args: list[Value]) -> Value:
    (m,) = args
    if not isinstance(m, MapVal):
        raise EvalError("to_list expects a map")
    elem_t = ty.pair_of(m.key_type, m.value_type)
    items = [
        pair(k, v, m.key_type, m.value_type)
        for k, v in sorted(m.entries.items(), key=lambda kv: str(kv[0]))
    ]
    return list_to_value(items, elem_t)


@register("size", 1, lambda ts: UINT32, gas=4)
def _size(args: list[Value]) -> Value:
    (m,) = args
    if not isinstance(m, MapVal):
        raise EvalError("size expects a map")
    return IntVal(len(m.entries), UINT32)
