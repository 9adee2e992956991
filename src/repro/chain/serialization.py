"""JSON wire formats for values, state deltas and sharding signatures.

In the real system (Sec. 5), CoSplit talks to the Zilliqa node over
JSON-RPC, and the paper attributes most of the measured dispatch/merge
overhead to serialisation and deserialisation.  This module provides
the equivalent wire formats: every runtime value, delta entry and
signature component round-trips through plain JSON, and the overheads
benchmark exercises these paths.
"""

from __future__ import annotations

import json
from typing import Any

from ..core.constraints import (
    Bot, Constraint, ContractShard, NoAliases, Owns, SenderShard,
    UserAddr,
)
from ..core.domain import ConstKey, Key, ParamKey, PseudoField
from ..core.joins import JoinKind
from ..core.signature import ShardingSignature
from ..scilla.errors import EvalError
from ..scilla.parser import parse_type_str
from ..scilla.state import MISSING, ContractState, _Missing
from ..scilla import types as ty
from ..scilla.values import (
    ADTVal, BNumVal, ByStrVal, IntVal, MapVal, OverlayDict, StringVal, Value,
)
from .delta import FieldDelta, StateDelta
from .transaction import Transaction


# --------------------------------------------------------------------------
# Values.
# --------------------------------------------------------------------------

def value_to_json(v: Value) -> Any:
    if isinstance(v, IntVal):
        return {"t": str(v.typ), "v": str(v.value)}
    if isinstance(v, StringVal):
        return {"t": "String", "v": v.value}
    if isinstance(v, ByStrVal):
        return {"t": str(v.typ), "v": v.hex}
    if isinstance(v, BNumVal):
        return {"t": "BNum", "v": str(v.value)}
    if isinstance(v, ADTVal):
        return {"t": "ADT", "adt": v.adt, "c": v.constructor,
                "targs": [str(t) for t in v.targs],
                "args": [value_to_json(a) for a in v.args]}
    if isinstance(v, MapVal):
        return {"t": "Map", "kt": str(v.key_type), "vt": str(v.value_type),
                "entries": [[value_to_json(k), value_to_json(val)]
                            for k, val in v.entries.items()]}
    raise EvalError(f"cannot serialise value {v!r}")


# Integer type name -> (its shared type instance, its bounds).
_INTS = {name: (ty.prim(name), bounds)
         for name, bounds in ty._INT_BOUNDS.items()}
_JOIN_KINDS = {kind.value: kind for kind in JoinKind}


def value_from_json(data: Any) -> Value:
    t = data["t"]
    known = _INTS.get(t)
    if known is not None:       # most of a delta, so first and lean
        value, (typ, (lo, hi)) = int(data["v"]), known
        return IntVal.checked(value, typ) if lo <= value <= hi \
            else IntVal(value, typ)     # raises
    if t == "String":
        return StringVal(data["v"])
    if t == "BNum":
        return BNumVal(int(data["v"]))
    if t == "ADT":
        return ADTVal(data["adt"], data["c"],
                      tuple(parse_type_str(s) for s in data["targs"]),
                      tuple(value_from_json(a) for a in data["args"]))
    if t == "Map":
        out = MapVal(parse_type_str(data["kt"]),
                     parse_type_str(data["vt"]))
        for k, v in data["entries"]:
            out.entries[value_from_json(k)] = value_from_json(v)
        return out
    if t.startswith("ByStr"):
        return ByStrVal(data["v"], ty.prim(t))
    return IntVal(int(data["v"]), ty.prim(t))    # no such type: raises


# --------------------------------------------------------------------------
# Values under a declared type (restore points).  Scilla fields are
# statically typed, so a restore point need not repeat the type beside
# every value: a primitive travels as its literal, a map from primitives
# to primitives as a key column and a value column.  Anything else — or
# a value that is not what the declaration says — keeps the
# self-describing form above, which is always an object with a "t".
# --------------------------------------------------------------------------

def _literal_class(typ) -> type | None:
    """The value class of the primitive type ``typ`` — its instances
    hold a payload and, at most, that type — or ``None`` for a type
    whose values do not travel as literals."""
    if typ in _INTS:
        return IntVal
    if typ == "String":
        return StringVal
    if typ == "BNum":
        return BNumVal
    if isinstance(typ, ty.PrimType) and typ.startswith("ByStr"):
        return ByStrVal
    return None


def _is_literal(v, cls: type, typ) -> bool:
    """Whether ``v`` is nothing but its payload ``v[0]`` under ``typ``."""
    return type(v) is cls and (len(v) == 1 or v[1] == typ)


def _literal_decoder(typ):
    cls = _literal_class(typ)
    if cls in (StringVal, BNumVal):
        return cls
    shared = ty.prim(str(typ))
    return lambda literal: cls(literal, shared)    # validates


def typed_to_json(v: Value, typ) -> Any:
    """``v`` under the declared type ``typ`` of the field holding it."""
    cls = _literal_class(typ)
    if cls is not None:
        return v[0] if _is_literal(v, cls, typ) else value_to_json(v)
    if isinstance(typ, ty.MapType) and isinstance(v, MapVal) \
            and (v.key_type, v.value_type) == (typ.key, typ.value):
        key_cls, value_cls = map(_literal_class, (typ.key, typ.value))
        if key_cls is not None and value_cls is not None:
            items = list(v.entries.items())
            if all(_is_literal(k, key_cls, typ.key)
                   and _is_literal(x, value_cls, typ.value)
                   for k, x in items):
                return {"k": [k[0] for k, _ in items],
                        "v": [x[0] for _, x in items]}
    return value_to_json(v)


def typed_from_json(data: Any, typ) -> Value:
    """Inverse of :func:`typed_to_json` (literals are validated)."""
    if not isinstance(data, dict):
        return _literal_decoder(typ)(data)
    if "t" in data:
        return value_from_json(data)
    out = MapVal(typ.key, typ.value)
    out.entries.update(zip(map(_literal_decoder(typ.key), data["k"]),
                           map(_literal_decoder(typ.value), data["v"])))
    return out


# --------------------------------------------------------------------------
# State deltas (the StateDelta messages of Fig. 10).
# --------------------------------------------------------------------------

def delta_to_json(delta: StateDelta) -> str:
    """A delta as its columns: ``[field, kind, type | null, rows]`` per
    changed field, each row ``[path, payload]`` — the signed difference
    under IntMerge (the column carries the integer type), the new value
    or ``null`` (deleted) under OwnOverwrite."""
    columns = []
    for column in delta.columns:
        if column.kind is JoinKind.INT_MERGE:
            rows = [[[value_to_json(k) for k in path], diff]
                    for path, diff in column.rows.items()]
        else:
            rows = [[[value_to_json(k) for k in path],
                     None if isinstance(value, _Missing)
                     else value_to_json(value)]
                    for path, value in column.rows.items()]
        columns.append([column.field, column.kind.value,
                        None if column.typ is None else str(column.typ),
                        rows])
    return json.dumps({"contract": delta.contract, "shard": delta.shard,
                       "columns": columns})


def delta_from_json(text: str) -> StateDelta:
    data = json.loads(text)
    delta = StateDelta(data["contract"], data["shard"])
    for name, kind, typ, rows in data["columns"]:
        kind = _JOIN_KINDS[kind]
        payload = int if kind is JoinKind.INT_MERGE else _payload_from_json
        delta.columns.append(FieldDelta(
            name, kind, None if typ is None else _INTS[typ][0],
            {tuple(map(value_from_json, path)): payload(value)
             for path, value in rows}))
    return delta


def _payload_from_json(data: Any) -> Value | _Missing:
    return MISSING if data is None else value_from_json(data)


# --------------------------------------------------------------------------
# Transactions (the lookup-node packets of Fig. 10).
# --------------------------------------------------------------------------

class TransactionRowError(ValueError):
    """Data that is not a transaction row (:func:`transaction_from_obj`).
    The callers that know where the data came from — a WAL record, a
    restore point, a loadgen stream — name it in their own error."""


def transaction_to_obj(tx: Transaction) -> list:
    """A transaction as one positional row, the one form every
    journal, restore point and stream uses::

        [id, sender, to, nonce, amount, gas_limit, gas_price,
         transition, args]

    ``args`` is ``[[name, value], ...]`` with each value in the
    self-describing :func:`value_to_json` form.  ``id`` preserves
    ``tx_id`` across the process boundary: WAL replay must re-execute
    the *same* transactions, and the default dispatch strategy routes
    unconstrained calls by ``tx_id % n_shards``.
    """
    return [tx.tx_id, tx.sender, tx.to, tx.nonce, tx.amount, tx.gas_limit,
            tx.gas_price, tx.transition,
            [[k, value_to_json(v)] for k, v in tx.args]]


def transaction_from_obj(data: Any) -> Transaction:
    """Inverse of :func:`transaction_to_obj`; anything but a
    nine-column row raises :class:`TransactionRowError`."""
    if not isinstance(data, list) or len(data) != 9:
        raise TransactionRowError(
            f"not a nine-column transaction row: {str(data)[:80]}")
    tx_id, sender, to, nonce, amount, gas_limit, gas_price, \
        transition, args = data
    return Transaction(
        sender, to, nonce, amount, gas_limit, gas_price, transition,
        tuple([(k, value_from_json(v)) for k, v in args]), tx_id)


def transaction_to_json(tx: Transaction) -> str:
    return json.dumps(transaction_to_obj(tx))


def transaction_from_json(text: str) -> Transaction:
    return transaction_from_obj(json.loads(text))


# --------------------------------------------------------------------------
# Contract states (the payload of durable snapshots).
# --------------------------------------------------------------------------

def _paged_map_to_json(v: MapVal, rows) -> Any:
    """Compact snapshot form of a paged map: a reference to its rows
    (``rows``, its row base) in the backend sidecar plus only what its
    overlay has not written back (dirty rows and tombstones).
    Snapshotting therefore never forces a writeback — the sidecar
    carries the rows as of the last one, and this record carries
    everything newer.
    """
    over, dead = v.entries.over, v.entries.dead
    return {
        "t": "PagedMap", "kt": str(v.key_type), "vt": str(v.value_type),
        "map_id": rows.map_id, "count": len(v.entries),
        "dirty": sorted(
            ([value_to_json(k), value_to_json(value)]
             for k, value in over.items()),
            key=lambda kv: json.dumps(kv[0], sort_keys=True)),
        "deleted": sorted(
            (value_to_json(k) for k in dead if k not in over),
            key=lambda k: json.dumps(k, sort_keys=True)),
    }


def _paged_map_from_json(data: Any, backend) -> MapVal:
    from ..scilla.backend import RowBase
    if backend is None:
        raise EvalError(
            "snapshot contains PagedMap references but no state "
            "backend was restored to resolve them")
    map_id = data["map_id"]
    backend.reserve(map_id)
    paged = OverlayDict(RowBase(backend, map_id, backend.count(map_id)))
    for k, v in data["dirty"]:
        paged[value_from_json(k)] = value_from_json(v)
    for k in data["deleted"]:
        paged.pop(value_from_json(k))
    return MapVal(parse_type_str(data["kt"]),
                  parse_type_str(data["vt"]), paged)


def state_to_obj(state: ContractState, backend=None) -> Any:
    """JSON-able form of a full contract state (snapshot format).

    With ``backend``, top-level map fields paged through *that*
    backend serialise as compact ``PagedMap`` references against its
    sidecar copy instead of inlining every entry.
    """
    from ..scilla.backend import paged_base
    fields = {}
    for name, value in state.fields.items():
        rows = paged_base(value) if backend is not None else None
        if rows is not None and rows.backend is backend:
            fields[name] = _paged_map_to_json(value, rows)
        else:
            fields[name] = typed_to_json(value, state.field_types.get(name))
    return {
        "address": state.address,
        "balance": state.balance,
        "fields": fields,
        "field_types": {name: str(typ)
                        for name, typ in state.field_types.items()},
        "immutables": {name: value_to_json(value)
                       for name, value in state.immutables.items()},
    }


def state_from_obj(data: Any, backend=None) -> ContractState:
    field_types = {name: parse_type_str(s)
                   for name, s in data["field_types"].items()}
    fields = {}
    for name, v in data["fields"].items():
        if isinstance(v, dict) and v.get("t") == "PagedMap":
            fields[name] = _paged_map_from_json(v, backend)
        else:
            fields[name] = typed_from_json(v, field_types.get(name))
    return ContractState(
        address=data["address"],
        fields=fields,
        field_types=field_types,
        immutables={name: value_from_json(v)
                    for name, v in data["immutables"].items()},
        balance=data["balance"],
    )


def locations_to_obj(state: ContractState, keys) -> dict:
    """Delta restore-point rows for the locations ``keys``, per field,
    read from the live state.  First-level entries of a map declared
    from primitives to primitives are two columns, ``k`` and ``v`` (an
    entry that is gone has the value ``None``); every other location is
    one of ``rows``, ``[path, value | None]`` in the StateDelta wire
    format.  Prefix-minimal keys only: a location written under another
    written one travels inside its value.  A nested entry that is gone
    travels as its whole first-level entry: a delete can leave empty
    maps above it, which differ from absent keys.  A one-key location
    is read straight from its field's entries; only a deeper one walks
    the state and checks its prefixes."""
    by_field: dict[str, list] = {}
    for key in keys:
        name, path = key
        paths = by_field.get(name)
        if paths is None:
            paths = by_field[name] = []
        paths.append(path)
    out = {}
    for name, paths in by_field.items():
        if (name, ()) in keys:      # the whole field: nothing under it
            paths = [()]
        elif max(map(len, paths)) > 1:
            paths = [path for path in paths
                     if not any((name, path[:i]) in keys
                                for i in range(1, len(path)))]
        typ = state.field_types.get(name)
        key_cls = value_cls = None
        if isinstance(typ, ty.MapType):
            key_cls = _literal_class(typ.key)
            value_cls = _literal_class(typ.value)
        flat = key_cls is not None and value_cls is not None
        entries = state.fields[name].entries.get if paths[0] else None
        k_col, v_col, rows = [], [], []
        for path in paths:
            value = (entries(path[0], MISSING) if len(path) == 1
                     else state.read((name, path)))
            gone = value is MISSING
            if flat and len(path) == 1 \
                    and _is_literal(path[0], key_cls, typ.key) \
                    and (gone or _is_literal(value, value_cls, typ.value)):
                k_col.append(path[0][0])
                v_col.append(None if gone else value[0])
                continue
            if gone and len(path) > 1:
                path = path[:1]
                value = state.read((name, path))
                gone = value is MISSING
            rows.append([[value_to_json(k) for k in path],
                         None if gone else value_to_json(value)])
        out[name] = {"k": k_col, "v": v_col, "rows": rows}
    return out


def apply_locations(state: ContractState, fields: dict) -> None:
    """Replay :func:`locations_to_obj` rows through the owned write
    paths (``None`` deletes the entry)."""
    for name, part in fields.items():
        if part["k"]:
            typ = state.field_types[name]
            key_of = _literal_decoder(typ.key)
            value_of = _literal_decoder(typ.value)
            for k, v in zip(part["k"], part["v"]):
                state.write((name, (key_of(k),)),
                            MISSING if v is None else value_of(v))
        for path, value in part["rows"]:
            state.write((name, tuple(map(value_from_json, path))),
                        MISSING if value is None else value_from_json(value))


# --------------------------------------------------------------------------
# Sharding signatures (submitted with contract-deploying transactions).
# --------------------------------------------------------------------------

def _key_to_json(key: Key) -> Any:
    if isinstance(key, ParamKey):
        return {"k": "param", "name": key.name}
    return {"k": "const", "repr": key.repr}


def _key_from_json(data: Any) -> Key:
    if data["k"] == "param":
        return ParamKey(data["name"])
    return ConstKey(data["repr"])


def _pf_to_json(pf: PseudoField) -> Any:
    return {"field": pf.field, "keys": [_key_to_json(k) for k in pf.keys]}


def _pf_from_json(data: Any) -> PseudoField:
    return PseudoField(data["field"],
                       tuple(_key_from_json(k) for k in data["keys"]))


def _constraint_to_json(c: Constraint) -> Any:
    if isinstance(c, Owns):
        return {"c": "owns", "pf": _pf_to_json(c.pf)}
    if isinstance(c, UserAddr):
        return {"c": "useraddr", "param": c.param}
    if isinstance(c, NoAliases):
        return {"c": "noaliases", "x": c.x, "y": c.y}
    if isinstance(c, SenderShard):
        return {"c": "sendershard"}
    if isinstance(c, ContractShard):
        return {"c": "contractshard"}
    assert isinstance(c, Bot)
    return {"c": "bot", "reason": c.reason}


def _constraint_from_json(data: Any) -> Constraint:
    kind = data["c"]
    if kind == "owns":
        return Owns(_pf_from_json(data["pf"]))
    if kind == "useraddr":
        return UserAddr(data["param"])
    if kind == "noaliases":
        return NoAliases(data["x"], data["y"])
    if kind == "sendershard":
        return SenderShard()
    if kind == "contractshard":
        return ContractShard()
    return Bot(data["reason"])


def signature_to_obj(sig: ShardingSignature) -> Any:
    return {
        "contract": sig.contract,
        "selected": list(sig.selected),
        "constraints": {
            t: [_constraint_to_json(c) for c in sorted(cs, key=str)]
            for t, cs in sig.constraints.items()
        },
        "joins": {f: j.value for f, j in sig.joins.items()},
        "weak_reads": sorted(sig.weak_reads),
    }


def signature_from_obj(data: Any) -> ShardingSignature:
    return ShardingSignature(
        contract=data["contract"],
        selected=tuple(data["selected"]),
        constraints={
            t: frozenset(_constraint_from_json(c) for c in cs)
            for t, cs in data["constraints"].items()
        },
        joins={f: JoinKind(j) for f, j in data["joins"].items()},
        weak_reads=frozenset(data["weak_reads"]),
    )


def signature_to_json(sig: ShardingSignature) -> str:
    return json.dumps(signature_to_obj(sig))


def signature_from_json(text: str) -> ShardingSignature:
    return signature_from_obj(json.loads(text))
