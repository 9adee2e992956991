"""Per-layer tracing for the ``--trace 1`` pass, recorded from bench/ only.

Two span sources share the ``time.perf_counter_ns`` clock:

* the program's own ``repro.obs.tracing.Tracer`` (epoch / dispatch /
  lane / merge / ds-lane sites), handed in through ``Network(tracer=)``;
* timing shims this module installs around layer entry points.

Spans are kept in memory as ``(name, start_ns, end_ns, n)`` tuples and
nested afterwards by interval containment, so neither source has to
know about the other.  A layer is a module: the part of a span name
before the first dot.  A layer's self time is its spans' duration minus
what their child spans cover.

A shim target that no longer exists is reported once on stderr and its
metrics read 0; ``harness.shims_missing`` counts such targets, so a 0
that means "not measured" can be told from a 0 that means "no work".
"""

from __future__ import annotations

import importlib
import inspect
import json
import re
import sys
import time
from statistics import median

from bench.refclock import ref_kernel, scale

_now = time.perf_counter_ns


def _entries(delta) -> int:
    return len(delta.entries)


def _wal_bytes_counter():
    """Bytes each ``WriteAheadLog.append`` added, read off the log's
    file position (a new segment restarts at 0)."""
    last: dict[int, int] = {}

    def count(result, args, kwargs) -> int:
        wal = args[0]
        pos = wal._handle.tell()
        before = last.get(id(wal), 0)
        last[id(wal)] = pos
        return pos - before if pos >= before else pos
    return count


# (span name, module, class or None, attribute, work count or None,
#  skip predicate or None).  The work count sees (result, args,
# kwargs); the skip predicate sees args and bypasses timing when true.
SHIMS = [
    ("dispatch.dispatch", "repro.chain.dispatch", "Dispatcher",
     "dispatch", None, None),
    ("interpreter.run_transition", "repro.scilla.interpreter",
     "Interpreter", "run_transition", None, None),
    ("delta.compute", "repro.chain.network", None, "compute_delta",
     lambda res, a, k: _entries(res), None),
    ("delta.merge", "repro.chain.network", None, "merge_deltas",
     lambda res, a, k: sum(_entries(d) for d in a[1]), None),
    ("serialization.tx_to_obj", "repro.chain.network", None,
     "transaction_to_obj", None, None),
    ("recovery.checkpoint_take", "repro.chain.recovery",
     "NetworkCheckpoint", "take", None, None),
    # The durable commit record's O(state) digest.
    ("recovery.fingerprint", "repro.chain.network", None,
     "fingerprint_digest", None, None),
    ("wal.append", "repro.chain.wal", "WriteAheadLog", "append",
     _wal_bytes_counter(), None),
    ("wal.barrier", "repro.chain.wal", "WriteAheadLog", "barrier",
     None, None),
    ("store.snapshot_build", "repro.chain.store", None,
     "snapshot_network", None, None),
    ("store.save", "repro.chain.store", "SnapshotStore", "save",
     None, None),
    ("mempool.submit", "repro.chain.mempool", "Mempool", "submit",
     None, None),
    ("mempool.drain", "repro.chain.mempool", "Mempool", "drain",
     lambda res, a, k: len(res), None),
    # Only the calls that really copy the entry dict are spans; the
    # no-op calls on an already-owned map stay untimed.
    ("state.cow", "repro.scilla.values", "MapVal", "_own", None,
     lambda a: not a[0]._cow),
]


class Recorder:
    """In-memory span store plus the shims that feed it."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def add(self, name: str, start_ns: int, end_ns: int,
            n: int = 0) -> None:
        self.spans.append((name, start_ns, end_ns, n))

    def _warn_missing(self, name: str, why: str) -> None:
        self.missing.append(name)
        print(f"bench: layer shim {name} not installed ({why}); "
              f"its metrics read 0", file=sys.stderr)

    def install(self) -> None:
        for name, module, cls, attr, count, skip in SHIMS:
            try:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError) as exc:
                self._warn_missing(name, f"{type(exc).__name__}: {exc}")
                continue
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            timed = self._timed(name, fn, count, skip)
            setattr(owner, attr,
                    classmethod(timed) if is_classmethod else timed)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore = []

    def _timed(self, name, fn, count, skip):
        spans = self.spans

        def timed(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            t0 = _now()
            result = fn(*args, **kwargs)
            t1 = _now()
            n = 0
            if count is not None:
                try:
                    n = count(result, args, kwargs)
                except (AttributeError, IndexError, TypeError) as exc:
                    # The target's shape changed: the timing stays,
                    # the count reads 0.
                    if name not in self.missing:
                        self._warn_missing(
                            name, f"work count failed: {exc}")
            spans.append((name, t0, t1, n))
            return result
        return timed

    def absorb_tracer(self, tracer) -> None:
        """Flatten the program tracer's span trees into this store
        under the ``network`` layer (``epoch 12`` -> ``network.epoch``
        with n=12)."""
        def walk(obj: dict) -> None:
            m = re.fullmatch(r"(.*?)(?: (\d+))?", obj["name"])
            name = "network." + m.group(1).replace(" ", "_")
            self.add(name, obj["start_ns"], obj["end_ns"],
                     int(m.group(2) or 0))
            for child in obj["children"]:
                walk(child)
        for root in tracer.to_obj():
            walk(root)


def nest(spans: list[tuple[str, int, int, int]]) -> list[dict]:
    """Sort spans by start and derive ``parent``, ``self_ns`` and the
    timed unit each belongs to (-1 outside any ``unit`` span)."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i][1], -spans[i][2]))
    out: list[dict] = []
    stack: list[dict] = []
    for i in order:
        name, start, end, n = spans[i]
        while stack and stack[-1]["end_ns"] < end:
            stack.pop()
        parent = stack[-1] if stack else None
        row = {"id": len(out), "parent": parent["id"] if parent else -1,
               "unit": (n if name == "unit"
                        else parent["unit"] if parent else -1),
               "name": name, "start_ns": start, "end_ns": end,
               "self_ns": end - start, "n": n}
        if parent is not None:
            parent["self_ns"] -= end - start
        out.append(row)
        stack.append(row)
    return out


def aggregate(rows: list[dict], scales: list[float]) -> dict[str, dict]:
    """Per span name: call count, summed work count, and total and
    self time in reference seconds (each span rescaled by its unit's
    factor).  Spans outside a timed unit are left out."""
    agg: dict[str, dict] = {}
    for row in rows:
        unit = row["unit"]
        if unit < 0 or unit >= len(scales):
            continue
        a = agg.setdefault(row["name"],
                           {"calls": 0, "n": 0, "total_s": 0.0,
                            "self_s": 0.0})
        factor = scales[unit] / 1e9
        a["calls"] += 1
        a["n"] += row["n"]
        a["total_s"] += (row["end_ns"] - row["start_ns"]) * factor
        a["self_s"] += row["self_ns"] * factor
    return agg


def layer_self_seconds(agg: dict[str, dict]) -> dict[str, float]:
    layers: dict[str, float] = {}
    for name, a in agg.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + a["self_s"]
    return layers


def write_ndjson(path, header: dict, rows: list[dict],
                 scales: list[float]) -> None:
    """One self-describing JSON object per line: a header, then every
    span in start order; ``unit`` spans carry their rescale factor."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(json.dumps({"kind": "header", **header}) + "\n")
        for row in rows:
            obj = {"kind": "span", **row}
            if row["name"] == "unit" and row["n"] < len(scales):
                obj["ref_scale"] = scales[row["n"]]
            out.write(json.dumps(obj) + "\n")


# --------------------------------------------------------------------------
# Counters and probes read outside the span stream
# --------------------------------------------------------------------------

def cow_copies() -> int | None:
    """The program's count of whole-dict CoW materialisations."""
    try:
        from repro.scilla import values
        return values.COW_COPIES
    except (ImportError, AttributeError):
        return None


def state_probe(net) -> dict[str, float]:
    """Stand-alone probe on the workload's live state: entries held in
    top-level maps, the cost of ``ContractState.fork()`` and of the
    first ``write()`` through a fresh fork of the largest map (the
    O(entries) half a bare fork timing leaves out).  Reference
    microseconds, median of five."""
    out = {"state.entries": 0, "state.fork_us": 0.0,
           "state.first_write_after_fork_us": 0.0}
    try:
        biggest = None
        for contract in net.contracts.values():
            for field, value in contract.state.fields.items():
                entries = getattr(value, "entries", None)
                if entries is None:
                    continue
                out["state.entries"] += len(entries)
                if biggest is None or len(entries) > len(biggest[2]):
                    biggest = (contract.state, field, entries)
        state, field, entries = biggest
        key = next(iter(entries))
        value = entries[key]
        forks, writes = [], []
        k0 = ref_kernel()
        for _ in range(5):
            t0 = _now()
            fork = state.fork()
            t1 = _now()
            fork.write((field, (key,)), value)
            t2 = _now()
            forks.append(t1 - t0)
            writes.append(t2 - t1)
        factor = scale(k0, ref_kernel()) / 1e3
        out["state.fork_us"] = median(forks) * factor
        out["state.first_write_after_fork_us"] = median(writes) * factor
    except (AttributeError, KeyError, TypeError, StopIteration) as exc:
        print(f"bench: state probe failed ({type(exc).__name__}: {exc}); "
              f"its metrics read 0", file=sys.stderr)
    return out


LAYERS = ("interpreter", "state", "recovery", "dispatch", "delta",
          "network", "mempool", "service", "serialization", "wal",
          "store")


def layer_metrics(agg: dict[str, dict], wl, *, tally: dict,
                  attempted: int, n_units: int, busy_s: float,
                  cow_copies: int | None) -> dict[str, float]:
    """Every per-layer metric except the harness's own.  Times are
    reference micro/milliseconds; a layer that did no work reads 0."""
    zero = {"calls": 0, "n": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name: str) -> dict:
        return agg.get(name, zero)

    def per(seconds: float, count: float, unit: float = 1e6) -> float:
        return seconds * unit / count if count else 0.0

    run = span("interpreter.run_transition")
    receipts = tally["committed"] + tally["failed"]
    compute, merge = span("delta.compute"), span("delta.merge")
    append, barrier = span("wal.append"), span("wal.barrier")
    save, drain = span("store.save"), span("mempool.drain")
    selfs = layer_self_seconds(agg)
    out = {
        "interpreter.us_per_tx": per(run["self_s"], run["calls"]),
        "interpreter.gas_per_tx": per(tally["gas"], receipts, 1),
        "interpreter.failed_share": per(tally["failed"], receipts, 1),
        "state.cow_copies_per_epoch": per(cow_copies or 0, n_units, 1),
        "state.cow_us_per_epoch":
            per(span("state.cow")["total_s"], n_units),
        "recovery.checkpoint_take_us":
            per(span("recovery.checkpoint_take")["total_s"],
                span("recovery.checkpoint_take")["calls"]),
        "dispatch.us_per_tx": per(span("dispatch.dispatch")["total_s"],
                                  span("dispatch.dispatch")["calls"]),
        "dispatch.sharded_share":
            1 - per(tally["to_ds"], tally["dispatched"], 1),
        "delta.compute_us_per_entry":
            per(compute["self_s"], compute["n"]),
        "delta.merge_us_per_entry": per(merge["self_s"], merge["n"]),
        "delta.entries_per_epoch": per(compute["n"], n_units, 1),
        "network.epoch_self_us_per_tx":
            per(selfs.get("network", 0.0), attempted),
        "network.ds_lane_share":
            per(span("network.ds_lane")["total_s"],
                span("network.epoch")["total_s"], 1),
        "mempool.submit_us_per_tx":
            per(span("mempool.submit")["total_s"],
                span("mempool.submit")["calls"]),
        "mempool.drain_us_per_tx": per(drain["total_s"], drain["n"]),
        "mempool.rejected_share": per(wl.refused, attempted, 1),
        "service.tick_self_us_per_tx":
            per(selfs.get("service", 0.0), attempted),
        "service.deferred_share": per(wl.deferred, attempted, 1),
        "serialization.tx_to_obj_us_per_tx":
            per(span("serialization.tx_to_obj")["total_s"],
                span("serialization.tx_to_obj")["calls"]),
        "wal.append_us_per_record":
            per(append["total_s"], append["calls"]),
        "wal.barrier_ms": per(barrier["total_s"], barrier["calls"], 1e3),
        "wal.barriers_per_tick": per(barrier["calls"], n_units, 1),
        "wal.bytes_per_tx": per(append["n"], attempted, 1),
        "store.snapshot_ms": per(save["total_s"], save["calls"], 1e3),
        "store.snapshots": save["calls"],
    }
    out.update(state_probe(wl.net))
    for layer in LAYERS:
        out[f"{layer}.busy_share"] = per(selfs.get(layer, 0.0), busy_s, 1)
    return out
