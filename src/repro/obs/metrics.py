"""Counters, gauges and fixed-bucket histograms.

Design constraints, in priority order:

1. **No-op when disabled.**  Instrumented code holds instrument
   handles; with the :data:`NULL_REGISTRY` those handles are shared
   null objects whose ``inc``/``set``/``observe`` bodies are ``pass``.
   Nothing allocates, nothing reads a clock.

2. **Deterministic counters.**  Every instrument declares whether its
   values are a pure function of the submitted workload
   (``deterministic=True``, the default) or may legitimately vary
   between runs — wall-clock durations, pool scheduling, WAL append
   counts across a resume.  :meth:`MetricsRegistry.snapshot` with
   ``deterministic_only=True`` yields exactly the reproducible subset,
   which differential tests compare byte-for-byte across runs and
   across a crash + resume.

3. **Exact round-trips.**  ``snapshot() → json → from_snapshot()``
   reproduces the registry exactly (all values are ints, floats and
   strings; a gauge carries a ``set`` flag and is restored only when
   it was written), which is how durable network snapshots carry
   telemetry across a crash (:mod:`repro.chain.store`).
"""

from __future__ import annotations

import json
from bisect import bisect_left

# Default bucket edges (upper bounds; +Inf is implicit).  Nanosecond
# buckets cover 1µs .. ~17min in powers of 4; gas buckets cover the
# interpreter's realistic per-transaction range.
NS_BUCKETS = tuple(1_000 * 4 ** i for i in range(16))
GAS_BUCKETS = (10, 25, 50, 100, 200, 400, 800, 1_600, 3_200, 6_400,
               12_800, 25_600)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "deterministic", "value")

    def __init__(self, name: str, deterministic: bool):
        self.name = name
        self.deterministic = deterministic
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_obj(self):
        return {"value": self.value, "deterministic": self.deterministic}


class Gauge:
    """A point-in-time value; remembers whether it was ever written."""

    __slots__ = ("name", "deterministic", "value", "set_")

    def __init__(self, name: str, deterministic: bool):
        self.name = name
        self.deterministic = deterministic
        self.value = 0
        self.set_ = False

    def set(self, value) -> None:
        self.value = value
        self.set_ = True

    def to_obj(self):
        return {"value": self.value, "set": self.set_,
                "deterministic": self.deterministic}


class Histogram:
    """Fixed upper-bound buckets plus count and sum.

    ``bounds`` are the inclusive upper edges; one overflow bucket
    (+Inf) is implicit, so ``counts`` has ``len(bounds) + 1`` cells.
    """

    __slots__ = ("name", "deterministic", "bounds", "counts", "count",
                 "sum")

    def __init__(self, name: str, bounds, deterministic: bool):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} needs sorted, "
                             f"non-empty bucket bounds")
        self.name = name
        self.deterministic = deterministic
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0

    def observe(self, value) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def observe_many(self, values) -> None:
        """``observe`` each of ``values`` in order."""
        bounds, counts = self.bounds, self.counts
        total = self.sum
        for value in values:
            counts[bisect_left(bounds, value)] += 1
            total += value
        self.count += len(values)
        self.sum = total

    def to_obj(self):
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "count": self.count, "sum": self.sum,
                "deterministic": self.deterministic}

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 < q <= 1) from the buckets.

        Linear interpolation inside the winning bucket; observations in
        the +Inf overflow bucket answer with the largest finite bound
        (a floor for the true value — the buckets cannot say more).
        """
        if not (0.0 < q <= 1.0):
            raise ValueError("quantile must be in (0, 1]")
        bounds, count = self.bounds, self.count
        if count <= 0:
            return 0.0
        rank = q * count
        cumulative = 0
        for i, cell in enumerate(self.counts):
            if cell == 0:
                continue
            previous = cumulative
            cumulative += cell
            if cumulative >= rank:
                if i >= len(bounds):      # +Inf overflow bucket
                    return float(bounds[-1])
                lower = float(bounds[i - 1]) if i > 0 else 0.0
                upper = float(bounds[i])
                return lower + (upper - lower) * (rank - previous) / cell
        return float(bounds[-1])  # pragma: no cover - cumulative==count


class MetricsRegistry:
    """A named collection of instruments.

    Registering an existing name returns the same instrument object
    (so modules can re-derive their handles idempotently); a name
    re-registered as a different kind — or a histogram with different
    bounds — is a programming error and raises.
    """

    enabled = True

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- registration ---------------------------------------------------------

    def _fresh(self, name: str, kind: str) -> None:
        for store, label in ((self._counters, "counter"),
                             (self._gauges, "gauge"),
                             (self._histograms, "histogram")):
            if label != kind and name in store:
                raise ValueError(f"{name!r} is already a {label}")

    def counter(self, name: str, deterministic: bool = True) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._fresh(name, "counter")
            instrument = self._counters[name] = Counter(name, deterministic)
        return instrument

    def gauge(self, name: str, deterministic: bool = True) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._fresh(name, "gauge")
            instrument = self._gauges[name] = Gauge(name, deterministic)
        return instrument

    def histogram(self, name: str, bounds,
                  deterministic: bool = True) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._fresh(name, "histogram")
            instrument = self._histograms[name] = \
                Histogram(name, bounds, deterministic)
        elif instrument.bounds != tuple(bounds):
            raise ValueError(f"histogram {name!r} re-registered "
                             f"with different bounds")
        return instrument

    # -- snapshots ------------------------------------------------------------

    def snapshot(self, deterministic_only: bool = False) -> dict:
        """A JSON-able image of every instrument, sorted by name.

        With ``deterministic_only`` the image is restricted to
        instruments whose values are a pure function of the workload —
        the byte-comparable subset.
        """
        def keep(instrument) -> bool:
            return instrument.deterministic or not deterministic_only

        return {
            "counters": {n: c.to_obj() for n, c in
                         sorted(self._counters.items()) if keep(c)},
            "gauges": {n: g.to_obj() for n, g in
                       sorted(self._gauges.items()) if keep(g)},
            "histograms": {n: h.to_obj() for n, h in
                           sorted(self._histograms.items()) if keep(h)},
        }

    def deterministic_snapshot(self) -> dict:
        return self.snapshot(deterministic_only=True)

    def merge_snapshot(self, obj: dict) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histograms add (missing instruments are created
        with the snapshot's determinism flag); gauges transfer only if
        the source gauge was actually set.
        """
        for name, data in obj.get("counters", {}).items():
            self.counter(name, data["deterministic"]) \
                .inc(data["value"])
        for name, data in obj.get("gauges", {}).items():
            gauge = self.gauge(name, data["deterministic"])
            if data["set"]:
                gauge.set(data["value"])
        for name, data in obj.get("histograms", {}).items():
            hist = self.histogram(name, data["bounds"],
                                  data["deterministic"])
            if hist.bounds != tuple(data["bounds"]):
                raise ValueError(f"histogram {name!r}: snapshot "
                                 f"bounds mismatch")
            for i, c in enumerate(data["counts"]):
                hist.counts[i] += c
            hist.count += data["count"]
            hist.sum += data["sum"]

    def reset_to(self, obj: dict) -> None:
        """Make this registry's values exactly match a snapshot.

        Existing instruments missing from the snapshot are zeroed;
        instruments only in the snapshot are created (a resume restores
        a restore point's telemetry this way, :mod:`repro.chain.store`).
        """
        self._zero()
        self.merge_snapshot(obj)

    def _zero(self) -> None:
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0
            gauge.set_ = False
        for hist in self._histograms.values():
            hist.counts = [0] * (len(hist.bounds) + 1)
            hist.count = 0
            hist.sum = 0

    @classmethod
    def from_snapshot(cls, obj: dict) -> "MetricsRegistry":
        registry = cls()
        registry.merge_snapshot(obj)
        return registry

    def clear(self) -> None:
        self._zero()

    # -- rendering ------------------------------------------------------------

    def to_json(self, deterministic_only: bool = False) -> str:
        return json.dumps(self.snapshot(deterministic_only),
                          sort_keys=True, indent=2)

    def to_text(self) -> str:
        """A human-oriented listing, one instrument per line."""
        snap = self.snapshot()
        lines: list[str] = []
        for name, data in snap["counters"].items():
            lines.append(f"{name:40s} {data['value']}")
        for name, data in snap["gauges"].items():
            shown = data["value"] if data["set"] else "-"
            lines.append(f"{name:40s} {shown}")
        for name, data in snap["histograms"].items():
            mean = data["sum"] / data["count"] if data["count"] else 0.0
            lines.append(f"{name:40s} count={data['count']} "
                         f"sum={data['sum']:.0f} mean={mean:.1f}")
        return "\n".join(lines)

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition format (v0.0.4)."""
        def sanitize(name: str) -> str:
            cleaned = "".join(c if c.isalnum() else "_" for c in name)
            return f"{prefix}_{cleaned}"

        snap = self.snapshot()
        lines: list[str] = []
        for name, data in snap["counters"].items():
            metric = sanitize(name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {data['value']}")
        for name, data in snap["gauges"].items():
            metric = sanitize(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {data['value']}")
        for name, data in snap["histograms"].items():
            metric = sanitize(name)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, count in zip(data["bounds"], data["counts"]):
                cumulative += count
                lines.append(f'{metric}_bucket{{le="{bound}"}} '
                             f'{cumulative}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {data["count"]}')
            lines.append(f"{metric}_sum {data['sum']}")
            lines.append(f"{metric}_count {data['count']}")
        return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------
# The disabled implementation: shared null objects, empty methods.
# --------------------------------------------------------------------------

class _NullInstrument:
    """Answers every instrument method with nothing, instantly."""

    __slots__ = ()
    name = "<null>"
    deterministic = False
    value = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def observe_many(self, values) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled registry: hands out :data:`NULL_INSTRUMENT` and
    empty snapshots.  ``enabled`` lets instrumented code skip clock
    reads and snapshot plumbing entirely."""

    enabled = False

    def counter(self, name: str, deterministic: bool = True):
        return NULL_INSTRUMENT

    def gauge(self, name: str, deterministic: bool = True):
        return NULL_INSTRUMENT

    def histogram(self, name: str, bounds, deterministic: bool = True):
        return NULL_INSTRUMENT

    def snapshot(self, deterministic_only: bool = False) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    deterministic_snapshot = snapshot

    def merge_snapshot(self, obj: dict) -> None:
        pass

    def reset_to(self, obj: dict) -> None:
        pass

    def clear(self) -> None:
        pass


NULL_REGISTRY = NullRegistry()
