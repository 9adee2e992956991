"""Zero-dependency observability for the CoSplit reproduction.

Two primitives, both off-by-default-cheap:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry`
  of counters, gauges and fixed-bucket histograms.  Snapshots are
  plain JSON-able dicts that restore exactly (so durable network
  snapshots carry their telemetry through a crash), and split into a
  *deterministic* subset that doubles as a differential-testing
  oracle: the deterministic counters must be byte-identical across
  runs of one workload and across a crash + resume
  (``tests/test_telemetry_differential.py``).

* :mod:`repro.obs.tracing` — a span-based :class:`Tracer` recording
  nested monotonic timings, exportable as a JSON trace or a
  flame-style text tree.

Disabled instruments (the default everywhere) are shared null objects
whose methods do nothing, so instrumented hot paths cost one attribute
lookup and an empty call — see ``benchmarks/test_obs_overhead.py``
for the enforced bound, and ``docs/OBSERVABILITY.md`` for the metric
catalogue and span hierarchy.
"""

from .metrics import (  # noqa: F401
    GAS_BUCKETS, NS_BUCKETS, NULL_REGISTRY, Counter, Gauge, Histogram,
    MetricsRegistry, NullRegistry,
)
from .tracing import NULL_TRACER, NullTracer, Span, Tracer  # noqa: F401
