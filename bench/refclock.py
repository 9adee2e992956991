"""The benchmark's wall clock: raw seconds rescaled to reference seconds.

The sandbox drifts between machine states that last from seconds to
tens of minutes: compute-bound Python runs up to 1.6x slower in some,
work that walks a large heap up to 1.4x slower in others, and the two
do not move together.  Raw wall time of the same work spreads 40-110%
(max-min over median) across an hour.  Every timed unit is therefore
bracketed by a fixed pure-Python kernel and its duration rescaled by
how fast the kernel ran next to it::

    ref_s = raw_s * REF_SECONDS / mean(kernel_before, kernel_after)

The kernel has a compute part (small-dict arithmetic that stays in
cache, about 2.4 ms) and a memory part (a comprehension copy of a
40 000-entry dict of boxed values, the access pattern of a CoW map
copy, about 4.1 ms).  The study behind that choice is in
bench/README.md.  A machine on which the kernel takes exactly
REF_SECONDS reports raw seconds unchanged.
"""

from __future__ import annotations

import functools
import time

COMPUTE_ITERS = 20_000
HEAP_ENTRIES = 40_000
REF_SECONDS = 0.0065


class _Box:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


@functools.cache
def _heap() -> dict[str, _Box]:
    return {f"0x{i:040x}": _Box(i) for i in range(HEAP_ENTRIES)}


def ref_kernel() -> float:
    """Run the reference kernel once; return its raw duration in s."""
    heap = _heap()
    d: dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(COMPUTE_ITERS):
        d[i & 1023] = d.get(i & 1023, 0) + i
    copied = {k: (v.value if type(v) is int else v)
              for k, v in heap.items()}
    elapsed = time.perf_counter() - t0
    del copied
    return elapsed


def scale(kernel_before: float, kernel_after: float) -> float:
    """Factor turning raw seconds measured between the two kernel
    runs into reference seconds."""
    return REF_SECONDS / ((kernel_before + kernel_after) / 2)


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0-100) by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
