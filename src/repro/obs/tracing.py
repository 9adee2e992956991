"""Span-based tracing with monotonic timings.

A :class:`Span` is a named ``[start_ns, end_ns]`` interval on the
``time.perf_counter_ns`` clock, with children strictly nested inside
it.  Spans are only ever created through :meth:`Tracer.span`, a
context manager, so the tree structure is enforced by scoping: a child
cannot outlive its parent, and every finished span hangs off exactly
one parent (or is a root).  One stack holds the open spans: the
process has one thread (DESIGN.md §3).

Export formats: :meth:`Tracer.to_obj` (JSON-able nested dicts, one per
finished root) and :meth:`Tracer.flame` (an indented flame-style text
tree with durations and percent-of-parent).

The disabled :data:`NULL_TRACER` hands out one shared no-op context
manager — entering it costs an empty function call, no clock read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    children: list["Span"] = dc_field(default_factory=list)

    @property
    def duration_ns(self) -> int:
        return max(self.end_ns - self.start_ns, 0)

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "children": [c.to_obj() for c in self.children],
        }


class _SpanContext:
    """The context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "span")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name
        self.span: Span | None = None

    def __enter__(self) -> Span:
        self.span = self._tracer._open(self._name)
        return self.span

    def __exit__(self, *exc) -> None:
        self._tracer._close(self.span)


class Tracer:
    """Collects finished span trees; ``_stack`` holds the open spans."""

    enabled = True

    def __init__(self):
        self._stack: list[Span] = []
        self.roots: list[Span] = []

    # -- recording ------------------------------------------------------------

    def span(self, name: str) -> _SpanContext:
        return _SpanContext(self, name)

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter_ns())
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        stack = self._stack
        assert stack and stack[-1] is span, "span closed out of order"
        stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def clear(self) -> None:
        self.roots = []

    # -- export ---------------------------------------------------------------

    def to_obj(self) -> list[dict]:
        return [root.to_obj() for root in self.roots]

    def flame(self, min_ratio: float = 0.0) -> str:
        """An indented text tree: name, milliseconds, %-of-parent.

        ``min_ratio`` prunes children below that fraction of their
        parent's duration (0 keeps everything).
        """
        lines: list[str] = []

        def walk(span: Span, depth: int, parent_ns: int) -> None:
            share = (span.duration_ns / parent_ns if parent_ns else 1.0)
            if depth and share < min_ratio:
                return
            pct = f" {100 * share:5.1f}%" if depth else ""
            lines.append(f"{'  ' * depth}{span.name:{max(40 - 2 * depth, 8)}s}"
                         f" {span.duration_ns / 1e6:10.3f} ms{pct}")
            for child in span.children:
                walk(child, depth + 1, span.duration_ns)

        for root in self.roots:
            walk(root, 0, 0)
        return "\n".join(lines)


# --------------------------------------------------------------------------
# The disabled implementation.
# --------------------------------------------------------------------------

class _NullSpanContext:
    __slots__ = ()
    span = None

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The disabled tracer: one shared no-op context manager."""

    enabled = False
    roots: list = []

    def span(self, name: str) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def to_obj(self) -> list:
        return []

    def flame(self, min_ratio: float = 0.0) -> str:
        return ""

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()
