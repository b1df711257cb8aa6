"""Hierarchical tracing of the query lifecycle.

A :class:`Span` is one timed region of work — parsing, an optimizer phase,
one execution-plan step, one XXL cursor — with free-form attributes and
child spans.  A :class:`Tracer` maintains the current span stack so the
layers of the middleware (facade, optimizer, engine) can nest their spans
without knowing about each other.

Spans are plain data: :meth:`Span.to_dict` renders a span tree as nested
dicts (JSON-ready), :meth:`Span.render` as an indented text tree.  The
Section 7 feedback loop consumes the same trees — transfer spans carry the
tuple/byte/second attributes that :func:`repro.core.engine.
observations_from_trace` turns into :class:`TransferObservation` values.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Span:
    """One timed, attributed region of work in a span tree."""

    name: str
    kind: str = "span"
    attributes: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    start: float = 0.0
    end: float | None = None
    #: Explicit duration for spans reconstructed after the fact (cursor
    #: spans built from finished executions); overrides ``end - start``.
    seconds: float | None = None
    #: The plan node a cursor span's cursor implements.  In-process only:
    #: the feedback loops and EXPLAIN ANALYZE read it; ``to_dict()`` and
    #: ``render()`` do not export it.
    node: object = field(default=None, repr=False, compare=False)

    @property
    def elapsed_seconds(self) -> float:
        if self.seconds is not None:
            return self.seconds
        if self.end is None:
            return 0.0
        return max(0.0, self.end - self.start)

    def set(self, **attributes) -> "Span":
        """Merge *attributes* into the span; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    def add_child(self, child: "Span") -> "Span":
        self.children.append(child)
        return child

    # -- queries ----------------------------------------------------------------------

    def iter(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter()

    def find(self, name: str | None = None, kind: str | None = None) -> "Span | None":
        """First span (pre-order) matching *name* and/or *kind*."""
        for span in self.iter():
            if (name is None or span.name == name) and (
                kind is None or span.kind == kind
            ):
                return span
        return None

    def find_all(self, name: str | None = None, kind: str | None = None) -> list["Span"]:
        return [
            span
            for span in self.iter()
            if (name is None or span.name == name)
            and (kind is None or span.kind == kind)
        ]

    # -- export -----------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Nested-dict form (structured, JSON-serializable)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "seconds": self.elapsed_seconds,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent: int = 0) -> str:
        """Indented text tree: name, duration, and key attributes."""
        pad = "  " * indent
        notes = "".join(
            f"  {key}={_fmt_value(value)}"
            for key, value in self.attributes.items()
            if key != "sql"
        )
        lines = [f"{pad}{self.name}  {self.elapsed_seconds * 1000:.3f}ms{notes}"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


#: Root spans a tracer retains (see :class:`Tracer`).
RETAINED_ROOTS = 1


class Tracer:
    """Produces span trees; tracks the current span across layers.

    A disabled tracer hands out a shared throwaway span and records
    nothing, so instrumented code needs no ``if tracing`` branches.
    :attr:`spans` retains the :data:`RETAINED_ROOTS` most recent root
    spans — ``QueryResult.trace`` is the published record; a tracer that
    kept every tree would grow for the life of its instance.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: The most recent root spans, oldest first.
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, kind: str = "span", **attributes):
        """Open a child span of the current span (or a new root)."""
        if not self.enabled:
            yield _NULL_SPAN
            return
        span = Span(name, kind, dict(attributes), start=time.perf_counter())
        self._adopt(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def attach(self, span: Span) -> None:
        """Adopt a prebuilt span (tree) as a child of the current span."""
        if self.enabled:
            self._adopt(span)

    def _adopt(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.spans.append(span)
            del self.spans[:-RETAINED_ROOTS]

    def last(self) -> Span | None:
        """The most recently completed root span."""
        return self.spans[-1] if self.spans else None

    def drain(self) -> list[Span]:
        """Return the completed root spans and clear the buffer."""
        spans, self.spans = self.spans, []
        return spans


class _NullSpan(Span):
    """What a disabled tracer hands out: shared by every thread, so what
    is ``set()`` on it is dropped, not stored."""

    def set(self, **attributes) -> "Span":
        return self


_NULL_SPAN = _NullSpan("null", kind="null")

#: A shared disabled tracer for code paths run without observability.
NULL_TRACER = Tracer(enabled=False)
