"""Spans and trace context: deterministic request-scoped tracing.

A :class:`Tracer` mints trace IDs from a process-local counter (never from
RNG — tracing must not perturb seeded streams) and records
:class:`Span` objects carrying *both* wall-clock and simulated-cycle
timestamps, so serving-layer spans and SoC offload phases share one
timeline even though the fabric re-anchors clocks per process.

Spans support a single ``parent_id`` plus multi-parent ``links`` — a fused
micro-batch span links every request span it coalesced.  Finished spans
serialize to plain JSON dictionaries (:meth:`Span.to_dict`), cross the
fabric's pickle pipes via :meth:`Tracer.drain` / :meth:`Tracer.ingest`,
and export to Chrome ``trace_event`` JSON through :mod:`repro.obs.export`.

The disabled path is :data:`NULL_TRACER` (or plain ``None``): components
guard every tracing site with ``if self.tracer:``, which both fail, so
the overhead of tracing-off is one truthiness check per call site.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one span: ``(trace_id, span_id)``.

    This is what crosses process and socket boundaries — a child span on
    the far side records ``span_id`` as its ``parent_id`` and joins the
    same ``trace_id``.
    """

    trace_id: str
    span_id: str

    def to_dict(self) -> Dict[str, str]:
        """Plain-JSON form for wire headers and pipe messages."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload: Optional[Dict]) -> Optional["TraceContext"]:
        """Rebuild a context from :meth:`to_dict` output (``None`` passes through)."""
        if payload is None:
            return None
        return cls(trace_id=str(payload["trace_id"]), span_id=str(payload["span_id"]))


@dataclass
class Span:
    """One timed operation in a trace.

    Attributes:
        name: operation label (``request``, ``batch``, ``engine``,
            ``soc:dma``...).
        trace_id: the request-scoped trace this span belongs to.
        span_id: unique id within the trace (deterministic counter-minted).
        parent_id: the enclosing span, or ``None`` for a root.
        links: additional parent span ids (a batch span links every fused
            request span).
        process: process-level grouping label (``server``, ``gateway``,
            ``worker:w0``) — the Chrome trace ``pid`` track.
        track: thread-level grouping label within the process — the ``tid``.
        start_wall / end_wall: wall-clock timestamps (tracer clock), or
            ``None`` for cycle-domain-only spans.
        start_cycle / end_cycle: simulated-cycle timestamps, or ``None``
            for wall-domain-only spans.
        attrs: flat JSON-safe attribute dictionary.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    links: Tuple[str, ...] = ()
    process: str = "main"
    track: str = "main"
    start_wall: Optional[float] = None
    end_wall: Optional[float] = None
    start_cycle: Optional[int] = None
    end_cycle: Optional[int] = None
    attrs: Dict = field(default_factory=dict)

    @property
    def context(self) -> TraceContext:
        """The propagatable ``(trace_id, span_id)`` identity of this span."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def duration_s(self) -> Optional[float]:
        """Wall-clock duration, or ``None`` when either endpoint is missing."""
        if self.start_wall is None or self.end_wall is None:
            return None
        return self.end_wall - self.start_wall

    def to_dict(self) -> Dict:
        """Plain-JSON form (pipe/pickle-safe and :mod:`json`-serializable)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "links": list(self.links),
            "process": self.process,
            "track": self.track,
            "start_wall": self.start_wall,
            "end_wall": self.end_wall,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        return cls(
            name=payload["name"],
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            links=tuple(payload.get("links", ())),
            process=payload.get("process", "main"),
            track=payload.get("track", "main"),
            start_wall=payload.get("start_wall"),
            end_wall=payload.get("end_wall"),
            start_cycle=payload.get("start_cycle"),
            end_cycle=payload.get("end_cycle"),
            attrs=dict(payload.get("attrs", {})),
        )


class NullTracer:
    """The no-op tracer: falsy, every method does nothing.

    Lets call sites hold ``tracer = tracer or NULL_TRACER`` and still
    guard hot paths with a single ``if self.tracer:`` truthiness check —
    both ``None`` and :class:`NullTracer` disable tracing.
    """

    def __bool__(self) -> bool:
        """Falsy: ``if tracer:`` skips every tracing site."""
        return False

    def new_trace(self) -> None:
        """No-op."""
        return None

    def start_span(self, *args, **kwargs) -> None:
        """No-op."""
        return None

    def end_span(self, *args, **kwargs) -> None:
        """No-op."""
        return None

    def drain(self) -> List[Dict]:
        """No spans to drain."""
        return []

    def ingest(self, span_dicts) -> None:
        """No-op."""
        return None

    @property
    def current(self) -> None:
        """No active span."""
        return None


#: Shared no-op tracer instance.
NULL_TRACER = NullTracer()

ParentLike = Union[TraceContext, Span, None]


def _parent_context(parent: ParentLike) -> Optional[TraceContext]:
    if parent is None:
        return None
    if isinstance(parent, Span):
        return parent.context
    return parent


class Tracer:
    """Deterministic span recorder for one process.

    IDs are minted from monotone counters under a per-tracer ``prefix``
    (the worker name in the fabric), so ids are unique across processes
    without any randomness and a replayed run produces an identical trace.

    Attributes:
        prefix: id namespace (``"t"`` for a lone server, worker name in a
            fabric).
        process: default ``Span.process`` label for spans started here.
        clock: injectable wall clock (tests pass fakes).
        finished: completed spans, in completion order (includes ingested
            spans from other processes).
    """

    def __init__(
        self,
        prefix: str = "t",
        process: str = "main",
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.prefix = str(prefix)
        self.process = str(process)
        self.clock = clock
        self.finished: List[Span] = []
        self._next_trace = 0
        self._next_span = 0
        self._stack: List[Span] = []

    # ------------------------------------------------------------------ #
    # id minting
    # ------------------------------------------------------------------ #
    def new_trace(self) -> str:
        """Mint a new request-scoped trace id."""
        trace_id = f"{self.prefix}-t{self._next_trace:06d}"
        self._next_trace += 1
        return trace_id

    def _new_span_id(self) -> str:
        span_id = f"{self.prefix}-s{self._next_span:06d}"
        self._next_span += 1
        return span_id

    # ------------------------------------------------------------------ #
    # span lifecycle
    # ------------------------------------------------------------------ #
    def start_span(
        self,
        name: str,
        parent: ParentLike = None,
        trace_id: Optional[str] = None,
        links: Sequence[str] = (),
        track: str = "main",
        process: Optional[str] = None,
        attrs: Optional[Dict] = None,
        wall: Optional[float] = None,
        cycle: Optional[int] = None,
    ) -> Span:
        """Open a span; the trace id comes from ``parent``/``trace_id`` or is minted.

        ``wall`` defaults to the tracer clock; pass ``wall=False``-like
        ``None`` plus an explicit ``cycle`` for cycle-domain-only spans
        via :meth:`add_span` instead.
        """
        context = _parent_context(parent)
        if trace_id is None:
            trace_id = context.trace_id if context is not None else self.new_trace()
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=self._new_span_id(),
            parent_id=context.span_id if context is not None else None,
            links=tuple(links),
            process=process if process is not None else self.process,
            track=track,
            start_wall=wall if wall is not None else self.clock(),
            start_cycle=cycle,
            attrs=dict(attrs or {}),
        )
        return span

    def end_span(
        self,
        span: Optional[Span],
        wall: Optional[float] = None,
        cycle: Optional[int] = None,
        attrs: Optional[Dict] = None,
    ) -> None:
        """Close a span and move it to :attr:`finished` (``None`` is a no-op)."""
        if span is None:
            return
        if attrs:
            span.attrs.update(attrs)
        span.end_wall = wall if wall is not None else self.clock()
        if cycle is not None:
            span.end_cycle = cycle
        self.finished.append(span)

    def add_span(
        self,
        name: str,
        parent: ParentLike = None,
        trace_id: Optional[str] = None,
        links: Sequence[str] = (),
        track: str = "main",
        process: Optional[str] = None,
        attrs: Optional[Dict] = None,
        start_wall: Optional[float] = None,
        end_wall: Optional[float] = None,
        start_cycle: Optional[int] = None,
        end_cycle: Optional[int] = None,
    ) -> Span:
        """Record an already-timed span (e.g. cycle-domain SoC phases)."""
        context = _parent_context(parent)
        if trace_id is None:
            trace_id = context.trace_id if context is not None else self.new_trace()
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=self._new_span_id(),
            parent_id=context.span_id if context is not None else None,
            links=tuple(links),
            process=process if process is not None else self.process,
            track=track,
            start_wall=start_wall,
            end_wall=end_wall,
            start_cycle=start_cycle,
            end_cycle=end_cycle,
            attrs=dict(attrs or {}),
        )
        self.finished.append(span)
        return span

    @contextmanager
    def span(self, name: str, **kwargs):
        """Context manager: start a span, activate it, end it on exit."""
        span = self.start_span(name, **kwargs)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self.end_span(span)

    # ------------------------------------------------------------------ #
    # the current-span stack (single-threaded inline execution)
    # ------------------------------------------------------------------ #
    @property
    def current(self) -> Optional[Span]:
        """The innermost active span (engines attach SoC children here)."""
        return self._stack[-1] if self._stack else None

    def push(self, span: Span) -> None:
        """Activate a span (make it :attr:`current`)."""
        self._stack.append(span)

    def pop(self) -> Optional[Span]:
        """Deactivate the innermost active span."""
        return self._stack.pop() if self._stack else None

    # ------------------------------------------------------------------ #
    # cross-process shipping
    # ------------------------------------------------------------------ #
    def drain(self) -> List[Dict]:
        """Remove and return every finished span as plain dictionaries.

        The fabric's worker ships drained spans over the pipe with each
        result message (and any stragglers with its ``bye``); the gateway
        re-ingests them so one tracer holds the stitched trace.
        """
        spans = [span.to_dict() for span in self.finished]
        self.finished.clear()
        return spans

    def ingest(self, span_dicts: Optional[Iterable[Dict]]) -> None:
        """Adopt finished spans shipped from another process's tracer."""
        if not span_dicts:
            return
        for payload in span_dicts:
            self.finished.append(Span.from_dict(payload))

    def spans_named(self, name: str) -> List[Span]:
        """Finished spans with the given name (test/analysis helper)."""
        return [span for span in self.finished if span.name == name]


def attach_soc_report(
    tracer: Tracer,
    report,
    parent: ParentLike,
    end_cycle: Optional[int] = None,
    process: Optional[str] = None,
) -> List[Span]:
    """Attach a ``WorkloadReport``'s phases as cycle-domain child spans.

    Creates one ``soc:offload`` span covering the report's cycle window
    plus one child per measured pipeline phase (``soc:dma``,
    ``soc:compute`` and, for K-sharded runs, ``soc:accumulate``).  Phase
    spans carry aggregate phase durations laid out from the offload
    start — DMA/compute genuinely overlap inside the double-buffered
    pipeline, which is exactly what the flame chart shows when the two
    phase tracks overlap; per-event resolution comes from the
    :class:`~repro.system.event.EventScheduler` trace exporter instead.

    Args:
        tracer: the live tracer (callers guard with ``if tracer:``).
        report: the :class:`~repro.system.soc.WorkloadReport` to attach.
        parent: enclosing span/context (normally the engine span).
        end_cycle: absolute scheduler cycle at the end of the offload
            (defaults to ``report.cycles``, i.e. a zero-based window).
        process: override the process label (defaults to the tracer's).

    Returns:
        The created spans, offload span first.
    """
    cycles = int(report.cycles)
    end = int(end_cycle) if end_cycle is not None else cycles
    start = end - cycles
    attrs = {
        "label": report.label,
        "cycles": cycles,
        "energy_j": float(report.energy_j),
    }
    pipeline = dict(report.pipeline or {})
    attrs.update({f"pipeline.{key}": int(value) for key, value in pipeline.items()})
    for engine_name, traffic in (report.dma or {}).items():
        for key, value in traffic.items():
            attrs[f"dma.{engine_name}.{key}"] = int(value)
    offload = tracer.add_span(
        "soc:offload",
        parent=parent,
        track="soc",
        process=process,
        start_cycle=start,
        end_cycle=end,
        attrs=attrs,
    )
    spans = [offload]
    phase_layout = [
        ("soc:dma", "dma_cycles", start),
        ("soc:compute", "compute_cycles", start),
    ]
    accumulate = int(pipeline.get("accumulate_cycles", 0))
    if accumulate:
        phase_layout.append(("soc:accumulate", "accumulate_cycles", end - accumulate))
    for name, key, phase_start in phase_layout:
        duration = int(pipeline.get(key, 0))
        if duration <= 0:
            continue
        spans.append(
            tracer.add_span(
                name,
                parent=offload,
                track=name,
                process=process,
                start_cycle=phase_start,
                end_cycle=phase_start + duration,
                attrs={"cycles": duration},
            )
        )
    return spans
