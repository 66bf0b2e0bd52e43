"""Metrics registry: deterministic counters, gauges, histograms and series.

Instruments are process-local and cheap (a dict lookup plus an integer
add).  The serving front doors record into one registry each, owned by
their :class:`~repro.serving.telemetry.ServingTelemetry`
(``telemetry.metrics``).  :meth:`MetricsRegistry.snapshot` is plain JSON,
and :meth:`MetricsRegistry.merge` folds one registry's snapshot into
another, so registries from separate processes or runs can be combined.
Histogram buckets are fixed at construction (never adapted to data) and
series merge by appending in snapshot order, so merged snapshots and
replayed runs are bitwise comparable.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Default latency-style bucket upper bounds, in seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Default ring size of a :class:`Series`.
DEFAULT_MAX_SAMPLES = 100_000


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be finite and non-negative) to the counter."""
        if not 0.0 <= amount < math.inf:
            raise ValueError(
                f"counter {self.name!r} cannot decrease or take a non-finite step "
                f"(got {amount})"
            )
        self.value += amount

    def snapshot(self) -> Dict:
        """Plain-JSON state."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (queue depth, inflight count)."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)

    def snapshot(self) -> Dict:
        """Plain-JSON state."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with deterministic upper bounds.

    ``bounds`` are inclusive upper edges; one implicit overflow bucket
    catches everything above the last bound.  Bounds are frozen at
    construction so snapshots from different processes merge exactly.
    """

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} bounds must be sorted")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(bound) for bound in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> Dict:
        """Plain-JSON state (bounds + bucket counts + sum/count)."""
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, state: Dict) -> None:
        """Add a :meth:`snapshot` taken with the same bounds."""
        for i, count in enumerate(state["counts"]):
            self.counts[i] += int(count)
        self.sum += float(state["sum"])
        self.count += int(state["count"])


class Series:
    """A bounded ring of recent values with exact window statistics.

    Long-lived servers record one value per request; the ring keeps memory
    O(1) in traffic while means and percentiles stay exact over the
    retained window.  ``total`` counts, and ``peak`` is the largest of,
    every value ever recorded, so both survive eviction.
    """

    def __init__(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES):
        if max_samples < 1:
            raise ValueError(f"series {name!r} max_samples must be >= 1")
        self.name = name
        self.max_samples = int(max_samples)
        self.total = 0
        self.peak = 0.0
        self._values: List[float] = []
        self._cursor = 0

    def add(self, value: float) -> None:
        """Record one value, evicting the oldest once the ring is full."""
        value = float(value)
        if value > self.peak or not self.total:
            self.peak = value
        self.total += 1
        self._push(value)

    def _push(self, value: float) -> None:
        if len(self._values) < self.max_samples:
            self._values.append(value)
        else:
            self._values[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.max_samples

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> np.ndarray:
        """The retained window as a float array (ring order, not arrival order)."""
        return np.asarray(self._values, dtype=float)

    def mean(self) -> float:
        """Mean over the retained window; 0.0 when empty."""
        return float(np.mean(self.values)) if self._values else 0.0

    def percentiles(self, percentiles: Sequence[float]) -> List[float]:
        """Exact ``percentiles`` (0-100) over the retained window.

        Total by design: an empty window (a replica that has served
        nothing yet) yields zeros, never NaN or an exception.
        """
        if not self._values:
            return [0.0 for _ in percentiles]
        return [float(p) for p in np.percentile(self.values, list(percentiles))]

    def snapshot(self) -> Dict:
        """Plain-JSON state; ``values`` is the retained window, oldest first."""
        return {
            "type": "series",
            "max_samples": self.max_samples,
            "total": self.total,
            "peak": self.peak,
            "values": self._values[self._cursor:] + self._values[: self._cursor],
        }

    def merge(self, state: Dict) -> None:
        """Append a :meth:`snapshot`'s window, oldest first; combine total/peak.

        Appending in snapshot order keeps merges deterministic: merging A
        then B retains the same window as recording A's values, then B's.
        """
        total = int(state["total"])
        if total:
            peak = float(state["peak"])
            self.peak = max(self.peak, peak) if self.total else peak
        self.total += total
        for value in state["values"]:
            self._push(float(value))


class MetricsRegistry:
    """Named instrument registry with get-or-create semantics.

    Aggregation goes through :meth:`snapshot` on one side and
    :meth:`merge` on the other.
    """

    def __init__(self):
        self._instruments: Dict[str, object] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the histogram ``name`` (bounds fixed on first call)."""
        return self._get(name, Histogram, lambda: Histogram(name, bounds))

    def series(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES) -> Series:
        """Get or create the series ``name`` (ring size fixed on first call)."""
        return self._get(name, Series, lambda: Series(name, max_samples))

    def _get(self, name, kind, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(instrument).__name__}"
            )
        return instrument

    def names(self) -> List[str]:
        """Registered instrument names, sorted."""
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[object]:
        """The instrument registered under ``name``, or ``None``."""
        return self._instruments.get(name)

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-JSON snapshot of every instrument, keyed by name."""
        return {
            name: self._instruments[name].snapshot() for name in sorted(self._instruments)
        }

    def merge(self, snapshot: Dict[str, Dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one, atomically.

        Counters and histograms sum, series append (:meth:`Series.merge`)
        and gauges take the incoming value (last writer wins).  The whole
        snapshot is checked before anything changes, so a bad entry raises
        and leaves the registry as it was: an unknown type, a name
        registered here as another kind, histogram bounds that differ, or a
        counter value that is negative or not finite.
        """
        for name, state in snapshot.items():
            self._check_mergeable(name, state)
        for name, state in snapshot.items():
            kind = state["type"]
            if kind == "counter":
                self.counter(name).inc(float(state["value"]))
            elif kind == "gauge":
                self.gauge(name).set(float(state["value"]))
            elif kind == "histogram":
                self.histogram(name, state["bounds"]).merge(state)
            else:
                self.series(name, int(state["max_samples"])).merge(state)

    def _check_mergeable(self, name: str, state: Dict) -> None:
        """Raise if merging ``state`` under ``name`` would fail part-way."""
        kind = _KINDS.get(state.get("type"))
        if kind is None:
            raise ValueError(
                f"unknown instrument type {state.get('type')!r} for metric {name!r}"
            )
        existing = self._instruments.get(name)
        if existing is not None and not isinstance(existing, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(existing).__name__}"
            )
        if kind is Counter and not 0.0 <= float(state["value"]) < math.inf:
            raise ValueError(
                f"counter {name!r} snapshot value must be finite and >= 0 "
                f"(got {state['value']})"
            )
        if kind is Histogram:
            bounds = [float(bound) for bound in state["bounds"]]
            if existing is not None and list(existing.bounds) != bounds:
                raise ValueError(
                    f"histogram {name!r} bucket bounds differ between processes"
                )
            if bounds != sorted(bounds) or len(state["counts"]) != len(bounds) + 1:
                raise ValueError(f"histogram {name!r} snapshot buckets are malformed")
        if kind is Series and (
            int(state["max_samples"]) < 1 or len(state["values"]) > int(state["total"])
        ):
            raise ValueError(f"series {name!r} snapshot window is malformed")

    def merge_all(self, snapshots: Iterable[Dict[str, Dict]]) -> None:
        """Merge a sequence of per-process snapshots."""
        for snapshot in snapshots:
            self.merge(snapshot)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram, "series": Series}
