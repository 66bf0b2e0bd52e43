"""Serving telemetry: latency percentiles, throughput, queue depth, utilization.

One :class:`ServingTelemetry` instance observes a whole server: every
admission samples queue depth, every completion records end-to-end latency
(queue wait + batching wait + engine service), and rejections/expiries are
counted by outcome.  ``summary()`` returns the SLO dictionary the traffic
benchmarks persist; ``report()`` renders it through
:mod:`repro.eval.reporting` so serving numbers print in the same style as
the paper-experiment tables.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.eval.reporting import format_dict, format_table
from repro.obs.metrics import MetricsRegistry


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays into plain JSON types."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


#: per-replica counters, named ``serving.replica.<name>.<counter>``.
REPLICA_COUNTERS = ("completed", "expired", "cancelled", "failed", "batches", "fused_requests")
#: ``on_result`` outcome -> the replica counter it bumps (anything else: failed).
_OUTCOME_COUNTER = {"ok": "completed", "expired": "expired", "cancelled": "cancelled"}
_REPLICA_PREFIX = "serving.replica."


class ServingTelemetry:
    """Aggregated serving metrics for one server lifetime.

    Every value lives in ``metrics``, a
    :class:`~repro.obs.metrics.MetricsRegistry`, so what this class reports
    is exportable and mergeable like any metric; only the lifetime window
    rates are computed over (``started_at``/``stopped_at``) is kept here.
    Instruments: the counters ``serving.submitted``/``serving.rejected``;
    the bounded series ``serving.latency_s`` (``latencies``),
    ``serving.queue_depth`` (``queue_depth_samples``, one sample per
    admission) and ``serving.batch_size`` (``batch_sizes``); and per
    replica the :data:`REPLICA_COUNTERS` plus a ``latency_s`` series, under
    ``serving.replica.<name>.``.  Series keep memory O(1) in traffic;
    counters stay exact totals.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        self._submitted = self.metrics.counter("serving.submitted")
        self._rejected = self.metrics.counter("serving.rejected")
        self.latencies = self.metrics.series("serving.latency_s")
        self.queue_depth_samples = self.metrics.series("serving.queue_depth")
        self.batch_sizes = self.metrics.series("serving.batch_size")
        # replica name -> its registry instruments, so hooks skip the lookup
        self._replicas: Dict[str, Dict] = {}

    def _replica(self, name: str) -> Dict:
        """The registry instruments of replica ``name``, created on first use."""
        instruments = self._replicas.get(name)
        if instruments is None:
            prefix = f"{_REPLICA_PREFIX}{name}."
            instruments = {
                counter: self.metrics.counter(prefix + counter)
                for counter in REPLICA_COUNTERS
            }
            instruments["latency_s"] = self.metrics.series(prefix + "latency_s")
            self._replicas[name] = instruments
        return instruments

    def _replica_names(self) -> List[str]:
        """Every replica with instruments in the registry, sorted."""
        suffix = ".completed"
        return sorted(
            name[len(_REPLICA_PREFIX) : -len(suffix)]
            for name in self.metrics.names()
            if name.startswith(_REPLICA_PREFIX) and name.endswith(suffix)
        )

    def _replica_total(self, counter: str) -> int:
        return sum(
            int(self._replica(name)[counter].value) for name in self._replica_names()
        )

    # ------------------------------------------------------------------ #
    # event hooks (wired by the server)
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Open (or resume) the lifetime window rates are computed over."""
        if self.started_at is None:
            self.started_at = self.clock()
        # a restart after shutdown resumes the lifetime window; a frozen
        # stopped_at would silently corrupt throughput/utilization rates
        self.stopped_at = None

    def stop(self) -> None:
        """Freeze the lifetime window at the current clock reading."""
        self.stopped_at = self.clock()

    def on_admit(self, replica_name: str, pool_depth: int) -> None:
        """Count an admitted request and sample the pool queue depth."""
        self._submitted.inc()
        self.queue_depth_samples.add(int(pool_depth))
        self._replica(replica_name)

    def on_reject(self) -> None:
        """Count a request refused by admission control."""
        self._rejected.inc()

    def on_result(
        self, replica_name: str, latency_s: float, batch_size: int, outcome: str
    ) -> None:
        """Per-request outcome hook (matches the replica observer signature)."""
        instruments = self._replica(replica_name)
        instruments[_OUTCOME_COUNTER.get(outcome, "failed")].inc()
        # a non-finite latency (clock skew, injected test clocks) must
        # never poison the percentile windows with NaN/inf
        if outcome == "ok" and math.isfinite(latency_s):
            instruments["latency_s"].add(latency_s)
            self.latencies.add(latency_s)

    def on_batch(self, replica_name: str, batch_size: int) -> None:
        """Record one fused engine batch of ``batch_size`` requests."""
        instruments = self._replica(replica_name)
        instruments["batches"].inc()
        instruments["fused_requests"].inc(int(batch_size))
        self.batch_sizes.add(int(batch_size))

    # ------------------------------------------------------------------ #
    # derived metrics
    # ------------------------------------------------------------------ #
    @property
    def submitted(self) -> int:
        """Total requests admitted."""
        return int(self._submitted.value)

    @property
    def rejected(self) -> int:
        """Total requests refused by admission control (backpressure)."""
        return int(self._rejected.value)

    @property
    def completed(self) -> int:
        """Total requests completed successfully, across all replicas."""
        return self._replica_total("completed")

    @property
    def expired(self) -> int:
        """Total requests expired past their deadline, across all replicas."""
        return self._replica_total("expired")

    def elapsed_s(self) -> float:
        """Seconds of server lifetime (live-reading until stopped)."""
        if self.started_at is None:
            return 0.0
        end = self.stopped_at if self.stopped_at is not None else self.clock()
        return max(end - self.started_at, 0.0)

    def throughput_hz(self) -> float:
        """Completed requests per second of server lifetime."""
        elapsed = self.elapsed_s()
        return self.completed / elapsed if elapsed > 0 else 0.0

    def max_queue_depth(self) -> int:
        """All-time maximum admitted pool depth (survives ring eviction)."""
        return int(self.queue_depth_samples.peak)

    def utilization(self, replica_busy_s: Dict[str, float]) -> Dict[str, float]:
        """Per-replica engine-busy fraction of the server lifetime.

        A zero-lifetime window (server never started, or queried in the
        same clock tick it started) yields 0.0 utilization rather than a
        ZeroDivisionError; busy fractions are clamped to [0, 1].
        """
        elapsed = self.elapsed_s()
        if elapsed <= 0:
            return {name: 0.0 for name in replica_busy_s}
        return {
            name: min(max(busy, 0.0) / elapsed, 1.0)
            for name, busy in replica_busy_s.items()
        }

    def summary(self) -> Dict:
        """The SLO dictionary persisted by the traffic benchmarks.

        Latency statistics cover the retained ring window; ``count`` is
        the all-time total.
        """
        latencies = self.latencies
        p50_s, p95_s, p99_s = latencies.percentiles([50, 95, 99])
        return {
            "elapsed_s": self.elapsed_s(),
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "throughput_hz": self.throughput_hz(),
            "latency": {
                "count": latencies.total,
                "mean_ms": latencies.mean() * 1e3,
                "p50_ms": p50_s * 1e3,
                "p95_ms": p95_s * 1e3,
                "p99_ms": p99_s * 1e3,
            },
            "queue_depth": {
                "max": self.max_queue_depth(),
                "mean": self.queue_depth_samples.mean(),
            },
            "replicas": {
                name: self._replica_summary(self._replica(name))
                for name in self._replica_names()
            },
        }

    @staticmethod
    def _replica_summary(instruments: Dict) -> Dict:
        summary = {counter: int(instruments[counter].value) for counter in REPLICA_COUNTERS}
        fused, batches = summary.pop("fused_requests"), summary["batches"]
        p50_s, p99_s = instruments["latency_s"].percentiles([50, 99])
        summary["mean_batch"] = fused / batches if batches else 0.0
        summary["p50_ms"], summary["p99_ms"] = p50_s * 1e3, p99_s * 1e3
        return summary

    def to_snapshot(self, label: Optional[str] = None) -> Dict:
        """One queryable point of a telemetry trajectory (plain JSON types).

        The snapshot is the full :meth:`summary` dictionary stamped with
        the capture time (``captured_at``, on the telemetry clock) and an
        optional ``label`` (e.g. the offered load of the sweep point that
        produced it).  Everything is coerced to plain JSON scalars, so
        snapshots round-trip through :class:`TelemetryLog` unchanged —
        load tests persist one snapshot per measurement and become
        queryable trajectories instead of one-shot reports.
        """
        snapshot = _jsonable(self.summary())
        snapshot["captured_at"] = float(self.clock())
        if label is not None:
            snapshot["label"] = str(label)
        return snapshot

    def report(self, title: str = "serving telemetry") -> str:
        """Render the summary through the shared eval reporting helpers."""
        summary = self.summary()
        headline = {
            key: value
            for key, value in summary.items()
            if key not in ("latency", "queue_depth", "replicas")
        }
        headline.update({f"latency_{k}": v for k, v in summary["latency"].items()})
        headline.update({f"queue_{k}": v for k, v in summary["queue_depth"].items()})
        blocks = [format_dict(title, headline)]
        replicas = summary["replicas"]
        if replicas:
            headers = [
                "replica", "completed", "expired", "batches", "mean_batch",
                "p50_ms", "p99_ms",
            ]
            rows = [
                [
                    name,
                    stats["completed"],
                    stats["expired"],
                    stats["batches"],
                    stats["mean_batch"],
                    stats["p50_ms"],
                    stats["p99_ms"],
                ]
                for name, stats in replicas.items()
            ]
            blocks.append(format_table(headers, rows))
        return "\n\n".join(blocks)


class TelemetryLog:
    """Append-only JSONL persistence for telemetry snapshots.

    One snapshot per line, so long load tests stream their trajectory to
    disk without rewriting the file, and analysis tooling reads it back
    with one ``json.loads`` per line.  The log is deliberately dumb —
    no rotation, no schema — matching how the benchmark trajectories in
    ``BENCH_throughput.json`` are consumed.

    Attributes:
        path: the JSONL file (parent directories are created on first
            append).
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def append(self, snapshot: Dict) -> None:
        """Append one snapshot (anything JSON-serializable) as a line.

        The encoded line goes to disk in a single ``os.write`` on an
        ``O_APPEND`` descriptor, so concurrent appenders (fabric worker
        processes sharing one log) never interleave partial lines — the
        worst possible corruption is a torn *trailing* line from a killed
        process, which :meth:`read_all` tolerates.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = (json.dumps(_jsonable(snapshot), sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def read(self) -> List[Dict]:
        """All snapshots in append order ([] for a missing/empty file).

        Strict: raises ``json.JSONDecodeError`` on any corrupt line.  Use
        :meth:`read_all` when analysing logs that may have a torn tail.
        """
        if not self.path.exists():
            return []
        snapshots = []
        with self.path.open("r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if line:
                    snapshots.append(json.loads(line))
        return snapshots

    def read_all(
        self, return_errors: bool = False
    ) -> Union[List[Dict], Tuple[List[Dict], List[Tuple[int, str]]]]:
        """All parseable snapshots, skipping corrupt lines instead of raising.

        A process killed mid-append can leave a torn trailing line; this
        reader keeps every line that parses and skips the rest.  With
        ``return_errors=True`` it also returns ``(line_number, message)``
        pairs (1-based) describing each skipped line, so analysis can
        report corruption without dying on it.
        """
        snapshots: List[Dict] = []
        errors: List[Tuple[int, str]] = []
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as stream:
                for number, line in enumerate(stream, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        snapshots.append(json.loads(line))
                    except json.JSONDecodeError as exc:
                        errors.append((number, str(exc)))
        if return_errors:
            return snapshots, errors
        return snapshots

    def __len__(self) -> int:
        """Number of snapshots :meth:`read_all` returns (a torn tail is skipped)."""
        return len(self.read_all())
