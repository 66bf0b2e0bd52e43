"""Per-layer ledger of the traced run: timing shims plus span digests.

The traced run measures each layer from outside the program:

* :class:`Ledger` wraps public entry points of each layer with timing
  shims that record calls, inclusive time and *self* time (inclusive time
  minus the time of shimmed calls nested inside), per layer.  Shims are
  installed only for the traced run and removed afterwards.
* :class:`SpanDigest` folds the spans of the program's own opt-in tracer
  (request, batch, engine and cycle-domain SoC spans) into queue waits,
  batch widths, engine busy time and simulated cycles per offload, while
  the run is going, so the trace never has to sit in memory whole.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

#: the layers self time is attributed to; "other" is everything no shim
#: covers (the asyncio loop, the batcher's coalescing, the load clients)
LAYERS = ("serving", "fabric", "compiler", "system", "core", "mesh", "materials", "snn")

#: every per-layer metric the traced run prints, with its unit
PER_LAYER = (
    ("serving.admit_us", "us"),
    ("serving.queue_wait_ms", "ms"),
    ("serving.batch_cols", "count"),
    ("serving.engine_ms", "ms"),
    ("serving.engine_busy_frac", "ratio"),
    ("serving.telemetry_us", "us"),
    ("serving.cache_hit_frac", "ratio"),
    ("system.offload_ms", "ms"),
    ("system.event_loop_ms", "ms"),
    ("system.events", "count"),
    ("system.dma_ms", "ms"),
    ("system.dma_words", "count"),
    ("system.bus_word_writes", "count"),
    ("system.sim_kcycles_per_s", "kcycles/s"),
    ("core.energy_model_builds", "count"),
    ("core.energy_model_us", "us"),
    ("materials.pcm_index_calls", "count"),
    ("core.apply_batch_ms", "ms"),
    ("mesh.program_ms", "ms"),
    ("snn.encode_us", "us"),
    ("snn.run_patterns_ms", "ms"),
    ("snn.stdp_ms", "ms"),
    ("snn.stdp_updates", "count"),
    ("snn.spikes_in", "count"),
    ("compiler.calibrate_s", "s"),
    ("compiler.compile_ms", "ms"),
    ("compiler.plan_run_ms", "ms"),
    ("compiler.predict_us", "us"),
    ("fabric.submit_us", "us"),
    ("fabric.gateway_cpu_us", "us"),
    ("fabric.worker_batch_cols", "count"),
    ("fabric.worker_busy_frac", "ratio"),
    ("cycles.offload", "cycles"),
    ("cycles.dma", "cycles"),
    ("cycles.compute", "cycles"),
    ("cycles.host", "cycles"),
    ("obs.trace_overhead_frac", "ratio"),
    ("load.p99_ms", "ms"),
    ("load.lag_p99_ms", "ms"),
) + tuple((f"self_frac.{layer}", "ratio") for layer in LAYERS + ("other",))


@dataclass
class CallStats:
    """Calls, inclusive and self seconds of one shimmed entry point."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    samples: Optional[List[float]] = None

    def mean(self, scale: float) -> float:
        """Mean inclusive time per call, times ``scale`` (0 when never called)."""
        return self.total_s / self.calls * scale if self.calls else 0.0

    def p50(self, scale: float) -> float:
        """Median inclusive time per call, times ``scale``."""
        return float(np.median(self.samples)) * scale if self.samples else 0.0


@dataclass
class Ledger:
    """Timing shims over the program's public entry points.

    ``install`` replaces each target with a wrapper; ``take`` returns the
    statistics gathered since the last ``take`` and starts afresh;
    ``uninstall`` puts every original back.
    """

    clock: Callable[[], float] = time.perf_counter
    stats: Dict[str, CallStats] = field(default_factory=dict)
    layer_self_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    reports: List[object] = field(default_factory=list)
    _stack: List[float] = field(default_factory=list)
    _restore: List[tuple] = field(default_factory=list)
    _sampled: set = field(default_factory=set)

    def wrap(
        self, owner, attr: str, name: str, sample: bool = False, keep: bool = False
    ) -> None:
        """Shim ``owner.attr``; its time goes to the layer before the first dot.

        ``sample`` keeps every call's duration (for medians); ``keep``
        appends each return value to :attr:`reports`.  An entry point the
        program no longer has is skipped, and its metrics read zero.
        """
        descriptor = owner.__dict__.get(attr)
        if descriptor is None:
            return
        original = getattr(owner, attr)
        layer = name.split(".")[0]
        stack, clock = self._stack, self.clock
        if sample:
            self._sampled.add(name)

        def shim(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats = self._stats(name)
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += own
                if stats.samples is not None:
                    stats.samples.append(elapsed)
                self.layer_self_s[layer] += own
            if keep:
                self.reports.append(result)
            return result

        # a classmethod read through the class is already bound: keep it so
        shim = staticmethod(shim) if isinstance(descriptor, classmethod) else shim
        setattr(owner, attr, shim)
        self._restore.append((owner, attr, descriptor))

    def _stats(self, name: str) -> CallStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = CallStats(
                samples=[] if name in self._sampled else None
            )
        return stats

    def install(self) -> "Ledger":
        """Shim every layer's entry points."""
        import repro.compiler
        from repro.compiler.costmodel import SoCCostModel
        from repro.compiler.execute import SoCPlan
        from repro.core.backends import AnalogPhotonicBackend
        from repro.core.energy import PhotonicCoreEnergyModel
        from repro.core.mvm import PhotonicMVM
        from repro.materials.pcm import PCMMaterial
        from repro.serving import FabricGateway, InferenceServer, SNNEngine
        from repro.serving.engine import InferenceEngine
        from repro.serving.telemetry import ServingTelemetry
        from repro.snn.network import PhotonicSNN
        from repro.system.bus import SystemBus
        from repro.system.dma import DMAEngine
        from repro.system.event import EventScheduler
        from repro.system.soc import PhotonicSoC

        self.wrap(InferenceServer, "submit_nowait", "serving.admit")
        self.wrap(InferenceEngine, "run_batch", "serving.run_batch")
        self.wrap(ServingTelemetry, "on_result", "serving.telemetry")
        self.wrap(FabricGateway, "submit_nowait", "fabric.submit")
        self.wrap(SoCCostModel, "calibrate", "compiler.calibrate")
        self.wrap(SoCCostModel, "predict_gemm", "compiler.predict")
        self.wrap(repro.compiler, "compile_for_soc", "compiler.compile")
        self.wrap(SoCPlan, "run", "compiler.plan_run")
        self.wrap(PhotonicSoC, "run_tiled_gemm", "system.offload", sample=True, keep=True)
        self.wrap(EventScheduler, "run", "system.event_loop")
        self.wrap(DMAEngine, "copy_to_scratchpad", "system.dma_in")
        self.wrap(DMAEngine, "copy_from_scratchpad", "system.dma_out")
        self.wrap(SystemBus, "write_word", "system.bus_write")
        self.wrap(PhotonicCoreEnergyModel, "__init__", "core.energy_model_build")
        self.wrap(PhotonicCoreEnergyModel, "inference_energy_j", "core.energy_model_eval")
        self.wrap(PhotonicMVM, "apply_batch", "core.apply_batch")
        self.wrap(AnalogPhotonicBackend, "engine_for", "mesh.program")
        self.wrap(PCMMaterial, "effective_index", "materials.pcm_index")
        self.wrap(SNNEngine, "encode", "snn.encode")
        self.wrap(PhotonicSNN, "run_patterns", "snn.run_patterns")
        self.wrap(PhotonicSNN, "apply_stdp_batch", "snn.stdp")
        return self

    def uninstall(self) -> None:
        """Restore every shimmed entry point."""
        for owner, attr, descriptor in reversed(self._restore):
            setattr(owner, attr, descriptor)
        self._restore.clear()

    def take(self) -> "Ledger":
        """Statistics since the last call, as a detached ledger; then reset."""
        taken = Ledger(
            stats=self.stats, layer_self_s=self.layer_self_s, reports=self.reports
        )
        self.stats, self.reports = {}, []
        self.layer_self_s = defaultdict(float)
        return taken

    def get(self, name: str) -> CallStats:
        """Statistics of one entry point (empty when it was never called)."""
        return self.stats.get(name) or CallStats()


class SpanDigest:
    """Folds finished spans of a :class:`~repro.obs.trace.Tracer` as they come.

    ``pull`` takes the tracer's finished spans and aggregates them; call
    it between slices of the traced window and once at the end.  Spans
    from worker processes (ingested by a fabric gateway) are kept apart
    from the local ones by their ``process`` label.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.local = tracer.process
        self.queue_wait_s: List[float] = []
        self.batch_cols = defaultdict(list)
        self.batch_s = defaultdict(float)
        self.engine_s = defaultdict(list)
        self.offload_cycles: List[tuple] = []
        self._request_start: Dict[str, float] = {}
        self._open_batches: List[tuple] = []

    def discard(self) -> None:
        """Drop everything finished so far (set-up and warm-up spans)."""
        self.tracer.finished = []

    def pull(self) -> None:
        """Aggregate and release the spans finished since the last pull."""
        spans, self.tracer.finished = self.tracer.finished, []
        for span in spans:
            name = span.name
            if name in ("request", "worker:request"):
                self._request_start[span.span_id] = span.start_wall
            elif name == "batch":
                self.batch_cols[span.process].append(span.attrs.get("batch_size", 0))
                self.batch_s[span.process] += span.duration_s
                self._open_batches.append((span.start_wall, span.links))
            elif name == "engine":
                self.engine_s[span.process].append(span.duration_s)
            elif name == "soc:offload":
                attrs = span.attrs
                dma = attrs.get("pipeline.dma_cycles", 0)
                compute = attrs.get("pipeline.compute_cycles", 0)
                host = attrs.get("pipeline.serial_cycles", 0) - dma - compute
                self.offload_cycles.append((attrs.get("cycles", 0), dma, compute, host))
        still_open = []
        for start, links in self._open_batches:
            # a request span ends after its batch (on the future's callback),
            # so a batch may wait one pull for its requests' start times
            if all(link in self._request_start for link in links):
                for link in links:
                    self.queue_wait_s.append(start - self._request_start.pop(link))
            else:
                still_open.append((start, links))
        self._open_batches = still_open

    def cycles_per_offload(self) -> Dict[str, float]:
        """Mean simulated cycles per offload: end to end, and each phase's total.

        DMA and compute are summed over every PE and tile, so they overlap
        each other and the end-to-end figure; host cycles are the
        driver's serial MMR programming and accumulation.
        """
        names = ("offload", "dma", "compute", "host")
        if not self.offload_cycles:
            return dict.fromkeys(names, 0.0)
        return dict(zip(names, map(float, np.mean(self.offload_cycles, axis=0))))
