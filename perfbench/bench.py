"""One benchmark run: set up, check, measure, and report one workload.

The untraced run (``trace=False``) prints the end-to-end metrics; the
traced run (``trace=True``) prints the per-layer ledger.  Both check every
output they get back and run the exact simulated reference phase.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from perfbench import drive
from perfbench.ledger import LAYERS, PER_LAYER, Ledger, SpanDigest
from perfbench.workloads import WORKLOADS, Workload, compile_reference, run_reference

#: set-ups per run: at least the first, and more until the second has
#: been spent setting up; ``setup_s`` is their median
SETUP_REPEATS = (3, 100)
SETUP_BUDGET_S = 1.0
#: untimed closed-loop warm-up before the timed phases
WARMUP_S = 0.5
#: share of ``--seconds`` spent in the saturated phase (the rest is paced)
SAT_SHARE = 0.3
#: both timed phases run as alternating slices of about this length, a
#: host probe between each; a slice's timings are scaled by the probes
#: around it (a host's slow spells last about a second)
SLICE_S = 0.25
#: the host probe's time on the reference host: timings are reported in
#: reference-host seconds, ``raw * PROBE_REF_S / probe``
PROBE_REF_S = 1e-3

END_TO_END = (
    ("tput_rps", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("sim_cycles_b16", "cycles"),
    ("sim_energy_nj", "nJ"),
    ("area_mm2", "mm2"),
)

clock = time.perf_counter


class Run:
    """Accumulates attempts, failures and correctness errors of one run."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def phase(self, result: drive.PhaseResult) -> None:
        """Count a timed phase and its output errors."""
        self.attempted += result.attempted
        self.failed += result.failed
        self.errors += result.errors
        if result.checked != result.attempted - result.failed:
            self.errors.append(f"{result.checked} outputs checked of {result.attempted}")

    def result(self, metrics: Dict[str, Tuple[float, str]]) -> Dict:
        """The final JSON object of the run (errors go to standard error)."""
        for error in self.errors:
            print(f"{self.name}: {error}", file=sys.stderr)
        return {
            "correct": not self.errors,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }


async def _sat(workload: Workload, seconds: float, first_index: int) -> drive.PhaseResult:
    """A closed-loop phase sized to last ``seconds`` at the nominal saturated rate."""
    requests = max(int(workload.sat_rate_hz * seconds), 2 * workload.clients)
    return await drive.closed_loop(
        workload.submit, workload.check, workload.clients, requests, first_index=first_index
    )


async def _reference(workload: Workload, rng: np.random.Generator, run: Run) -> Dict[str, float]:
    plan = getattr(workload, "plan", None) or compile_reference()
    sim, errors = run_reference(plan, rng)
    run.errors += errors
    return sim


def _settle() -> None:
    """Collect, then exempt what set-up allocated from later collections."""
    gc.collect()
    gc.freeze()


def _rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _slices(seconds: float) -> int:
    return max(int(round(seconds / SLICE_S)), 1)


def _host_factor(before_s: float, after_s: float) -> float:
    """Reference-host seconds per host second over a slice bracketed by probes."""
    return PROBE_REF_S / ((before_s + after_s) / 2)


async def measure(name: str, seed: int, seconds: float) -> Dict:
    """The untraced run: end-to-end metrics of one workload.

    Each timed phase runs as slices with a host probe between them, and
    every timing is scaled by its slice's host factor, so the figures are
    in seconds of the reference host (see ``PROBE_REF_S``); the paced
    rate is per reference-host second too.
    """
    cls = WORKLOADS[name]
    run = Run(name)
    rng = np.random.default_rng([seed, 1])
    setup_s, raw_setup_s = [], []
    workload = None
    least, most = SETUP_REPEATS
    probe = drive.host_probe()
    while len(setup_s) < least or (sum(raw_setup_s) < SETUP_BUDGET_S and len(setup_s) < most):
        if workload is not None:
            await workload.teardown()
        workload = cls(seed)
        started = clock()
        await workload.setup()
        raw_setup_s.append(clock() - started)
        after = drive.host_probe()
        setup_s.append(raw_setup_s[-1] * _host_factor(probe, after))
        probe = after
    run.errors += await workload.correctness_pass()
    sim = await _reference(workload, rng, run)

    await _sat(workload, WARMUP_S, first_index=1 << 20)
    _settle()
    sat_s = raw_sat_s = 0.0
    sat_done = 0
    latency, lag = [], []
    slices = _slices(seconds * SAT_SHARE)
    probe = drive.host_probe()
    for index in range(slices):
        first = (index + 2) << 24
        sat = await _sat(workload, seconds * SAT_SHARE / slices, first_index=first)
        after = drive.host_probe()
        factor = _host_factor(probe, after)
        run.phase(sat)
        sat_done += sat.completed
        raw_sat_s += sat.ended - sat.started
        sat_s += (sat.ended - sat.started) * factor
        # the trace is drawn in reference-host seconds and stretched to this
        # host's current speed, so a slow spell does not raise the load
        offsets = drive.poisson_offsets(
            workload.paced_rate_hz, seconds * (1 - SAT_SHARE) / slices, rng
        ) / _host_factor(after, after)
        paced = await drive.open_loop(
            workload.submit, workload.check, offsets, first_index=first + (1 << 23)
        )
        probe = drive.host_probe()
        factor = _host_factor(after, probe)
        run.phase(paced)
        latency.append(np.asarray(paced.latency_s) * factor)
        lag.append(np.asarray(paced.lag_s) * factor)
    await workload.teardown()

    completed = run.attempted - run.failed
    print(
        f"{name} seed={seed}: sat {sat_done} requests at {workload.clients} clients "
        f"({sat_done / raw_sat_s:.0f}/s on this host), paced {sum(map(len, lag))} at "
        f"{workload.paced_rate_hz:g}/s with latency p99 "
        f"{drive.grouped_percentile(latency, 99) * 1e3:.2f} ms and generator lag p99 "
        f"{drive.grouped_percentile(lag, 99) * 1e3:.2f} ms; "
        f"setup {np.median(raw_setup_s):.4f} s on this host; host factor {sat_s / raw_sat_s:.3f}"
    )
    metrics = {
        "tput_rps": (sat_done / sat_s, "1/s"),
        "p50_ms": (drive.grouped_percentile(latency, 50) * 1e3, "ms"),
        "p90_ms": (drive.grouped_percentile(latency, 90) * 1e3, "ms"),
        "ok_frac": (completed / max(run.attempted, 1), "ratio"),
        "setup_s": (float(np.median(setup_s)), "s"),
        "rss_mb": (_rss_mb(), "MB"),
    }
    metrics.update({key: (sim[key], unit) for key, unit in END_TO_END if key in sim})
    return run.result(metrics)


async def trace(name: str, seed: int, seconds: float) -> Dict:
    """The traced run: per-layer metrics of one workload.

    First an untraced stack measures saturated throughput (and, for the
    fabric, gateway CPU per request) and how late the open-loop generator
    runs at the paced rate; then a second stack runs with the program's
    tracer on and the ledger's shims installed.
    """
    from repro.obs import Tracer

    cls = WORKLOADS[name]
    run = Run(name)
    rng = np.random.default_rng([seed, 1])
    window_s = seconds / 2

    workload = cls(seed)
    await workload.setup()
    await _sat(workload, WARMUP_S, first_index=1 << 20)
    _settle()
    cpu_started = time.process_time()
    plain = await _sliced_sat(workload, window_s, run)
    gateway_cpu_s = time.process_time() - cpu_started
    offsets = drive.poisson_offsets(workload.paced_rate_hz, seconds / 4, rng)
    paced = await drive.open_loop(workload.submit, workload.check, offsets, first_index=1 << 21)
    run.phase(paced)
    await workload.teardown()

    ledger = Ledger().install()
    try:
        tracer = Tracer(prefix="bench", process="bench")
        workload = cls(seed, tracer=tracer)
        await workload.setup()
        setup = ledger.take()
        run.errors += await workload.correctness_pass()
        await _reference(workload, rng, run)
        reference = ledger.take()
        await _sat(workload, WARMUP_S, first_index=1 << 22)

        digest = SpanDigest(tracer)
        digest.discard()
        ledger.take()
        before = workload.engine_stats()
        soc = getattr(workload.engine, "soc", None)
        events_before = soc.scheduler.events_processed if soc else 0
        snn_before = _snn_counters(workload)
        traced = await _sliced_sat(workload, window_s, run, between=digest.pull)
        window = ledger.take()
        after = workload.engine_stats()
        events = (soc.scheduler.events_processed - events_before) if soc else 0
        snn_counts = {k: v - snn_before[k] for k, v in _snn_counters(workload).items()}
        await workload.teardown()
        digest.pull()
        worker_stats = _worker_engine_stats(workload)
    finally:
        ledger.uninstall()

    plain_tput = plain[0] / plain[1]
    completed, traced_s = traced
    traced_tput = completed / traced_s
    cache = worker_stats or {k: after[k] - before[k] for k in after}
    metrics = _layer_metrics(
        window, setup, reference, digest, traced_s, events, completed, snn_counts, cache
    )
    metrics["fabric.gateway_cpu_us"] = (
        gateway_cpu_s / plain[0] * 1e6 if name == "fabric-serve" else 0.0
    )
    metrics["obs.trace_overhead_frac"] = 1.0 - traced_tput / plain_tput
    for key, values in (("load.p99_ms", paced.latency_s), ("load.lag_p99_ms", paced.lag_s)):
        metrics[key] = drive.grouped_percentile([np.asarray(values)], 99) * 1e3
    shares = {key[len("self_frac."):]: value for key, value in metrics.items()
              if key.startswith("self_frac.")}
    top = max(LAYERS, key=lambda layer: shares[layer])
    print(
        f"{name} seed={seed}: untraced {plain_tput:.0f}/s, traced {traced_tput:.0f}/s; "
        f"top self-time layer: {top} ({shares[top]:.1%}; "
        f"unattributed loop/clients {shares['other']:.1%})"
    )
    units = dict(PER_LAYER)
    return run.result({key: (metrics[key], units[key]) for key, _ in PER_LAYER})


async def _sliced_sat(
    workload: Workload, seconds: float, run: Run, between=None
) -> Tuple[int, float]:
    """A saturated phase run as slices; returns (completed, seconds in slices).

    ``between`` runs after each slice, outside the timed window.
    """
    completed, elapsed = 0, 0.0
    slices = _slices(seconds)
    for index in range(slices):
        sat = await _sat(workload, seconds / slices, first_index=(index + 2) << 24)
        run.phase(sat)
        completed += sat.completed
        elapsed += sat.ended - sat.started
        if between is not None:
            between()
    return completed, elapsed


def _snn_counters(workload: Workload) -> Dict[str, int]:
    engine = workload.engine
    return {
        "spikes_in": getattr(engine, "spikes_in", 0),
        "stdp_updates": getattr(engine, "stdp_updates", 0),
    }


def _worker_engine_stats(workload: Workload) -> Dict[str, float]:
    """Lifetime engine counters a fabric worker shipped back at shutdown."""
    handles = getattr(workload.front, "handles", None)
    if not handles:
        return {}
    stats = handles[0].worker_stats or {}
    return dict(stats.get("engine", {}))


def _layer_metrics(
    window: Ledger,
    setup: Ledger,
    reference: Ledger,
    digest: SpanDigest,
    window_s: float,
    events: int,
    completed: int,
    snn_counts: Dict[str, int],
    cache: Dict[str, float],
) -> Dict[str, float]:
    offloads = window.get("system.offload").calls
    per_offload = 1.0 / offloads if offloads else 0.0
    reports = window.reports
    offload_s = window.get("system.offload").total_s
    sim_cycles = sum(report.cycles for report in reports)
    dma_words = sum(
        traffic.get("words_moved", 0)
        for report in reports for traffic in (report.dma or {}).values()
    )
    local, workers = digest.local, [p for p in digest.engine_s if p != digest.local]
    engine_local = digest.engine_s.get(local, [])
    engine_worker = [d for p in workers for d in digest.engine_s[p]]
    cols_local = digest.batch_cols.get(local, [])
    cols_worker = [c for p in workers for c in digest.batch_cols[p]]
    hits, compiles = cache.get("cache_hits", 0), cache.get("compiles", 0)
    energy_model_s = (
        window.get("core.energy_model_build").total_s
        + window.get("core.energy_model_eval").total_s
    )
    cycles = digest.cycles_per_offload()
    metrics = {
        "serving.admit_us": window.get("serving.admit").mean(1e6),
        "serving.queue_wait_ms": _p50_ms(digest.queue_wait_s),
        "serving.batch_cols": _mean(cols_local or cols_worker),
        "serving.engine_ms": _p50_ms(engine_local or engine_worker),
        "serving.engine_busy_frac": sum(engine_local or engine_worker) / window_s,
        "serving.telemetry_us": window.get("serving.telemetry").mean(1e6),
        "serving.cache_hit_frac": hits / (hits + compiles) if hits + compiles else 0.0,
        "system.offload_ms": window.get("system.offload").p50(1e3),
        "system.event_loop_ms": window.get("system.event_loop").total_s * 1e3 * per_offload,
        "system.events": events * per_offload,
        "system.dma_ms": (
            window.get("system.dma_in").total_s + window.get("system.dma_out").total_s
        ) * 1e3 * per_offload,
        "system.dma_words": dma_words * per_offload,
        "system.bus_word_writes": window.get("system.bus_write").calls * per_offload,
        "system.sim_kcycles_per_s": sim_cycles / offload_s / 1e3 if offload_s else 0.0,
        "core.energy_model_builds": window.get("core.energy_model_build").calls * per_offload,
        "core.energy_model_us": energy_model_s * 1e6 * per_offload,
        "materials.pcm_index_calls": window.get("materials.pcm_index").calls * per_offload,
        "core.apply_batch_ms": window.get("core.apply_batch").mean(1e3),
        "mesh.program_ms": setup.get("mesh.program").total_s * 1e3,
        "snn.encode_us": window.get("snn.encode").mean(1e6),
        "snn.run_patterns_ms": window.get("snn.run_patterns").mean(1e3),
        "snn.stdp_ms": window.get("snn.stdp").mean(1e3),
        "snn.stdp_updates": snn_counts["stdp_updates"] / completed,
        "snn.spikes_in": snn_counts["spikes_in"] / completed,
        "compiler.calibrate_s": setup.get("compiler.calibrate").total_s,
        "compiler.compile_ms": (
            setup.get("compiler.compile").total_s or reference.get("compiler.compile").total_s
        ) * 1e3,
        "compiler.plan_run_ms": reference.get("compiler.plan_run").mean(1e3),
        "compiler.predict_us": window.get("compiler.predict").total_s * 1e6 * per_offload,
        "fabric.submit_us": window.get("fabric.submit").mean(1e6),
        "fabric.worker_batch_cols": _mean(cols_worker),
        "fabric.worker_busy_frac": sum(engine_worker) / window_s,
        "cycles.offload": cycles["offload"],
        "cycles.dma": cycles["dma"],
        "cycles.compute": cycles["compute"],
        "cycles.host": cycles["host"],
    }
    # the batch span covers the batcher's own work around the engine call,
    # including the telemetry observers it notifies; charge the rest to serving
    self_s = dict(window.layer_self_s)
    batcher_s = digest.batch_s.get(local, 0.0) - sum(engine_local)
    if cols_local:
        batcher_s -= window.get("serving.telemetry").total_s
    self_s["serving"] = self_s.get("serving", 0.0) + max(batcher_s, 0.0)
    for layer in LAYERS:
        metrics[f"self_frac.{layer}"] = self_s.get(layer, 0.0) / window_s
    metrics["self_frac.other"] = 1.0 - sum(metrics[f"self_frac.{layer}"] for layer in LAYERS)
    return metrics


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _p50_ms(values_s) -> float:
    return float(np.median(values_s)) * 1e3 if len(values_s) else 0.0
