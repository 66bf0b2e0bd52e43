"""Contract benchmarks for the observability plane.

Three qualitative contracts of ``repro.obs``:

* tracing is near-free: a fully traced server (request spans, batch spans,
  engine spans, metrics) sustains at least 80% of untraced throughput on a
  service-time-dominated engine (``run_bench.py`` records ~1% overhead
  under the ``observability`` section and its quick mode asserts the 5%
  production contract; the floor here is deliberately generous against CI
  scheduler noise);
* tracing is invisible to results: served outputs and SoC cycle accounting
  are bitwise-identical with the tracer on or off;
* the exported Chrome trace validates and contains the full span hierarchy
  (request -> batch -> engine -> soc:offload -> pipeline phases).
"""

import asyncio

import numpy as np

from benchmarks.conftest import cluster, run_once
from repro.obs import (
    DriftMonitor,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
)
from repro.serving import (
    GemmEngine,
    InferenceServer,
    Replica,
    SoCGemmEngine,
    run_closed_loop,
)
from repro.serving.fabric import ComputeHeavyBackend
from repro.utils.rng import ensure_rng

SHAPE = (12, 12)
SERVICE_S = 0.002
N_CLIENTS = 4
REQUESTS_PER_CLIENT = 10
OVERHEAD_FLOOR = 0.80  # traced must keep >= 80% of untraced throughput
TIMING_RETRIES = 3


def measure_throughput(tracer, metrics) -> float:
    """Closed-loop saturation throughput of one compute-heavy replica."""
    weights = ensure_rng(0).normal(size=SHAPE)
    workload = ensure_rng(1).normal(size=(64, SHAPE[1]))

    async def drive():
        engine = GemmEngine(
            backend=ComputeHeavyBackend(service_s_per_column=SERVICE_S),
            weights=weights,
        )
        engine.compile(None)
        server = InferenceServer(
            [Replica("r0", engine, max_batch=8, max_queue_depth=64)],
            tracer=tracer,
            metrics=metrics,
        )
        async with server:
            report = await run_closed_loop(
                server,
                N_CLIENTS,
                REQUESTS_PER_CLIENT,
                lambda index: workload[index % len(workload)],
            )
        return report.achieved_hz

    return asyncio.run(drive())


def serve_soc(tracer):
    """Serve a fixed workload through a SoC engine; outputs + cycles back."""

    async def drive():
        engine = SoCGemmEngine(
            cluster(1), weights=ensure_rng(2).integers(-5, 6, size=(8, 6))
        )
        server = InferenceServer([Replica("r0", engine)], tracer=tracer)
        columns = ensure_rng(3).integers(-5, 6, size=(12, 6)).astype(float)
        async with server:
            outputs = await asyncio.gather(
                *(server.submit(column) for column in columns)
            )
        return np.stack(outputs), engine.offload_cycles

    return asyncio.run(drive())


def test_bench_tracing_overhead(benchmark):
    untraced = measure_throughput(None, None)
    best_ratio = 0.0
    for attempt in range(TIMING_RETRIES):
        if attempt == 0:
            traced = run_once(
                benchmark, measure_throughput, Tracer(process="server"),
                MetricsRegistry(),
            )
        else:
            traced = measure_throughput(Tracer(process="server"), MetricsRegistry())
        best_ratio = max(best_ratio, traced / untraced)
        if best_ratio >= OVERHEAD_FLOOR:
            break
    print(
        f"\ntracing overhead: untraced {untraced:.0f} req/s, "
        f"traced {untraced * best_ratio:.0f} req/s "
        f"({(1.0 - best_ratio) * 100:.1f}% overhead)"
    )
    assert best_ratio >= OVERHEAD_FLOOR


def test_bench_tracing_bitwise_parity():
    baseline_outputs, baseline_cycles = serve_soc(None)
    tracer = Tracer(process="server")
    traced_outputs, traced_cycles = serve_soc(tracer)

    assert np.array_equal(baseline_outputs, traced_outputs)
    assert baseline_cycles == traced_cycles

    # the traced run must also yield a valid, fully stitched Chrome trace
    names = {span.name for span in tracer.finished}
    assert {"request", "batch", "engine", "soc:offload", "soc:compute"} <= names
    n_events = validate_chrome_trace(chrome_trace(tracer.finished))
    assert n_events > len(tracer.finished)  # spans + metadata records


def test_bench_drift_monitor_flags_miscalibration():
    from repro.compiler import SoCCostModel

    model = SoCCostModel.calibrate(cluster(2))
    weights = ensure_rng(2).integers(-5, 6, size=(8, 6))
    columns = ensure_rng(3).integers(-5, 6, size=(6, 4)).astype(float)

    # well-calibrated: same topology as calibration -> no flag
    calm = DriftMonitor(threshold=0.10, min_samples=1)
    matched = SoCGemmEngine(
        cluster(2), weights=weights, cost_model=model, drift_monitor=calm
    )
    matched.run_batch(None, columns)
    assert calm.flags() == []

    # miscalibrated: serial 1-PE cluster against the 2-PE model -> flagged
    monitor = DriftMonitor(threshold=0.10, min_samples=1)
    drifted = SoCGemmEngine(
        cluster(1), weights=weights, cost_model=model, drift_monitor=monitor
    )
    drifted.run_batch(None, columns)
    flags = monitor.flags()
    assert len(flags) == 1
    assert flags[0].measured_mean > flags[0].predicted_mean
