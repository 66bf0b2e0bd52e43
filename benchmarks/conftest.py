"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one experiment described in README.md and
docs/ARCHITECTURE.md ("Where the numbers live"): it prints
the paper-style table/series (visible with ``pytest -s``) and asserts the
qualitative shape of the result (who wins, what degrades), so a benchmark
run doubles as a reproduction check.  Timings come from pytest-benchmark.
"""

import numpy as np
import pytest


@pytest.fixture
def bench_rng():
    """Deterministic generator shared by the benchmark workloads."""
    return np.random.default_rng(2024)


def run_once(benchmark, function, *args, **kwargs):
    """Benchmark a heavyweight function with a single round.

    The experiments are deterministic simulations (not microbenchmarks), so
    one round is enough for the timing column and keeps the full harness
    fast.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def measured_sharding_cycles(n_pes, weights, inputs, decision):
    """Simulated cycles of one GeMM under a sharding decision, exactly.

    Runs the offload on a *fresh* PE cluster (event-scheduler clocks are
    absolute per SoC, so measurements never mix), asserts the result is
    bitwise exact, and returns the end-to-end cycles.  Shared by the
    batch-aware sharding contract test and ``run_bench.py``'s
    ``compiler_dag`` collector.
    """
    from repro.system import PhotonicSoC

    soc = PhotonicSoC()
    for _ in range(n_pes):
        soc.add_photonic_accelerator()
    report = soc.run_tiled_gemm(
        weights, inputs,
        k_shards=decision.k_shards if decision.strategy == "k" else None,
    )
    assert np.array_equal(report.result, weights @ inputs)
    return report.cycles


async def timed_pool_plan_run(graph, profiles, max_wait_s, column, concurrency):
    """Wall-time of one pool-plan execution on a fresh 2-replica pool.

    Compiles ``graph`` for a pool whose batchers hold a ``max_wait_s``
    straggler window, runs it once under the given concurrency mode,
    asserts the output is bitwise identical to the graph's reference
    forward, and returns the elapsed seconds.  Shared by the
    branch-parallel contract test and ``run_bench.py``.
    """
    import time

    from repro.compiler import compile_for_pool
    from repro.serving import GemmEngine, InferenceServer, Replica

    replicas = [
        Replica(name, GemmEngine(name=name), max_wait_s=max_wait_s)
        for name in sorted(profiles)
    ]
    plan = compile_for_pool(
        graph, replicas, profiles=profiles, strategy="balanced", cache=None
    )
    want = graph.reference_forward(column)[:, 0]
    async with InferenceServer(replicas) as server:
        started = time.perf_counter()
        out = await plan.run(server, column, concurrency=concurrency)
        elapsed = time.perf_counter() - started
    assert np.array_equal(out, want)  # concurrency never changes results
    return elapsed
