"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one experiment described in README.md and
docs/ARCHITECTURE.md ("Where the numbers live"): it prints
the paper-style table/series (visible with ``pytest -s``) and asserts the
qualitative shape of the result (who wins, what degrades), so a benchmark
run doubles as a reproduction check.  Timings come from pytest-benchmark.
"""

import time

import numpy as np
import pytest

from repro.core.backends import IdealDigitalBackend
from repro.system import PhotonicSoC


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


def cluster(n_pes):
    """A fresh SoC with ``n_pes`` default photonic accelerators attached."""
    soc = PhotonicSoC()
    for _ in range(n_pes):
        soc.add_photonic_accelerator()
    return soc


class SlowDigitalBackend(IdealDigitalBackend):
    """Exact digital product with a fixed per-call service delay.

    Stands in for a congested or distant replica: functionally identical,
    physically slower — the case cost-based routing exists for.
    """

    name = "slow-digital"

    def __init__(self, delay_s: float = 0.003):
        self.delay_s = float(delay_s)

    def matmul(self, weights, inputs):
        time.sleep(self.delay_s)
        return super().matmul(weights, inputs)

    def schedule_latency_s(self, n_columns: int) -> float:
        return self.delay_s


def measured_sharding_cycles(n_pes, weights, inputs, decision):
    """Simulated cycles of one GeMM under a sharding decision, exactly.

    Runs the offload on a *fresh* PE cluster (event-scheduler clocks are
    absolute per SoC, so measurements never mix), asserts the result is
    bitwise exact, and returns the end-to-end cycles.  Shared by the
    batch-aware sharding contract test and ``run_bench.py``'s
    ``compiler_dag`` collector.
    """
    report = cluster(n_pes).run_tiled_gemm(
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
