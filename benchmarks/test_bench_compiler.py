"""Benchmarks for the model compiler: plan-vs-naive and cost-based routing.

Four qualitative contracts of the subsystem:

* **K-sharded plans beat naive serial execution** — a K-sharded GeMM on a
  2-PE cluster pipelines below the serial DMA + compute phase sum while
  staying bitwise exact, and a compiled multi-layer plan on the cluster
  beats the same model run naively on a single-PE SoC.
* **Cost-based routing beats round-robin on heterogeneous pools** — with
  one deliberately slow replica in a 3-replica pool, calibrated cost-based
  routing achieves strictly better p99 latency than round-robin at
  saturating offered load (round-robin keeps feeding the slow replica a
  third of the traffic).
* **Batch-aware sharding flips and wins** — for a calibrated 2-PE cluster
  there is a layer shape whose rows-vs-K decision differs between batch 1
  and batch 32, and at each batch width the chosen plan is measured
  faster (simulated cycles) than the plan chosen for the other width.
* **Branch-parallel dispatch beats sequential** — a fan-out DAG lowered
  onto a replica pool executes its independent branches concurrently
  (level dispatch overlaps the replicas' batching windows), beating the
  one-op-at-a-time baseline wall-clock while staying bitwise exact.

``python benchmarks/run_bench.py`` persists the quantitative sweeps into
``BENCH_throughput.json`` under the ``compiler`` and ``compiler_dag``
sections.
"""

import asyncio

import numpy as np

from benchmarks.conftest import (
    SlowDigitalBackend,
    cluster,
    measured_sharding_cycles,
    run_once,
    timed_pool_plan_run,
)
from repro.compiler import (
    ModelGraph,
    SoCCostModel,
    choose_sharding,
    compile_for_soc,
    profile_replicas,
    replica_cost_fn,
)
from repro.compiler.costmodel import ReplicaProfile
from repro.eval import make_fanout_graph, make_layer_stack
from repro.serving import (
    GemmEngine,
    InferenceServer,
    Replica,
    make_column_workload,
    poisson_arrival_times,
    run_open_loop,
)


def test_bench_k_sharded_plan_beats_naive_serial(benchmark, bench_rng):
    """Compiled 3-layer plan on 2 PEs vs naive single-PE serial execution."""
    mats = make_layer_stack([24, 32, 24, 16], rng=0)
    graph = ModelGraph.from_matrices(mats)
    columns = bench_rng.integers(-3, 4, size=(24, 4))

    def compiled_run():
        soc = cluster(2)
        cost_model = SoCCostModel.calibrate(soc)
        plan = compile_for_soc(graph, soc, cost_model=cost_model, cache=None)
        return plan, plan.run(columns)

    plan, planned = run_once(benchmark, compiled_run)

    naive_soc = cluster(1)
    naive = columns.astype(np.int64)
    naive_cycles = 0
    for weights in mats:
        report = naive_soc.run_tiled_gemm(weights, naive, tile_rows=weights.shape[0])
        naive = report.result
        naive_cycles += report.pipeline["serial_cycles"]
    assert np.array_equal(planned, naive)  # plan == naive, bit for bit
    assert plan.total_cycles < naive_cycles  # and strictly cheaper


def test_bench_k_sharding_overlap_contract(bench_rng):
    """K-sharded GeMM: exact, and pipelined below the serial phase sum."""
    weights = bench_rng.integers(-4, 5, size=(24, 32))
    inputs = bench_rng.integers(-4, 5, size=(32, 8))
    soc = cluster(2)
    report = soc.run_tiled_gemm(weights, inputs, k_shards=2)
    assert np.array_equal(report.result, weights @ inputs)
    assert report.pipeline["pipelined_cycles"] < report.pipeline["serial_cycles"]


def test_bench_batch_aware_sharding_flips_and_wins(bench_rng):
    """Batch width flips the rows-vs-K decision, and each choice wins its batch.

    The short-wide layer (M=2, K=16) on a calibrated 2-PE cluster: at
    batch 1 row sharding avoids the K-shard reduction; at batch 32 the
    duplicated input DMA of row sharding dominates and K-sharding wins.
    Both claims are checked against *measured* simulated cycles, not just
    the cost model's own predictions.
    """
    n_rows, n_inner = 2, 16
    soc = cluster(2)
    cost_model = SoCCostModel.calibrate(soc)
    narrow = choose_sharding(n_rows, n_inner, 1, 2, cost_model=cost_model)
    wide = choose_sharding(n_rows, n_inner, 32, 2, cost_model=cost_model)
    assert (narrow.strategy, narrow.k_shards) != (wide.strategy, wide.k_shards), (
        "expected the sharding decision to flip between batch 1 and batch 32"
    )

    weights = bench_rng.integers(-3, 4, size=(n_rows, n_inner))

    for n_cols, chosen, other in ((1, narrow, wide), (32, wide, narrow)):
        inputs = bench_rng.integers(-3, 4, size=(n_inner, n_cols))
        chosen_cycles = measured_sharding_cycles(2, weights, inputs, chosen)
        other_cycles = measured_sharding_cycles(2, weights, inputs, other)
        assert chosen_cycles < other_cycles, (
            f"batch {n_cols}: chose {chosen.strategy}/{chosen.k_shards} "
            f"({chosen_cycles} cycles) but {other.strategy}/{other.k_shards} "
            f"measured faster ({other_cycles} cycles)"
        )


def test_bench_branch_parallel_dispatch_beats_sequential(benchmark):
    """Level-parallel DAG dispatch < sequential on a fan-out graph, exactly.

    Four parallel dense branches lowered onto a 2-replica pool whose
    batchers hold a straggler window: sequential execution pays the window
    once per dense op (5x), level dispatch pays it once per level (2x).
    """
    n_features, n_branches = 8, 4
    max_wait_s = 0.01
    graph = make_fanout_graph(n_features, n_branches=n_branches, rng=0)
    profiles = {
        "r0": ReplicaProfile(name="r0", service_s=1e-4, macs=64),
        "r1": ReplicaProfile(name="r1", service_s=1e-4, macs=64),
    }
    column = np.linspace(-2, 2, n_features)

    def both():
        # wall-clock comparison: retry once before failing so a noisy
        # CI neighbor can't flake the ~2.5x margin
        for attempt in range(2):
            pair = tuple(
                asyncio.run(
                    timed_pool_plan_run(graph, profiles, max_wait_s, column, mode)
                )
                for mode in ("sequential", "levels")
            )
            if pair[1] < pair[0]:
                break
        return pair

    sequential_s, levels_s = run_once(benchmark, both)
    assert levels_s < sequential_s, (
        f"level dispatch ({levels_s * 1e3:.1f} ms) should beat sequential "
        f"({sequential_s * 1e3:.1f} ms) on independent branches"
    )


def test_bench_cost_based_routing_beats_round_robin(benchmark):
    """p99 latency: cost-based < round-robin on a heterogeneous 3-replica pool."""
    shape = (12, 12)
    n_requests = 90
    weights = np.random.default_rng(0).normal(size=shape)

    def make_pool():
        return [
            Replica("fast0", GemmEngine(weights=weights, name="fast0"),
                    max_queue_depth=256),
            Replica("fast1", GemmEngine(weights=weights, name="fast1"),
                    max_queue_depth=256),
            Replica(
                "slow",
                GemmEngine(
                    backend=SlowDigitalBackend(delay_s=0.003),
                    weights=weights,
                    name="slow",
                ),
                max_queue_depth=256,
            ),
        ]

    async def measure(policy):
        replicas = make_pool()
        cost_fn = None
        if policy == "cost-based":
            cost_fn = replica_cost_fn(profile_replicas(replicas, repeats=2))
        async with InferenceServer(replicas, policy=policy, cost_fn=cost_fn) as server:
            offered_hz = 2000.0  # saturating: far beyond the slow replica
            trace = poisson_arrival_times(offered_hz, n_requests, rng=1)
            workload = make_column_workload(shape[1], n_requests, rng=2)
            report = await run_open_loop(
                server, trace, workload, offered_rate_hz=offered_hz
            )
        return report.telemetry["latency"]["p99_ms"]

    def both():
        # wall-clock comparison: retry once before failing so a noisy
        # CI neighbor can't flake the ~10x margin
        for attempt in range(2):
            pair = (
                asyncio.run(measure("round-robin")),
                asyncio.run(measure("cost-based")),
            )
            if pair[1] < pair[0]:
                break
        return pair

    round_robin_p99, cost_based_p99 = run_once(benchmark, both)
    assert cost_based_p99 < round_robin_p99, (
        f"cost-based p99 {cost_based_p99:.2f} ms should beat "
        f"round-robin p99 {round_robin_p99:.2f} ms"
    )
