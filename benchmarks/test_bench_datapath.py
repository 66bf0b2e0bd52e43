"""Benchmarks for the zero-copy offload datapath.

Qualitative contract of the branch-fused GeMM lowering — the assertion CI
enforces, independent of machine speed because every figure is simulated
cycles:

* **Branch fusion beats sequential lowering where the model predicts
  it** — the multi-head graph compiles to one stacked offload instead of
  one per head, runs fewer total cycles at 2 and 4 PEs, stays bitwise
  exact, and the calibrated cost model's fused-vs-serial prediction
  agrees with the measured outcome.

The in-place K-shard datapath (strided descriptors reading operands where
they already live) is pinned by ``tests/test_system_tiled_pipeline.py``
(bitwise results, pipelining below the serial phase sum, the exact
main-memory write count) and measured under ``compiler.k_sharding`` in
``BENCH_throughput.json``.  ``python benchmarks/run_bench.py`` persists
the branch-fusion sweep under the ``soc_datapath`` section.
"""

import numpy as np

from benchmarks.conftest import cluster
from repro.compiler import SoCCostModel, compile_for_soc
from repro.eval import make_multi_head_graph


class TestBranchFusedLowering:
    def test_fused_plan_beats_sequential_and_model_agrees(self):
        graph = make_multi_head_graph(n_features=12, head_sizes=(3, 3, 3, 3), rng=2)
        columns = np.arange(12 * 2).reshape(12, 2) % 7 - 3
        reference = graph.reference_forward(columns).astype(np.int64)
        for n_pes in (2, 4):
            model = SoCCostModel.calibrate(cluster(n_pes))
            fused = compile_for_soc(
                graph, cluster(n_pes), cost_model=model, n_columns=2, cache=None
            )
            plain = compile_for_soc(
                graph, cluster(n_pes), cost_model=model, n_columns=2,
                fuse="never", cache=None,
            )
            assert np.array_equal(fused.run(columns), reference)
            assert np.array_equal(plain.run(columns), reference)
            steps = [s for s in fused.steps if s.kind == "fused-dense"]
            assert len(steps) == 1, "cost model declined fusion on this shape"
            assert fused.total_cycles < plain.total_cycles
            # the prediction that drove the decision matches the outcome
            step = steps[0]
            assert step.predicted_fused_cycles < step.predicted_serial_cycles

    def test_fusion_collapses_offload_count(self):
        graph = make_multi_head_graph(n_features=12, head_sizes=(3, 3, 3, 3), rng=2)
        model = SoCCostModel.calibrate(cluster(2))
        fused = compile_for_soc(
            graph, cluster(2), cost_model=model, n_columns=2, cache=None
        )
        plain = compile_for_soc(
            graph, cluster(2), cost_model=model, n_columns=2,
            fuse="never", cache=None,
        )
        columns = np.zeros((12, 2), dtype=np.int64)
        fused.run(columns)
        plain.run(columns)
        # trunk + fused heads vs trunk + four heads
        assert len(fused.reports) == 2
        assert len(plain.reports) == 5
