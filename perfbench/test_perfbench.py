"""Tests of the benchmark itself: its load driver, metric names and checks."""

import asyncio
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import drive
from perfbench.bench import END_TO_END
from perfbench.ledger import PER_LAYER
from perfbench.workloads import POOL, WORKLOADS, FabricServe, SNNLearn, SoCServe

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_injected_stall_shows_in_due_time_latency():
    """A 50 ms loop stall delays every request due during it, and lags the generator."""
    stall_s = 0.05

    async def scenario():
        loop = asyncio.get_running_loop()

        def submit(index):
            future = loop.create_future()
            loop.call_soon(future.set_result, np.zeros(1))
            return future

        # block the loop the way an inline engine call does
        loop.call_later(0.02, time.sleep, stall_s)
        return await drive.open_loop(submit, lambda indices, outputs: [], np.arange(100) * 1e-3)

    result = asyncio.run(scenario())
    assert result.attempted == 100 and result.failed == 0
    assert max(result.latency_s) >= 0.8 * stall_s
    assert max(result.lag_s) >= 0.8 * stall_s
    # stamped at submit time instead, the same requests would look fast
    assert min(result.latency_s) < 0.01


def test_closed_loop_serves_exactly_the_requested_count():
    """The closed loop hands out each index once and checks every output."""
    async def scenario():
        loop = asyncio.get_running_loop()

        def submit(index):
            future = loop.create_future()
            loop.call_soon(future.set_result, np.array([index]))
            return future

        return await drive.closed_loop(submit, check, clients=4, requests=50, first_index=7)

    seen = []

    def check(indices, outputs):
        seen.extend(indices)
        return [f"bad {i}" for i, out in zip(indices, outputs) if out[0] != i]

    result = asyncio.run(scenario())
    assert result.attempted == 50 and result.failed == 0 and result.checked == 50
    assert sorted(seen) == list(range(7, 57))
    assert result.errors == []


def test_metric_names_and_benchmark_json_agree():
    """Metric names are well formed and BENCHMARK.json lists exactly what runs print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
    assert [(e["name"], e["unit"]) for e in spec["end_to_end"]] == list(END_TO_END)
    assert [(e["name"], e["unit"]) for e in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_checks_reject_a_corrupted_output():
    """Each workload's output check catches a single corrupted value."""
    soc = SoCServe(seed=5)
    indices = list(range(0, 3 * POOL, 7))
    outputs = [soc.expected[index % POOL].copy() for index in indices]
    assert soc.check(indices, outputs) == []
    outputs[3][2] += 1
    assert soc.check(indices, outputs)

    fabric = FabricServe(seed=5)
    outputs = [fabric.expected()[index % POOL].copy() for index in indices]
    assert fabric.check(indices, outputs) == []
    outputs[-1][0] = np.nextafter(outputs[-1][0], np.inf)
    assert fabric.check(indices, outputs)

    snn = SNNLearn(seed=5)
    counts = [np.full(8, 2.0), np.full(8, 1.0)]
    assert snn.check([0, 1], counts) == []
    counts[1][4] = 0.5
    assert snn.check([0, 1], counts)


def test_correctness_pass_rejects_a_corrupted_engine():
    """An engine returning one wrong value fails the correctness pass."""
    async def scenario():
        workload = SoCServe(seed=2)
        await workload.setup()
        run_batch = workload.engine.run_batch

        def corrupted(weights, inputs, key=None):
            outputs = run_batch(weights, inputs, key=key).copy()
            outputs[0, -1] += 1
            return outputs

        workload.engine.run_batch = corrupted
        try:
            return await workload.correctness_pass()
        finally:
            await workload.teardown()

    assert asyncio.run(scenario())


def test_refuses_to_run_without_the_program(tmp_path):
    """Next to no program, the benchmark exits non-zero and prints no result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "soc-serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
