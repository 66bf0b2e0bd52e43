"""The benchmark's workloads, built only from the program's public API.

Each workload owns its generated inputs (all drawn from the ``--seed``
generator), knows how to set up and tear down the serving stack it
drives, how to submit request ``i`` and how to check the outputs it got
back.  Sizing notes live in ``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.drive import closed_loop

#: distinct input columns per workload; request ``i`` uses column ``i % POOL``
POOL = 1024
#: admission bounds far above any closed-loop population or paced backlog,
#: so a refused request means the stack misbehaved, not that load was high
QUEUE_DEPTH = 1 << 16

#: the reference DAG whose simulated cost is the paper's speed / energy /
#: footprint figure, and its simulated cycles at batch widths 1 and 16
REFERENCE_WIDTHS = (1, 16)
REFERENCE_CYCLES = {1: 1556, 16: 4575}


def make_cluster(n_pes: int = 2):
    """A fresh SoC with ``n_pes`` photonic PEs on the ideal-digital backend."""
    from repro.system import PhotonicSoC

    soc = PhotonicSoC()
    for _ in range(n_pes):
        soc.add_photonic_accelerator()
    return soc


def reference_graph():
    """The soc-serve reference DAG: a 16-feature trunk with two 8-wide heads."""
    from repro.eval import make_multi_head_graph

    return make_multi_head_graph(16, head_sizes=(8, 8), rng=0)


def compile_reference():
    """Compile the reference DAG onto a fresh 2-PE SoC."""
    from repro import compiler

    return compiler.compile_for_soc(reference_graph(), make_cluster(2), cache=None)


def run_reference(plan, rng: np.random.Generator) -> Tuple[Dict[str, float], List[str]]:
    """Run the compiled reference DAG at each width; exact simulated metrics.

    Returns the metrics (cycles and energy of one width-1 inference, the
    width-16 cycles, the cluster area) and the list of correctness errors.
    """
    graph = reference_graph()
    errors = []
    cycles, energy_nj = {}, {}
    for width in REFERENCE_WIDTHS:
        columns = rng.integers(-3, 4, size=(graph.n_inputs, width))
        outputs = plan.run(columns)
        if not np.array_equal(outputs, graph.reference_forward(columns)):
            errors.append(f"reference DAG output mismatch at width {width}")
        cycles[width] = plan.total_cycles
        energy_nj[width] = sum(report.energy_j for report in plan.reports) * 1e9
        if cycles[width] != REFERENCE_CYCLES[width]:
            errors.append(
                f"reference DAG took {cycles[width]} cycles at width {width}, "
                f"recorded {REFERENCE_CYCLES[width]}"
            )
    metrics = {
        "sim_cycles": float(cycles[1]),
        "sim_cycles_b16": float(cycles[16]),
        "sim_energy_nj": float(energy_nj[1]),
        "area_mm2": float(plan.soc.total_area_mm2()),
    }
    return metrics, errors


class Workload:
    """Base class: one serving stack, its inputs and its output checks.

    Attributes:
        name: workload name on the command line.
        max_batch: the micro-batcher's fusing bound.
        clients: closed-loop population in the saturation phase.
        sat_rate_hz: saturated rate measured when the benchmark was set;
            it sizes the closed-loop phases, which serve a fixed number of
            requests so their work does not depend on the program's speed.
        paced_rate_hz: open-loop Poisson rate of the paced phase, per
            reference-host second (well under the saturated rate).
    """

    name = ""
    max_batch = 16
    sat_rate_hz = 1.0
    paced_rate_hz = 1.0

    def __init__(self, seed: int, tracer=None):
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.front = None  # InferenceServer or FabricGateway
        self.engine = None
        self.columns: List[np.ndarray] = []  # the input pool, one row per column

    @property
    def clients(self) -> int:
        """Closed-loop clients: twice the batch bound keeps the batcher full."""
        return 2 * self.max_batch

    async def setup(self) -> None:
        """Build and start the serving stack (timed as ``setup_s``)."""
        raise NotImplementedError

    async def teardown(self) -> None:
        """Drain and stop the serving stack."""
        await self.front.shutdown(drain=True)

    def submit(self, index: int) -> asyncio.Future:
        """Admit request ``index``; returns the future of its output."""
        raise NotImplementedError

    def check(self, indices: List[int], outputs: List[np.ndarray]) -> List[str]:
        """Errors found in the outputs of requests ``indices``."""
        raise NotImplementedError

    async def correctness_pass(self) -> List[str]:
        """Untimed end-to-end check through the served stack."""
        result = await closed_loop(self.submit, self.check, self.clients, 4 * self.clients)
        if result.failed or not result.checked:
            result.errors.append(f"{result.failed} of {result.attempted} requests failed")
        return result.errors

    def engine_stats(self) -> Dict[str, float]:
        """Compiled-model cache counters of the serving engine."""
        stats = self.engine.stats
        return {"cache_hits": stats.cache_hits, "compiles": stats.compiles}


class SoCServe(Workload):
    """Server -> batcher -> SoCGemmEngine on a 2-PE photonic SoC."""

    name = "soc-serve"
    max_batch = 16
    sat_rate_hz = 3000.0
    paced_rate_hz = 1000.0

    def __init__(self, seed: int, tracer=None):
        super().__init__(seed, tracer)
        self.weights = self.rng.integers(-4, 5, size=(16, 16))
        self.pool = self.rng.integers(-8, 9, size=(POOL, 16))
        self.expected = self.pool @ self.weights.T
        self.columns = list(self.pool)
        self.plan = None

    async def setup(self) -> None:
        """Calibrate, compile the reference DAG, build and start the server."""
        from repro import compiler, obs, serving

        cost_model = compiler.SoCCostModel.calibrate(make_cluster(2))
        self.plan = compile_reference()
        self.engine = serving.SoCGemmEngine(
            make_cluster(2),
            weights=self.weights,
            cost_model=cost_model,
            drift_monitor=obs.DriftMonitor(),
        )
        replica = serving.Replica(
            "soc", self.engine, max_batch=self.max_batch, max_wait_s=0.0,
            max_queue_depth=QUEUE_DEPTH,
        )
        self.front = serving.InferenceServer([replica], tracer=self.tracer)
        await self.front.start()
        self.engine.compile(None)

    def submit(self, index: int) -> asyncio.Future:
        """Admit column ``index % POOL`` against the bound model."""
        return self.front.submit_nowait(self.columns[index % POOL])

    def check(self, indices: List[int], outputs: List[np.ndarray]) -> List[str]:
        """Outputs must be bitwise ``W @ x``."""
        return _mismatches("SoC outputs differ from W @ x", indices, outputs, self.expected)


class AnalogServe(Workload):
    """Server -> batcher -> GemmEngine on analog-photonic, four tenant models."""

    name = "analog-serve"
    max_batch = 64
    sat_rate_hz = 20000.0
    paced_rate_hz = 6000.0
    popularity = (0.50, 0.25, 0.15, 0.10)

    def __init__(self, seed: int, tracer=None):
        super().__init__(seed, tracer)
        self.models = [self.rng.normal(size=(16, 16)) for _ in self.popularity]
        self.pool = self.rng.normal(size=(POOL, 16))
        self.tenant = self.rng.choice(len(self.models), size=1 << 16, p=self.popularity)
        self._requests = [
            (self.pool[index % POOL], self.models[tenant])
            for index, tenant in enumerate(self.tenant)
        ]
        self._single: Optional[np.ndarray] = None

    async def setup(self) -> None:
        """Program every tenant's mesh, then build and start the server."""
        from repro import serving

        self.engine = serving.GemmEngine(
            backend="analog-photonic", add_noise=False, name="analog",
            max_models=len(self.models),
        )
        for weights in self.models:
            self.engine.compile(weights)
        replica = serving.Replica(
            "analog", self.engine, max_batch=self.max_batch, max_wait_s=0.0,
            max_queue_depth=QUEUE_DEPTH,
        )
        self.front = serving.InferenceServer([replica], tracer=self.tracer)
        await self.front.start()

    def submit(self, index: int) -> asyncio.Future:
        """Admit a column with its tenant's weights."""
        inputs, weights = self._requests[index % len(self._requests)]
        return self.front.submit_nowait(inputs, weights=weights)

    def check(self, indices: List[int], outputs: List[np.ndarray]) -> List[str]:
        """Each output within 1e-12 relative of the engine's single-column result."""
        if self._single is None:
            self._single = np.stack([
                np.stack([
                    self.engine.compile(weights).runner(column[:, None])[:, 0]
                    for column in self.pool
                ])
                for weights in self.models
            ])
        index = np.asarray(indices, dtype=np.int64)
        want = self._single[self.tenant[index % len(self.tenant)], index % POOL]
        error = np.linalg.norm(_stack(outputs, 16) - want, axis=1)
        bad = ~(error <= 1e-12 * np.linalg.norm(want, axis=1))
        return [f"{int(bad.sum())} analog outputs off their single-column result"] if bad.any() else []


class SNNLearn(Workload):
    """Server -> batcher -> SNNEngine(learning=True) over a 24x8 PhotonicSNN."""

    name = "snn-learn"
    max_batch = 16
    sat_rate_hz = 400.0
    paced_rate_hz = 120.0

    def __init__(self, seed: int, tracer=None):
        super().__init__(seed, tracer)
        from repro import serving

        # like the network, the pattern sequence is part of the workload:
        # every seed trains the crossbar along the same trajectory, so the
        # seed varies only the arrival times (a learned state that differs
        # per seed moves the latency tail by a third)
        library = serving.spike_pattern_workload(24, POOL, rng=11)
        self.pool = np.stack([library(index) for index in range(POOL)])
        self.columns = list(self.pool)

    def make_engine(self):
        """A fresh learning engine over a freshly seeded network."""
        from repro import serving, snn

        # the network is part of the workload, like the reference DAG: only
        # the request traffic varies with the seed, so every seed starts
        # learning from the same crossbar
        network = snn.PhotonicSNN(24, 8, stdp=snn.STDPRule(), inhibition=0.3, rng=7)
        return serving.SNNEngine(network, learning=True, max_spikes=6)

    async def setup(self) -> None:
        """Build the learning engine and start the server."""
        from repro import serving

        self.engine = self.make_engine()
        replica = serving.Replica(
            "snn", self.engine, max_batch=self.max_batch, max_wait_s=0.0,
            max_queue_depth=QUEUE_DEPTH,
        )
        self.front = serving.InferenceServer([replica], tracer=self.tracer)
        await self.front.start()

    def submit(self, index: int) -> asyncio.Future:
        """Admit column ``index % POOL`` against the bound model."""
        return self.front.submit_nowait(self.columns[index % POOL])

    def check(self, indices: List[int], outputs: List[np.ndarray]) -> List[str]:
        """Spike counts: one per output neuron, whole and non-negative."""
        counts = _stack(outputs, 8)
        bad = np.any((counts < 0) | (counts != np.round(counts)), axis=1)
        return [f"{int(bad.sum())} SNN outputs are not spike-count vectors"] if bad.any() else []

    async def correctness_pass(self) -> List[str]:
        """Served outputs and crossbar equal a replay of the batch partition.

        A separate engine serves concurrent traffic while its batches are
        recorded; a fresh network then replays the same batches in the same
        order, and both the per-request outputs and the final crossbar must
        match bitwise.
        """
        from repro import serving

        engine = self.make_engine()
        batches = []
        run_batch = engine.run_batch

        def recording(weights, inputs, key=None):
            outputs = run_batch(weights, inputs, key=key)
            batches.append((np.array(inputs), np.array(outputs)))
            return outputs

        engine.run_batch = recording
        replica = serving.Replica(
            "snn-check", engine, max_batch=self.max_batch, max_wait_s=0.0,
            max_queue_depth=QUEUE_DEPTH,
        )
        async with serving.InferenceServer([replica]) as server:
            futures = [server.submit_nowait(self.pool[i]) for i in range(3 * self.max_batch)]
            served = [await future for future in futures]
        errors = self.check(list(range(len(served))), served)
        replay = self.make_engine()
        position = 0
        for inputs, outputs in batches:
            if not np.array_equal(replay.run_batch(None, inputs), outputs):
                errors.append("SNN replay of a recorded batch diverged")
            for column in range(inputs.shape[1]):
                if not np.array_equal(served[position], outputs[:, column]) or not (
                    np.array_equal(inputs[:, column], self.pool[position])
                ):
                    errors.append(f"served SNN output {position} is not its batch column")
                position += 1
        if position != len(served):
            errors.append("recorded SNN batches do not cover the served requests")
        if not np.array_equal(
            replay.network.synapse_array.fractions, engine.network.synapse_array.fractions
        ):
            errors.append("final SNN crossbar differs from the replay")
        return errors


class FabricServe(Workload):
    """FabricGateway over one spawned ideal-digital worker."""

    name = "fabric-serve"
    max_batch = 64
    sat_rate_hz = 10500.0
    paced_rate_hz = 3000.0

    def __init__(self, seed: int, tracer=None):
        super().__init__(seed, tracer)
        # integer-valued operands make every summation order exact, so the
        # fabric must match the in-process engine bitwise whatever batching
        self.weights = self.rng.integers(-4, 5, size=(16, 16)).astype(float)
        self.pool = self.rng.integers(-8, 9, size=(POOL, 16)).astype(float)
        self.columns = list(self.pool)
        self._expected: Optional[np.ndarray] = None

    async def setup(self) -> None:
        """Spawn the worker and wait for its readiness handshake."""
        from repro import serving

        specs = serving.make_worker_specs(
            1,
            "repro.serving.fabric.engines:make_gemm_engine",
            engine_kwargs={"backend": "ideal-digital", "weights": self.weights},
            max_batch=self.max_batch,
            max_queue_depth=QUEUE_DEPTH,
        )
        self.front = serving.FabricGateway(
            specs, max_pending=QUEUE_DEPTH, tracer=self.tracer
        )
        await self.front.start()

    def submit(self, index: int) -> asyncio.Future:
        """Admit column ``index % POOL`` against the bound model."""
        return self.front.submit_nowait(self.columns[index % POOL])

    def expected(self) -> np.ndarray:
        """Outputs of an in-process GemmEngine, one column at a time."""
        if self._expected is None:
            from repro import serving

            engine = serving.GemmEngine(backend="ideal-digital", weights=self.weights)
            self._expected = np.stack(
                [engine.run_batch(None, column[:, None])[:, 0] for column in self.pool]
            )
        return self._expected

    def check(self, indices: List[int], outputs: List[np.ndarray]) -> List[str]:
        """Outputs must be bitwise those of the in-process engine."""
        return _mismatches(
            "fabric outputs differ from in-process serving", indices, outputs, self.expected()
        )

    def engine_stats(self) -> Dict[str, float]:
        """The engine lives in the worker process; its counters arrive at shutdown."""
        return {}


def _stack(outputs: List[np.ndarray], width: int) -> np.ndarray:
    """Outputs as one ``(n, width)`` array; a malformed output raises ``ValueError``."""
    if not outputs:
        return np.empty((0, width))
    stacked = np.stack(outputs)
    if stacked.shape[1:] != (width,):
        raise ValueError(f"outputs have shape {stacked.shape[1:]}, expected ({width},)")
    return stacked


def _mismatches(what: str, indices, outputs, expected: np.ndarray) -> List[str]:
    """Bitwise comparison against ``expected[index % POOL]``."""
    got = _stack(outputs, expected.shape[1])
    bad = np.any(got != expected[np.asarray(indices, dtype=np.int64) % POOL], axis=1)
    return [f"{int(bad.sum())} {what}"] if bad.any() else []


WORKLOADS = {cls.name: cls for cls in (SoCServe, AnalogServe, SNNLearn, FabricServe)}
