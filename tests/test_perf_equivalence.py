"""Equivalence tests for the vectorized hot-path engine.

The vectorized kernels (O(N^3) mesh forward model, batched MVM datapath,
array-backed SNN synapses) must implement *the same physics* as the
original per-element formulations.  Every test here pits a vectorized or
cached path against a straightforward composed/looped reference and
demands agreement to machine precision.
"""

import numpy as np
import pytest

from repro.core.gemm import TDMGeMM
from repro.core.mvm import PhotonicMVM
from repro.core.quantization import QuantizationSpec
from repro.devices.mzi import ideal_mzi_matrix, physical_mzi_matrix
from repro.devices.phase_shifter import PCMPhaseShifter, pcm_phase_levels
from repro.materials.pcm import GESE, GSST, GST225, PCMMaterial
from repro.mesh.base import MeshErrorModel
from repro.mesh.clements import ClementsMesh
from repro.mesh.reck import ReckMesh
from repro.serving import spike_pattern_workload
from repro.snn.encoding import SpikeTrain, merge_spike_trains, rate_encode
from repro.snn.network import BatchedSNNResult, PhotonicSNN
from repro.snn.neuron import PhotonicLIFNeuron
from repro.snn.stdp import STDPRule
from repro.snn.synapse import PhotonicSynapse
from repro.system import PhotonicSoC
from repro.utils.linalg import random_unitary


def composed_matmul_matrix(mesh, error_model=None):
    """The original O(N^5) forward model: one full N x N matmul per MZI."""
    n = mesh.n_modes

    def embed(block, mode):
        matrix = np.eye(n, dtype=complex)
        matrix[mode : mode + 2, mode : mode + 2] = block
        return matrix

    if error_model is None:
        result = np.diag(np.exp(1j * mesh.output_phases)).astype(complex)
        for placement in mesh.placements:
            block = ideal_mzi_matrix(placement.theta, placement.phi)
            result = result @ embed(block, placement.mode)
        return result

    # Deterministic error models only (quantisation / loss): random draws
    # would have to replicate the engine's stream, which is tested against
    # the scalar block formula elsewhere.
    assert error_model.phase_error_std == 0 and error_model.coupler_ratio_error_std == 0
    output = np.array([error_model.quantize_phase(p) for p in mesh.output_phases])
    result = np.diag(np.exp(1j * output)).astype(complex)
    for placement in mesh.placements:
        theta = error_model.quantize_phase(placement.theta)
        phi = error_model.quantize_phase(placement.phi)
        block = physical_mzi_matrix(
            theta, phi, arm_loss_db=error_model.mzi_insertion_loss_db
        )
        result = result @ embed(block, placement.mode)
    return result


class TestMeshForwardModelEquivalence:
    @pytest.mark.parametrize("mesh_cls", [ClementsMesh, ReckMesh])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_ideal_matrix_matches_composed_matmul(self, mesh_cls, n):
        mesh = mesh_cls(n).program(random_unitary(n, rng=300 + n))
        assert np.allclose(mesh.matrix(), composed_matmul_matrix(mesh), atol=1e-13)

    @pytest.mark.parametrize("mesh_cls", [ClementsMesh, ReckMesh])
    def test_quantized_physical_matrix_matches_composed_matmul(self, mesh_cls):
        mesh = mesh_cls(6).program(random_unitary(6, rng=31))
        model = MeshErrorModel(phase_quantization_levels=16, mzi_insertion_loss_db=0.2)
        assert np.allclose(
            mesh.matrix(model), composed_matmul_matrix(mesh, model), atol=1e-13
        )

    def test_unprogrammed_mesh_matches_composed_matmul(self):
        mesh = ClementsMesh(5)
        assert np.allclose(mesh.matrix(), composed_matmul_matrix(mesh), atol=1e-13)

    def test_cached_matrix_tracks_reprogramming(self):
        mesh = ClementsMesh(4)
        first_target = random_unitary(4, rng=1)
        second_target = random_unitary(4, rng=2)
        mesh.program(first_target)
        first = mesh.matrix()
        assert np.allclose(first, first_target, atol=1e-10)
        mesh.program(second_target)
        assert np.allclose(mesh.matrix(), second_target, atol=1e-10)
        assert not np.allclose(mesh.matrix(), first, atol=1e-6)

    def test_cached_matrix_tracks_set_phase_vector(self):
        mesh = ClementsMesh(4).program(random_unitary(4, rng=3))
        before = mesh.matrix()
        phases = mesh.phase_vector()
        phases[0] += 0.5
        mesh.set_phase_vector(phases)
        after = mesh.matrix()
        assert not np.allclose(before, after, atol=1e-6)
        assert np.allclose(after, composed_matmul_matrix(mesh), atol=1e-13)

    def test_repeated_matrix_calls_are_identical(self):
        mesh = ClementsMesh(6).program(random_unitary(6, rng=4))
        assert np.array_equal(mesh.matrix(), mesh.matrix())


class TestPhaseVectorRoundTrip:
    @pytest.mark.parametrize("mesh_cls", [ClementsMesh, ReckMesh])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip_preserves_realized_matrix(self, mesh_cls, seed):
        n = 6
        mesh = mesh_cls(n).program(random_unitary(n, rng=400 + seed))
        phases = mesh.phase_vector()
        realized = mesh.matrix()
        mesh.set_phase_vector(phases)
        assert np.allclose(mesh.phase_vector(), phases, atol=0)
        assert np.allclose(mesh.matrix(), realized, atol=1e-13)

    def test_placements_assignment_round_trip(self):
        mesh = ClementsMesh(5).program(random_unitary(5, rng=7))
        other = ClementsMesh(5)
        other.placements = mesh.placements
        other.output_phases = mesh.output_phases.copy()
        assert np.allclose(other.matrix(), mesh.matrix(), atol=1e-13)


class TestQuantizePhaseVectorized:
    def test_array_matches_scalar(self):
        model = MeshErrorModel(phase_quantization_levels=12)
        phases = np.linspace(-7.0, 7.0, 41)
        vectorized = model.quantize_phase(phases)
        scalars = np.array([model.quantize_phase(float(p)) for p in phases])
        assert np.array_equal(vectorized, scalars)

    def test_scalar_returns_float(self):
        model = MeshErrorModel(phase_quantization_levels=8)
        assert isinstance(model.quantize_phase(1.234), float)

    def test_disabled_is_identity(self):
        model = MeshErrorModel()
        phases = np.array([0.1, 2.0])
        assert model.quantize_phase(phases) is phases


class TestBatchedMVMEquivalence:
    @pytest.mark.parametrize(
        "spec",
        [QuantizationSpec.ideal(), QuantizationSpec(), QuantizationSpec(4, 6, 16)],
        ids=["ideal", "default", "coarse"],
    )
    def test_batch_matches_per_vector_apply(self, rng, spec):
        weights = rng.normal(size=(6, 5))
        engine = PhotonicMVM(weights, quantization=spec, rng=0)
        batch = rng.normal(size=(5, 9))
        batched = engine.apply_batch(batch, add_noise=False)
        for i in range(batch.shape[1]):
            single = engine.apply(batch[:, i], add_noise=False)
            assert np.allclose(batched.value[:, i], single.value, atol=1e-12)
            assert np.allclose(batched.reference[:, i], single.reference, atol=1e-12)

    def test_batch_matches_apply_for_complex_inputs(self, rng):
        weights = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        batch = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        batched = engine.apply_batch(batch, add_noise=False)
        for i in range(5):
            single = engine.apply(batch[:, i], add_noise=False)
            assert np.allclose(batched.value[:, i], single.value, atol=1e-12)

    def test_batch_matches_apply_for_intensity_detection(self, rng):
        weights = rng.normal(size=(4, 4))
        engine = PhotonicMVM(
            weights, coherent_detection=False, quantization=QuantizationSpec.ideal(), rng=0
        )
        batch = rng.normal(size=(4, 6))
        batched = engine.apply_batch(batch, add_noise=False)
        for i in range(6):
            single = engine.apply(batch[:, i], add_noise=False)
            assert np.allclose(batched.value[:, i], single.value, atol=1e-12)

    def test_zero_columns_give_zero_output(self, rng):
        weights = rng.normal(size=(4, 3))
        engine = PhotonicMVM(weights, rng=0)
        batch = rng.normal(size=(3, 4))
        batch[:, 2] = 0.0
        result = engine.apply_batch(batch, add_noise=True)
        assert np.allclose(result.value[:, 2], 0.0)

    def test_batch_shape_validation(self, rng):
        engine = PhotonicMVM(rng.normal(size=(3, 4)), rng=0)
        with pytest.raises(ValueError):
            engine.apply_batch(np.ones((5, 2)))
        with pytest.raises(ValueError):
            engine.apply_batch(np.ones(4))


class TestRealDtypeConsistency:
    def test_apply_many_returns_real_for_real_workload(self, rng):
        weights = rng.normal(size=(4, 5))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        batch = rng.normal(size=(5, 6))
        out = engine.apply_many(batch, add_noise=False)
        assert not np.iscomplexobj(out)
        assert np.allclose(out, weights @ batch, atol=1e-8)

    def test_apply_many_real_even_with_zero_columns(self, rng):
        weights = rng.normal(size=(4, 5))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        batch = rng.normal(size=(5, 6))
        batch[:, 0] = 0.0
        out = engine.apply_many(batch, add_noise=False)
        assert not np.iscomplexobj(out)
        assert np.allclose(out[:, 0], 0.0)

    def test_apply_zero_vector_real_for_real_weights(self, rng):
        engine = PhotonicMVM(rng.normal(size=(4, 5)), rng=0)
        result = engine.apply(np.zeros(5))
        assert not np.iscomplexobj(result.value)
        assert np.allclose(result.value, 0.0)

    def test_tdm_gemm_real_for_real_workload(self, rng):
        weights = rng.normal(size=(4, 5))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        batch = rng.normal(size=(5, 6))
        batch[:, 3] = 0.0
        result = TDMGeMM(engine).multiply(batch, add_noise=False)
        assert not np.iscomplexobj(result.value)
        assert not np.iscomplexobj(result.reference)

    def test_complex_workload_stays_complex(self, rng):
        weights = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        batch = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        out = engine.apply_many(batch, add_noise=False)
        assert np.iscomplexobj(out)


class TestSinglePortEngines:
    """Regression tests for 1 x N and N x 1 weight matrices."""

    def test_row_matrix_exact_when_ideal(self, rng):
        weights = rng.normal(size=(1, 6))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        x = rng.normal(size=6)
        result = engine.apply(x, add_noise=False)
        assert result.relative_error < 1e-10
        assert np.allclose(engine.realized_matrix, weights, atol=1e-10)

    def test_column_matrix_exact_when_ideal(self, rng):
        weights = rng.normal(size=(6, 1))
        engine = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        x = rng.normal(size=1)
        result = engine.apply(x, add_noise=False)
        assert result.relative_error < 1e-10

    def test_one_by_one_matrix(self):
        engine = PhotonicMVM(np.array([[2.5]]), quantization=QuantizationSpec.ideal(), rng=0)
        result = engine.apply(np.array([1.2]), add_noise=False)
        assert np.allclose(result.value, 3.0, atol=1e-10)

    def test_single_port_sees_phase_error_model(self, rng):
        weights = -np.abs(rng.normal(size=(1, 6))) - 0.1  # negative => left = -1
        ideal = PhotonicMVM(weights, quantization=QuantizationSpec.ideal(), rng=0)
        noisy = PhotonicMVM(
            weights,
            quantization=QuantizationSpec.ideal(),
            error_model=MeshErrorModel(phase_error_std=0.2, rng=5),
            rng=0,
        )
        # The trivial 1-port factor must not bypass the error model: with a
        # pure 1 x N matrix the left factor is a single phase shifter whose
        # programming error shows up in the realized matrix.
        assert not np.allclose(noisy.realized_matrix, ideal.realized_matrix, atol=1e-6)

    def test_single_port_quantization_applies(self, rng):
        weights = -np.abs(rng.normal(size=(1, 5))) - 0.1
        engine = PhotonicMVM(
            weights,
            quantization=QuantizationSpec(input_bits=None, output_bits=None, weight_levels=3),
            rng=0,
        )
        # With 3 uniform levels over [0, 2 pi) the value pi is off-grid, so
        # the left factor (-1 = e^{i pi}) cannot be realised exactly.
        assert not np.allclose(engine.realized_matrix, weights, atol=1e-3)

    def test_single_port_deterministic_per_seed(self, rng):
        weights = rng.normal(size=(1, 6))
        model = MeshErrorModel(phase_error_std=0.1, rng=9)
        a = PhotonicMVM(weights, error_model=model, rng=0).realized_matrix
        b = PhotonicMVM(weights, error_model=model, rng=0).realized_matrix
        assert np.allclose(a, b)


def reference_snn_run(
    fractions: np.ndarray,
    input_trains,
    stdp,
    inhibition: float,
    neuron_threshold: float,
    learning: bool,
    input_amplitude: float = 0.6,
):
    """The original dict-of-synapse-objects event loop, kept as an oracle."""
    from repro.devices.pcm_cell import PCMSynapticCell

    n_inputs, n_outputs = fractions.shape
    neurons = [PhotonicLIFNeuron(threshold=neuron_threshold) for _ in range(n_outputs)]
    synapses = {
        (pre, post): PhotonicSynapse(
            pre=pre,
            post=post,
            cell=PCMSynapticCell(crystalline_fraction=float(fractions[pre, post])),
        )
        for pre in range(n_inputs)
        for post in range(n_outputs)
    }

    import heapq

    events = merge_spike_trains(list(input_trains))
    queue = []
    for order, (time, neuron_index) in enumerate(events):
        heapq.heappush(queue, (time, order, neuron_index))
    output_spikes = [[] for _ in range(n_outputs)]
    while queue:
        time, _, pre = heapq.heappop(queue)
        for post in range(n_outputs):
            synapse = synapses[(pre, post)]
            arrival, amplitude = synapse.transmit(time, input_amplitude)
            if learning and stdp is not None:
                stdp.apply_on_pre_spike(synapse, time)
            fired = neurons[post].receive(amplitude, arrival)
            if fired:
                output_spikes[post].append(arrival)
                if inhibition > 0:
                    for other in range(n_outputs):
                        if other != post:
                            neurons[other].membrane -= inhibition
                if learning and stdp is not None:
                    for input_index in range(n_inputs):
                        stdp.apply_on_post_spike(synapses[(input_index, post)], arrival)
    weights = np.zeros((n_inputs, n_outputs))
    for (pre, post), synapse in synapses.items():
        weights[pre, post] = synapse.weight
    return output_spikes, weights


class TestSNNArrayEquivalence:
    @pytest.mark.parametrize("learning", [False, True])
    def test_run_matches_object_reference(self, learning):
        stdp = STDPRule(a_plus=0.15, a_minus=0.08)
        network = PhotonicSNN(
            6, 3, stdp=stdp, inhibition=0.25, neuron_threshold=0.6, rng=0
        )
        initial_fractions = network.synapse_array.fractions.copy()
        values = np.array([1.0, 1.0, 1.0, 0.0, 0.5, 0.0])
        pattern = rate_encode(values, max_spikes=8)
        result = network.run(pattern, learning=learning)
        ref_spikes, ref_weights = reference_snn_run(
            initial_fractions, pattern, stdp, 0.25, 0.6, learning
        )
        assert [list(times) for times in result.output_spikes] == ref_spikes
        assert np.allclose(network.weight_matrix(), ref_weights, atol=1e-12)

    def test_multi_run_state_persistence_matches_reference(self):
        # Spike-pairing state (last pre/post spike times) persists across
        # run() calls exactly like it did on the synapse objects.
        stdp = STDPRule(a_plus=0.2, a_minus=0.1)
        network = PhotonicSNN(4, 2, stdp=stdp, neuron_threshold=0.5, rng=1)
        initial_fractions = network.synapse_array.fractions.copy()
        pattern = rate_encode(np.ones(4), max_spikes=6)

        # Object-based oracle with persistent synapses across two runs.
        from repro.devices.pcm_cell import PCMSynapticCell
        import heapq

        neurons = [PhotonicLIFNeuron(threshold=0.5) for _ in range(2)]
        synapses = {
            (pre, post): PhotonicSynapse(
                pre=pre,
                post=post,
                cell=PCMSynapticCell(crystalline_fraction=float(initial_fractions[pre, post])),
            )
            for pre in range(4)
            for post in range(2)
        }
        for _ in range(2):
            for neuron in neurons:
                neuron.reset()
            events = merge_spike_trains(list(pattern))
            queue = []
            for order, (time, neuron_index) in enumerate(events):
                heapq.heappush(queue, (time, order, neuron_index))
            while queue:
                time, _, pre = heapq.heappop(queue)
                for post in range(2):
                    synapse = synapses[(pre, post)]
                    arrival, amplitude = synapse.transmit(time, 0.6)
                    stdp.apply_on_pre_spike(synapse, time)
                    if neurons[post].receive(amplitude, arrival):
                        for input_index in range(4):
                            stdp.apply_on_post_spike(synapses[(input_index, post)], arrival)
        expected = np.zeros((4, 2))
        for (pre, post), synapse in synapses.items():
            expected[pre, post] = synapse.weight

        network.run(pattern, learning=True)
        network.run(pattern, learning=True)
        assert np.allclose(network.weight_matrix(), expected, atol=1e-12)

    def test_synapses_view_consistent_with_arrays(self):
        network = PhotonicSNN(3, 2, rng=0)
        view = network.synapses
        assert len(view) == 6
        weights = network.weight_matrix()
        for (pre, post), synapse in view.items():
            assert synapse.weight == pytest.approx(weights[pre, post], abs=1e-12)

    def test_stdp_weight_changes_matches_scalar(self):
        rule = STDPRule(a_plus=0.1, a_minus=0.07, tau_plus=1.5e-9, tau_minus=2.5e-9)
        deltas = np.array([-5e-9, -1e-10, 0.0, 1e-10, 5e-9])
        vectorized = rule.weight_changes(deltas)
        scalars = np.array([rule.weight_change(float(d)) for d in deltas])
        assert np.allclose(vectorized, scalars, atol=0, rtol=0)


def serial_batch(network, patterns, input_amplitude):
    """The fused-result fields rebuilt from per-pattern serial ``run`` calls.

    ``run(pattern, learning=False)`` resets the neurons and leaves the
    weights alone, so replaying each pattern on one network is the
    reference for :meth:`PhotonicSNN.run_patterns`.  ``last_pre`` is the
    last time per channel of the merged events, ``last_post`` the last
    output spike per neuron, ``energy_j`` the serial running sum.
    """
    counts = np.zeros((len(patterns), network.n_outputs), dtype=int)
    last_pre = np.full((len(patterns), network.n_inputs), np.nan)
    last_post = np.full((len(patterns), network.n_outputs), np.nan)
    total_in = total_out = 0
    energy = 0.0
    for index, pattern in enumerate(patterns):
        result = network.run(pattern, learning=False, input_amplitude=input_amplitude)
        counts[index] = result.spike_counts()
        for time, channel in merge_spike_trains(list(pattern)):
            last_pre[index, channel] = time
        for post, times in enumerate(result.output_spikes):
            if len(times):
                last_post[index, post] = times[-1]
        total_in += result.total_input_spikes
        total_out += result.total_output_spikes
        energy += result.energy_j
    return BatchedSNNResult(
        spike_counts=counts, last_pre=last_pre, last_post=last_post,
        total_input_spikes=total_in, total_output_spikes=total_out, energy_j=energy,
    )


def assert_same_batch(fused, reference):
    assert np.array_equal(fused.spike_counts, reference.spike_counts)
    assert np.array_equal(fused.last_pre, reference.last_pre, equal_nan=True)
    assert np.array_equal(fused.last_post, reference.last_post, equal_nan=True)
    assert fused.total_input_spikes == reference.total_input_spikes
    assert fused.total_output_spikes == reference.total_output_spikes
    # count x spike energy against a running sum: equal up to summation order
    assert fused.energy_j == pytest.approx(reference.energy_j, rel=1e-12, abs=0.0)


def log_receives(network):
    """Record ``(refractory, fired)`` for every pulse a neuron receives.

    Serial ``run`` offers each event to every neuron in order, so the log
    splits into one ``n_outputs`` chunk per event.
    """
    log = []
    for neuron in network.neurons:
        def receive(amplitude, time, neuron=neuron, inner=neuron.receive):
            spiked = neuron.last_spike_time
            refractory = spiked is not None and time - spiked < neuron.refractory_period
            fired = inner(amplitude, time)
            log.append((refractory, fired))
            return fired

        neuron.receive = receive
    return log


def mixed_patterns(rng, n_inputs, count, offset=0.0):
    """Empty, rate-coded (tied events) and irregular-gap patterns, in turn.

    A negative ``offset`` shifts every spike time, so patterns start with
    negative arrivals.
    """
    patterns = []
    for index in range(count):
        kind = index % 3
        if kind == 0:
            patterns.append([])
        elif kind == 1:
            trains = rate_encode(rng.random(n_inputs), max_spikes=6)
            patterns.append([SpikeTrain(t.neuron, t.times + offset) for t in trains])
        else:
            patterns.append([
                SpikeTrain(channel, offset + 0.25e-9 * rng.integers(0, 40, size=rng.integers(0, 5)))
                for channel in range(n_inputs)
            ])
    return patterns


class TestFusedSNNFullFieldOracle:
    """``run_patterns`` against serial ``run`` replay on every field STDP reads."""

    @pytest.mark.parametrize("inhibition", [0.0, 0.3, 1.5])
    @pytest.mark.parametrize("offset", [0.0, -6e-9])
    def test_fields_match_serial_replay(self, inhibition, offset):
        network = PhotonicSNN(10, 6, inhibition=inhibition, neuron_threshold=0.5, rng=3)
        patterns = mixed_patterns(np.random.default_rng(17), 10, 12, offset)
        log = log_receives(network)
        # a weak drive integrates over several events (the leak matters);
        # a strong one fires several neurons per event and hits refractory
        for amplitude in (0.5, 5.0):
            fused = network.run_patterns(patterns, input_amplitude=amplitude)
            assert_same_batch(fused, serial_batch(network, patterns, amplitude))

        n_out = network.n_outputs
        fires_per_event = [
            sum(fired for _, fired in log[start : start + n_out])
            for start in range(0, len(log), n_out)
        ]
        assert max(fires_per_event) >= 2
        assert any(refractory for refractory, _ in log)
        events = [merge_spike_trains(pattern) for pattern in patterns]
        assert any(a[0] == b[0] for seq in events for a, b in zip(seq, seq[1:]))
        assert any(not seq for seq in events)
        if offset < 0:
            assert any(time + network.synapse_array.delay < 0 for seq in events for time, _ in seq)

    def test_stdp_trajectory_matches_serial_replay(self):
        fused_net = PhotonicSNN(12, 5, stdp=STDPRule(), inhibition=0.3, rng=5)
        serial_net = PhotonicSNN(12, 5, stdp=STDPRule(), inhibition=0.3, rng=5)
        initial = fused_net.synapse_array.fractions.copy()
        workload = spike_pattern_workload(12, 64, rng=11)
        rng = np.random.default_rng(21)
        request = 0
        for _ in range(80):
            patterns = []
            for _ in range(int(rng.integers(0, 9))):
                values = workload(request) if rng.random() > 0.1 else np.zeros(12)
                patterns.append(rate_encode(values, max_spikes=6))
                request += 1
            fused = fused_net.run_patterns(patterns)
            reference = serial_batch(serial_net, patterns, 0.6)
            assert_same_batch(fused, reference)
            fused_net.apply_stdp_batch(fused)
            serial_net.apply_stdp_batch(reference)
        final = fused_net.synapse_array.fractions
        assert not np.array_equal(final, initial)
        assert np.array_equal(final, serial_net.synapse_array.fractions)


def reference_phase_levels(material, n_levels, confinement, patch_length):
    """The original level-by-level table: two scalar index evaluations per level."""
    return np.array(
        [
            abs(material.phase_shift_per_length(f, confinement) * patch_length)
            for f in material.level_fractions(n_levels)
        ]
    )


def reference_level(levels, phase):
    """Level index the original quantiser picked for ``phase``."""
    requested = float(np.mod(phase, 2.0 * np.pi))
    reachable = np.minimum(requested, levels[-1]) if levels[-1] > 0 else 0.0
    return int(np.argmin(np.abs(levels - reachable)))


PCM_CONFIGS = [
    (material, n_levels, confinement)
    for material in (GSST, GESE, GST225)
    for n_levels in (2, 4, 8, 16, 64)
    for confinement in (0.05, 0.1, 0.3)
]


class TestCachedPCMPhaseLevels:
    @pytest.mark.parametrize("material,n_levels,confinement", PCM_CONFIGS)
    def test_shifter_matches_scalar_reference(self, material, n_levels, confinement):
        patch_length = 9e-6
        shifter = PCMPhaseShifter(
            material=material, n_levels=n_levels, confinement=confinement
        )
        levels = reference_phase_levels(material, n_levels, confinement, patch_length)
        np.testing.assert_array_equal(shifter.phase_levels, levels)
        assert shifter.phase_levels.dtype == np.float64
        full_range = abs(
            material.phase_shift_per_length(1.0, confinement) * patch_length
        )
        assert shifter.full_range_phase == full_range

        switching = material.switching_energy(
            shifter.patch_cross_section_um2 * patch_length * 1e6
        )
        fractions = material.level_fractions(n_levels)
        for phase in np.linspace(-7.0, 14.0, 43):
            level = reference_level(levels, phase)
            assert shifter.quantize(phase) == levels[level]
            previous_phase = shifter.phase
            assert shifter.set_phase(phase) == levels[level]
            assert shifter.level == level
            assert shifter.crystalline_fraction == fractions[level]
            alpha = material.absorption_per_length(fractions[level], confinement)
            loss = shifter.insertion_loss_db + max(
                10.0 * np.log10(np.e) * alpha * patch_length, 0.0
            )
            assert shifter.total_loss_db == loss
            assert shifter.programming_energy() == switching
            unchanged = reference_level(levels, previous_phase) == level
            expected = 0.0 if unchanged else switching
            assert shifter.programming_energy(previous_phase) == expected

    def test_table_is_read_only_and_shared(self):
        shifter = PCMPhaseShifter()
        levels = shifter.phase_levels
        assert not levels.flags.writeable
        with pytest.raises(ValueError):
            levels[0] = 1.0
        assert PCMPhaseShifter().phase_levels is levels
        assert pcm_phase_levels(GSST, 16, 0.1, 9e-6) is levels

    @pytest.mark.parametrize(
        "name,value", [("n_levels", 5), ("confinement", 0.25), ("patch_length", 4e-6)]
    )
    def test_live_field_change_reads_the_new_table(self, name, value):
        shifter = PCMPhaseShifter()
        before = shifter.phase_levels.copy()
        setattr(shifter, name, value)
        expected = reference_phase_levels(
            shifter.material, shifter.n_levels, shifter.confinement, shifter.patch_length
        )
        assert not np.array_equal(before, expected)
        np.testing.assert_array_equal(shifter.phase_levels, expected)
        assert shifter.full_range_phase == expected[-1]
        assert shifter.quantize(np.pi / 3) == expected[reference_level(expected, np.pi / 3)]

    def test_full_range_phase_is_not_an_init_field(self):
        with pytest.raises(TypeError):
            PCMPhaseShifter(full_range_phase=1.0)


def make_two_pe_soc():
    soc = PhotonicSoC()
    for _ in range(2):
        soc.add_photonic_accelerator()
    return soc


class TestWarmSoCOffloadSkipsPCMTable:
    def test_warm_offload_makes_no_index_calls_and_matches_cold(self, monkeypatch):
        weights = np.arange(16 * 12, dtype=np.int64).reshape(16, 12) % 7 - 3
        inputs = np.arange(12 * 4, dtype=np.int64).reshape(12, 4) % 5 - 2
        cold_soc = make_two_pe_soc()
        cold = []
        for _ in range(2):
            pcm_phase_levels.cache_clear()
            cold.append(cold_soc.run_tiled_gemm(weights, inputs))

        calls = []
        original = PCMMaterial.effective_index

        def counting(material, fractions):
            calls.append(fractions)
            return original(material, fractions)

        monkeypatch.setattr(PCMMaterial, "effective_index", counting)
        soc = make_two_pe_soc()
        pcm_phase_levels.cache_clear()
        first = soc.run_tiled_gemm(weights, inputs)
        assert calls, "the first offload builds the table through the wrapper"
        calls.clear()
        second = soc.run_tiled_gemm(weights, inputs)
        assert calls == []

        for warm, reference in zip((first, second), cold):
            assert warm.cycles == reference.cycles
            assert warm.energy_j == reference.energy_j
            assert warm.energy_breakdown == reference.energy_breakdown
            assert warm.pipeline == reference.pipeline
            np.testing.assert_array_equal(warm.result, reference.result)
