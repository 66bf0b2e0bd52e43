"""Tests for the event-driven photonic SNN simulator."""

import numpy as np
import pytest

from repro.eval.workloads import make_spike_patterns
from repro.snn.encoding import SpikeTrain, rate_encode
from repro.snn.network import PhotonicSNN
from repro.snn.stdp import STDPRule


class TestConstruction:
    def test_dimensions_and_synapse_count(self):
        network = PhotonicSNN(6, 3, rng=0)
        assert network.weight_matrix().shape == (6, 3)
        assert len(network.synapses) == 18

    def test_initial_weights_in_unit_interval(self):
        weights = PhotonicSNN(5, 2, rng=0).weight_matrix()
        assert np.all(weights >= 0.0)
        assert np.all(weights <= 1.0)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            PhotonicSNN(0, 2)


class TestSimulation:
    def test_strong_input_produces_output_spikes(self):
        network = PhotonicSNN(4, 2, neuron_threshold=0.5, rng=0)
        pattern = rate_encode(np.ones(4), max_spikes=6)
        result = network.run(pattern, learning=False)
        assert result.total_output_spikes > 0
        assert result.total_input_spikes == 24

    def test_no_input_no_output(self):
        network = PhotonicSNN(4, 2, rng=0)
        result = network.run(rate_encode(np.zeros(4)), learning=False)
        assert result.total_output_spikes == 0

    def test_learning_disabled_keeps_weights(self):
        network = PhotonicSNN(4, 2, stdp=STDPRule(), rng=0)
        before = network.weight_matrix().copy()
        network.run(rate_encode(np.ones(4)), learning=False)
        assert np.allclose(network.weight_matrix(), before)

    def test_learning_changes_weights(self):
        network = PhotonicSNN(4, 2, stdp=STDPRule(a_plus=0.2, a_minus=0.1), neuron_threshold=0.5, rng=0)
        before = network.weight_matrix().copy()
        network.run(rate_encode(np.ones(4), max_spikes=8), learning=True)
        assert not np.allclose(network.weight_matrix(), before)

    def test_energy_accounting_positive_when_spiking(self):
        network = PhotonicSNN(4, 2, stdp=STDPRule(), neuron_threshold=0.5, rng=0)
        result = network.run(rate_encode(np.ones(4), max_spikes=8), learning=True)
        assert result.energy_j > 0
        assert result.plasticity_events > 0

    def test_spike_counts_shape(self):
        network = PhotonicSNN(4, 3, rng=0)
        result = network.run(rate_encode(np.ones(4)), learning=False)
        assert result.spike_counts().shape == (3,)

    def test_too_many_trains_rejected(self):
        network = PhotonicSNN(2, 2, rng=0)
        with pytest.raises(ValueError):
            network.run(rate_encode(np.ones(3)))

    @pytest.mark.parametrize("channel", [-1, 3])
    def test_run_rejects_out_of_range_channel_before_any_state(self, channel):
        network = PhotonicSNN(3, 2, stdp=STDPRule(), neuron_threshold=0.5, rng=0)
        network.run(rate_encode(np.ones(3)), learning=True)
        network.neurons[0].membrane = 0.25
        last_pre = network._last_pre.copy()
        last_post = network._last_post.copy()
        fractions = network.synapse_array.fractions.copy()
        pattern = rate_encode(np.ones(2)) + [SpikeTrain(channel, [1e-9])]
        with pytest.raises(ValueError, match="channel"):
            network.run(pattern, learning=True)
        assert network.neurons[0].membrane == 0.25
        assert np.array_equal(network._last_pre, last_pre, equal_nan=True)
        assert np.array_equal(network._last_post, last_post, equal_nan=True)
        assert np.array_equal(network.synapse_array.fractions, fractions)

    @pytest.mark.parametrize("channel", [-1, 3])
    def test_run_patterns_rejects_out_of_range_channel_before_any_state(self, channel):
        network = PhotonicSNN(3, 2, rng=0)
        network.run(rate_encode(np.ones(3)), learning=False)
        last_pre = network._last_pre.copy()
        fractions = network.synapse_array.fractions.copy()
        patterns = [rate_encode(np.ones(3)), [SpikeTrain(0, [0.0]), SpikeTrain(channel, [1e-9])]]
        with pytest.raises(ValueError, match="channel"):
            network.run_patterns(patterns)
        assert np.array_equal(network._last_pre, last_pre, equal_nan=True)
        assert np.array_equal(network.synapse_array.fractions, fractions)


class TestSTDPLearning:
    def test_train_returns_history(self):
        patterns = make_spike_patterns(n_inputs=6, n_patterns=2, rng=0)
        network = PhotonicSNN(6, 2, stdp=STDPRule(), inhibition=0.3, neuron_threshold=0.6, rng=0)
        history = network.train(patterns, epochs=3)
        assert len(history) == 3
        assert history[0].shape == (6, 2)

    def test_training_requires_stdp(self):
        network = PhotonicSNN(4, 2, stdp=None, rng=0)
        with pytest.raises(ValueError):
            network.train([rate_encode(np.ones(4))])

    def test_stdp_potentiates_active_inputs_more_than_inactive(self):
        # Drive only the first half of the inputs repeatedly: their synapses
        # should end up stronger (relative to start) than the silent ones.
        n_inputs, n_outputs = 6, 1
        network = PhotonicSNN(
            n_inputs, n_outputs, stdp=STDPRule(a_plus=0.15, a_minus=0.05),
            neuron_threshold=0.6, rng=0,
        )
        initial = network.weight_matrix().copy()
        values = np.zeros(n_inputs)
        values[:3] = 1.0
        pattern = rate_encode(values, max_spikes=8)
        for _ in range(4):
            network.run(pattern, learning=True)
        final = network.weight_matrix()
        active_change = np.mean(final[:3, 0] - initial[:3, 0])
        silent_change = np.mean(final[3:, 0] - initial[3:, 0])
        assert active_change > silent_change

    def test_respond_is_deterministic_for_fixed_weights(self):
        patterns = make_spike_patterns(n_inputs=6, n_patterns=1, rng=0)
        network = PhotonicSNN(6, 2, neuron_threshold=0.5, rng=0)
        assert np.array_equal(network.respond(patterns[0]), network.respond(patterns[0]))
