"""Spike encodings: converting analog values to optical spike trains.

Photonic SNN inputs arrive as optical pulse trains.  Two standard encodings
are provided:

* rate coding — the value sets the number of (regularly spaced) spikes in
  an encoding window;
* latency (time-to-first-spike) coding — larger values spike earlier, which
  suits the sub-nanosecond dynamics of the excitable lasers and requires a
  single pulse per input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class SpikeTrain:
    """Spikes of one input channel.

    Attributes:
        neuron: input channel index.
        times: sorted spike times [s].
    """

    neuron: int
    times: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.sort(np.asarray(self.times, dtype=float)))


def rate_encode(
    values: np.ndarray,
    window: float = 10e-9,
    max_spikes: int = 10,
) -> List[SpikeTrain]:
    """Rate-encode values in [0, 1] into regularly spaced spike trains."""
    values = np.asarray(values, dtype=float)
    if np.any(values < 0) or np.any(values > 1):
        raise ValueError("values must be normalised into [0, 1]")
    if window <= 0 or max_spikes < 1:
        raise ValueError("window must be positive and max_spikes >= 1")
    trains = []
    for neuron, value in enumerate(values):
        n_spikes = int(round(value * max_spikes))
        if n_spikes == 0:
            times = np.empty(0)
        else:
            times = np.linspace(window / (n_spikes + 1), window, n_spikes, endpoint=False)
        trains.append(SpikeTrain(neuron=neuron, times=times))
    return trains


def latency_encode(
    values: np.ndarray,
    window: float = 10e-9,
    threshold: float = 0.05,
) -> List[SpikeTrain]:
    """Latency-encode values in [0, 1]: larger values spike earlier.

    Values below ``threshold`` emit no spike.  The mapping is linear:
    ``t = (1 - value) * window``.
    """
    values = np.asarray(values, dtype=float)
    if np.any(values < 0) or np.any(values > 1):
        raise ValueError("values must be normalised into [0, 1]")
    trains = []
    for neuron, value in enumerate(values):
        if value < threshold:
            times = np.empty(0)
        else:
            times = np.array([(1.0 - value) * window])
        trains.append(SpikeTrain(neuron=neuron, times=times))
    return trains


def merge_spike_trains(trains: List[SpikeTrain]) -> List[Tuple[float, int]]:
    """Merge per-channel spike trains into one time-sorted event list."""
    events = []
    for train in trains:
        neuron = train.neuron
        events.extend([(time, neuron) for time in train.times.tolist()])
    events.sort(key=lambda item: item[0])
    return events


def spike_count_decode(spike_times_per_neuron: List[np.ndarray]) -> np.ndarray:
    """Decode output spike counts into a class-score vector."""
    return np.array([len(times) for times in spike_times_per_neuron], dtype=float)
