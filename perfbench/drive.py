"""Load drivers of the benchmark: a closed loop and a due-time open loop.

Both drivers take a ``submit(index)`` callable returning an awaitable (an
``asyncio.Future`` from ``submit_nowait``), so they work against any
front end.  The open loop times every request from the moment it was *due*
— not from when the generator got round to submitting it — and records how
late the generator ran.  An engine executing inline on the event loop
stalls the generator too; stamping at submit time would hide that stall
from the latency figures.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Awaitable, Callable, List

import numpy as np

Submit = Callable[[int], Awaitable]
#: the open loop yields, rather than sleeps, for the last stretch to a due time
SPIN_S = 0.0015
#: ``check(indices, outputs)`` returns the errors found in those outputs;
#: drivers call it once, when the phase is over, so checking never stalls
#: the loop inside a timed phase (keep phases short to bound the memory)
Check = Callable[[List[int], List[np.ndarray]], List[str]]


@dataclass
class PhaseResult:
    """Outcome of one timed phase.

    Attributes:
        attempted: requests the driver tried to submit.
        failed: requests refused at admission or resolved with an error.
        completed: requests answered with an output.
        checked: completed requests whose outputs went through the check.
        errors: what the check found.
        latency_s: due-time latency of each completed request (open loop).
        lag_s: how late the generator submitted each request (open loop).
        started / ended: the phase window on the driver clock.
    """

    attempted: int = 0
    failed: int = 0
    completed: int = 0
    checked: int = 0
    errors: List[str] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    lag_s: List[float] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0


class _Checker:
    """Collects ``(index, output)`` pairs to check when the phase is over."""

    def __init__(self, check: Check, result: PhaseResult):
        self.check = check
        self.result = result
        self.indices: List[int] = []
        self.outputs: List[np.ndarray] = []

    def add(self, index: int, output: np.ndarray) -> None:
        """Keep one completed request's output."""
        self.indices.append(index)
        self.outputs.append(output)

    def flush(self) -> None:
        """Check everything kept so far, then drop it."""
        if self.indices:
            try:
                self.result.errors += self.check(self.indices, self.outputs)
            except ValueError as exc:  # malformed outputs
                self.result.errors.append(str(exc))
            self.result.checked += len(self.indices)
            self.indices, self.outputs = [], []


async def closed_loop(
    submit: Submit,
    check: Check,
    clients: int,
    requests: int,
    first_index: int = 0,
    clock: Callable[[], float] = time.perf_counter,
) -> PhaseResult:
    """Run ``clients`` callers that each send the next request on a reply.

    The phase serves a fixed number of requests, indices handed out in
    submission order from ``first_index``, so its work does not depend on
    how fast the program runs.  It ends at the last completion.
    """
    result = PhaseResult()
    counter = iter(range(first_index, first_index + requests))
    checker = _Checker(check, result)

    async def client() -> None:
        for index in counter:
            try:
                output = await submit(index)
            except Exception:  # noqa: BLE001 - every failure counts against the run
                result.failed += 1
                continue
            result.completed += 1
            checker.add(index, output)

    result.started = clock()
    await asyncio.gather(*(client() for _ in range(clients)))
    result.ended = clock()
    result.attempted = requests
    checker.flush()
    return result


async def open_loop(
    submit: Submit,
    check: Check,
    due_offsets_s: np.ndarray,
    first_index: int = 0,
    clock: Callable[[], float] = time.perf_counter,
) -> PhaseResult:
    """Submit request ``i`` at ``start + due_offsets_s[i]``, whatever happens.

    Latency runs from each request's due time to its completion, so a
    stall delays every request that fell due during it; ``lag_s`` records
    how late the generator submitted each request.
    """
    result = PhaseResult()
    checker = _Checker(check, result)
    all_done = asyncio.Event()
    outstanding = 0
    generating = True
    start = clock()
    result.started = start

    def finished(index: int, due: float, future: asyncio.Future) -> None:
        nonlocal outstanding
        if future.cancelled() or future.exception() is not None:
            result.failed += 1
        else:
            result.latency_s.append(clock() - due)
            result.completed += 1
            checker.add(index, future.result())
        outstanding -= 1
        if not outstanding and not generating:
            all_done.set()

    for offset, due_offset in enumerate(due_offsets_s):
        due = start + float(due_offset)
        now = clock()
        while now < due:
            # the loop's timers fire on a millisecond grid: sleep to just
            # short of the due time, then yield until it arrives, so lag
            # measures stalls rather than timer granularity
            await asyncio.sleep(due - now - SPIN_S if due - now > 2 * SPIN_S else 0)
            now = clock()
        result.lag_s.append(now - due)
        result.attempted += 1
        index = first_index + offset
        try:
            future = asyncio.ensure_future(submit(index))
        except Exception:  # noqa: BLE001 - refused at admission
            result.failed += 1
            continue
        outstanding += 1
        future.add_done_callback(partial(finished, index, due))
    generating = False
    if outstanding:
        await all_done.wait()
    checker.flush()
    result.ended = start + float(due_offsets_s[-1]) if len(due_offsets_s) else start
    return result


def poisson_offsets(rate_hz: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Seeded Poisson arrival offsets covering ``seconds`` at ``rate_hz``."""
    n = int(rate_hz * seconds * 1.2) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate_hz, size=n))
    return offsets[offsets < seconds]


def grouped_percentile(slices: List[np.ndarray], q: float, min_samples: int = 300) -> float:
    """Median over groups of consecutive slices of each group's ``q``-th percentile.

    Slices are merged in order until a group holds ``min_samples``
    samples (a p99 then has three beyond it); a trailing short group joins
    the last full one.  A host stall spoils one group, not the figure.
    """
    groups: List[List[np.ndarray]] = [[]]
    for values in slices:
        if sum(map(len, groups[-1])) >= min_samples:
            groups.append([])
        groups[-1].append(values)
    if len(groups) > 1 and sum(map(len, groups[-1])) < min_samples:
        short = groups.pop()
        groups[-1] += short
    return float(np.median([np.percentile(np.concatenate(g), q) for g in groups]))


_PROBE_MATRIX = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
_PROBE_VECTOR = np.linspace(0.5, 1.5, 16)


def _probe_kernel() -> float:
    total = 0.0
    for step in range(400):
        total += float((_PROBE_MATRIX @ _PROBE_VECTOR)[step % 16])
        record = {"step": step, "pair": [step, step + 1]}
        total += len(record["pair"])
    return total


def host_probe(repeats: int = 3) -> float:
    """Seconds one fixed Python-plus-NumPy kernel takes on the host right now.

    A shared host drifts by tens of percent over seconds as other tenants
    come and go; the kernel touches the same kinds of work as the program
    (interpreter, small NumPy calls), so its time tracks that drift.  The
    median of a few runs ignores a single interrupt.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        _probe_kernel()
        times.append(time.perf_counter() - started)
    return float(np.median(times))
