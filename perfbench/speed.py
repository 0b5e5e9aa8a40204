"""Timing on a machine whose speed changes under the benchmark.

The benchmark shares the cores of its host with other tenants. On a 2-vCPU
virtual machine the same pass took anywhere from 12 s to 22 s, and a fixed
pure-Python loop ran at two speeds, 1.6x apart, switching every few seconds.
CPU time follows wall time there, so ``process_time`` does not help.

Two things steady the numbers:

- A probe. While a timed stretch runs, an interval timer interrupts it every
  ``PERIOD_S`` and the handler times a fixed piece of work with the two
  kinds of cost the workloads have: interpreted Python and a batch of small
  LAPACK calls. Each alone tracked some workloads well and others less well;
  their sum tracked all three about as well as the best of them (a stream
  over a few megabytes, tried as a third kind, did not help). A stretch that
  took ``wall`` seconds, ``probe_s`` of them in ``n`` probes, is reported at
  the reference speed as ``(wall - probe_s) * REFERENCE_PROBE_S / (probe_s / n)``:
  the seconds it would have taken had the probe run in ``REFERENCE_PROBE_S``.
  The handler runs between bytecodes of the main thread, so a long native
  call is sampled only when it returns; a stretch with fewer than
  ``MIN_SAMPLES`` probes takes the speed of its whole pass. Set-up spawns
  take the speed of all the passes of their run: probes taken just before
  and after a spawn, or during it from the parent, did not follow the
  child's speed.
- Parts. A pass repeats the same work bit for bit, so each part of it (a
  sweep column at one point, a section of the scan) counts at its fastest
  pass, after the probe's correction.

Nothing here imports the package, and the probe touches no program state.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

PROBE_LOOPS = 5000
PERIOD_S = 0.04
# The probe's time in the fast phase of the 2-vCPU machine the benchmark was
# tuned on (about 0.7 ms there); a fixed constant, so that runs on one
# machine compare.
REFERENCE_PROBE_S = 7.0e-4
MIN_SAMPLES = 5


class SpeedProbe:
    """Samples the machine's speed on a timer while ``running`` is open."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(64, 4, 4)) + 1j * rng.normal(size=(64, 4, 4))

    def _work(self) -> None:
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i % 7
        np.linalg.svd(self._small, compute_uv=False)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self._work()
        self.total += perf_counter() - t0
        self.count += 1

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class Stretch:
    """Wall seconds of a timed stretch, and the probes taken inside it."""

    wall: float = 0.0
    samples: int = 0
    probe_s: float = 0.0

    def add(self, other: "Stretch") -> None:
        self.wall += other.wall
        self.samples += other.samples
        self.probe_s += other.probe_s

    def minus(self, other: "Stretch") -> "Stretch":
        return Stretch(self.wall - other.wall, self.samples - other.samples,
                       self.probe_s - other.probe_s)

    def probe_mean(self) -> float | None:
        return self.probe_s / self.samples if self.samples else None

    def at_reference(self, fallback_mean: float | None = None) -> float:
        """Seconds of the stretch, less the probes' own, at the reference speed."""
        mean = self.probe_mean() if self.samples >= MIN_SAMPLES else fallback_mean
        return at_reference(self.wall - self.probe_s, mean)


def at_reference(seconds: float, probe_mean: float | None) -> float:
    """``seconds`` taken while the probe averaged ``probe_mean``, at the reference speed."""
    return seconds if probe_mean is None else seconds * REFERENCE_PROBE_S / probe_mean


@contextmanager
def timed(probe: SpeedProbe | None, into: Callable[[Stretch], None]):
    """Time the block; hand its ``Stretch`` to ``into`` even if it raises."""
    n0, s0 = (probe.count, probe.total) if probe else (0, 0.0)
    t0 = perf_counter()
    try:
        yield
    finally:
        wall = perf_counter() - t0
        n1, s1 = (probe.count, probe.total) if probe else (0, 0.0)
        into(Stretch(wall, n1 - n0, s1 - s0))


class PartClock:
    """The ``Stretch`` of each named part of one pass."""

    def __init__(self, probe: SpeedProbe | None = None) -> None:
        self.probe = probe
        self.parts: dict[Any, Stretch] = {}

    def _add(self, key: Any, stretch: Stretch) -> None:
        self.parts.setdefault(key, Stretch()).add(stretch)

    def part(self, key: Any):
        return timed(self.probe, lambda s: self._add(key, s))

    @contextmanager
    def columns(self, table: dict[str, Callable]):
        """Time each call of the sweep column functions in ``table``, keyed by
        column and parameter, while the context is open."""
        originals = dict(table)

        def clocked(name: str, fn: Callable) -> Callable:
            def call(x, cfg):
                with self.part((name, x)):
                    return fn(x, cfg)
            return call

        table.update({name: clocked(name, fn) for name, fn in originals.items()})
        try:
            yield
        finally:
            table.update(originals)


def best_pass(passes: list[tuple[Stretch, dict[Any, Stretch]]]) -> float:
    """Seconds of one pass at the reference speed, every part at its best.

    Each part counts at its fastest pass after the probe's correction, and so
    does the rest of the pass outside the parts. If the passes were not split
    the same way, the fastest whole pass counts.
    """
    means = [total.probe_mean() for total, _ in passes]
    if any(parts.keys() != passes[0][1].keys() for _, parts in passes):
        return min(total.at_reference(m) for (total, _), m in zip(passes, means))
    best = 0.0
    for key in passes[0][1]:
        best += min(parts[key].at_reference(m) for (_, parts), m in zip(passes, means))
    rests = []
    for (total, parts), m in zip(passes, means):
        inside = Stretch()
        for stretch in parts.values():
            inside.add(stretch)
        rests.append(total.minus(inside).at_reference(m))
    return best + min(rests)
