"""A clock that reports elapsed time at one reference machine speed.

Shared machines change speed by up to 2x, in phases of seconds to tens of
seconds and in flickers shorter than one cell of a workload, so raw times of
identical work differ by more than any useful regression bound.  While a
:class:`Clock` runs, SIGALRM fires every ``SAMPLE_S`` and times a short
calibration loop, which gives the machine's speed relative to the reference.
Each interval between two marks is multiplied by the mean speed seen during
it, and the time spent in the handler is left out of the interval.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import Callable

# Sampling period, and the share of the full loop each sample runs.
SAMPLE_S = 0.02
SAMPLE_FRACTION = 0.05

# Seconds each full loop takes at reference speed.  The two were measured
# together on one machine, so both speeds use the same reference.
INTERPRETER_REF_S = 0.015
NUMPY_REF_S = 0.0089


def interpreter_speed(fraction: float = 1.0) -> float:
    """Speed relative to the reference, from ``fraction`` of a pure-Python
    loop.  It imports nothing, so it can run in a signal handler at any
    point, even during an import: it times set-up."""
    start = perf_counter()
    state = {"x": 1.0}
    for i in range(int(48_000 * fraction)):
        state["x"] = abs(state["x"] * 1.0001 - (i & 7)) % 97.0
        divmod(i, 3)
    return INTERPRETER_REF_S * fraction / (perf_counter() - start)


def numpy_speed(fraction: float = 1.0) -> float:
    """Speed relative to the reference, from ``fraction`` of a loop of small
    numpy calls and interpreter work, the mix qkdlab's per-particle loops are
    made of; it tracks their speed better than pure Python does.  Only for
    use once numpy is imported."""
    import numpy as np

    start = perf_counter()
    a = np.arange(4.0)
    for _ in range(int(1_800 * fraction)):
        a = np.abs(a) ** 2 / (a.sum() + 1.0)
    total = 0
    for i in range(int(20_000 * fraction)):
        total += i * i
    return NUMPY_REF_S * fraction / (perf_counter() - start)


class Clock:
    """Elapsed time at reference speed, from ``start`` to ``stop``.

    ``on_pause(seconds)`` is told how long each sample took, so a tracer can
    leave it out of the self time of the span it interrupted.
    """

    def __init__(self, speed: Callable[[float], float]) -> None:
        self.speed = speed
        self.on_pause: Callable[[float], None] | None = None
        self.scaled = self.raw = 0.0
        self._ticks: list[tuple[float, float]] = []  # (speed, handler seconds)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        speed = self.speed(SAMPLE_FRACTION)
        took = perf_counter() - start
        self._ticks.append((speed, took))
        if self.on_pause is not None:
            self.on_pause(took)

    def start(self) -> None:
        self.scaled = self.raw = 0.0
        self._ticks = []
        self._speed = self.speed(1.0)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self._start = perf_counter()

    def mark(self) -> float:
        """Close the current interval; returns it in reference seconds.

        An interval too short to hold a sample keeps the latest speed.
        """
        ticks, self._ticks = self._ticks, []
        now = perf_counter()
        raw = now - self._start - sum(took for _, took in ticks)
        self._start = now
        if ticks:
            self._speed = sum(speed for speed, _ in ticks) / len(ticks)
        scaled = raw * self._speed
        self.scaled += scaled
        self.raw += raw
        return scaled

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
