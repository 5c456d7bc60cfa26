"""Reference-speed calibration of the benchmark's timings.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts:
the same fixed work takes 30-60% longer in some minutes than in others, and
CPU time moves with wall time, so neither clock alone gives a steady figure.
The benchmark therefore samples the machine's speed with a fixed calibration
unit while it measures, and reports times in *reference seconds*:

    reference_s = measured_s * REFERENCE_UNIT_S / mean unit time

``REFERENCE_UNIT_S`` is the unit's typical time on the baseline machine, so
that a reference second is close to a wall second there. The unit mixes the
kinds of work trscore does: a pure-Python loop (interpreter speed), a loop of
numpy operations on B=4 training-shaped arrays (dispatch) and a few operations
on a chunk-256 scoring-shaped array (arithmetic). A change to the program moves
``measured_s`` and never the unit, which lives in the benchmark alone.

A ``Probe`` runs the unit every ``PERIOD_S`` seconds of wall time from a
``SIGALRM`` handler, so the samples spread evenly over the measured calls and
follow the speed changes within a call, not only between calls. The time the
handler takes is subtracted from the call that it interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median unit time on the baseline machine (2 vCPUs, Intel Xeon, KVM).
REFERENCE_UNIT_S = 0.0125
PERIOD_S = 0.25
MIN_UNITS = 12  # units in a calibration between intervals

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((4, 10, 64))
_LARGE = _rng.standard_normal((256, 10, 64))
_WEIGHT = _rng.standard_normal((64, 64)) * 0.1


def _unit() -> float:
    total = 0
    for i in range(20000):
        total += i * i
    x = _SMALL
    for _ in range(100):
        x = np.tanh(x @ _WEIGHT) + _SMALL.mean(axis=-1, keepdims=True)
    y = _LARGE
    for _ in range(4):
        y = np.tanh(y @ _WEIGHT)
        y = y - y.mean(axis=-1, keepdims=True)
    return float(total) + float(x[0, 0, 0]) + float(y[0, 0, 0])


class Probe:
    """Samples the calibration unit every ``PERIOD_S`` while entered.

    ``unit_times`` holds every sampled unit time and ``spent`` the seconds the
    samples took; an interval measured under the probe subtracts the growth
    of ``spent`` over it. ``sample`` adds samples between intervals.
    """

    def __init__(self) -> None:
        _unit()  # the first call's one-off costs stay out of the samples
        self.unit_times: list[float] = []
        self.spent = 0.0
        self._previous = None
        self._running = False

    def _run_unit(self, *_signal_args) -> None:
        if self._running:  # the timer fired during a sample; it must not time itself
            return
        self._running = True
        try:
            start = time.perf_counter()
            _unit()
            elapsed = time.perf_counter() - start
        finally:
            self._running = False
        self.unit_times.append(elapsed)
        self.spent += elapsed

    def sample(self, units: int = MIN_UNITS) -> None:
        for _ in range(units):
            self._run_unit()

    def measure(self, fn):
        """Call ``fn()``; return its wall seconds without the probe's, and its result."""
        spent, start = self.spent, time.perf_counter()
        result = fn()
        return time.perf_counter() - start - (self.spent - spent), result

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._run_unit)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def reference_seconds(measured: float, unit_times: list[float]) -> float:
    """``measured`` seconds in reference seconds, given the unit times
    sampled while it was measured."""
    return measured * REFERENCE_UNIT_S / statistics.fmean(unit_times)
