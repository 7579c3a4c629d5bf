"""Machine-speed sampling, to put round times on a fixed speed scale.

The benchmark runs on a small VM whose speed drifts by up to a factor of
two within a minute, with the host's other load.  A fixed reference
kernel, owned by the benchmark and not by the program, is timed about
every SAMPLE_PERIOD_S seconds from a SIGALRM handler in the main thread,
so its samples fall among the workload's own steps and see the same
speed.  A round's time, less the time spent in the handler, is then
scaled by REFERENCE_KERNEL_S / (mean kernel time in the round).

The kernel is a Thomas solve on 40 unknowns in Python lists plus small
numpy updates: the same mix of interpreter work and small arrays as the
program's stepping loops.  No thread or process is started.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_PERIOD_S = 0.02
# Time of one kernel call at the reference speed (the median on the 2-core
# VM the bounds were measured on); scaled times are seconds at that speed.
REFERENCE_KERNEL_S = 1.0e-3

_SIZE = 40
_SOLVES = 40
_rng = np.random.default_rng(20260814)
_OFF_DIAGONAL = _rng.uniform(-1.0, -0.5, _SIZE - 1).tolist()
_DIAGONAL = [3.0] * _SIZE
_RHS = _rng.standard_normal(_SIZE)


def reference_kernel() -> float:
    """Fixed interpreter-and-small-array work; returns a checksum."""
    rhs = _RHS
    for _ in range(_SOLVES):
        a, b, c, d = _OFF_DIAGONAL, _DIAGONAL[:], _OFF_DIAGONAL, rhs.tolist()
        for i in range(1, _SIZE):
            w = a[i - 1] / b[i - 1]
            b[i] -= w * c[i - 1]
            d[i] -= w * d[i - 1]
        x = [0.0] * _SIZE
        x[-1] = d[-1] / b[-1]
        for i in range(_SIZE - 2, -1, -1):
            x[i] = (d[i] - c[i] * x[i + 1]) / b[i]
        rhs = 0.5 * np.array(x) + 0.1 * rhs
    return float(rhs[0])


class SpeedSampler:
    """Times the reference kernel through one round; see the module docstring."""

    samples: list[float]

    def _sample(self) -> tuple[float, float]:
        wall, cpu = time.perf_counter(), time.process_time()
        reference_kernel()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        self.samples.append(wall)
        return wall, cpu

    def timed(self, body) -> tuple[float, float]:
        """Run body() while sampling; return its wall and CPU seconds.

        The handler's own time is left out of both.  The kernel also runs
        once just before and once just after the timed region, so every
        round has samples even when the program stays in one long numpy
        call, during which the signal waits.
        """
        self.samples = []
        spent = [0.0, 0.0]

        def on_alarm(*_):
            wall, cpu = self._sample()
            spent[0] += wall
            spent[1] += cpu

        self._sample()
        previous = signal.signal(signal.SIGALRM, on_alarm)
        wall, cpu = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            body()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        return wall - spent[0], cpu - spent[1]

    def scale(self) -> float:
        """Factor that puts the last round's times on the reference speed."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples)
