"""Host-speed clock of a benchmark child: its time in reference seconds.

The benchmark host is a share of a busy machine whose speed swings by up to
2x from one second to the next and stays slow for minutes at a time (see
README.md).  A child started with ``--clock`` samples that speed while it
works: every ``INTERVAL_S`` of wall time a timer signal runs ``probe``, a
fixed product of two small polynomials with Fraction coefficients (the
package's own kind of work), and records how long it took.  Scaling the
child's wall time, less the probes' own time, by the mean of
``REF_PROBE_S / dt`` over its probes gives what the child would have taken
on a host on which the probe takes ``REF_PROBE_S``.  The probe is part of
the benchmark, so a change to the package cannot move it.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

import measure

INTERVAL_S = 0.01
# Median probe time on the benchmark host (2-vCPU KVM guest, Intel Xeon at
# 2.1 GHz, CPython 3.11) in one of its fast phases.
REF_PROBE_S = 1.9e-4

# A quadratic in three variables with six distinct Fraction coefficients.
_POLY = {(i, j, 2 - i - j): Fraction(i + 2 * j + 1, j + 2) for i in range(3) for j in range(3 - i)}


def probe() -> float:
    """Seconds one product of ``_POLY`` with itself takes now."""
    t0 = perf_counter()
    acc: dict = {}
    for m1, c1 in _POLY.items():
        for m2, c2 in _POLY.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            acc[m] = acc.get(m, 0) + c1 * c2
    return perf_counter() - t0


class Clock:
    """Probe times of one process, from ``start`` to ``stop``."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.dt: list[float] = []

    def _sample(self, *_signal_args) -> None:
        # A collection started by the probe's allocations would be charged
        # to the probe; with the collector off it runs in the program instead.
        enabled = gc.isenabled()
        gc.disable()
        try:
            at = perf_counter()
            dt = probe()
        finally:
            if enabled:
                gc.enable()
        self.at.append(at)
        self.dt.append(dt)

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def window(self, t0: float = float("-inf"), t1: float = float("inf")) -> list[float]:
        """Probe times of the probes that started in [t0, t1]."""
        return [dt for at, dt in zip(self.at, self.dt) if t0 <= at <= t1]

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done in [t0, t1]."""
        dts = self.window(t0, t1) or self.dt
        return measure.reference_seconds(t1 - t0, dts, REF_PROBE_S)
