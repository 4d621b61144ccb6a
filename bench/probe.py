"""Host-speed probe: a fixed piece of work that uses nothing from qcurv.

On a shared machine the speed of one core drifts by a fifth or more over
minutes, and every stretch of the program slows with it.  The probe is the
same mix the library spends its time in: plain Python arithmetic, numpy on
arrays of a few thousand points, and scipy's `quad` calling back into
Python.  While a pass runs, `Sampler` runs the probe every PERIOD_S seconds
from a SIGALRM handler, so the samples spread over the pass, and keeps the
handler's own wall and CPU time so `run.py` can take them out of the pass.
A measured time is then multiplied by REF_S over the mean probe time: it
reads as seconds on a host where the probe takes REF_S.  Because the probe
uses no qcurv code, a change to the library cannot change it.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np
from scipy.integrate import quad

# median probe time on the 2-core Intel Xeon host the baseline was made on
REF_S = 0.13
PERIOD_S = 2.0

_X = np.random.default_rng(1).normal(size=(4000, 5))


def _integrand(t: float, k: int) -> float:
    return math.exp(-t * t / (1 + k)) * math.cos(3 * t) / (1 + t ** 4)


def probe() -> float:
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(800_000):
        s += (i * i) % 7
    for _ in range(250):
        r = np.sqrt(np.einsum("ij,ij->i", _X, _X))
        float(((1.0 + r * r) ** -1.5 * np.exp(-0.1 * r)).sum())
    for k in range(60):
        quad(_integrand, -30.0, 30.0, args=(k,), epsabs=1e-14,
             epsrel=1e-10, limit=200)
    return time.perf_counter() - t0


class Sampler:
    """Probe samples taken every PERIOD_S seconds inside a `with` block."""

    def __init__(self):
        self.times: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _tick(self, signum, frame) -> None:
        c0 = time.process_time()
        dt = probe()
        self.times.append(dt)
        self.cpu_s += time.process_time() - c0
        self.wall_s += dt

    def __enter__(self) -> "Sampler":
        self.times, self.wall_s, self.cpu_s = [], 0.0, 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
