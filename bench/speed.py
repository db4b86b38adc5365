"""Machine-speed probe: a fixed numpy loop that uses no package code.

On a shared machine the speed of the same code swings by tens of percent
within seconds to minutes.  ``run.py`` runs this probe before the first
timed call and after every one, and scales each call's time by
``REFERENCE_S`` over the mean of the two probes around it, so that the
swing cancels while any change to the package still shows.
"""

import time

import numpy as np

# Median probe time on the 2-CPU machine the benchmark was sized on.
REFERENCE_S = 0.08


def probe() -> float:
    """Seconds for one pass: small 2-D and 1-D array work, like a time step."""
    square = np.linspace(1.0, 2.0, 4096).reshape(64, 64)
    line = np.linspace(1.0, 2.0, 64)
    started = time.perf_counter()
    for _ in range(600):
        for x in (square, line, line, line, line):
            grad = np.diff(x, axis=-1) / 0.125
            flux = np.where(grad > 0, x[..., :-1], x[..., 1:]) * grad
            y = x.copy()
            y[..., 1:] -= flux
            y[..., :-1] += flux
            float(y.max())
            float(y.sum())
    return time.perf_counter() - started


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """Each time rescaled to reference speed by the probes taken just before and after it."""
    return [t * 2.0 * REFERENCE_S / (before + after) for t, before, after in zip(times, probes, probes[1:])]
