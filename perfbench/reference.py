"""A fixed reference workload: how fast the benchmark's CPU runs right now.

On a shared host each CPU switches between a fast state and one up to twice
as slow, from about once a second to minutes at a time, so a wall time
measured now and one measured ten minutes later differ by more than most
optimisations. The runner times this workload between its repetitions, on
the same CPU, and scales its end-to-end times by `NOMINAL_S` over the
reference's median time, raised to `SENSITIVITY`, so that they read as on a
CPU in its fast state.

The work mixes what a focusray frame does: per-object Python attribute work
that builds arrays, then a small numpy ray-sphere test. It is independent of
the program under test, so a change of the program moves the scaled times
as it moves the raw ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

SAMPLE_FRAMES = 600
# The median time of one sample on an undisturbed CPU of the 2-vCPU Intel
# Xeon host the benchmark's bounds were set on (Python 3.11, numpy 2.4).
NOMINAL_S = 0.065
# How much the workloads slow down when the reference does, as the slope of
# log(time) against log(reference time) across runs: 0.2 to 1.05 per metric
# and workload, 0.64 on average, over 26 back-to-back 36-second runs on that
# host. The reference's small loops slow down more than the workloads do, so
# scaling by the full ratio would over-correct.
SENSITIVITY = 0.6

_rng = np.random.default_rng(7)
_CENTERS = _rng.uniform(-20.0, 20.0, (120, 3))
_RADII = _rng.uniform(0.3, 1.5, 120)
_FAN = np.sin(np.linspace(-0.3, 0.3, 64))


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        self.x, self.y, self.z = x, y, z

    def sub(self, other: _Point) -> _Point:
        return _Point(self.x - other.x, self.y - other.y, self.z - other.z)

    def dot(self, other: _Point) -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


_POINTS = [_Point(*c) for c in _CENTERS.tolist()]


def _frame(k: int) -> int:
    eye = _Point(0.1 * k, 1.6, 0.0)
    fwd = _Point(math.sin(0.01 * k), 0.0, -math.cos(0.01 * k))
    keep = []
    for i, p in enumerate(_POINTS):
        d = p.sub(eye)
        t = d.dot(fwd)
        if t > 0.0 and d.dot(d) - t * t < 400.0:
            keep.append(i)
    if not keep:
        return -1
    c = _CENTERS[keep] - np.array([eye.x, eye.y, eye.z])
    r = _RADII[keep]
    dirs = np.stack([_FAN + fwd.x, np.zeros(64), np.full(64, fwd.z)], axis=1)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    b = dirs @ c.T
    disc = b * b - (c * c).sum(axis=1) + r * r
    hit = np.where(disc > 0.0, b - np.sqrt(np.maximum(disc, 0.0)), np.inf)
    return int(np.argmin(hit.min(axis=0)))


def scale(reference_s: float) -> float:
    """Factor that turns a time measured while the reference took `reference_s` into one
    on an undisturbed CPU."""
    return (NOMINAL_S / reference_s) ** SENSITIVITY


def sample() -> float:
    """Seconds for one fixed sample of the reference work."""
    start = time.perf_counter_ns()
    for k in range(SAMPLE_FRAMES):
        _frame(k)
    return (time.perf_counter_ns() - start) / 1e9
