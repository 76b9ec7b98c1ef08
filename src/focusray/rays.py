"""Weighted ray cone generation and the centrality score it induces.

A cone of k concentric layers with n rays each is cast from the midpoint
camera. Layer i sits at polar angle half_angle*i/k; azimuths follow a
golden-angle spiral over the global ray index, which spreads directions
with low discrepancy. Each ray carries weight alpha(i)/n where alpha is a
normalized linear taper over layers, so all k*n per-ray weights sum to 1
and the resulting per-object score lands in [0, 1].

The score of an object is the summed weight of the rays whose nearest hit
(occlusion-resolved over the given scene) is that object. Ray order and
weight accumulation order are fixed, so results are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .geometry import MidCamera, SceneObject, Vec3, _object_arrays

# 2*pi*(1 - 1/phi), phi the golden ratio: ~137.5 degrees per step.
GOLDEN_ANGLE = 2.0 * math.pi * (1.0 - 2.0 / (1.0 + math.sqrt(5.0)))


@dataclass(frozen=True, slots=True)
class RayConfig:
    """Cone parameters: k layers, n rays per layer, aperture half-angle (radians)."""

    k: int
    n: int
    half_angle: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k!r}")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n!r}")
        if not 0.0 < self.half_angle < math.pi / 2.0:
            raise ValidationError(f"half_angle must be in (0, pi/2), got {self.half_angle!r}")


@dataclass(frozen=True)
class RayBundle:
    """The ray cone as arrays, in the order `ray_bundle` builds it.

    directions: (R, 3) unit vectors; layers: (R,) 1-based ints;
    weights: (R,) per-ray weights summing to 1. Arrays are read-only.
    """

    directions: np.ndarray
    layers: np.ndarray
    weights: np.ndarray


def layer_weight(i: int, k: int) -> float:
    """Normalized linear layer taper: (k - i + 1) / sum(1..k), decreasing in i."""
    if not 1 <= i <= k:
        raise ValidationError(f"layer index {i} out of range [1, {k}]")
    return (k - i + 1) / (k * (k + 1) // 2)


def _orthonormal_frame(cam: MidCamera) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exactly orthonormal (forward, right, up) built from the camera frame."""
    f = cam.forward.normalized()
    r = f.cross(cam.up).normalized()
    u = r.cross(f)
    return (
        np.array([f.x, f.y, f.z]),
        np.array([r.x, r.y, r.z]),
        np.array([u.x, u.y, u.z]),
    )


def ray_bundle(config: RayConfig, cam: MidCamera) -> RayBundle:
    """Build the k*n ray cone as arrays, ordered layer-major, azimuth-index minor."""
    k, n = config.k, config.n
    fwd, right, up = _orthonormal_frame(cam)

    layers = np.repeat(np.arange(1, k + 1), n)
    theta = config.half_angle * layers / k
    phi = np.arange(k * n, dtype=np.float64) * GOLDEN_ANGLE

    sin_t = np.sin(theta)
    lateral = np.cos(phi)[:, None] * right[None, :] + np.sin(phi)[:, None] * up[None, :]
    directions = np.cos(theta)[:, None] * fwd[None, :] + sin_t[:, None] * lateral

    weights = np.repeat([layer_weight(i, k) for i in range(1, k + 1)], n) / n

    for arr in (directions, layers, weights):
        arr.flags.writeable = False
    return RayBundle(directions=directions, layers=layers, weights=weights)


def nearest_hit_indices(origin: Vec3, directions: np.ndarray, objects: Sequence[SceneObject]) -> np.ndarray:
    """Index (into `objects`) of the nearest-hit object per ray, -1 on miss.

    Ties at identical hit distance go to the earliest object in `objects`;
    callers pass objects in ascending id order so the lower id wins. An
    origin inside (or on) a sphere counts as a hit at distance zero: the
    object occupies the camera.
    """
    n_rays = directions.shape[0]
    if not objects:
        return np.full(n_rays, -1, dtype=np.int64)

    cx, cy, cz, rad = _object_arrays(objects)
    ocx = (origin.x - cx)[None, :]
    ocy = (origin.y - cy)[None, :]
    ocz = (origin.z - cz)[None, :]
    dx = directions[:, 0][:, None]
    dy = directions[:, 1][:, None]
    dz = directions[:, 2][:, None]

    # In-place accumulation in a fixed operand order (b = oc.d, c = oc.oc - r^2,
    # disc = b*b - c), which the scalar reference in tests/oracles.py mirrors.
    b = ocx * dx
    b += ocy * dy
    b += ocz * dz
    c = (ocx * ocx + ocy * ocy + ocz * ocz) - (rad * rad)[None, :]
    disc = b * b
    disc -= c
    hit = disc >= 0.0
    np.copyto(disc, 0.0, where=~hit)
    root = np.sqrt(disc, out=disc)
    t1 = -b
    t0 = t1 - root
    t1 += root
    t = np.where(hit & (t0 >= 0.0), t0, np.where(hit & (t1 >= 0.0), 0.0, np.inf))

    nearest = np.argmin(t, axis=1)
    missed = ~np.isfinite(t[np.arange(n_rays), nearest])
    nearest[missed] = -1
    return nearest


def rm_scores(origin: Vec3, bundle: RayBundle, objects: Sequence[SceneObject]) -> list[float]:
    """Per-object centrality scores, one per entry of `objects`, in order.

    Weights accumulate in ray-index order so the reduction is deterministic.
    """
    nearest = nearest_hit_indices(origin, bundle.directions, objects)
    scores = [0.0] * len(objects)
    weights = bundle.weights.tolist()
    for j, obj_idx in enumerate(nearest.tolist()):
        if obj_idx >= 0:
            scores[obj_idx] += weights[j]
    return scores
