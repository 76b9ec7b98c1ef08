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
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .geometry import CameraRows, MidCamera, StereoRig, dot_rows, norm_rows, unit3, view_frame, view_frame_rows
from .record import Record, record

# 2*pi*(1 - 1/phi), phi the golden ratio: ~137.5 degrees per step.
GOLDEN_ANGLE = 2.0 * math.pi * (1.0 - 2.0 / (1.0 + math.sqrt(5.0)))
# Most rays in a cone, 256 times the default 4 x 64: the nearest-hit kernel's product holds a
# float64 and a bool per ray and candidate of one frame (or GROUP_PAIRS), bounding its memory.
MAX_RAYS = 65_536
# Most ray and candidate pairs in one prefilter product over several frames: the replay's
# 32-tick chunk at 4 x 64 rays against up to 32 candidates a tick; a wider chunk is split.
GROUP_PAIRS = 262_144


@record
class RayConfig(Record):
    """Cone parameters: k layers, n rays per layer, aperture half-angle (radians)."""

    k: int
    n: int
    half_angle: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k!r}")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n!r}")
        if self.k * self.n > MAX_RAYS:
            raise ValidationError(f"k * n must be at most {MAX_RAYS} rays, got {self.k * self.n}")
        if not 0.0 < self.half_angle < math.pi / 2.0:
            raise ValidationError(f"half_angle must be in (0, pi/2), got {self.half_angle!r}")


@record
class RayBundle(Record):
    """The ray cone as arrays, in the order `ray_bundle` builds it.

    directions: (R, 3) unit vectors, or (T, R, 3) for a cone cast from each
    of T cameras; layers: (R,) 1-based ints; weights: (R,) per-ray weights
    summing to 1. Arrays are read-only.
    """

    directions: np.ndarray
    layers: np.ndarray
    weights: np.ndarray


def layer_weight(i: int, k: int) -> float:
    """Normalized linear layer taper: (k - i + 1) / sum(1..k), decreasing in i."""
    if not 1 <= i <= k:
        raise ValidationError(f"layer index {i} out of range [1, {k}]")
    return (k - i + 1) / (k * (k + 1) // 2)


@lru_cache(maxsize=16)
def _cone_trig(config: RayConfig) -> tuple[np.ndarray, ...]:
    """Layers, weights, and cos/sin of each ray's polar angle and azimuth as
    (1, R) rows: everything of the cone that does not depend on the camera."""
    k, n = config.k, config.n
    layers = np.repeat(np.arange(1, k + 1), n)
    theta = config.half_angle * layers / k
    phi = np.arange(k * n, dtype=np.float64) * GOLDEN_ANGLE
    weights = np.repeat([layer_weight(i, k) for i in range(1, k + 1)], n) / n
    arrays = (layers, weights, np.cos(theta)[None], np.sin(theta)[None], np.cos(phi)[None], np.sin(phi)[None])
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def ray_bundle(config: RayConfig, cam: MidCamera | StereoRig | CameraRows) -> RayBundle:
    """Build the k*n ray cone as arrays, layer-major, azimuth-index minor, about
    an exactly orthonormal frame made from that of `cam` (or of its rig):
    `forward` normalized, then `view_frame` of it and `up`. Given the
    `CameraRows` of T cameras, the cone of each, as (T, R, 3) directions,
    each frame computed as for one camera."""
    layers, weights, cos_t, sin_t, cos_p, sin_p = _cone_trig(config)
    if isinstance(cam, CameraRows):
        f = cam.forward / norm_rows(cam.forward)[:, None]
        frames = np.array((f, *view_frame_rows(f, cam.up)[:2]))
    else:
        f = unit3((cam.forward.x, cam.forward.y, cam.forward.z))
        frames = np.array((f, *view_frame(f, (cam.up.x, cam.up.y, cam.up.z))))
    # fwd, right and up as (3, 1) columns, or (T, 3, 1): the products run with
    # the rays innermost, then are laid out (R, 3) or (T, R, 3)
    fwd, right, up = frames[..., None]
    lateral = cos_p * right + sin_p * up
    directions = (cos_t * fwd + sin_t * lateral).swapaxes(-1, -2).copy()
    directions.flags.writeable = False
    return RayBundle(directions, layers, weights)


def nearest_hit_indices(
    oc: np.ndarray, directions: np.ndarray, spheres: np.ndarray, ococ: np.ndarray, starts: Sequence[int] = ()
) -> np.ndarray:
    """Row of `spheres` (see `sphere_array`) hit nearest by each ray, -1 on miss.

    `oc` is the rays' origin minus each center, (N, 3), and `ococ` its
    `dot_rows(oc, oc)`. Ties at identical hit distance go to the earliest
    row; callers pass spheres in ascending id order so the lower id wins. An
    origin inside (or on) a sphere is hit at distance zero. One matrix
    product prefilters the ray x sphere pairs; the exact hit test, distances
    and the per-ray minimum run on the kept pairs only.

    With (T, R, 3) `directions`, the rays of frame t meet only the rows
    `starts[t]:starts[t + 1]` (`starts` holds T + 1 ascending offsets, the
    last len(spheres)), in one product per group of frames of at most
    GROUP_PAIRS pairs of a ray and a padded row, or per frame if one holds
    more; each entry of the result, one per ray cast, frame-major, is what
    one frame's call on its own rows would give, offset by `starts[t]`.
    """
    rays = directions if directions.ndim == 2 else directions.reshape(-1, 3)
    if not len(spheres):
        return np.full(len(rays), -1, dtype=np.int64)

    rad = spheres[:, 3]
    # Fixed operand order (c = oc.oc - r^2, b = oc.d, disc = b*b - c), which
    # the scalar reference in tests/oracles.py mirrors.
    c = ococ - rad * rad
    # A ray hits a sphere ahead only if it holds the origin (c <= 0) or b <=
    # -sqrt(c). The product sums b in another order (in a chunk, less the
    # bound); with the roundings of both tests that is a few ulps of the reach
    # |oc| + r, far below a margin of 1e-6 of it. Within the margin of holding
    # the origin, rounding can hit even a sphere behind it, so such a sphere
    # keeps every ray: its bound, twice the reach plus 1, is above any b.
    reach = np.sqrt(ococ) + rad
    margin = 1e-6 * reach
    bound = np.where(c > margin * margin, margin - np.sqrt(np.maximum(c, 0.0)), 2.0 * reach + 1.0)
    if directions.ndim == 2:
        pairs = (directions.dot(oc.T) <= bound).ravel().nonzero()[0]  # ray-major, columns ascending
        ray = pairs // len(spheres)  # `//` by a scalar runs several times faster than `%` or `divmod`
        col = pairs - ray * len(spheres)
    else:
        # the same per frame, each frame's rows padded to the widest frame's.
        # The bound rides in the product as a fourth coordinate, rows (oc,
        # bound) by rays (d, -1), so that one compare with 0 runs over the
        # whole contiguous product; a padding row (0, 0, 0, -1) gives 1, so it
        # keeps no pair. A pair is keyed (frame * width + column) * R + ray.
        # Each group pads its own frames: only the kept pairs grow with T.
        per, first, end = directions.shape[1], np.array(starts[:-1]), np.array(starts[1:])
        width = int((end - first).max())
        step, pairs = max(1, GROUP_PAIRS // (per * width)), []
        for g in range(0, len(directions), step):
            cols = np.add.outer(first[g:g + step], np.arange(width))
            block = np.empty((*cols.shape, 4))
            block[..., :3], block[..., 3] = oc.take(cols, axis=0, mode="clip"), bound.take(cols, mode="clip")
            block[cols >= end[g:g + step, None]] = (0.0, 0.0, 0.0, -1.0)
            across = np.empty((len(cols), 4, per))
            across[:, :3], across[:, 3] = directions[g:g + step].swapaxes(1, 2), -1.0
            pairs.append((block @ across <= 0.0).ravel().nonzero()[0] + g * width * per)
        key = np.concatenate(pairs)
        cell = key // per
        frame = cell // width
        ray = key - (cell - frame) * per
        col = cell - frame * width + first[frame]
    d, o = rays.take(ray, axis=0), oc.take(col, axis=0)
    b = dot_rows(o, d)
    disc = b * b - c[col]
    root = np.sqrt(np.maximum(disc, 0.0))
    # distance ahead: the near root, 0 from inside; inf on a miss or behind
    t = np.where((disc >= 0.0) & (root - b >= 0.0), np.maximum(-b - root, 0.0), np.inf)
    # Sort-free nearest per ray: the per-ray minimum, then the lowest column
    # among the pairs attaining it. `min` and `==` are exact.
    tmin = np.full(len(rays), np.inf)
    np.minimum.at(tmin, ray, t)
    best = (t == tmin[ray]).nonzero()[0]
    lowest = np.full(len(rays), len(spheres))
    np.minimum.at(lowest, ray[best], col[best])
    return np.where(tmin < np.inf, lowest, -1)


def rm_scores(
    oc: np.ndarray, bundle: RayBundle, spheres: np.ndarray, ococ: np.ndarray, starts: Sequence[int] = ()
) -> np.ndarray:
    """Per-sphere centrality scores, one per row of `spheres`, in order;
    `oc`, `ococ` and, for a bundle of T cones, `starts` as
    `nearest_hit_indices` takes them.

    Weights accumulate in ray order (`np.bincount` adds sequentially, and
    each row is hit by one frame's rays only), so the sum is deterministic.
    """
    nearest = nearest_hit_indices(oc, bundle.directions, spheres, ococ, starts)
    weights = bundle.weights if bundle.directions.ndim == 2 else np.tile(bundle.weights, len(bundle.directions))
    # misses land in bin 0, which is dropped
    return np.bincount(nearest + 1, weights=weights, minlength=len(spheres) + 1)[1:]
