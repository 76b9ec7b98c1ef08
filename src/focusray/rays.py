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
from .geometry import CameraRows, MidCamera, StereoRig, norm_rows, unit3, view_frame, view_frame_rows
from .record import Record, record

# 2*pi*(1 - 1/phi), phi the golden ratio: ~137.5 degrees per step.
GOLDEN_ANGLE = 2.0 * math.pi * (1.0 - 2.0 / (1.0 + math.sqrt(5.0)))
# Most rays in a cone, 256 times the default 4 x 64; the cone's cached trig and table grow with it.
MAX_RAYS = 65_536
# Most ray and candidate pairs in one prefilter product: one frame's rays against 1,024
# candidates at 4 x 64 rays, or the replay's 32-tick chunk against up to 32 candidates a
# tick; a wider frame is split by candidates, a wider chunk by frames.
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


@record
class ConeFrame(Record):
    """One camera's ray cone without its directions, as the one-frame forms
    of `nearest_hit_indices` and `rm_scores` take it: the cone's config and
    the frame `ray_bundle` casts it about, rows forward, right and up of a
    read-only (3, 3) array. `cone_frame` builds it."""

    config: RayConfig
    frame: np.ndarray


def layer_weight(i: int, k: int) -> float:
    """Normalized linear layer taper: (k - i + 1) / sum(1..k), decreasing in i."""
    if not 1 <= i <= k:
        raise ValidationError(f"layer index {i} out of range [1, {k}]")
    return (k - i + 1) / (k * (k + 1) // 2)


@lru_cache(maxsize=16)
def _cone(config: RayConfig) -> tuple[np.ndarray, ...]:
    """Everything of the cone that does not depend on the camera: layers,
    weights, a (4, R) array of rows cos t, cos p, sin p and sin t of each
    ray's polar angle t and azimuth p, which `_directions` takes, and an
    (R, 4) prefilter table of rows (cos t, sin t cos p, sin t sin p, -1): each
    ray along forward, right and up, and a -1 that takes a candidate's bound
    off in the product. The cosines and sines are scalar `math` mapped over
    the angles, as NumPy's may differ from them in the last bit."""
    k, n = config.k, config.n
    layers = np.repeat(np.arange(1, k + 1), n)
    theta = config.half_angle * layers / k
    phi = np.arange(k * n, dtype=np.float64) * GOLDEN_ANGLE
    weights = np.repeat([layer_weight(i, k) for i in range(1, k + 1)], n) / n
    trig = np.stack([np.fromiter(map(fn, x.tolist()), np.float64, k * n)
                     for fn, x in ((math.cos, theta), (math.cos, phi), (math.sin, phi), (math.sin, theta))])
    cos_t, cos_p, sin_p, sin_t = trig
    table = np.column_stack((cos_t, sin_t * cos_p, sin_t * sin_p, np.full_like(cos_t, -1.0)))
    arrays = (layers, weights, trig, table)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _directions(trig: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """cos t * forward + sin t * (cos p * right + sin p * up) per element, for
    the R columns of `_cone`'s rows `trig` about `frames`, rows forward, right
    and up of a (3, 3) array, or of T frames as (3, T, 3): (3, R) or (T, 3, R)."""
    # cos t * forward, cos p * right and sin p * up as one product, (3, 3, R) or (3, T, 3, R)
    terms = trig[(slice(3),) + (None,) * (frames.ndim - 1)] * frames[..., None]
    return terms[0] + trig[3] * (terms[1] + terms[2])


def cone_frame(config: RayConfig, cam: MidCamera | StereoRig) -> ConeFrame:
    """The cone of `config` about an exactly orthonormal frame made from that
    of `cam` (or of its rig): `forward` normalized, then `view_frame` of it
    and `up`."""
    f = unit3((cam.forward.x, cam.forward.y, cam.forward.z))
    frame = np.array((f, *view_frame(f, (cam.up.x, cam.up.y, cam.up.z))))
    frame.flags.writeable = False
    return ConeFrame(config, frame)


def ray_bundle(config: RayConfig, cam: MidCamera | StereoRig | CameraRows) -> RayBundle:
    """Build the k*n ray cone as arrays, layer-major, azimuth-index minor, about
    the frame `cone_frame` makes of `cam`. Given the `CameraRows` of T
    cameras, the cone of each, as (T, R, 3) directions, each frame computed
    as for one camera."""
    layers, weights, trig, _ = _cone(config)
    if isinstance(cam, CameraRows):
        f = cam.forward / norm_rows(cam.forward)[:, None]
        frames = np.array((f, *view_frame_rows(f, cam.up)[:2]))
    else:
        frames = cone_frame(config, cam).frame
    # the products run with the rays innermost, and the directions are their
    # (R, 3) or (T, R, 3) view, which the chunk kernel reads back rays-innermost
    directions = _directions(trig, frames).swapaxes(-1, -2)
    directions.flags.writeable = False
    return RayBundle(directions, layers, weights)


def _kept(product: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each entry of a prefilter product that is at most 0, row-major."""
    cells = (product <= 0.0).ravel().nonzero()[0]
    row = cells // product.shape[1]  # `//` by a scalar runs several times faster than `%` or `divmod`
    return row, cells - row * product.shape[1]


def nearest_hit_indices(
    oc: np.ndarray, rays: ConeFrame | np.ndarray, spheres: np.ndarray, ococ: np.ndarray, starts: Sequence[int] = ()
) -> np.ndarray:
    """Row of `spheres` (see `sphere_array`) hit nearest by each ray of `rays`,
    one camera's `ConeFrame` or the (T, R, 3) directions of T cones; -1 on miss.

    `oc` is the rays' origin minus each center, (N, 3), and `ococ` its
    `dot_rows(oc, oc)`. Ties at identical hit distance go to the earliest
    row; callers pass spheres in ascending id order so the lower id wins. An
    origin inside (or on) a sphere is hit at distance zero. Matrix products
    prefilter the ray x sphere pairs; the exact hit test, distances and the
    per-ray minimum run on the kept pairs only, each pair's direction bit for
    bit `ray_bundle`'s.

    A `ConeFrame` is prefiltered in its camera's frame, the cone's cached
    table by the rows' (frame @ oc, bound), in blocks of rows of at most
    GROUP_PAIRS pairs; only the kept pairs' directions are computed.

    With (T, R, 3) directions, the rays of frame t meet only the rows
    `starts[t]:starts[t + 1]` (`starts` holds T + 1 ascending offsets, the
    last len(spheres)), in one product per group of frames of at most
    GROUP_PAIRS pairs of a ray and a padded row, or per frame if one holds
    more; each entry of the result, one per ray cast, frame-major, is what
    the frame's rays alone would give on its rows, offset by `starts[t]`.
    """
    one = isinstance(rays, ConeFrame)
    if one:
        _, _, trig, table = _cone(rays.config)
        count = len(table)
    else:
        count = rays.shape[0] * rays.shape[1]
    if not len(spheres):
        return np.full(count, -1, dtype=np.int64)

    rad = spheres[:, 3]
    # Fixed operand order (c = oc.oc - r^2, b = oc.d, disc = b*b - c), which
    # the scalar reference in tests/oracles.py mirrors.
    c = ococ - rad * rad
    # A ray hits a sphere ahead only if it holds the origin (c <= 0) or b <=
    # -sqrt(c). The products sum b in other orders, less the bound: in one
    # frame in its camera's frame, whose rotation moves it by a few ulps of
    # |oc|; in a chunk in world coordinates. With the roundings of both tests
    # that is a few ulps of the reach |oc| + r, far below a margin of 1e-6 of
    # it. Within the margin of holding the origin, rounding can hit even a
    # sphere behind it, so such a sphere keeps every ray: its bound, twice the
    # reach plus 1, is above any b.
    reach = np.sqrt(ococ) + rad
    margin = 1e-6 * reach
    bound = np.where(c > margin * margin, margin - np.sqrt(np.maximum(c, 0.0)), 2.0 * reach + 1.0)
    if one:
        # the table's rays (cos t, sin t cos p, sin t sin p, -1) by rows (frame @ oc, bound): d.oc - bound
        local = np.empty((4, len(spheres)))
        np.dot(rays.frame, oc.T, out=local[:3])
        local[3] = bound
        # one product, with no loop, when the rows fit (up to 1,024 at 256
        # rays): the loop's own cost shows in a frame of some 20 rows
        step = max(1, GROUP_PAIRS // count)
        if len(spheres) <= step:
            ray, col = _kept(table @ local)
        else:
            firsts = range(0, len(spheres), step)
            blocks = [_kept(table @ local[:, a:a + step]) for a in firsts]
            ray = np.concatenate([r for r, _ in blocks])
            col = np.concatenate([k + a for a, (_, k) in zip(firsts, blocks)])
        d = _directions(trig.take(ray, axis=1), rays.frame)  # (3, P), each as `ray_bundle` computes it
    else:
        # the same per frame in world coordinates, each frame's rows padded to
        # the widest frame's. The bound rides in the product as a fourth
        # coordinate, rows (oc, bound) by rays (d, -1), so that one compare with
        # 0 runs over the whole contiguous product; a padding row (0, 0, 0, -1)
        # gives 1, so it keeps no pair. A pair is keyed (frame * width +
        # column) * R + ray. Each group pads its own frames: only the kept
        # pairs grow with T.
        per, first, end = rays.shape[1], np.array(starts[:-1]), np.array(starts[1:])
        lanes = rays.swapaxes(1, 2)  # (T, 3, R): contiguous for `ray_bundle`'s directions
        width = int((end - first).max())
        step, pairs = max(1, GROUP_PAIRS // (per * width)), []
        for g in range(0, len(rays), step):
            cols = np.add.outer(first[g:g + step], np.arange(width))
            block = np.empty((*cols.shape, 4))
            block[..., :3], block[..., 3] = oc.take(cols, axis=0, mode="clip"), bound.take(cols, mode="clip")
            block[cols >= end[g:g + step, None]] = (0.0, 0.0, 0.0, -1.0)
            across = np.empty((len(cols), 4, per))
            across[:, :3], across[:, 3] = lanes[g:g + step], -1.0
            pairs.append((block @ across <= 0.0).ravel().nonzero()[0] + g * width * per)
        key = np.concatenate(pairs)
        cell = key // per
        frame = cell // width
        ray = key - (cell - frame) * per
        col = cell - frame * width + first[frame]
        # coordinate j of ray r of frame t lies at (3t + j) * R + r of the lanes: ray + 2tR + jR
        d = lanes.reshape(-1).take(ray + frame * (2 * per) + np.array([[0], [per], [2 * per]]))
    p = oc.take(col, axis=0).T * d  # (3, P) products, summed in `dot_rows`' order
    b = p[0] + p[1] + p[2]
    disc = b * b - c[col]
    root = np.sqrt(np.maximum(disc, 0.0))
    # distance ahead: the near root, 0 from inside; inf on a miss or behind
    t = np.where((disc >= 0.0) & (root - b >= 0.0), np.maximum(-b - root, 0.0), np.inf)
    # Sort-free nearest per ray: the per-ray minimum, then the lowest column
    # among the pairs attaining it. `min` and `==` are exact.
    tmin = np.full(count, np.inf)
    np.minimum.at(tmin, ray, t)
    best = (t == tmin[ray]).nonzero()[0]
    lowest = np.full(count, len(spheres))
    np.minimum.at(lowest, ray[best], col[best])
    return np.where(tmin < np.inf, lowest, -1)


def rm_scores(
    oc: np.ndarray, rays: ConeFrame | RayBundle, spheres: np.ndarray, ococ: np.ndarray, starts: Sequence[int] = ()
) -> np.ndarray:
    """Per-sphere centrality scores, one per row of `spheres`, in order, over
    one camera's `ConeFrame` or a `RayBundle` of T cones; `oc`, `ococ` and,
    for T cones, `starts` as `nearest_hit_indices` takes them.

    Weights accumulate in ray order (`np.bincount` adds sequentially, and
    each row is hit by one frame's rays only), so the sum is deterministic.
    """
    if isinstance(rays, ConeFrame):
        nearest, weights = nearest_hit_indices(oc, rays, spheres, ococ), _cone(rays.config)[1]
    else:
        nearest = nearest_hit_indices(oc, rays.directions, spheres, ococ, starts)
        weights = np.tile(rays.weights, len(rays.directions))
    # misses land in bin 0, which is dropped
    return np.bincount(nearest + 1, weights=weights, minlength=len(spheres) + 1)[1:]
