"""Focus-target selection: score candidates and pick the most important one.

Each candidate object inside the region of interest gets three [0, 1]
signals: rm (ray-cone centrality from `rays`), d (proximity, linear in
distance with a far clamp), and v (designer-assigned value). A convex
combination of the three under configurable weights gives the importance;
the candidate with the highest importance wins.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import Roi, SceneObject, StereoRig, cone_mask, derive_mid_camera, sphere_array
from .rays import RayBundle, RayConfig, ray_bundle, rm_scores

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class HeuristicWeights:
    """Mixing weights for the importance function; must sum to 1."""

    p_rm: float
    p_d: float
    p_v: float

    def __post_init__(self) -> None:
        for name, w in (("p_rm", self.p_rm), ("p_d", self.p_d), ("p_v", self.p_v)):
            if not (math.isfinite(w) and w >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {w!r}")
        total = self.p_rm + self.p_d + self.p_v
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights must sum to 1, got {total!r}")


@dataclass(frozen=True, slots=True)
class FocusCandidate:
    """One scored candidate: the three signals plus their weighted combination."""

    object_id: int
    rm: float
    d: float
    v: float
    importance: float


class _PreparedScene(NamedTuple):
    given: tuple[SceneObject, ...]  # as passed, for the identity check
    objects: tuple[SceneObject, ...]  # id-sorted, ids checked unique
    spheres: np.ndarray  # sphere_array(objects), read-only


_last_prepared: _PreparedScene | None = None


def _prepare(scene: Sequence[SceneObject]) -> _PreparedScene:
    """The prepared form of `scene`, reused from the last call while `scene`
    holds the very same objects in the same order (objects are frozen)."""
    global _last_prepared
    last = _last_prepared
    if last is not None and len(last.given) == len(scene) and all(map(operator.is_, last.given, scene)):
        return last
    ids = [o.id for o in scene]
    if len(set(ids)) != len(ids):
        raise ValidationError("scene contains duplicate object ids")
    objects = tuple(sorted(scene, key=lambda o: o.id))
    spheres = sphere_array(objects)
    spheres.flags.writeable = False
    _last_prepared = _PreparedScene(tuple(scene), objects, spheres)
    return _last_prepared


def select_focus(
    scene: Sequence[SceneObject],
    rig: StereoRig,
    roi: Roi,
    ray_cfg: RayConfig,
    weights: HeuristicWeights,
) -> tuple[FocusCandidate | None, list[FocusCandidate]]:
    """Pick the focus object among ROI candidates; also return every candidate.

    Pipeline: cull the scene to the ROI, cast the ray cone once, score each
    candidate, take the argmax of importance. Ties go to the higher proximity
    score, then the lower object id. The candidate list is always in
    ascending object-id order; an empty candidate set yields (None, []).
    The scene's id check, sort and arrays are kept from the previous call
    while it passes the very same objects in the same order.
    """
    prepared = _prepare(scene)
    every = prepared.spheres
    cols = np.flatnonzero(cone_mask(roi.apex, roi.axis, roi.half_angle, roi.z_far, every, every[:, 3]))
    if not cols.size:
        return None, []
    candidates = [prepared.objects[i] for i in cols.tolist()]
    spheres = every[cols]

    cam = derive_mid_camera(rig)
    bundle: RayBundle = ray_bundle(ray_cfg, cam)
    rms = rm_scores(cam.m, bundle, spheres)

    # d: 1 at the camera, falling linearly to 0 at the ROI's far limit
    values = [obj.value for obj in candidates]
    dx = spheres[:, 0] - cam.m.x
    dy = spheres[:, 1] - cam.m.y
    dz = spheres[:, 2] - cam.m.z
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    d = 1.0 - np.minimum(dist, roi.z_far) / roi.z_far
    imp = weights.p_rm * rms + weights.p_d * d + weights.p_v * np.array(values)

    # positional fields: object_id, rm, d, v, importance
    scored = list(map(FocusCandidate, [obj.id for obj in candidates], rms.tolist(), d.tolist(), values, imp.tolist()))
    # highest importance, then higher d; argmax keeps the first (lowest id) of equals
    top = np.flatnonzero(imp == imp.max())
    return scored[top[np.argmax(d[top])]], scored
