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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import Roi, SceneObject, StereoRig, dot_rows, prepare_scene
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


@dataclass(frozen=True, slots=True, eq=False)
class Candidates(Sequence[FocusCandidate]):
    """The ROI candidates of one `select_focus` call in ascending id order, as
    arrays (ids int64, the rest float64); each `FocusCandidate` is built on access."""

    ids: np.ndarray
    rm: np.ndarray
    d: np.ndarray
    v: np.ndarray
    importance: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> FocusCandidate:
        i = operator.index(i)
        return FocusCandidate(int(self.ids[i]), *(float(a[i]) for a in (self.rm, self.d, self.v, self.importance)))


def select_focus(
    scene: Sequence[SceneObject],
    rig: StereoRig,
    roi: Roi,
    ray_cfg: RayConfig,
    weights: HeuristicWeights,
) -> tuple[FocusCandidate | None, Candidates]:
    """Pick the focus object among ROI candidates; also return every candidate.

    Pipeline: cull the scene to the ROI, cast the ray cone once, score each
    candidate, take the argmax of importance. Ties go to the higher proximity
    score, then the lower object id. The candidates are always in ascending
    object-id order; only the winner is built as a `FocusCandidate`, and an
    empty candidate set yields None and no candidates. A `PreparedScene` is
    used as it is; any other sequence is prepared for this call alone.
    """
    prepared = prepare_scene(scene)
    cols, rel, rr = prepared.roi_rows(roi)
    if not cols.size:
        return None, Candidates(prepared.ids[cols], *[np.empty(0)] * 4)
    spheres = prepared.spheres[cols]

    # with the apex at the mid camera, the cull's vectors negated are camera
    # minus center up to the sign of a zero, with the same squared lengths
    m = rig.midpoint()
    if (roi.apex.x, roi.apex.y, roi.apex.z) == m:
        oc, ococ = -rel, rr
    else:
        oc = np.subtract(m, spheres[:, :3])
        ococ = dot_rows(oc, oc)
    bundle: RayBundle = ray_bundle(ray_cfg, rig)
    rms = rm_scores(oc, bundle, spheres, ococ)

    # d: 1 at the camera, falling linearly to 0 at the ROI's far limit
    v = prepared.values[cols]
    d = 1.0 - np.minimum(np.sqrt(ococ), roi.z_far) / roi.z_far
    imp = weights.p_rm * rms + weights.p_d * d + weights.p_v * v

    candidates = Candidates(prepared.ids[cols], rms, d, v, imp)
    # highest importance, then higher d; argmax keeps the first (lowest id) of equals
    top = (imp == imp.max()).nonzero()[0]
    return candidates[top[d[top].argmax()] if len(top) > 1 else top[0]], candidates
