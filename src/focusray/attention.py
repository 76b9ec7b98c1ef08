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

import numpy as np

from .errors import ValidationError
from .geometry import CameraRows, Roi, RoiRows, SceneObject, StereoRig, cone_distance, dot_rows, norm_rows, prepare_scene
from .rays import RayBundle, RayConfig, ray_bundle, rm_scores
from .record import Record, record

WEIGHT_SUM_TOL = 1e-9


@record
class HeuristicWeights(Record):
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


@record
class FocusCandidate(Record):
    """One scored candidate: the three signals plus their weighted combination."""

    object_id: int
    rm: float
    d: float
    v: float
    importance: float


@record(eq=False)
class Candidates(Record, Sequence[FocusCandidate]):
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
        return FocusCandidate(int(self.ids[i]), float(self.rm[i]), float(self.d[i]), float(self.v[i]),
                              float(self.importance[i]))


def select_focus(
    scene: Sequence[SceneObject],
    rig: StereoRig | CameraRows,
    roi: Roi | RoiRows,
    ray_cfg: RayConfig,
    weights: HeuristicWeights,
) -> tuple[FocusCandidate | None | np.ndarray, Candidates]:
    """Pick the focus object among ROI candidates; also return every candidate.

    Pipeline: cull the scene to the ROI, cast the ray cone once, score each
    candidate, take the argmax of importance. Ties go to the higher proximity
    score, then the lower object id. The candidates are always in ascending
    object-id order; only the winner is built as a `FocusCandidate`, and an
    empty candidate set yields None and no candidates. A `PreparedScene` is
    used as it is; any other sequence is prepared for this call alone.

    A chunk of T ticks, as the `CameraRows` and `RoiRows` of its mid cameras
    and ROIs, returns each tick's winner as a position in the candidates (-1
    for none) and one `Candidates` holding the ticks' candidate sets back to
    back, each bit for bit what a call on that tick's rig and ROI returns;
    the cull, the ray kernel, the scoring and the pick each run once over the
    chunk. Any other pairing, or rows with a field that does not hold T rows
    (of 3 for the vectors), raises `ValidationError`.
    """
    prepared = prepare_scene(scene)
    one = isinstance(rig, StereoRig) and isinstance(roi, Roi)
    if not (one or isinstance(rig, CameraRows) and isinstance(roi, RoiRows)
            and [np.shape(c) for c in (*rig, *roi)] == [(len(rig.m), 3)] * 5 + [(len(rig.m),)] * 3):
        raise ValidationError("select_focus takes a StereoRig and a Roi, or CameraRows and RoiRows of equal length, "
                              f"got {type(rig).__name__} and {type(roi).__name__}")
    cols, rel, rr, starts = prepared.roi_rows(roi)
    ids = prepared.ids[cols]
    if not cols.size:
        scored = ids, *[np.empty(0)] * 4
    else:
        spheres = prepared.spheres[cols]  # `take` would copy the whole column-major table first
        counts = None if one else np.diff(starts)
        # with the apex at the mid camera, the cull's vectors negated are camera
        # minus center up to the sign of a zero, with the same squared lengths
        if (rig.midpoint() == (roi.apex.x, roi.apex.y, roi.apex.z)) if one else np.array_equal(rig.m, roi.apex):
            oc, ococ = -rel, rr
        else:
            oc = np.subtract(rig.midpoint() if one else np.repeat(rig.m, counts, axis=0), spheres[:, :3])
            ococ = dot_rows(oc, oc)
        dist = np.sqrt(ococ)
        bundle: RayBundle = ray_bundle(ray_cfg, rig)
        if one:
            rms = rm_scores(oc, bundle, spheres, ococ, starts)
        else:
            # Only candidates the solid ray cone about the bundle's axis reaches (oc along its reverse is
            # the center's depth), each sphere grown by 1e-6 of |c - m| + r; no ray hits another: rm 0.0.
            back = np.repeat(-rig.forward / norm_rows(rig.forward)[:, None], counts, axis=0)
            rad, h = spheres[:, 3], ray_cfg.half_angle
            reach = cone_distance(dot_rows(oc, back), ococ, math.sin(h), math.cos(h))
            sub = (reach <= rad + 1e-6 * (dist + rad)).nonzero()[0]  # in id order
            rms = np.zeros(len(cols))
            rms[sub] = rm_scores(oc.take(sub, axis=0), bundle, spheres.take(sub, axis=0), ococ[sub],
                                 sub.searchsorted(starts).tolist())

        # d: 1 at the camera, falling linearly to 0 at the ROI's far limit
        v = prepared.values[cols]
        z_far = roi.z_far if one else np.repeat(roi.z_far, counts)
        d = 1.0 - np.minimum(dist, z_far) / z_far
        scored = ids, rms, d, v, weights.p_rm * rms + weights.p_d * d + weights.p_v * v
    candidates = Candidates(*scored)
    if one:
        return _winner(candidates), candidates
    return _winners(candidates, starts), candidates


def _winner(c: Candidates) -> FocusCandidate | None:
    """Highest importance, then higher d; argmax keeps the first (lowest id) of equals."""
    imp = c.importance
    if not len(imp):
        return None
    top = (imp == imp.max()).nonzero()[0]
    return c[top[c.d[top].argmax()] if len(top) > 1 else top[0]]


def _winners(c: Candidates, starts: list[int]) -> np.ndarray:
    """`_winner`'s rule per tick, the ticks' candidates running from each
    offset in `starts` to the next: the position in `c` of each tick's
    winner, -1 for none. The first position attaining its tick's top
    importance, then top d among those, lies in the tick, at its lowest id."""
    counts = np.diff(starts)
    held = counts > 0
    firsts, counts = np.asarray(starts[:-1])[held], counts[held]
    win = np.full(len(held), -1)
    if len(firsts):
        top = c.importance == np.repeat(np.maximum.reduceat(c.importance, firsts), counts)
        d = np.where(top, c.d, -np.inf)
        best = (d == np.repeat(np.maximum.reduceat(d, firsts), counts)).nonzero()[0]
        win[held] = best[best.searchsorted(firsts)]
    return win
