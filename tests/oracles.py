"""Independent reference implementations used to check the library.

Everything here is deliberately written as brute force: scalar loops, dense
sampling, hard-coded tables. None of it calls the vectorized production
code paths it is used to verify; the only library outputs it consumes are a
ray cone from `ray_bundle` (checked on its own by the ray-cone tests) and the
midpoint camera from `derive_mid_camera`.
"""

from __future__ import annotations

import math

from focusray import (
    FocusCandidate,
    HeuristicWeights,
    MidCamera,
    RayBundle,
    RayConfig,
    Roi,
    SceneObject,
    StereoRig,
    Vec3,
    derive_mid_camera,
    ray_bundle,
)


def ray_sphere_t(origin: Vec3, direction: Vec3, center: Vec3, radius: float) -> float | None:
    """Scalar ray/sphere smallest non-negative hit distance (None on miss).

    Same operand order as the library contract so comparisons can be exact:
    b = oc.d, c = oc.oc - r^2, t = -b - sqrt(b^2 - c), inside hits at 0.
    """
    ocx = origin.x - center.x
    ocy = origin.y - center.y
    ocz = origin.z - center.z
    b = ocx * direction.x + ocy * direction.y + ocz * direction.z
    c = ocx * ocx + ocy * ocy + ocz * ocz - radius * radius
    disc = b * b - c
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    t0 = -b - root
    if t0 >= 0.0:
        return t0
    if -b + root >= 0.0:
        return 0.0
    return None


def rm_by_enumeration(cam: MidCamera, bundle: RayBundle, scene: list[SceneObject]) -> dict[int, float]:
    """Per-object centrality by walking every ray and picking its nearest hit.

    Objects are scanned in ascending id order with a strict < comparison, so
    distance ties land on the lower id. Weights accumulate in ray order.
    """
    ordered = sorted(scene, key=lambda o: o.id)
    scores = {obj.id: 0.0 for obj in ordered}
    for (dx, dy, dz), weight in zip(bundle.directions.tolist(), bundle.weights.tolist()):
        direction = Vec3(dx, dy, dz)
        best_id: int | None = None
        best_t = math.inf
        for obj in ordered:
            t = ray_sphere_t(cam.m, direction, obj.center, obj.radius)
            if t is not None and t < best_t:
                best_t = t
                best_id = obj.id
        if best_id is not None:
            scores[best_id] += weight
    return scores


def point_cone_distance(p: Vec3, apex: Vec3, axis: Vec3, half_angle: float) -> float:
    """Distance from a point to the solid infinite cone (0 when inside).

    Works in the (radial, axial) half-plane: the solid cone is convex there,
    so the nearest boundary point is either the apex or the foot of the
    perpendicular onto the lateral boundary ray.
    """
    rel = p - apex
    z = rel.dot(axis)
    rho_sq = rel.dot(rel) - z * z
    rho = math.sqrt(rho_sq) if rho_sq > 0.0 else 0.0
    sin_t = math.sin(half_angle)
    cos_t = math.cos(half_angle)
    side = rho * cos_t - z * sin_t
    if z >= 0.0 and side <= 0.0:
        return 0.0
    s = rho * sin_t + z * cos_t
    if s <= 0.0:
        # plain sqrt, not hypot: the vectorized ROI filter mirrors this
        # expression tree and must produce bit-identical values
        return math.sqrt(rho * rho + z * z)
    return side


def roi_contains(roi: Roi, obj: SceneObject) -> bool:
    """True when the object's bounding sphere overlaps the truncated ROI cone.

    Partial overlap counts. Truncation: the sphere point closest to the apex
    plane along the axis must lie at axial distance <= z_far.
    """
    dist = point_cone_distance(obj.center, roi.apex, roi.axis, roi.half_angle)
    if dist > obj.radius:
        return False
    z = (obj.center - roi.apex).dot(roi.axis)
    return z - obj.radius <= roi.z_far


def select_by_enumeration(
    scene: list[SceneObject],
    rig: StereoRig,
    roi: Roi,
    ray_cfg: RayConfig,
    weights: HeuristicWeights,
) -> tuple[FocusCandidate | None, list[FocusCandidate]]:
    """Focus selection one object at a time: ROI test, per-ray rm, then d,
    importance and a running best under the tie rule (higher importance,
    then higher d, then the lower id, which comes first in id order)."""
    cam = derive_mid_camera(rig)
    candidates = [obj for obj in sorted(scene, key=lambda o: o.id) if roi_contains(roi, obj)]
    rms = rm_by_enumeration(cam, ray_bundle(ray_cfg, cam), candidates)
    best: FocusCandidate | None = None
    scored: list[FocusCandidate] = []
    for obj in candidates:
        dist = obj.center.distance_to(cam.m)
        d = 1.0 - min(dist, roi.z_far) / roi.z_far
        rm = rms[obj.id]
        imp = weights.p_rm * rm + weights.p_d * d + weights.p_v * obj.value
        cand = FocusCandidate(object_id=obj.id, rm=rm, d=d, v=obj.value, importance=imp)
        scored.append(cand)
        if best is None or imp > best.importance or (imp == best.importance and d > best.d):
            best = cand
    return best, scored


def hit_by_marching(
    origin: Vec3,
    direction: Vec3,
    center: Vec3,
    radius: float,
    t_max: float,
    steps: int = 4000,
) -> tuple[bool, float]:
    """Classify hit/miss by marching along the ray and measuring distances.

    Returns (hit, closest_approach). Callers should skip cases where the
    closest approach is within their ambiguity margin of the radius: there
    the march's finite step cannot resolve the classification.
    """
    closest = math.inf
    for i in range(steps + 1):
        t = t_max * i / steps
        px = origin.x + t * direction.x
        py = origin.y + t * direction.y
        pz = origin.z + t * direction.z
        dx = px - center.x
        dy = py - center.y
        dz = pz - center.z
        d = math.sqrt(dx * dx + dy * dy + dz * dz)
        if d < closest:
            closest = d
    return closest <= radius, closest


def cone_distance_by_sampling(
    p: Vec3,
    apex: Vec3,
    axis: Vec3,
    half_angle: float,
    z_max: float = 120.0,
    grid: int = 40000,
) -> float:
    """Distance from a point to the solid infinite cone.

    Membership falls straight out of the solid-cone definition (axial
    offset non-negative, radial offset under the surface line). For points
    outside, the nearest cone point lies on the lateral surface in the
    plane spanned by the axis and the point, so a dense 1D sweep along the
    surface line suffices. Accuracy is limited by the sweep step.
    """
    rel = p - apex
    z_p = rel.dot(axis)
    rho_sq = rel.dot(rel) - z_p * z_p
    rho_p = math.sqrt(rho_sq) if rho_sq > 0.0 else 0.0
    tan_t = math.tan(half_angle)
    if z_p >= 0.0 and rho_p <= z_p * tan_t:
        return 0.0

    best = math.inf
    for i in range(grid + 1):
        z = z_max * i / grid
        d = math.hypot(z * tan_t - rho_p, z - z_p)
        if d < best:
            best = d
    return best


# Hard-coded class-membership matrix, one row per symptom 1..16, columns
# (nausea, oculomotor, disorientation). Transcribed independently of the
# sets in the library.
SSQ_MATRIX = (
    (1, 1, 0),  # 1 General discomfort
    (0, 1, 0),  # 2 Fatigue
    (0, 1, 0),  # 3 Headache
    (0, 1, 0),  # 4 Eye strain
    (0, 1, 1),  # 5 Difficulty focusing
    (1, 0, 0),  # 6 Increased salivation
    (1, 0, 0),  # 7 Sweating
    (1, 0, 1),  # 8 Nausea
    (1, 1, 0),  # 9 Difficulty concentrating
    (0, 0, 1),  # 10 Fullness of head
    (0, 1, 1),  # 11 Blurred vision
    (0, 0, 1),  # 12 Dizzy (eyes open)
    (0, 0, 1),  # 13 Dizzy (eyes closed)
    (0, 0, 1),  # 14 Vertigo
    (1, 0, 0),  # 15 Stomach awareness
    (1, 0, 0),  # 16 Burping
)


def ssq_scores_by_matrix(ratings: tuple[int, ...]) -> tuple[float, float, float, float]:
    """SSQ scores via the membership matrix: raw sums times the multipliers."""
    raw_n = sum(r * row[0] for r, row in zip(ratings, SSQ_MATRIX))
    raw_o = sum(r * row[1] for r, row in zip(ratings, SSQ_MATRIX))
    raw_d = sum(r * row[2] for r, row in zip(ratings, SSQ_MATRIX))
    return (
        raw_n * 9.54,
        raw_o * 7.58,
        raw_d * 13.92,
        (raw_n + raw_o + raw_d) * 3.74,
    )
