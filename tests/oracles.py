"""Independent reference implementations used to check the library.

Everything here is deliberately written as brute force: scalar loops, dense
sampling, hard-coded tables. None of it calls the vectorized production
code paths it is used to verify; the only library outputs it consumes are a
ray cone from `ray_bundle` (checked on its own by the ray-cone tests), the
midpoint camera from `derive_mid_camera` and, for the scene and trajectory
references, the comment-stripped lines of `io_formats._content_lines` (the
scene reference returns its objects as a `PreparedScene`, built from them).
The whole-replay reference `replay_by_rows` also takes the parsed config,
the focus dynamics and the renderers from the library as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from focusray import (
    ComfortConfig,
    ComfortFinding,
    ComfortReport,
    ComfortRule,
    FocusCandidate,
    FocusSelection,
    FocusState,
    GeometryError,
    HeuristicWeights,
    MidCamera,
    ParseError,
    PreparedScene,
    RayBundle,
    RayConfig,
    Roi,
    SceneObject,
    StereoRig,
    TrajectorySample,
    ValidationError,
    Vec3,
    apply_selection,
    derive_mid_camera,
    parse_config,
    prepare_scene,
    ray_bundle,
    render_comfort_section,
    render_config_section,
    render_document,
    render_timeline_section,
    step,
)
from focusray import simulate
from focusray.comfort import _RULE_ORDER, MIN_SAMPLES
from focusray.geometry import MAX_COORD_M
from focusray.io_formats import TRAJECTORY_HEADER, _content_lines


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


# --- the row-wise scene parse, kept as the reference for `parse_scene` ---
#
# parse_scene as it was written before the scene converted as columns: one
# SceneObject per row, each checked as it is built. `tests/test_formats.py`
# requires the columns to reproduce its objects and arrays bit for bit, or
# its error.


def _parse_int(path: str, lineno: int, token: str, name: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, lineno, f"{name} must be an integer, got {token!r}") from None


def parse_scene_by_rows(path: str) -> PreparedScene:
    """Scene file: `id cx cy cz radius value label` per line; label optional.
    The objects come back in file order, prepared for selection."""
    objects: list[SceneObject] = []
    seen: set[int] = set()
    for lineno, text in _content_lines(path):
        tokens = text.split()
        if len(tokens) < 6:
            raise ParseError(path, lineno, "expected 'id cx cy cz radius value [label]'")
        obj_id = _parse_int(path, lineno, tokens[0], "object id")
        cx = _parse_float(path, lineno, tokens[1], "center x")
        cy = _parse_float(path, lineno, tokens[2], "center y")
        cz = _parse_float(path, lineno, tokens[3], "center z")
        radius = _parse_float(path, lineno, tokens[4], "radius")
        value = _parse_float(path, lineno, tokens[5], "value")
        label = " ".join(tokens[6:])
        if obj_id in seen:
            raise ParseError(path, lineno, f"duplicate object id {obj_id}")
        seen.add(obj_id)
        try:
            objects.append(SceneObject(id=obj_id, center=Vec3(cx, cy, cz), radius=radius, value=value, label=label))
        except ValidationError as e:
            raise ParseError(path, lineno, str(e)) from None
        if not max(abs(cx), abs(cy), abs(cz), radius) <= MAX_COORD_M:
            raise ParseError(path, lineno, f"object {obj_id}: center and radius must be within {MAX_COORD_M:g} m")
    return prepare_scene(objects)


# --- the row-wise trajectory path, kept as the reference for the columns ---
#
# parse_trajectory, resample and the comfort rules as they were written
# before the library held a recording as columns: one TrajectorySample per
# row and one Vec3 per intermediate vector, scalar `math`, sequential sums.
# `tests/test_trajectory.py` requires the columnar path to reproduce every
# sample, column and finding field of these bit for bit.

Trajectory = Sequence[TrajectorySample]


def _parse_float(path: str, lineno: int, token: str, name: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(path, lineno, f"{name} must be a number, got {token!r}") from None


def _unit_or_parse_error(path: str, lineno: int, v: Vec3, name: str) -> Vec3:
    try:
        return v.normalized()
    except GeometryError:
        raise ParseError(path, lineno, f"{name} vector must be non-zero") from None


def parse_trajectory_by_rows(path: str) -> list[TrajectorySample]:
    """Trajectory file: the fixed 13-column header, then one row per sample."""
    lines = _content_lines(path)
    if not lines:
        raise ParseError(path, 0, "missing trajectory header")
    header_lineno, header_text = lines[0]
    if tuple(header_text.split()) != TRAJECTORY_HEADER:
        raise ParseError(path, header_lineno, f"expected header '{' '.join(TRAJECTORY_HEADER)}'")

    samples: list[TrajectorySample] = []
    for lineno, text in lines[1:]:
        tokens = text.split()
        if len(tokens) != len(TRAJECTORY_HEADER):
            raise ParseError(path, lineno, f"expected {len(TRAJECTORY_HEADER)} fields, got {len(tokens)}")
        vals = [_parse_float(path, lineno, tok, name) for tok, name in zip(tokens[:11], TRAJECTORY_HEADER)]
        if tokens[11] not in ("0", "1"):
            raise ParseError(path, lineno, f"user_initiated must be 0 or 1, got {tokens[11]!r}")
        frame_time = _parse_float(path, lineno, tokens[12], "frame_time_ms")
        try:
            forward = _unit_or_parse_error(path, lineno, Vec3(vals[4], vals[5], vals[6]), "forward")
            up = _unit_or_parse_error(path, lineno, Vec3(vals[7], vals[8], vals[9]), "up")
            # the eye baseline runs along forward x up, so the two must not be parallel
            right = _unit_or_parse_error(path, lineno, forward.cross(up), "right (forward x up)")
            rebuilt = right.cross(forward)  # the up a rig rebuilds
            if not rebuilt.is_unit():
                raise ParseError(path, lineno, f"forward too near up: the rebuilt up has length {rebuilt.norm()!r}")
            sample = TrajectorySample(
                t_ms=vals[0],
                position=Vec3(vals[1], vals[2], vals[3]),
                forward=forward,
                up=up,
                fov_deg=vals[10],
                user_initiated=tokens[11] == "1",
                frame_time_ms=frame_time,
            )
        except ValidationError as e:
            raise ParseError(path, lineno, str(e)) from None
        if not max(abs(vals[1]), abs(vals[2]), abs(vals[3])) <= MAX_COORD_M:
            raise ParseError(path, lineno, f"position must be within {MAX_COORD_M:g} m on each axis")
        if samples and not sample.t_ms > samples[-1].t_ms:
            raise ParseError(path, lineno, "t_ms must strictly increase")
        samples.append(sample)
    if len(samples) < MIN_SAMPLES:
        raise ParseError(path, 0, f"trajectory needs at least {MIN_SAMPLES} samples, got {len(samples)}")
    return samples


def _slerp(left: TrajectorySample, right: TrajectorySample, name: str, s: float) -> Vec3:
    """Spherical interpolation of the samples' `name` vector (forward or up) on the great-circle arc."""
    a, b = getattr(left, name), getattr(right, name)
    d = max(-1.0, min(1.0, a.dot(b)))
    omega = math.acos(d)
    sin_omega = math.sin(omega)
    if sin_omega < 1e-9:
        if d < 0.0:
            raise ValidationError(
                f"cannot interpolate {name} between opposite orientations at t_ms {left.t_ms!r} and {right.t_ms!r}"
            )
        # near-parallel: a straight lerp renormalized is exact enough
        return (a + (b - a) * s).normalized()
    wa = math.sin((1.0 - s) * omega) / sin_omega
    wb = math.sin(s * omega) / sin_omega
    return a * wa + b * wb


def _lerp(a: float, b: float, s: float) -> float:
    return a + (b - a) * s


def resample_by_rows(traj: Sequence[TrajectorySample], tick_ms: float) -> list[TrajectorySample]:
    """Resample a trajectory onto the tick grid anchored at its first sample.

    Ticks that land exactly on a recorded sample copy it unchanged, so an
    already-aligned trajectory round-trips identically. Between samples,
    position / fov / frame time interpolate linearly, orientation vectors
    spherically; user_initiated holds the left sample's value.
    """
    if not (math.isfinite(tick_ms) and tick_ms > 0.0):
        raise ValidationError(f"tick_ms must be positive, got {tick_ms!r}")
    if len(traj) < 2:
        raise ValidationError(f"resampling needs at least 2 samples, got {len(traj)}")

    t0 = traj[0].t_ms
    span = traj[-1].t_ms - t0
    steps = span / tick_ms + 1e-9
    n_ticks = math.floor(steps) + 1 if math.isfinite(steps) else steps
    if not n_ticks <= simulate.MAX_TICKS:  # checked before any sample is built
        raise ValidationError(f"resampling at tick_ms = {tick_ms!r} needs more than {simulate.MAX_TICKS} ticks")
    out: list[TrajectorySample] = []
    seg = 0
    for i in range(n_ticks):
        t = t0 + i * tick_ms
        while seg + 1 < len(traj) - 1 and traj[seg + 1].t_ms < t:
            seg += 1
        left, right = traj[seg], traj[seg + 1]
        if t == left.t_ms:
            out.append(left)
            continue
        if t == right.t_ms:
            out.append(right)
            continue
        s = (t - left.t_ms) / (right.t_ms - left.t_ms)
        out.append(
            TrajectorySample(
                t_ms=t,
                position=left.position + (right.position - left.position) * s,
                forward=_slerp(left, right, "forward", s),
                up=_slerp(left, right, "up", s),
                fov_deg=_lerp(left.fov_deg, right.fov_deg, s),
                user_initiated=left.user_initiated,
                frame_time_ms=_lerp(left.frame_time_ms, right.frame_time_ms, s),
            )
        )
    return out


@dataclass(frozen=True, slots=True)
class _Motion:
    """Derived once per analysis: the series two or more rules read, the
    per-gap distances they come from, plus the session duration, so that
    every rule takes (traj, motion, cfg)."""

    duration_ms: float
    ts_s: list[float]
    velocities: list[Vec3]
    gap_distances: list[float]
    gap_speeds: list[float]
    jumps: set[int]


def _check_trajectory(traj: Trajectory) -> None:
    if len(traj) < MIN_SAMPLES:
        raise ValidationError(f"trajectory needs at least {MIN_SAMPLES} samples, got {len(traj)}")
    for prev, cur in zip(traj, traj[1:]):
        if not cur.t_ms > prev.t_ms:
            raise ValidationError("trajectory samples must strictly increase in t_ms")


def _stencil(ts_s: Sequence[float]) -> Iterator[tuple[int, int, float]]:
    """(lo, hi, dt) per sample for central differences, one-sided at the ends."""
    n = len(ts_s)
    for i in range(n):
        lo = max(i - 1, 0)
        hi = min(i + 1, n - 1)
        yield lo, hi, ts_s[hi] - ts_s[lo]


def _overflow(name: str, t_lo: float, t_hi: float, e: ValidationError) -> ValidationError:
    """A `Vec3` refusal met computing `name` from the samples at `t_lo` and `t_hi`, naming both."""
    return ValidationError(f"{name} between the samples at t_ms {t_lo!r} and {t_hi!r} overflows: {e}")


def _central_rate(values: Sequence[Vec3], ts_s: Sequence[float], name: str, t_ms: Sequence[float]) -> list[Vec3]:
    """First derivative of a vector series; an overflow names `name` and the samples' `t_ms`."""
    rates: list[Vec3] = []
    for lo, hi, dt in _stencil(ts_s):
        try:
            rates.append((values[hi] - values[lo]) * (1.0 / dt))
        except ValidationError as e:
            raise _overflow(name, t_ms[lo], t_ms[hi], e) from None
    return rates


def _angle_deg(a: Vec3, b: Vec3) -> float:
    d = a.dot(b)
    d = max(-1.0, min(1.0, d))
    return math.degrees(math.acos(d))


def _runs(flags: Sequence[bool]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive True flags as inclusive (start, end) indices."""
    runs: list[tuple[int, int]] = []
    start: int | None = None
    for i, flag in enumerate(flags):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(flags) - 1))
    return runs


def _gap_speeds_m_s(traj: Trajectory, distances: Sequence[float]) -> list[float]:
    """Mean speed across each inter-sample gap, indexed by the gap's left sample."""
    return [dist / ((b.t_ms - a.t_ms) / 1000.0) for a, b, dist in zip(traj, traj[1:], distances)]


def _jump_gaps(distances: Sequence[float], speeds: Sequence[float], cfg: ComfortConfig) -> set[int]:
    """Gaps that look like deliberate teleports: a large position discontinuity
    with no motion on either side. These are exempt from the acceleration and
    locomotion rules."""
    jumps: set[int] = set()
    for i, dist in enumerate(distances):
        if dist <= cfg.jump_distance_min_m:
            continue
        calm_before = i == 0 or speeds[i - 1] <= cfg.motion_floor_m_s
        calm_after = i == len(speeds) - 1 or speeds[i + 1] <= cfg.motion_floor_m_s
        if calm_before and calm_after:
            jumps.add(i)
    return jumps


def detect_acceleration_episodes(traj: Trajectory, motion: _Motion, cfg: ComfortConfig) -> list[ComfortFinding]:
    """Episodes of sustained acceleration above the threshold.

    A run of consecutive over-threshold samples becomes a finding only when
    it spans at least min_episode_ms; its severity is the episode duration in
    seconds. Single-sample spikes (the instant velocity step) and
    teleport-style jumps therefore never register.
    """
    accelerations = _central_rate(motion.velocities, motion.ts_s, "acceleration", [s.t_ms for s in traj])
    magnitudes = [a.norm() for a in accelerations]

    # a teleport gap corrupts the finite differences of the four samples
    # whose stencils straddle it; blank them instead of flagging the jump
    for gap in motion.jumps:
        for idx in range(gap - 1, gap + 3):
            if 0 <= idx < len(magnitudes):
                magnitudes[idx] = 0.0

    flags = [m > cfg.accel_threshold_m_s2 for m in magnitudes]
    findings: list[ComfortFinding] = []
    for start, end in _runs(flags):
        duration_ms = traj[end].t_ms - traj[start].t_ms
        if duration_ms < cfg.min_episode_ms:
            continue
        peak = max(magnitudes[start : end + 1])
        findings.append(
            ComfortFinding(
                rule=ComfortRule.AccelerationRamp,
                start_ms=traj[start].t_ms,
                end_ms=traj[end].t_ms,
                severity=duration_ms / 1000.0,
                detail=f"sustained acceleration for {duration_ms / 1000.0:.3f} s (peak {peak:.3f} m/s^2)",
            )
        )
    return findings


def detect_frame_drops(traj: Trajectory, motion: _Motion, cfg: ComfortConfig) -> list[ComfortFinding]:
    """Samples whose frame time blows the budget, merged into episodes.

    A sample is flagged when frame_time_ms exceeds drop_factor times the
    target; severity is the summed time over budget, in seconds.
    """
    limit = cfg.drop_factor * cfg.target_frame_ms
    flags = [s.frame_time_ms > limit for s in traj]
    findings: list[ComfortFinding] = []
    for start, end in _runs(flags):
        run = traj[start : end + 1]
        excess_ms = sum(s.frame_time_ms - cfg.target_frame_ms for s in run)
        worst = max(s.frame_time_ms for s in run)
        findings.append(
            ComfortFinding(
                rule=ComfortRule.FrameDrop,
                start_ms=traj[start].t_ms,
                end_ms=traj[end].t_ms,
                severity=excess_ms / 1000.0,
                detail=f"{len(run)} slow frames (worst {worst:.3f} ms against {cfg.target_frame_ms:.3f} ms budget)",
            )
        )
    return findings


def _detect_uncontrolled(traj: Trajectory, motion: _Motion, cfg: ComfortConfig) -> list[ComfortFinding]:
    angular = [_angle_deg(traj[lo].forward, traj[hi].forward) / dt for lo, hi, dt in _stencil(motion.ts_s)]
    flags = [
        (motion.velocities[i].norm() > cfg.motion_floor_m_s or angular[i] > cfg.motion_floor_deg_s)
        and not traj[i].user_initiated
        for i in range(len(traj))
    ]
    findings: list[ComfortFinding] = []
    for start, end in _runs(flags):
        duration_ms = traj[end].t_ms - traj[start].t_ms
        findings.append(
            ComfortFinding(
                rule=ComfortRule.UncontrolledCamera,
                start_ms=traj[start].t_ms,
                end_ms=traj[end].t_ms,
                severity=duration_ms / 1000.0,
                detail="camera motion not initiated by the user",
            )
        )
    return findings


def _detect_fov_manipulation(traj: Trajectory, motion: _Motion, cfg: ComfortConfig) -> list[ComfortFinding]:
    deltas = [b.fov_deg - a.fov_deg for a, b in zip(traj, traj[1:])]
    flags = [abs(d) > cfg.fov_delta_threshold_deg for d in deltas]
    findings: list[ComfortFinding] = []
    for start, end in _runs(flags):
        total = sum(abs(d) for d in deltas[start : end + 1])
        findings.append(
            ComfortFinding(
                rule=ComfortRule.FovManipulation,
                start_ms=traj[start].t_ms,
                end_ms=traj[end + 1].t_ms,
                severity=total,
                detail=f"fov changed by {total:.3f} deg over {end - start + 1} steps",
            )
        )
    return findings


def _detect_locomotion(traj: Trajectory, motion: _Motion, cfg: ComfortConfig) -> list[ComfortFinding]:
    # teleport gaps count as standing still
    flags = [v > cfg.motion_floor_m_s and i not in motion.jumps for i, v in enumerate(motion.gap_speeds)]
    findings: list[ComfortFinding] = []
    for start, end in _runs(flags):
        duration_ms = traj[end + 1].t_ms - traj[start].t_ms
        if duration_ms <= cfg.walk_episode_ms:
            continue
        findings.append(
            ComfortFinding(
                rule=ComfortRule.ContinuousLocomotion,
                start_ms=traj[start].t_ms,
                end_ms=traj[end + 1].t_ms,
                severity=duration_ms / 1000.0,
                detail=f"continuous locomotion for {duration_ms / 1000.0:.3f} s",
            )
        )
    return findings


def _detect_session_duration(traj: Trajectory, motion: _Motion, cfg: ComfortConfig) -> list[ComfortFinding]:
    duration_ms = motion.duration_ms
    if duration_ms <= cfg.max_session_ms:
        return []
    t0 = traj[0].t_ms
    return [
        ComfortFinding(
            rule=ComfortRule.SessionDuration,
            start_ms=t0 + cfg.max_session_ms,
            end_ms=t0 + duration_ms,
            severity=(duration_ms - cfg.max_session_ms) / 1000.0,
            detail=f"session of {duration_ms / 60000.0:.1f} min exceeds the {cfg.max_session_ms / 60000.0:.1f} min budget",
        )
    ]


def analyze_by_rows(
    traj: Trajectory,
    cfg: ComfortConfig = ComfortConfig(),
) -> ComfortReport:
    """Run every rule over the trajectory and return the merged report.

    The session lasts the trajectory's time span. Findings are sorted
    by start time, ties by rule declaration order, so reports are stable.
    """
    _check_trajectory(traj)
    duration_ms = traj[-1].t_ms - traj[0].t_ms
    ts_s = [s.t_ms / 1000.0 for s in traj]
    gap_distances: list[float] = []
    for a, b in zip(traj, traj[1:]):
        try:
            gap_distances.append(b.position.distance_to(a.position))
        except ValidationError as e:
            raise _overflow("position step", a.t_ms, b.t_ms, e) from None
    gap_speeds = _gap_speeds_m_s(traj, gap_distances)
    motion = _Motion(
        duration_ms=duration_ms,
        ts_s=ts_s,
        velocities=_central_rate([s.position for s in traj], ts_s, "velocity", [s.t_ms for s in traj]),
        gap_distances=gap_distances,
        gap_speeds=gap_speeds,
        jumps=_jump_gaps(gap_distances, gap_speeds, cfg),
    )

    # called by module name, so a tracer that rebinds a rule sees the call
    findings: list[ComfortFinding] = []
    findings.extend(detect_acceleration_episodes(traj, motion, cfg))
    findings.extend(_detect_uncontrolled(traj, motion, cfg))
    findings.extend(_detect_fov_manipulation(traj, motion, cfg))
    findings.extend(detect_frame_drops(traj, motion, cfg))
    findings.extend(_detect_session_duration(traj, motion, cfg))
    findings.extend(_detect_locomotion(traj, motion, cfg))
    findings.sort(key=lambda f: (f.start_ms, _RULE_ORDER[f.rule]))

    counts = {rule: 0 for rule in ComfortRule}
    for f in findings:
        counts[f.rule] += 1
    return ComfortReport(findings=tuple(findings), counts=counts, duration_ms=duration_ms)


# --- the whole replay, one tick and one object at a time ---


def rig_by_vectors(sample: TrajectorySample, ipd_m: float) -> StereoRig:
    """The stereo rig of a head pose as a chain of `Vec3` operations: eyes
    straddle the position along forward x up, normalized; up is forward's
    re-orthogonalized partner."""
    f = sample.forward
    r = f.cross(sample.up).normalized()
    u = r.cross(f)
    half = ipd_m / 2.0
    return StereoRig(ol=sample.position - r * half, or_=sample.position + r * half, up=u, forward=f)


@dataclass(frozen=True, slots=True)
class ReplayTick:
    """What `replay_by_rows` did on one tick: the rig and ROI it selected
    with, the winner and every candidate, and the focus state before and
    after the tick."""

    rig: StereoRig
    roi: Roi
    winner: FocusCandidate | None
    candidates: list[FocusCandidate]
    before: FocusState
    after: FocusState


@dataclass(frozen=True, slots=True)
class Replay:
    """The document `replay_by_rows` renders, the comfort report in it and
    what each tick did."""

    document: str
    report: ComfortReport
    ticks: list[ReplayTick]


def replay_by_rows(scene_path: str, trajectory_path: str, config_path: str, no_focus: bool = False) -> Replay:
    """The document `run_scenario` writes, composed from the references:
    `parse_scene_by_rows`, `parse_trajectory_by_rows`, `resample_by_rows`,
    `rig_by_vectors` per tick, `select_by_enumeration` and `analyze_by_rows`.
    The config, `apply_selection`/`step` and the renderers are the library's."""
    cfg = parse_config(config_path)
    scene = list(parse_scene_by_rows(scene_path))
    traj = parse_trajectory_by_rows(trajectory_path)
    ticks = resample_by_rows(traj, cfg.tick_ms)
    ray_cfg, weights, dyn_cfg = cfg.ray_config(), cfg.heuristic_weights(), cfg.dynamics_config()
    center_of = {obj.id: obj.center for obj in scene}

    focus: list[tuple[FocusCandidate | None, float, bool]] = []
    trace: list[ReplayTick] = []
    state = FocusState.initial()
    for sample in () if no_focus else ticks:
        rig = rig_by_vectors(sample, cfg.ipd_m)
        cam = derive_mid_camera(rig)
        roi = Roi(apex=cam.m, axis=cam.forward, half_angle=math.radians(cfg.roi_half_angle_deg),
                  z_far=cfg.roi_z_far_m)
        winner, candidates = select_by_enumeration(scene, rig, roi, ray_cfg, weights)
        selection = None
        if winner is not None:
            selection = FocusSelection(object_id=winner.object_id, distance=center_of[winner.object_id].distance_to(cam.m))
        applied = apply_selection(state, selection, dyn_cfg)
        focus.append((winner, applied.focal_distance, applied.transition is not None))
        after = step(state, selection, cfg.tick_ms, dyn_cfg)
        trace.append(ReplayTick(rig, roi, winner, candidates, state, after))
        state = after

    report = analyze_by_rows(traj, cfg=cfg.comfort_config())
    # the renderer's columns: each tick's winner id (None for none), its scores, the focal distance and flag
    winners = [winner for winner, _, _ in focus]
    columns = (
        [None if w is None else w.object_id for w in winners],
        *([0.0 if w is None else getattr(w, name) for w in winners] for name in ("importance", "rm", "d", "v")),
        [focal for _, focal, _ in focus],
        [moving for _, _, moving in focus],
    )
    doc = render_document((
        render_config_section(cfg),
        render_timeline_section(np.array([s.t_ms for s in ticks]), None if no_focus else columns),
        render_comfort_section(report),
    ))
    return Replay(doc, report, trace)
