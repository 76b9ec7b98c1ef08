"""Deterministic scenario replay: the tick loop behind the CLI.

A recorded trajectory is resampled onto a fixed tick grid (linear position,
spherical orientation interpolation). Each tick derives the stereo rig from
the head pose, runs focus selection, and feeds the result to the focus
dynamics; the comfort rules then run over the original recording. The
output document is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import math
from typing import Sequence

from .attention import select_focus
from .comfort import TrajectorySample, analyze_trajectory
from .dynamics import FocusSelection, FocusState, apply_selection, step
from .errors import ValidationError
from .geometry import Roi, StereoRig, Vec3, derive_mid_camera
from .io_formats import (
    TimelineRow,
    parse_config,
    parse_profile,
    parse_scene,
    parse_ssq_response,
    parse_trajectory,
    render_comfort_section,
    render_config_section,
    render_document,
    render_ssq_section,
    render_timeline_section,
    write_document,
)
from .ssq import ProtocolSession, protocol_report

# Most ticks `resample` builds: 4.4 hours at 16 ms, 133 times a 2-minute recording.
MAX_TICKS = 1_000_000


def level_for_score(score: int) -> int:
    """Map an integer play score onto difficulty levels 1..6.

    Bands: below 500 is level 1, up to 1000 level 2, up to 2000 level 3,
    up to 3000 level 4, up to 5000 level 5, anything above level 6. Scores
    are integers, so the band edges are unambiguous.
    """
    if isinstance(score, bool) or not isinstance(score, int):
        raise ValidationError(f"score must be an integer, got {score!r}")
    if score < 0:
        raise ValidationError(f"score must be >= 0, got {score!r}")
    if score < 500:
        return 1
    if score <= 1000:
        return 2
    if score <= 2000:
        return 3
    if score <= 3000:
        return 4
    if score <= 5000:
        return 5
    return 6


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


def resample(traj: Sequence[TrajectorySample], tick_ms: float) -> list[TrajectorySample]:
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
    if not n_ticks <= MAX_TICKS:  # checked before any sample is built
        raise ValidationError(f"resampling needs {n_ticks} ticks of {tick_ms!r} ms, above the limit of {MAX_TICKS}")
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


def rig_from_pose(sample: TrajectorySample, ipd_m: float) -> StereoRig:
    """Stereo rig for a head pose: eyes straddle the position along the right
    vector (forward x up, normalized); up is re-orthogonalized against forward."""
    if not (math.isfinite(ipd_m) and ipd_m > 0.0):
        raise ValidationError(f"ipd_m must be positive, got {ipd_m!r}")
    f = sample.forward
    r = f.cross(sample.up).normalized()
    u = r.cross(f)
    half = ipd_m / 2.0
    return StereoRig(
        ol=sample.position - r * half,
        or_=sample.position + r * half,
        up=u,
        forward=f,
    )


def run_scenario(
    scene_path: str,
    trajectory_path: str,
    config_path: str,
    out_path: str,
    no_focus: bool = False,
) -> None:
    """Replay a recorded scenario and write the timeline + comfort document.

    With no_focus, selection and focus dynamics are skipped; the timeline
    keeps its tick rows with empty focus columns and the comfort section is
    unchanged.
    """
    cfg = parse_config(config_path)
    scene = parse_scene(scene_path)
    traj = parse_trajectory(trajectory_path)

    ray_cfg = cfg.ray_config()
    weights = cfg.heuristic_weights()
    dyn_cfg = cfg.dynamics_config()
    roi_half = math.radians(cfg.roi_half_angle_deg)
    center_of = {obj.id: obj.center for obj in scene}

    rows: list[TimelineRow] = []
    state = FocusState.initial()
    for sample in resample(traj, cfg.tick_ms):
        if no_focus:
            rows.append(TimelineRow(sample.t_ms, None, None, None, None, None, None, None))
            continue
        rig = rig_from_pose(sample, cfg.ipd_m)
        cam = derive_mid_camera(rig)
        roi = Roi(apex=cam.m, axis=cam.forward, half_angle=roi_half, z_far=cfg.roi_z_far_m)
        winner, _ = select_focus(scene, rig, roi, ray_cfg, weights)

        selection = None
        if winner is not None:
            distance = center_of[winner.object_id].distance_to(cam.m)
            selection = FocusSelection(object_id=winner.object_id, distance=distance)
        applied = apply_selection(state, selection, dyn_cfg)
        rows.append(
            TimelineRow(
                t_ms=sample.t_ms,
                selected_object_id=winner.object_id if winner else None,
                importance=winner.importance if winner else None,
                rm=winner.rm if winner else None,
                d=winner.d if winner else None,
                v=winner.v if winner else None,
                focal_distance_m=applied.focal_distance,
                in_transition=applied.transition is not None,
            )
        )
        state = step(state, selection, cfg.tick_ms, dyn_cfg)

    report = analyze_trajectory(traj, duration_ms=None, cfg=cfg.comfort_config())
    doc = render_document(
        (
            render_config_section(cfg),
            render_timeline_section(rows),
            render_comfort_section(report),
        )
    )
    write_document(out_path, doc)


def score_ssq_files(q1_path: str, q2_path: str, q3_path: str, profile_path: str, out_path: str) -> None:
    """Score a three-questionnaire protocol from files and write the report."""
    session = ProtocolSession(
        profile=parse_profile(profile_path),
        q1=parse_ssq_response(q1_path),
        q2=parse_ssq_response(q2_path),
        q3=parse_ssq_response(q3_path),
    )
    report = protocol_report(session)
    write_document(out_path, render_document((render_ssq_section(report),)))
