"""Deterministic scenario replay: the tick loop behind the CLI.

A recorded trajectory is resampled onto a fixed tick grid (linear position,
spherical orientation interpolation). Each tick derives the stereo rig from
the head pose, runs focus selection, and feeds the result to the focus
dynamics; the comfort rules then run over the original recording. The
output document is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Sequence

import numpy as np

from .attention import select_focus
from .comfort import Trajectory, TrajectorySample, analyze_trajectory
from .dynamics import FocusSelection, FocusState, apply_selection, step
from .errors import ValidationError
from .geometry import Roi, StereoRig, derive_mid_camera, dot_rows, norm_rows
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


def _slerp(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows of the unit vectors `a` and `b` interpolated at `s` on the great-circle
    arc, and the first row where the two are opposite (len(s) when none is).
    The weights come from scalar `math` per row."""
    weights, straight = [], []
    opposite = len(s)
    for k, (d, sk) in enumerate(zip(dot_rows(a, b).tolist(), s.tolist())):
        d = max(-1.0, min(1.0, d))
        omega = math.acos(d)
        sin_omega = math.sin(omega)
        if sin_omega < 1e-9:
            if d < 0.0 and opposite == len(s):
                opposite = k
            straight.append(k)
            weights.append((0.0, 0.0))
        else:
            weights.append((math.sin((1.0 - sk) * omega) / sin_omega, math.sin(sk * omega) / sin_omega))
    w = np.array(weights).reshape(-1, 2)
    out = a * w[:, :1] + b * w[:, 1:]
    if straight:  # near-parallel: a straight lerp renormalized is exact enough
        lerp = a[straight] + (b[straight] - a[straight]) * s[straight, None]
        out[straight] = lerp / norm_rows(lerp)[:, None]
    return out, opposite


def resample(traj: Sequence[TrajectorySample], tick_ms: float) -> Trajectory:
    """Resample a trajectory onto the tick grid anchored at its first sample.

    Ticks that land exactly on a recorded sample copy it unchanged, so an
    already-aligned trajectory round-trips identically. Between samples,
    position / fov / frame time interpolate linearly, orientation vectors
    spherically; user_initiated holds the left sample's value. `traj` is any
    sequence of samples; a `Trajectory` is read as it is.
    """
    if not (math.isfinite(tick_ms) and tick_ms > 0.0):
        raise ValidationError(f"tick_ms must be positive, got {tick_ms!r}")
    if len(traj) < 2:
        raise ValidationError(f"resampling needs at least 2 samples, got {len(traj)}")
    traj = Trajectory.from_samples(traj)

    t0 = float(traj.t_ms[0])
    span = float(traj.t_ms[-1]) - t0
    steps = span / tick_ms + 1e-9
    n_ticks = math.floor(steps) + 1 if math.isfinite(steps) else steps
    if not n_ticks <= MAX_TICKS:  # checked before any column is built
        raise ValidationError(f"resampling needs {n_ticks} ticks of {tick_ms!r} ms, above the limit of {MAX_TICKS}")
    t = t0 + np.arange(max(n_ticks, 0)) * tick_ms
    # each tick's segment starts at the last sample before it, as a scan that
    # only moves forward finds it (the running maximum keeps that true for
    # samples out of time order)
    seg = np.maximum.accumulate(traj.t_ms[1:-1]).searchsorted(t)
    on_right = (t != traj.t_ms[seg]) & (t == traj.t_ms[seg + 1])
    cols = {f.name: getattr(traj, f.name)[seg + on_right] for f in fields(Trajectory)}

    # ticks that land on neither end of their segment are interpolated
    mid = np.flatnonzero((t != traj.t_ms[seg]) & ~on_right)
    left, right = seg[mid], seg[mid] + 1
    tl, tr = traj.t_ms[left], traj.t_ms[right]
    opposite = {}
    with np.errstate(all="ignore"):  # a row that overflows fails the checks below
        s = (t[mid] - tl) / (tr - tl)
        cols["t_ms"][mid] = t[mid]
        for name in ("pos", "fov", "frame_ms"):
            a, b = getattr(traj, name)[left], getattr(traj, name)[right]
            cols[name][mid] = a + (b - a) * (s[:, None] if a.ndim == 2 else s)
        for name, label in (("fwd", "forward"), ("up", "up")):
            cols[name][mid], k = _slerp(getattr(traj, name)[left], getattr(traj, name)[right], s)
            opposite.setdefault(k, label)
    k = min(opposite)
    if k < len(mid):
        tick = mid[k]
        Trajectory(**{name: col[:tick] for name, col in cols.items()})  # an earlier faulty tick raises first
        if np.isfinite(cols["pos"][tick]).all():  # a tick's position is checked before its orientation
            raise ValidationError(
                f"cannot interpolate {opposite[k]} between opposite orientations"
                f" at t_ms {tl[k].item()!r} and {tr[k].item()!r}"
            )
    return Trajectory(**cols)


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

    ticks = resample(traj, cfg.tick_ms)
    # without focus only the tick times are read, and no sample is built
    rows = [TimelineRow(t, None, None, None, None, None, None, None) for t in ticks.t_ms.tolist()] if no_focus else []
    state = FocusState.initial()
    for sample in () if no_focus else ticks:
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
