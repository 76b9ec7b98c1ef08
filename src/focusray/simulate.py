"""Deterministic scenario replay: the tick loop behind the CLI.

A recorded trajectory is resampled onto a fixed tick grid (linear position,
spherical orientation interpolation). `replay_focus` derives each tick's
stereo rig from the head pose, runs focus selection and feeds the winners
to the focus dynamics, returning the run as columns; the comfort rules then
run over the original recording. The output document is byte-identical
across runs for identical inputs.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from .attention import select_focus
from .comfort import Trajectory, TrajectorySample, analyze_trajectory
from .config import SimConfig
# `apply_selection` is not called here: `perfbench/spans.py` wraps this binding for its
# `dynamics.apply_selection` span, and a binding it cannot find fails the traced benchmark run
from .dynamics import apply_selection, scan_focus  # noqa: F401
from .errors import GeometryError, ValidationError
from .geometry import (ORTHO_TOL, CameraRows, PreparedScene, RoiRows, StereoRig, Vec3, dot_rows, norm_rows,
                       view_frame, view_frame_rows)
from .io_formats import (parse_config, parse_profile, parse_scene, parse_ssq_response, parse_trajectory,
                         render_comfort_section, render_config_section, render_document, render_ssq_section,
                         render_timeline_section, write_document)
from .ssq import protocol_report

# Most ticks `resample` builds: 4.4 hours at 16 ms, 133 times a 2-minute recording.
MAX_TICKS = 1_000_000
# Ticks the replay selects for in one `select_focus` call.
CHUNK_TICKS = 32
# The highest score of levels 1 to 5; a higher score is level 6.
_LEVEL_TOPS = (499, 1000, 2000, 3000, 5000)


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
    return bisect.bisect_left(_LEVEL_TOPS, score) + 1


def _slerp(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows of the unit vectors `a` and `b` interpolated at `s` on the great-circle
    arc, and the first row where the two are opposite (len(s) when none is).
    `acos` and `sin` are scalar `math` mapped over the columns, as NumPy's may
    differ from them in the last bit; its clamp, products and quotients do not."""
    d = np.fmax(-1.0, np.fmin(1.0, dot_rows(a, b)))
    omega = np.fromiter(map(math.acos, d.tolist()), np.float64, len(d))
    sin_omega = np.fromiter(map(math.sin, omega.tolist()), np.float64, len(d))
    straight = sin_omega < 1e-9
    opposite = np.flatnonzero(straight & (d < 0.0))
    sin_omega[straight] = 1.0  # their rows are replaced below
    wa = np.fromiter(map(math.sin, ((1.0 - s) * omega).tolist()), np.float64, len(d)) / sin_omega
    wb = np.fromiter(map(math.sin, (s * omega).tolist()), np.float64, len(d)) / sin_omega
    out = a * wa[:, None] + b * wb[:, None]
    if straight.any():  # near-parallel: a straight lerp renormalized is exact enough
        lerp = a[straight] + (b[straight] - a[straight]) * s[straight, None]
        out[straight] = lerp / norm_rows(lerp)[:, None]
    return out, int(opposite[0]) if len(opposite) else len(s)


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
        raise ValidationError(f"resampling at tick_ms = {tick_ms!r} needs more than {MAX_TICKS} ticks")
    t = t0 + np.arange(max(n_ticks, 0)) * tick_ms
    # each tick's segment starts at the last sample before it, as a scan that
    # only moves forward finds it (the running maximum keeps that true for
    # samples out of time order)
    seg = np.maximum.accumulate(traj.t_ms[1:-1]).searchsorted(t)
    on_right = (t != traj.t_ms[seg]) & (t == traj.t_ms[seg + 1])
    cols = {name: getattr(traj, name)[seg + on_right] for name in Trajectory.__match_args__}

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
    f, p, up = sample.forward, sample.position, sample.up
    r, u = view_frame((f.x, f.y, f.z), (up.x, up.y, up.z))
    half = ipd_m / 2.0
    dx, dy, dz = r[0] * half, r[1] * half, r[2] * half
    return StereoRig(ol=Vec3(p.x - dx, p.y - dy, p.z - dz), or_=Vec3(p.x + dx, p.y + dy, p.z + dz), up=Vec3(*u), forward=f)


def camera_rows(ticks: Trajectory, ipd_m: float) -> tuple[CameraRows, np.ndarray]:
    """Each tick's `derive_mid_camera(rig_from_pose(tick, ipd_m))` as rows, bit
    for bit: the same operations in the same order. Also, per tick, True where
    a check of the rig or its camera may fail: their tests, but up's length is
    tested by its square, which flags more (forward was checked when read)."""
    f = ticks.fwd
    right, up, flagged = view_frame_rows(f, ticks.up)
    with np.errstate(all="ignore"):  # a flagged tick may not be finite
        half = right * (ipd_m / 2.0)
        ol, or_ = ticks.pos - half, ticks.pos + half
        flagged |= ~(np.abs(dot_rows(f, up)) <= ORTHO_TOL) | (ol == or_).all(axis=1)
    return CameraRows((ol + or_) / 2.0, f, up), flagged


def replay_focus(scene: PreparedScene, ticks: Trajectory, cfg: SimConfig) -> tuple[list, ...]:
    """The focus replay of `ticks` over `scene` as eight columns, an entry per
    tick: the winner's object id (None where no object won), its importance,
    rm, d and v (0.0 where none won), then `scan_focus`'s focal distance,
    transition flag and event.

    Each tick's rig is the pose's at `cfg.ipd_m`; the first refused one
    raises its error's type as `tick at t_ms …: …`. Selection runs on
    `CHUNK_TICKS` ticks a call; the scan reads each winner's distance from
    the tick's mid camera to its center, as `Vec3.distance_to` computes it.
    """
    cams, flagged = camera_rows(ticks, cfg.ipd_m)
    for i in np.flatnonzero(flagged).tolist():  # the first tick whose rig is refused raises
        sample = ticks[i]
        try:
            rig_from_pose(sample, cfg.ipd_m)
        except (GeometryError, ValidationError) as e:  # say forward along up, or eyes too far out to differ
            raise type(e)(f"tick at t_ms {sample.t_ms!r}: {e}") from None
    roi_half = math.radians(cfg.roi_half_angle_deg)
    per_tick = np.repeat([[math.sin(roi_half)], [math.cos(roi_half)], [cfg.roi_z_far_m]], len(ticks), axis=1)
    rois = RoiRows(cams.m, cams.forward, *per_tick)
    ray_cfg, weights = cfg.ray_config(), cfg.heuristic_weights()

    held, won_ids, scores = [], [], []
    for a in range(0, len(ticks), CHUNK_TICKS):
        chunk = slice(a, a + CHUNK_TICKS)
        win, candidates = select_focus(scene, CameraRows(*(c[chunk] for c in cams)),
                                       RoiRows(*(c[chunk] for c in rois)), ray_cfg, weights)
        held.append(win >= 0)
        w = win[held[-1]]
        won_ids.append(candidates.ids[w])
        scores.append([candidates.importance[w], candidates.rm[w], candidates.d[w], candidates.v[w]])
    held, won_ids = np.concatenate(held), np.concatenate(won_ids)
    by_id = scene.ids.argsort()
    centers = scene.spheres[by_id[scene.ids[by_id].searchsorted(won_ids)], :3]
    # the winners' distances, then their importance, rm, d and v; 0.0 where none won
    columns = np.zeros((5, len(ticks)))
    columns[0, held] = norm_rows(centers - cams.m[held])
    columns[1:, held] = np.concatenate(scores, axis=1)
    ids = np.full(len(ticks), None, object)
    ids[held] = won_ids
    ids = ids.tolist()
    return (ids, *columns[1:].tolist(), *scan_focus(ids, columns[0].tolist(), cfg.tick_ms, cfg.dynamics_config()))


def run_scenario(scene_path: str, trajectory_path: str, config_path: str, out_path: str,
                 no_focus: bool = False) -> None:
    """Replay a recorded scenario and write the timeline + comfort document:
    parse, `resample`, `replay_focus`, `analyze_trajectory`, render and write.

    With no_focus, selection and focus dynamics are skipped; the timeline
    keeps its tick rows with empty focus columns and the comfort section is
    unchanged.
    """
    cfg = parse_config(config_path)
    scene = parse_scene(scene_path)
    traj = parse_trajectory(trajectory_path)
    try:
        ticks = resample(traj, cfg.tick_ms)
    except ValidationError as e:  # the recording, or its span, at the config's tick_ms
        raise ValidationError(f"{trajectory_path}: {e} (tick_ms from {config_path})") from None
    # without focus the timeline is the tick times alone, and no rig is built
    focus = None
    if not no_focus:
        try:
            focus = replay_focus(scene, ticks, cfg)[:7]  # the timeline shows all but the events
        except (GeometryError, ValidationError) as e:  # a tick whose rig is refused
            raise type(e)(f"{trajectory_path}: {e} (ipd_m from {config_path})") from None
    try:
        report = analyze_trajectory(traj, cfg=cfg.comfort_config())
    except ValidationError as e:  # say rows so close in time that a speed overflows
        raise ValidationError(f"{trajectory_path}: {e}") from None
    sections = render_config_section(cfg), render_timeline_section(ticks.t_ms, focus), render_comfort_section(report)
    write_document(out_path, render_document(sections))


def score_ssq_files(q1_path: str, q2_path: str, q3_path: str, profile_path: str, out_path: str) -> None:
    """Score a three-questionnaire protocol from files and write the report."""
    report = protocol_report(parse_profile(profile_path), *map(parse_ssq_response, (q1_path, q2_path, q3_path)))
    write_document(out_path, render_document((render_ssq_section(report),)))
