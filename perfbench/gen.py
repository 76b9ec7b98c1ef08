"""Seeded input generator for the three benchmark workloads.

Each workload is written as plain focusray input files into one directory:
`scene.txt`, `trajectory.txt` and `config.txt` for the program, plus
`frames.txt`, the poses the library frame loop runs over. The same
(workload, seed, size) always gives the same bytes.

Object layouts and head motion are stratified (jittered grids, sums of
sinusoids with fixed amplitudes and seeded phases), so the amount of work a
workload makes varies little from seed to seed and run-to-run timings stay
comparable across seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("replay_dense", "audit_long", "live_wide")
# The replay's head motion sweeps the views of this many seconds of looking
# around, however long the replay is, so a short replay sees the same mix of
# views (and does the same per-tick work) whatever the seed.
REPLAY_SWEEP_S = 40.0
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
TRAJECTORY_HEADER = "t_ms px py pz fx fy fz ux uy uz fov_deg user_initiated frame_time_ms"


@dataclass(frozen=True)
class Size:
    """Workload dimensions; `full` is what the benchmark runs, `quick` is for its tests.

    `live_frames` is the length of the `live_wide` walk in 16 ms samples;
    `frame_pass` is about how many of them one frame-loop pass runs.
    """

    replay_objects: int
    replay_seconds: float
    audit_seconds: float
    live_objects: int
    live_frames: int
    frame_pass: int


# Each repetition lasts about a second, so a run holds 10 to 25 rounds of
# them; a frame pass has 1,000 frames or more, 10 of them beyond its p99.
FULL = Size(replay_objects=200, replay_seconds=10.0, audit_seconds=120.0,
            live_objects=4000, live_frames=7501, frame_pass=1000)
QUICK = Size(replay_objects=40, replay_seconds=4.0, audit_seconds=150.0,
             live_objects=400, live_frames=200, frame_pass=100)

# Every config key is written, so a change of a default cannot move a report.
BASE_CONFIG = {
    "ray_k": 4, "ray_n": 64, "ray_half_angle_deg": 15.0, "roi_half_angle_deg": 30.0,
    "roi_z_far_m": 100.0, "p_rm": 0.5, "p_d": 0.3, "p_v": 0.2, "refocus_ms": 500.0,
    "persistence_hold_ms": 300.0, "blur_per_meter": 0.5, "max_blur": 1.0, "tick_ms": 16.0,
    "ipd_m": 0.064, "accel_threshold_m_s2": 1.0, "min_episode_ms": 200.0,
    "fov_delta_threshold_deg": 1.0, "motion_floor_m_s": 0.05, "motion_floor_deg_s": 5.0,
    "walk_episode_ms": 2000.0, "max_session_ms": 1800000.0, "jump_distance_min_m": 0.5,
    "target_frame_ms": 11.1, "drop_factor": 2.0,
}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def _frame_vectors(yaw: np.ndarray, pitch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward and an exactly orthogonal up for yaw about +y and pitch above the horizon.

    Yaw 0 looks down -z. |pitch| stays well below 90 degrees in every
    workload, so forward is never parallel to up.
    """
    cy, sy, cp, sp = np.cos(yaw), np.sin(yaw), np.cos(pitch), np.sin(pitch)
    forward = np.stack([sy * cp, sp, -cy * cp], axis=1)
    up = np.stack([-sy * sp, cp, cy * sp], axis=1)
    return forward, up


def _wander(rng: np.random.Generator, t_s: np.ndarray, terms: tuple[tuple[float, float], ...]) -> np.ndarray:
    """Sum of sinusoids (amplitude, period in s) with seeded phases."""
    out = np.zeros_like(t_s)
    for amplitude, period in terms:
        out += amplitude * np.sin(2.0 * math.pi * t_s / period + rng.uniform(0.0, 2.0 * math.pi))
    return out


def _write_scene(path: Path, centers: np.ndarray, radii: np.ndarray, values: np.ndarray) -> None:
    lines = ["# id x y z radius value label"]
    for i, ((x, y, z), r, v) in enumerate(zip(centers.tolist(), radii.tolist(), values.tolist()), start=1):
        lines.append(f"{i} {x:.6f} {y:.6f} {z:.6f} {r:.6f} {v:.6f} obj{i}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _trajectory_text(t_ms, pos, fwd, up, fov, user, frame_ms) -> str:
    rows = [TRAJECTORY_HEADER]
    for t, p, f, u, fv, ui, ft in zip(t_ms.tolist(), pos.tolist(), fwd.tolist(), up.tolist(),
                                      fov.tolist(), user.tolist(), frame_ms.tolist()):
        rows.append(
            f"{t:.3f} {p[0]:.6f} {p[1]:.6f} {p[2]:.6f} {f[0]:.6f} {f[1]:.6f} {f[2]:.6f} "
            f"{u[0]:.6f} {u[1]:.6f} {u[2]:.6f} {fv:.3f} {ui} {ft:.3f}"
        )
    return "\n".join(rows) + "\n"


def _write_config(path: Path, overrides: dict) -> None:
    cfg = {**BASE_CONFIG, **overrides}
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")


def _write_trajectory(out: Path, frames: slice, *columns) -> None:
    """trajectory.txt holds every sample, frames.txt the `frames` slice of them."""
    (out / "trajectory.txt").write_text(_trajectory_text(*columns), encoding="utf-8")
    (out / "frames.txt").write_text(_trajectory_text(*(c[frames] for c in columns)), encoding="utf-8")


def _replay_dense(rng: np.random.Generator, size: Size, out: Path) -> None:
    """Objects packed in a 43-degree cone ahead of a viewer who looks around it."""
    n = size.replay_objects
    strata = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    cos_t = 1.0 - (1.0 - math.cos(math.radians(43.0))) * strata
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    phi = np.arange(n) * GOLDEN_ANGLE + rng.uniform(0.0, 0.3, n)
    dist = 3.0 + 77.0 * (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n
    centers = np.stack([dist * sin_t * np.cos(phi), dist * sin_t * np.sin(phi), -dist * cos_t], axis=1)
    _write_scene(out / "scene.txt", centers, rng.uniform(0.3, 1.0, n), rng.uniform(0.0, 1.0, n))

    samples = int(round(size.replay_seconds * 100.0)) + 1  # recorded at 100 Hz
    t_ms = np.arange(samples) * 10.0
    t_s = t_ms / 1000.0 * (REPLAY_SWEEP_S / size.replay_seconds)  # motion time, sped up to sweep
    pos = np.stack([
        _wander(rng, t_s, ((0.8, 41.0), (0.1, 5.3))),
        _wander(rng, t_s, ((0.05, 2.9),)),
        _wander(rng, t_s, ((0.6, 57.0),)),
    ], axis=1)
    yaw = _wander(rng, t_s, ((0.22, 23.0), (0.12, 7.3), (0.03, 1.7)))
    pitch = _wander(rng, t_s, ((0.10, 11.0), (0.04, 3.1)))
    fwd, up = _frame_vectors(yaw, pitch)
    # the frame pass takes poses from the whole replay, so it sees the same views
    _write_trajectory(out, slice(None, None, samples // size.frame_pass), t_ms, pos, fwd, up,
                      np.full(samples, 90.0), np.ones(samples, dtype=int), np.full(samples, 11.1))
    _write_config(out / "config.txt", {})


def _live_wide(rng: np.random.Generator, size: Size, out: Path) -> None:
    """A large open world on a disc; the viewer walks a wide arc and looks about."""
    n = size.live_objects
    disc = 300.0 * math.sqrt(n / 4000.0)  # constant density across sizes
    r = disc * np.sqrt((np.arange(n) + rng.uniform(0.0, 1.0, n)) / n)
    phi = np.arange(n) * GOLDEN_ANGLE + rng.uniform(0.0, 0.3, n)
    centers = np.stack([r * np.cos(phi), rng.uniform(0.3, 3.0, n), r * np.sin(phi)], axis=1)
    _write_scene(out / "scene.txt", centers, rng.uniform(0.3, 1.5, n), rng.uniform(0.0, 1.0, n))

    frames = size.live_frames
    t_ms = np.arange(frames) * 16.0
    t_s = t_ms / 1000.0
    arc = 0.2 * disc  # path radius; 1.3 m/s along it
    ang = rng.uniform(0.0, 2.0 * math.pi) + 1.3 * t_s / arc
    pos = np.stack([arc * np.cos(ang), 1.6 + _wander(rng, t_s, ((0.03, 0.55),)), arc * np.sin(ang)], axis=1)
    # heading along the path (tangent), plus looking around it
    heading = math.pi - ang
    yaw = heading + _wander(rng, t_s, ((0.9, 31.0), (0.3, 6.7)))
    pitch = -0.05 + _wander(rng, t_s, ((0.08, 9.0),))
    fwd, up = _frame_vectors(yaw, pitch)
    # the frame loop runs `frame_pass` poses spread evenly over the whole walk
    _write_trajectory(out, slice(None, None, frames // size.frame_pass), t_ms, pos, fwd, up,
                      np.full(frames, 90.0), np.ones(frames, dtype=int), np.full(frames, 11.1))
    _write_config(out / "config.txt", {"ray_k": 2, "ray_n": 32, "roi_z_far_m": 45.0})


def _audit_segments(rng: np.random.Generator, samples: int, dt_s: float):
    """Per-sample speed, heading, yaw offset, pitch, fov, user flag, frame time and
    teleport jumps, from a fixed cycle of episode kinds with seeded parameters."""
    speed = np.zeros(samples)
    heading = np.zeros(samples)
    look = np.zeros(samples)
    pitch = np.zeros(samples)
    fov = np.full(samples, 90.0)
    user = np.ones(samples, dtype=int)
    frame_ms = np.full(samples, 11.1)
    jump = np.zeros((samples, 2))
    cycle = ("look", "walk", "zoom", "walk", "cutscene", "look", "teleport", "walk", "hitch")
    i, k, h = 0, 0, 0.0
    while i < samples:
        kind = cycle[k % len(cycle)]
        k += 1
        if kind == "look":  # stand and look around
            n = int(rng.uniform(3.0, 6.0) / dt_s)
            s = np.arange(min(n, samples - i)) * dt_s
            look[i : i + len(s)] = 0.6 * np.sin(2.0 * math.pi * s / rng.uniform(2.5, 4.0))
            pitch[i : i + len(s)] = 0.15 * np.sin(2.0 * math.pi * s / rng.uniform(3.0, 5.0))
        elif kind == "walk":  # accelerate, cruise, decelerate: ramps of > 1 m/s^2
            v = rng.uniform(1.2, 1.6)
            ramp = int(rng.uniform(0.5, 0.8) / dt_s)
            cruise = int(rng.uniform(3.0, 7.0) / dt_s)
            profile = np.concatenate([np.linspace(0.0, v, ramp), np.full(cruise, v), np.linspace(v, 0.0, ramp)])
            n = len(profile)
            m = min(n, samples - i)
            turn = rng.uniform(-1.5, 1.5) * np.minimum(np.arange(n) / ramp, 1.0)
            heading[i : i + m] = h + turn[:m]
            h += turn[-1]
            speed[i : i + m] = profile[:m]
            look[i : i + m] = 0.1 * np.sin(2.0 * math.pi * np.arange(m) * dt_s / 1.1)
        elif kind == "zoom":  # fov narrows then widens, > 1 degree per sample
            half = int(0.25 / dt_s)
            depth = rng.uniform(25.0, 35.0)
            profile = 90.0 - depth * np.concatenate([np.linspace(0.0, 1.0, half), np.ones(int(1.0 / dt_s)),
                                                     np.linspace(1.0, 0.0, half)])
            n = len(profile)
            m = min(n, samples - i)
            fov[i : i + m] = profile[:m]
        elif kind == "cutscene":  # scripted camera pan the user did not start
            n = int(rng.uniform(2.0, 4.0) / dt_s)
            m = min(n, samples - i)
            look[i : i + m] = np.linspace(0.0, rng.choice([-1.0, 1.0]) * 1.2, m)
            user[i : i + m] = 0
        elif kind == "teleport":  # still, jump several meters, still
            n = int(2.0 / dt_s)
            m = min(n, samples - i)
            if m > n // 2:
                a = rng.uniform(0.0, 2.0 * math.pi)
                jump[i + n // 2] = rng.uniform(3.0, 8.0) * np.array([math.cos(a), math.sin(a)])
        else:  # hitch: a burst of slow frames
            n = int(rng.uniform(1.0, 2.0) / dt_s)
            m = min(n, samples - i)
            burst = min(int(rng.integers(3, 10)), m)
            frame_ms[i : i + burst] = rng.uniform(30.0, 60.0, burst)
        if kind != "walk":
            heading[i : i + n] = h
        i += n
    return speed, heading, look, pitch, fov, user, frame_ms, jump


def _audit_long(rng: np.random.Generator, size: Size, out: Path) -> None:
    """A long 90 Hz session recording with every kind of comfort episode."""
    dt_s = 1.0 / 90.0
    samples = int(size.audit_seconds * 90.0)
    t_ms = np.arange(samples) * (1000.0 / 90.0)
    speed, heading, look, pitch, fov, user, frame_ms, jump = _audit_segments(rng, samples, dt_s)
    yaw = heading + look
    # walk along the heading; teleports add their jump on top
    step = np.stack([np.sin(heading) * speed * dt_s, -np.cos(heading) * speed * dt_s], axis=1)
    xz = np.cumsum(step + jump, axis=0)
    pos = np.stack([xz[:, 0], np.full(samples, 1.6), xz[:, 1]], axis=1)
    fwd, up = _frame_vectors(yaw, pitch)
    # the frame pass stays near the start, where the scene is
    _write_trajectory(out, slice(size.frame_pass), t_ms, pos, fwd, up, fov, user, frame_ms)

    # a hundred objects on a 40 m disc around the start of the walk, for the frame pass
    n = 100
    r = 40.0 * np.sqrt((np.arange(n) + rng.uniform(0.0, 1.0, n)) / n)
    phi = np.arange(n) * GOLDEN_ANGLE + rng.uniform(0.0, 0.3, n)
    centers = np.stack([r * np.cos(phi), rng.uniform(0.3, 3.0, n), r * np.sin(phi)], axis=1)
    _write_scene(out / "scene.txt", centers, rng.uniform(0.3, 1.5, n), rng.uniform(0.0, 1.0, n))
    # the session must run over budget, whatever its length
    budget = 1000.0 * math.floor(0.85 * size.audit_seconds)
    _write_config(out / "config.txt", {"max_session_ms": budget})


_GENERATORS = {"replay_dense": _replay_dense, "audit_long": _audit_long, "live_wide": _live_wide}


def generate(workload: str, seed: int, out: Path, size: Size = FULL) -> Path:
    """Write the workload's input files into `out` (created if missing) and return it."""
    out.mkdir(parents=True, exist_ok=True)
    _GENERATORS[workload](_rng(workload, seed), size, out)
    return out


def _read_poses(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = np.loadtxt(path, skiprows=1, ndmin=2)
    return data[:, 1:4], data[:, 4:7], data[:, 7:10]


def _read_scene(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, comments="#", usecols=(1, 2, 3, 4), ndmin=2)
    return data[:, :3], data[:, 3]


def roi_counts(workdir: Path, checks: int = 300) -> np.ndarray:
    """Objects whose bounding sphere reaches into the ROI cone, at `checks` evenly spaced poses.

    An approximate, independent count (sphere-cone overlap by angular
    margin) used only to check that a workload loads the ROI cull as claimed.
    """
    centers, radii = _read_scene(workdir / "scene.txt")
    pos, fwd, _ = _read_poses(workdir / "trajectory.txt")
    cfg = dict(line.split(" = ") for line in (workdir / "config.txt").read_text().splitlines())
    half = math.radians(float(cfg["roi_half_angle_deg"]))
    z_far = float(cfg["roi_z_far_m"])
    counts = []
    every = max(1, len(pos) // checks)
    for p, f in zip(pos[::every], fwd[::every]):
        rel = centers - p
        dist = np.linalg.norm(rel, axis=1)
        f = f / np.linalg.norm(f)
        ang = np.arccos(np.clip(rel @ f / np.maximum(dist, 1e-12), -1.0, 1.0))
        margin = np.arcsin(np.clip(radii / np.maximum(dist, 1e-12), 0.0, 1.0))
        inside = (ang - margin <= half) & (rel @ f - radii <= z_far)
        counts.append(int(inside.sum()))
    return np.array(counts)


def self_check(workload: str, workdir: Path, size: Size = FULL) -> list[str]:
    """Problems with a generated workload; empty when it exercises what it claims.

    The ROI load is checked at full size only. Comfort coverage of
    `audit_long` (all six rules fire) is checked on the report itself, by
    the runner.
    """
    problems = []
    _, fwd, up = _read_poses(workdir / "trajectory.txt")
    cos = np.abs(np.sum(fwd * up, axis=1)) / (np.linalg.norm(fwd, axis=1) * np.linalg.norm(up, axis=1))
    if cos.max() > 0.5:
        problems.append(f"forward comes within {math.degrees(math.acos(cos.max())):.1f} deg of up")
    expected = {"replay_dense": (80.0, 130.0), "live_wide": (12.0, 30.0)}.get(workload)
    if expected is not None and size == FULL:
        mean = float(roi_counts(workdir).mean())
        if not expected[0] <= mean <= expected[1]:
            problems.append(f"mean ROI candidates {mean:.1f} outside {expected}")
    return problems
