"""Small constructors shared by the test modules."""

from __future__ import annotations

import math
import random

from focusray import MidCamera, StereoRig, TrajectorySample, Vec3

FORWARD = Vec3(0.0, 0.0, -1.0)
UP = Vec3(0.0, 1.0, 0.0)


def axial_cam(x: float = 0.0, y: float = 0.0, z: float = 0.0) -> MidCamera:
    return MidCamera(m=Vec3(x, y, z), forward=FORWARD, up=UP)


def axial_rig(x: float = 0.0, y: float = 0.0, z: float = 0.0, ipd: float = 0.064) -> StereoRig:
    half = Vec3(ipd / 2.0, 0.0, 0.0)
    pos = Vec3(x, y, z)
    return StereoRig(ol=pos - half, or_=pos + half, up=UP, forward=FORWARD)


def sample(
    t_ms: float,
    pos: Vec3,
    fov_deg: float = 90.0,
    user_initiated: bool = True,
    frame_time_ms: float = 11.1,
    forward: Vec3 = FORWARD,
    up: Vec3 = UP,
) -> TrajectorySample:
    return TrajectorySample(
        t_ms=t_ms,
        position=pos,
        forward=forward,
        up=up,
        fov_deg=fov_deg,
        user_initiated=user_initiated,
        frame_time_ms=frame_time_ms,
    )


class NoArrays:
    """Stands in for a module's `np`: any use of it fails the test."""

    def __getattr__(self, name: str):
        raise AssertionError(f"np.{name} was used")


def sample_bits(s: TrajectorySample) -> tuple:
    """Every field of a sample, floats as `float.hex`, for bit-for-bit comparison."""
    vectors = (s.position, s.forward, s.up)
    floats = (s.t_ms, *(c for v in vectors for c in (v.x, v.y, v.z)), s.fov_deg, s.frame_time_ms)
    return (*(float(x).hex() for x in floats), s.user_initiated)


def trajectory_along_x(x_of_t_s, t_end_ms: float, dt_ms: float = 50.0, **sample_kwargs) -> list[TrajectorySample]:
    """Trajectory moving along +x with position x_of_t_s(t_seconds), sampled
    every dt_ms from 0 through t_end_ms inclusive."""
    samples: list[TrajectorySample] = []
    steps = round(t_end_ms / dt_ms)
    for i in range(steps + 1):
        t = i * dt_ms
        samples.append(sample(t, Vec3(x_of_t_s(t / 1000.0), 0.0, 0.0), **sample_kwargs))
    return samples


def comfort_tour(seed: int = 11) -> list[TrajectorySample]:
    """A seeded recording of about 1,750 samples on a jittered ~20 ms clock
    that makes every comfort rule fire.

    It has calm teleports on the first gap, on the last gap and right after
    a walk, plus one jump while walking; two acceleration/deceleration ramp
    pairs; scripted pans and a scripted glide; FOV ramps in both directions;
    frame-drop bursts and long walks. The span is about 35 s, so
    SessionDuration fires only under a max_session_ms below that.
    """
    rng = random.Random(seed)
    samples: list[TrajectorySample] = []
    pos = Vec3(0.0, 1.6, 0.0)
    yaw_deg = 0.0
    fov = 90.0
    t = 0.0
    v = 0.0  # speed along +x, m/s

    def emit(user: bool = True, frame_ms: float | None = None) -> None:
        yaw = math.radians(yaw_deg)
        fwd = Vec3(math.sin(yaw), 0.0, -math.cos(yaw))
        ft = rng.uniform(9.0, 13.0) if frame_ms is None else frame_ms
        samples.append(sample(t, pos, fov_deg=fov, user_initiated=user, frame_time_ms=ft, forward=fwd))

    def advance(n: int, accel: float = 0.0, yaw_rate: float = 0.0, fov_step: float = 0.0, **kw) -> None:
        nonlocal t, pos, v, yaw_deg, fov
        for _ in range(n):
            dt_s = rng.uniform(16.0, 24.0) / 1000.0
            t = round(t + dt_s * 1000.0, 3)
            v += accel * dt_s
            pos = pos + Vec3(v * dt_s, 0.0, 0.0)
            yaw_deg += yaw_rate * dt_s
            fov += fov_step
            emit(**kw)

    def teleport(dx: float) -> None:
        nonlocal t, pos
        t = round(t + rng.uniform(16.0, 24.0), 3)
        pos = pos + Vec3(dx, 0.0, rng.uniform(-2.0, 2.0))
        emit()

    emit()
    teleport(5.0)  # first gap
    advance(25)
    v = rng.uniform(0.7, 1.0)
    advance(150)  # walk 1
    v = 0.0
    advance(1)
    teleport(-4.0)  # right after the walk
    advance(30)
    for _ in range(2):  # ramp up, cruise, ramp down
        a = rng.uniform(2.0, 3.0)
        advance(40, accel=a)
        advance(50)
        advance(40, accel=-a)
        v = 0.0
        advance(30)
    advance(5, frame_ms=40.0)
    advance(20)
    advance(50, yaw_rate=rng.uniform(25.0, 40.0), user=False)  # scripted pan
    advance(20, user=False)
    advance(20)
    advance(6, fov_step=3.0)
    advance(20)
    advance(6, fov_step=-2.5)
    advance(20)
    advance(3, frame_ms=30.0)
    advance(15)
    advance(1, frame_ms=rng.uniform(25.0, 60.0))
    advance(20)
    v = 0.5
    advance(40, user=False)  # scripted glide
    v = 1.0
    advance(60)  # walk 2, with a jump while walking
    teleport(3.0)
    advance(60)
    v = 0.0
    advance(40)
    advance(50, yaw_rate=-rng.uniform(25.0, 40.0), user=False)
    advance(5, fov_step=-4.0)
    advance(5, fov_step=4.0)
    advance(4, frame_ms=50.0)
    advance(750)
    teleport(6.0)  # last gap
    return samples


PINNED_CONFIG = {
    "ray_k": 4, "ray_n": 64, "ray_half_angle_deg": 15.0, "roi_half_angle_deg": 30.0,
    "roi_z_far_m": 60.0, "p_rm": 0.5, "p_d": 0.3, "p_v": 0.2, "refocus_ms": 500.0,
    "persistence_hold_ms": 300.0, "blur_per_meter": 0.5, "max_blur": 1.0, "tick_ms": 16.0,
    "ipd_m": 0.064, "accel_threshold_m_s2": 1.0, "min_episode_ms": 200.0,
    "fov_delta_threshold_deg": 1.0, "motion_floor_m_s": 0.05, "motion_floor_deg_s": 5.0,
    "walk_episode_ms": 2000.0, "max_session_ms": 1800000.0, "jump_distance_min_m": 0.5,
    "target_frame_ms": 11.1, "drop_factor": 2.0,
}


def write_large_scenario(directory, seed: int = 5) -> dict[str, str]:
    """Write a seeded 200-object scenario for `focusray run` into `directory`.

    The scene surrounds the viewer: objects on jittered rings ahead of and
    beside the head, values on a 0.05 grid (so importance ties happen), and
    a few coincident twins with different ids (so ray-hit and importance
    ties go to the lower id). The head sweeps yaw and pitch over 10 s,
    recorded every 40 ms, which replays as 626 ticks at k=4, n=64.
    Returns the paths of the three input files and of the output.
    """
    rng = random.Random(seed)
    lines = []
    oid = 1
    while oid <= 200:
        azimuth = rng.uniform(-math.pi * 0.6, math.pi * 0.6)
        elevation = rng.uniform(-0.35, 0.35)
        dist = rng.uniform(6.0, 55.0)
        x = dist * math.cos(elevation) * math.sin(azimuth)
        y = 1.6 + dist * math.sin(elevation)
        z = -dist * math.cos(elevation) * math.cos(azimuth)
        radius = rng.uniform(0.3, 2.0)
        value = round(rng.randint(0, 20) * 0.05, 2)
        twins = 2 if oid % 25 == 0 and oid < 200 else 1
        for _ in range(twins):
            lines.append(f"{oid} {x:.6f} {y:.6f} {z:.6f} {radius:.4f} {value:.2f} obj{oid}")
            oid += 1
    rows = ["t_ms px py pz fx fy fz ux uy uz fov_deg user_initiated frame_time_ms"]
    phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(4)]
    for i in range(251):
        t_s = i * 0.04
        yaw = 1.1 * math.sin(0.9 * t_s + phases[0]) + 0.3 * math.sin(2.3 * t_s + phases[1])
        pitch = 0.2 * math.sin(1.1 * t_s + phases[2]) + 0.08 * math.sin(3.1 * t_s + phases[3])
        fwd = (math.cos(pitch) * math.sin(yaw), math.sin(pitch), -math.cos(pitch) * math.cos(yaw))
        up = (-math.sin(pitch) * math.sin(yaw), math.cos(pitch), math.sin(pitch) * math.cos(yaw))
        px = 0.4 * math.sin(0.3 * t_s)
        pz = -0.05 * t_s
        rows.append(
            f"{t_s * 1000.0:.1f} {px:.6f} 1.600000 {pz:.6f} "
            + " ".join(f"{c:.9f}" for c in fwd + up)
            + " 90.0 1 11.1"
        )
    texts = {
        "scene": "\n".join(lines) + "\n",
        "trajectory": "\n".join(rows) + "\n",
        "config": "".join(f"{key} = {value}\n" for key, value in PINNED_CONFIG.items()),
    }
    paths = {}
    for name, text in texts.items():
        path = f"{directory}/{name}.txt"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        paths[name] = path
    paths["out"] = f"{directory}/out.txt"
    return paths
