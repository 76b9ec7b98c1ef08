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
