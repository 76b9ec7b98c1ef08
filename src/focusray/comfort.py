"""Guideline checks over recorded camera trajectories.

Six rules flag trajectory episodes associated with viewer discomfort:
sustained acceleration (what matters is how long the change lasts, not how
hard it peaks; a one-sample velocity step is deliberately ignored), camera
motion the user did not initiate, field-of-view manipulation, dropped
frames, session length, and long stretches of continuous locomotion
(discrete teleport-style jumps are exempt).

Severity numbers are heuristic rankings for triage, not a validated
sickness predictor, and reports label them accordingly.

`analyze_trajectory` is the entry point: it validates once, and the rules
share one motion pass. Velocity and acceleration come from central finite
differences over the (possibly non-uniform) sample timestamps; endpoints
use one-sided differences.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

from .errors import ValidationError
from .geometry import Vec3

# the acceleration rule differentiates twice, so its stencil needs three samples
MIN_SAMPLES = 3

# ComfortConfig thresholds that may be zero; every other one must be positive
_MAY_BE_ZERO = ("min_episode_ms", "fov_delta_threshold_deg", "motion_floor_m_s", "motion_floor_deg_s")


@dataclass(frozen=True, slots=True)
class TrajectorySample:
    """One recorded camera pose: time, position, frame, FOV, input flags."""

    t_ms: float
    position: Vec3
    forward: Vec3
    up: Vec3
    fov_deg: float
    user_initiated: bool
    frame_time_ms: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.t_ms):
            raise ValidationError(f"t_ms must be finite, got {self.t_ms!r}")
        if not self.forward.is_unit():
            raise ValidationError("forward must be a unit vector")
        if not self.up.is_unit():
            raise ValidationError("up must be a unit vector")
        if not 0.0 < self.fov_deg < 180.0:
            raise ValidationError(f"fov_deg must be in (0, 180), got {self.fov_deg!r}")
        if not (math.isfinite(self.frame_time_ms) and self.frame_time_ms > 0.0):
            raise ValidationError(f"frame_time_ms must be positive, got {self.frame_time_ms!r}")


class ComfortRule(enum.Enum):
    AccelerationRamp = "AccelerationRamp"
    UncontrolledCamera = "UncontrolledCamera"
    FovManipulation = "FovManipulation"
    FrameDrop = "FrameDrop"
    SessionDuration = "SessionDuration"
    ContinuousLocomotion = "ContinuousLocomotion"


_RULE_ORDER = {rule: i for i, rule in enumerate(ComfortRule)}


@dataclass(frozen=True, slots=True)
class ComfortFinding:
    """One flagged episode: which rule, when, how bad (heuristic), and why."""

    rule: ComfortRule
    start_ms: float
    end_ms: float
    severity: float
    detail: str

    def __post_init__(self) -> None:
        if self.start_ms > self.end_ms:
            raise ValidationError("finding start_ms must not exceed end_ms")
        if not (math.isfinite(self.severity) and self.severity >= 0.0):
            raise ValidationError(f"severity must be >= 0, got {self.severity!r}")


@dataclass(frozen=True, slots=True)
class ComfortConfig:
    """Rule thresholds. Every number here is a tunable calibration choice."""

    accel_threshold_m_s2: float = 1.0
    min_episode_ms: float = 200.0
    fov_delta_threshold_deg: float = 1.0
    motion_floor_m_s: float = 0.05
    motion_floor_deg_s: float = 5.0
    walk_episode_ms: float = 2000.0
    max_session_ms: float = 1_800_000.0
    jump_distance_min_m: float = 0.5
    target_frame_ms: float = 11.1
    drop_factor: float = 2.0

    def __post_init__(self) -> None:
        for f in fields(self):
            x = getattr(self, f.name)
            if f.name not in _MAY_BE_ZERO and not (math.isfinite(x) and x > 0.0):
                raise ValidationError(f"{f.name} must be positive, got {x!r}")
        for name in _MAY_BE_ZERO:
            x = getattr(self, name)
            if not (math.isfinite(x) and x >= 0.0):
                raise ValidationError(f"{name} must be >= 0, got {x!r}")


@dataclass(frozen=True)
class ComfortReport:
    """All findings over a trajectory plus per-rule counts and session span."""

    findings: tuple[ComfortFinding, ...]
    counts: dict[ComfortRule, int]
    duration_ms: float


Trajectory = Sequence[TrajectorySample]


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


def _central_rate(values: Sequence[Vec3], ts_s: Sequence[float]) -> list[Vec3]:
    """First derivative of a vector series."""
    return [(values[hi] - values[lo]) * (1.0 / dt) for lo, hi, dt in _stencil(ts_s)]


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
    accelerations = _central_rate(motion.velocities, motion.ts_s)
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


def analyze_trajectory(
    traj: Trajectory,
    duration_ms: float | None = None,
    cfg: ComfortConfig = ComfortConfig(),
) -> ComfortReport:
    """Run every rule over the trajectory and return the merged report.

    duration_ms defaults to the trajectory's time span. Findings are sorted
    by start time, ties by rule declaration order, so reports are stable.
    """
    _check_trajectory(traj)
    if duration_ms is None:
        duration_ms = traj[-1].t_ms - traj[0].t_ms
    if not (math.isfinite(duration_ms) and duration_ms >= 0.0):
        raise ValidationError(f"duration_ms must be >= 0, got {duration_ms!r}")
    ts_s = [s.t_ms / 1000.0 for s in traj]
    gap_distances = [b.position.distance_to(a.position) for a, b in zip(traj, traj[1:])]
    gap_speeds = _gap_speeds_m_s(traj, gap_distances)
    motion = _Motion(
        duration_ms=duration_ms,
        ts_s=ts_s,
        velocities=_central_rate([s.position for s in traj], ts_s),
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
