"""Guideline checks over recorded camera trajectories.

Six rules flag trajectory episodes associated with viewer discomfort:
sustained acceleration (what matters is how long the change lasts, not how
hard it peaks; a one-sample velocity step is deliberately ignored), camera
motion the user did not initiate, field-of-view manipulation, dropped
frames, session length, and long stretches of continuous locomotion
(discrete teleport-style jumps are exempt).

Severity numbers are heuristic rankings for triage, not a validated
sickness predictor, and reports label them accordingly.

`analyze_trajectory` is the entry point: it validates once, the rules
share one motion pass over the `Trajectory` columns, and each rule takes
the columns it reads. Velocity and
acceleration come from central finite differences over the (possibly
non-uniform) sample timestamps; endpoints use one-sided differences. Every
per-sample value is an elementwise array expression in the operand order
of the scalar formula, angles come from `math` per sample, and per-episode
sums are sequential Python sums, so the report does not depend on how
NumPy groups a reduction.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import MAX_FRAME_MS, UNIT_TOL, Vec3, dot_rows, norm_rows

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
        if not self.frame_time_ms <= MAX_FRAME_MS:  # so the frame-drop rule's sums stay finite
            raise ValidationError(f"frame_time_ms must be at most {MAX_FRAME_MS:g}, got {self.frame_time_ms!r}")


def invalid_sample_rows(t_ms, pos, fwd, up, fov, frame_ms) -> np.ndarray:
    """Per row of trajectory columns, True when the row would fail a `Vec3` or
    `TrajectorySample` check: the same tests, bit for bit, as array screens."""
    with np.errstate(all="ignore"):
        bad = ~np.isfinite(t_ms) | ~np.isfinite(pos).all(axis=1)
        for v in (fwd, up):  # a non-finite row has a non-finite norm
            bad |= ~(np.abs(norm_rows(v) - 1.0) <= UNIT_TOL)
        bad |= ~((fov > 0.0) & (fov < 180.0))
        return bad | ~((frame_ms > 0.0) & (frame_ms <= MAX_FRAME_MS))


@dataclass(frozen=True, slots=True, eq=False)
class Trajectory(Sequence[TrajectorySample]):
    """A recording as read-only columns, one row per sample: `t_ms`, `fov`
    and `frame_ms` (N,) float64, `pos`, `fwd` and `up` (N, 3) float64 and
    `user` (N,) bool. Every row meets the `TrajectorySample` invariants (the
    first that does not raises that sample's error); rows need not be in
    time order. Each `TrajectorySample` is built on access by its checked
    constructor, from plain Python floats and a bool."""

    t_ms: np.ndarray
    pos: np.ndarray
    fwd: np.ndarray
    up: np.ndarray
    fov: np.ndarray
    user: np.ndarray
    frame_ms: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.t_ms)
        for f in fields(self):
            value = getattr(self, f.name)
            # the columns are checked once, here, so the trajectory holds its own copies
            col = np.array(value, bool if f.name == "user" else np.float64)
            if col.shape != ((n, 3) if f.name in ("pos", "fwd", "up") else (n,)):
                raise ValidationError(f"trajectory column {f.name} must hold {n} rows, got shape {col.shape}")
            col.flags.writeable = False
            object.__setattr__(self, f.name, col)
        for i in np.flatnonzero(invalid_sample_rows(self.t_ms, self.pos, self.fwd, self.up, self.fov, self.frame_ms)):
            self[i]  # the row's own check raises

    @classmethod
    def from_samples(cls, samples: Sequence[TrajectorySample]) -> Trajectory:
        """The columns of a sequence of samples; a `Trajectory` is returned as it is."""
        if isinstance(samples, Trajectory):
            return samples
        vectors = np.array([(v.x, v.y, v.z) for s in samples for v in (s.position, s.forward, s.up)], np.float64)
        pos, fwd, up = vectors.reshape(-1, 3, 3).transpose(1, 0, 2)
        return cls(
            [s.t_ms for s in samples], pos, fwd, up,
            [s.fov_deg for s in samples], [s.user_initiated for s in samples], [s.frame_time_ms for s in samples],
        )

    def __len__(self) -> int:
        return len(self.t_ms)

    def __getitem__(self, i: int) -> TrajectorySample:
        i = range(len(self))[operator.index(i)]  # negative indices count from the end; IndexError past either end
        return next(self._samples(slice(i, i + 1)))

    def __iter__(self) -> Iterator[TrajectorySample]:
        return self._samples(slice(None))

    def _samples(self, rows: slice) -> Iterator[TrajectorySample]:
        columns = [getattr(self, f.name)[rows].tolist() for f in fields(self)]
        for t, p, f, u, fov, user, frame in zip(*columns):
            yield TrajectorySample(t, Vec3(*p), Vec3(*f), Vec3(*u), fov, user, frame)


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


def _check_vectors(*steps: np.ndarray) -> None:
    """Raise what the per-row formula raises when a step is not a finite `Vec3`:
    at the first such row, the vector of each step is built in order."""
    for i in np.flatnonzero(~np.isfinite(np.hstack(steps)).all(axis=1)):
        for step in steps:
            Vec3(*step[i].tolist())


def _central_rate(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """First derivative of a series of row vectors over the stencil."""
    delta = values[hi] - values[lo]
    rate = delta * (1.0 / dt)[:, None]
    _check_vectors(delta, rate)
    return rate


def _runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of consecutive True flags as inclusive (start, end) indices."""
    edges = np.diff(flags.astype(np.int8), prepend=0, append=0)
    return list(zip(np.flatnonzero(edges == 1).tolist(), (np.flatnonzero(edges == -1) - 1).tolist()))


def detect_acceleration_episodes(
    t: list[float], velocities: np.ndarray, lo: np.ndarray, hi: np.ndarray, dt: np.ndarray, jumps: np.ndarray,
    cfg: ComfortConfig,
) -> list[ComfortFinding]:
    """Episodes of sustained acceleration above the threshold.

    A run of consecutive over-threshold samples becomes a finding only when
    it spans at least min_episode_ms; its severity is the episode duration in
    seconds. Single-sample spikes (the instant velocity step) and
    teleport-style jumps therefore never register.
    """
    magnitudes = norm_rows(_central_rate(velocities, lo, hi, dt))

    # a teleport gap corrupts the finite differences of the four samples
    # whose stencils straddle it (gap - 1 through gap + 2): blank them
    # instead of flagging the jump; sample i is entry i + 1 here
    near_jump = np.zeros(len(magnitudes) + 3, bool)
    for offset in range(4):
        near_jump[offset : offset + len(jumps)] |= jumps
    magnitudes[near_jump[1:-2]] = 0.0

    findings: list[ComfortFinding] = []
    for start, end in _runs(magnitudes > cfg.accel_threshold_m_s2):
        duration_ms = t[end] - t[start]
        if duration_ms < cfg.min_episode_ms:
            continue
        peak = max(magnitudes[start : end + 1].tolist())
        detail = f"sustained acceleration for {duration_ms / 1000.0:.3f} s (peak {peak:.3f} m/s^2)"
        findings.append(ComfortFinding(ComfortRule.AccelerationRamp, t[start], t[end], duration_ms / 1000.0, detail))
    return findings


def detect_frame_drops(t: list[float], frame_ms: np.ndarray, cfg: ComfortConfig) -> list[ComfortFinding]:
    """Samples whose frame time blows the budget, merged into episodes.

    A sample is flagged when frame_time_ms exceeds drop_factor times the
    target; severity is the summed time over budget, in seconds.
    """
    findings: list[ComfortFinding] = []
    for start, end in _runs(frame_ms > cfg.drop_factor * cfg.target_frame_ms):
        run = frame_ms[start : end + 1].tolist()
        excess_ms = sum(ft - cfg.target_frame_ms for ft in run)
        detail = f"{len(run)} slow frames (worst {max(run):.3f} ms against {cfg.target_frame_ms:.3f} ms budget)"
        findings.append(ComfortFinding(ComfortRule.FrameDrop, t[start], t[end], excess_ms / 1000.0, detail))
    return findings


def _angles_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The angle between each pair of unit rows in degrees, by scalar `math`
    mapped over the column (NumPy's `arccos` differs in the last bit)."""
    cosines = np.fmax(-1.0, np.fmin(1.0, dot_rows(a, b)))
    return np.fromiter(map(math.degrees, map(math.acos, cosines.tolist())), np.float64, len(cosines))


def _detect_uncontrolled(
    t: list[float], fwd: np.ndarray, user: np.ndarray, velocities: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    dt: np.ndarray, cfg: ComfortConfig,
) -> list[ComfortFinding]:
    degrees = _angles_deg(fwd[lo], fwd[hi])
    moving = (norm_rows(velocities) > cfg.motion_floor_m_s) | (degrees / dt > cfg.motion_floor_deg_s)
    return [
        ComfortFinding(
            ComfortRule.UncontrolledCamera, t[start], t[end], (t[end] - t[start]) / 1000.0,
            "camera motion not initiated by the user",
        )
        for start, end in _runs(moving & ~user)
    ]


def _detect_fov_manipulation(t: list[float], fov: np.ndarray, cfg: ComfortConfig) -> list[ComfortFinding]:
    steps = np.abs(np.diff(fov))
    findings: list[ComfortFinding] = []
    for start, end in _runs(steps > cfg.fov_delta_threshold_deg):
        total = sum(steps[start : end + 1].tolist())
        detail = f"fov changed by {total:.3f} deg over {end - start + 1} steps"
        findings.append(ComfortFinding(ComfortRule.FovManipulation, t[start], t[end + 1], total, detail))
    return findings


def _detect_locomotion(
    t: list[float], gap_speeds: np.ndarray, jumps: np.ndarray, cfg: ComfortConfig
) -> list[ComfortFinding]:
    findings: list[ComfortFinding] = []
    # teleport gaps count as standing still
    for start, end in _runs((gap_speeds > cfg.motion_floor_m_s) & ~jumps):
        duration_ms = t[end + 1] - t[start]
        if duration_ms > cfg.walk_episode_ms:
            detail = f"continuous locomotion for {duration_ms / 1000.0:.3f} s"
            findings.append(ComfortFinding(ComfortRule.ContinuousLocomotion, t[start], t[end + 1], duration_ms / 1000.0, detail))
    return findings


def _detect_session_duration(t0: float, duration_ms: float, cfg: ComfortConfig) -> list[ComfortFinding]:
    if duration_ms <= cfg.max_session_ms:
        return []
    detail = f"session of {duration_ms / 60000.0:.1f} min exceeds the {cfg.max_session_ms / 60000.0:.1f} min budget"
    return [ComfortFinding(ComfortRule.SessionDuration, t0 + cfg.max_session_ms, t0 + duration_ms,
                           (duration_ms - cfg.max_session_ms) / 1000.0, detail)]


def analyze_trajectory(
    traj: Sequence[TrajectorySample],
    cfg: ComfortConfig = ComfortConfig(),
) -> ComfortReport:
    """Run every rule over the trajectory and return the merged report.

    `traj` is any sequence of samples; a `Trajectory` is read as it is.
    The session lasts the trajectory's time span. Findings are sorted
    by start time, ties by rule declaration order, so reports are stable.
    """
    if len(traj) < MIN_SAMPLES:
        raise ValidationError(f"trajectory needs at least {MIN_SAMPLES} samples, got {len(traj)}")
    traj = Trajectory.from_samples(traj)
    if not (traj.t_ms[1:] > traj.t_ms[:-1]).all():
        raise ValidationError("trajectory samples must strictly increase in t_ms")
    t = traj.t_ms.tolist()
    duration_ms = t[-1] - t[0]
    # overflow gives inf or nan, as Python floats do; vectors are checked as Vec3s are
    with np.errstate(all="ignore"):
        # the central-difference stencil: each sample's neighbours and the seconds between them
        ts_s = traj.t_ms / 1000.0
        rows = np.arange(len(ts_s))
        lo, hi = np.maximum(rows - 1, 0), np.minimum(rows + 1, len(ts_s) - 1)
        dt = ts_s[hi] - ts_s[lo]
        gaps = traj.pos[1:] - traj.pos[:-1]
        _check_vectors(gaps)
        gap_distances = norm_rows(gaps)
        gap_speeds = gap_distances / (np.diff(traj.t_ms) / 1000.0)
        # teleports: a large position discontinuity with no motion on either side
        calm = gap_speeds <= cfg.motion_floor_m_s
        jumps = ~(gap_distances <= cfg.jump_distance_min_m) & np.r_[True, calm[:-1]] & np.r_[calm[1:], True]
        velocities = _central_rate(traj.pos, lo, hi, dt)

        # called by module name, so a tracer that rebinds a rule sees the call
        findings = detect_acceleration_episodes(t, velocities, lo, hi, dt, jumps, cfg)
        findings += _detect_uncontrolled(t, traj.fwd, traj.user, velocities, lo, hi, dt, cfg)
        findings += _detect_fov_manipulation(t, traj.fov, cfg)
        findings += detect_frame_drops(t, traj.frame_ms, cfg)
        findings += _detect_session_duration(t[0], duration_ms, cfg)
        findings += _detect_locomotion(t, gap_speeds, jumps, cfg)
    findings.sort(key=lambda f: (f.start_ms, _RULE_ORDER[f.rule]))

    counts = {rule: sum(f.rule is rule for f in findings) for rule in ComfortRule}
    return ComfortReport(findings=tuple(findings), counts=counts, duration_ms=duration_ms)
