import math
from pathlib import Path

import pytest

from focusray import (
    ComfortConfig,
    ComfortFinding,
    ComfortRule,
    Trajectory,
    TrajectorySample,
    ValidationError,
    Vec3,
    analyze_trajectory,
    render_comfort_section,
    render_document,
)
from focusray.geometry import MAX_FRAME_MS
from builders import comfort_tour, sample, trajectory_along_x

COMFORT_DIR = Path(__file__).parent / "data" / "comfort"


def findings_of(rule, traj, cfg=ComfortConfig()):
    """The findings one rule contributes to the full report, in report order."""
    return [f for f in analyze_trajectory(traj, cfg=cfg).findings if f.rule is rule]


def accel_episodes(traj, cfg=ComfortConfig()):
    return findings_of(ComfortRule.AccelerationRamp, traj, cfg)


def frame_drops(traj):
    return findings_of(ComfortRule.FrameDrop, traj)


def ramp_x(t: float) -> float:
    """Rest until 1 s, accelerate at 3 m/s^2 through 3 s, then cruise."""
    if t <= 1.0:
        return 0.0
    if t <= 3.0:
        return 1.5 * (t - 1.0) ** 2
    return 6.0 + 6.0 * (t - 3.0)


def pan_trajectory(user_initiated: bool) -> list[TrajectorySample]:
    """Stationary camera that yaws 20 degrees between t=1 s and t=2 s."""
    samples = []
    for i in range(31):
        t = i * 100.0
        phi = math.radians(20.0) * min(max(t / 1000.0 - 1.0, 0.0), 1.0)
        fwd = Vec3(math.sin(phi), 0.0, -math.cos(phi))
        samples.append(sample(t, Vec3(0.0, 0.0, 0.0), user_initiated=user_initiated, forward=fwd))
    return samples


class TestAccelerationRamp:
    def test_constant_velocity_is_clean(self):
        traj = trajectory_along_x(lambda t: 0.4 * t, 1500.0, 100.0)
        assert accel_episodes(traj) == []

    def test_two_second_ramp_scores_two(self):
        traj = trajectory_along_x(ramp_x, 3000.0, 100.0)
        findings = accel_episodes(traj)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule is ComfortRule.AccelerationRamp
        assert f.start_ms == 1000.0
        assert f.end_ms == 3000.0
        assert f.severity == pytest.approx(2.0, abs=1e-9)

    def test_longer_ramp_scores_higher(self):
        def longer(t):
            if t <= 1.0:
                return 0.0
            if t <= 4.0:
                return 1.5 * (t - 1.0) ** 2
            return 13.5 + 9.0 * (t - 4.0)

        traj = trajectory_along_x(longer, 4000.0, 100.0)
        findings = accel_episodes(traj)
        assert len(findings) == 1
        assert findings[0].severity == pytest.approx(3.0, abs=1e-9)

    def test_single_sample_spike_ignored(self):
        def spike(t):
            return 0.03 if t == 0.5 else 0.0

        traj = trajectory_along_x(spike, 1000.0, 50.0)
        assert accel_episodes(traj) == []

    def test_below_threshold_ramp_ignored(self):
        def gentle(t):  # 0.4 m/s^2, under the 1.0 threshold
            if t <= 1.0:
                return 0.0
            return 0.2 * (t - 1.0) ** 2

        traj = trajectory_along_x(gentle, 3000.0, 100.0)
        assert accel_episodes(traj) == []

    def test_too_short_episode_ignored(self):
        cfg = ComfortConfig(min_episode_ms=500.0)

        def blip(t):  # 300 ms of hard acceleration
            if t <= 1.0:
                return 0.0
            if t <= 1.3:
                return 2.0 * (t - 1.0) ** 2
            return 0.18 + 1.2 * (t - 1.3)

        traj = trajectory_along_x(blip, 2500.0, 100.0)
        assert accel_episodes(traj, cfg) == []


class TestTeleportExemption:
    @staticmethod
    def teleport_x(t: float) -> float:
        return 0.0 if t <= 1.0 else 5.0

    def test_calm_teleport_not_flagged(self):
        traj = trajectory_along_x(self.teleport_x, 4000.0, 100.0)
        report = analyze_trajectory(traj)
        assert report.findings == ()

    def test_jump_while_walking_still_flagged(self):
        def running_jump(t):
            base = 0.4 * t
            return base + (5.0 if t > 1.0 else 0.0)

        traj = trajectory_along_x(running_jump, 4000.0, 100.0)
        assert accel_episodes(traj) != []

    def test_small_hop_not_a_teleport(self):
        def hop(t):  # 0.3 m in one 100 ms gap, below the 0.5 m teleport floor
            return 0.0 if t <= 1.0 else 0.3

        traj = trajectory_along_x(hop, 4000.0, 100.0)
        # 3 m/s over one gap then stop: a harsh but short transient; the
        # accel episode filter may or may not span 200 ms, so only check
        # that the teleport zeroing did not kick in
        speeds = [abs(b.position.x - a.position.x) / (b.t_ms - a.t_ms) * 1000.0 for a, b in zip(traj, traj[1:])]
        assert max(speeds) > 0.05


class TestFrameDrops:
    def frames(self, times_ms):
        return [
            sample(i * 100.0, Vec3(0, 0, 0), frame_time_ms=ft)
            for i, ft in enumerate(times_ms)
        ]

    def test_clean_budget(self):
        traj = self.frames([11.1] * 10)
        assert frame_drops(traj) == []

    def test_burst_merges_into_one_finding(self):
        traj = self.frames([11.1] * 3 + [40.0, 40.0, 40.0] + [11.1] * 3)
        findings = frame_drops(traj)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule is ComfortRule.FrameDrop
        assert f.start_ms == 300.0
        assert f.end_ms == 500.0
        assert f.severity == pytest.approx(3 * (40.0 - 11.1) / 1000.0, abs=1e-12)

    def test_separate_bursts_stay_separate(self):
        traj = self.frames([40.0] + [11.1] * 4 + [40.0])
        findings = frame_drops(traj)
        assert len(findings) == 2

    def test_threshold_is_strict(self):
        traj = self.frames([22.2] * 5)  # exactly 2x the 11.1 budget
        assert frame_drops(traj) == []
        traj = self.frames([22.3] * 1 + [11.1] * 4)
        findings = frame_drops(traj)
        assert len(findings) == 1
        assert findings[0].severity == pytest.approx((22.3 - 11.1) / 1000.0, abs=1e-12)


class TestUncontrolledCamera:
    def test_scripted_pan_flagged(self):
        findings = [
            f for f in analyze_trajectory(pan_trajectory(False)).findings
            if f.rule is ComfortRule.UncontrolledCamera
        ]
        assert len(findings) == 1
        f = findings[0]
        assert f.start_ms == 1000.0
        assert f.end_ms == 2000.0
        assert f.severity == pytest.approx(1.0, abs=1e-9)

    def test_user_initiated_pan_clean(self):
        findings = [
            f for f in analyze_trajectory(pan_trajectory(True)).findings
            if f.rule is ComfortRule.UncontrolledCamera
        ]
        assert findings == []

    def test_stationary_scripted_camera_clean(self):
        traj = trajectory_along_x(lambda t: 0.0, 2000.0, 100.0, user_initiated=False)
        report = analyze_trajectory(traj)
        assert report.counts[ComfortRule.UncontrolledCamera] == 0

    def test_scripted_translation_flagged(self):
        traj = trajectory_along_x(lambda t: 0.4 * t, 1500.0, 100.0, user_initiated=False)
        report = analyze_trajectory(traj)
        assert report.counts[ComfortRule.UncontrolledCamera] == 1


class TestFovManipulation:
    def fov_traj(self, fovs):
        return [sample(i * 100.0, Vec3(0, 0, 0), fov_deg=f) for i, f in enumerate(fovs)]

    def test_ramp_flagged_with_summed_severity(self):
        fovs = [90.0] * 10 + [93.0, 96.0, 99.0, 102.0, 105.0] + [105.0] * 5
        report = analyze_trajectory(self.fov_traj(fovs))
        findings = [f for f in report.findings if f.rule is ComfortRule.FovManipulation]
        assert len(findings) == 1
        f = findings[0]
        assert f.start_ms == 900.0  # the sample before the first big step
        assert f.end_ms == 1400.0
        assert f.severity == pytest.approx(15.0, abs=1e-9)

    def test_slow_drift_clean(self):
        fovs = [90.0 + 0.5 * i for i in range(15)]
        report = analyze_trajectory(self.fov_traj(fovs))
        assert report.counts[ComfortRule.FovManipulation] == 0

    def test_narrowing_counts_too(self):
        fovs = [90.0] * 5 + [85.0] + [85.0] * 5
        report = analyze_trajectory(self.fov_traj(fovs))
        findings = [f for f in report.findings if f.rule is ComfortRule.FovManipulation]
        assert len(findings) == 1
        assert findings[0].severity == pytest.approx(5.0, abs=1e-9)


class TestContinuousLocomotion:
    def test_long_walk_flagged(self):
        traj = trajectory_along_x(lambda t: 0.4 * t, 2500.0, 100.0)
        report = analyze_trajectory(traj)
        findings = [f for f in report.findings if f.rule is ComfortRule.ContinuousLocomotion]
        assert len(findings) == 1
        f = findings[0]
        assert f.start_ms == 0.0
        assert f.end_ms == 2500.0
        assert f.severity == pytest.approx(2.5, abs=1e-12)

    def test_stop_and_go_clean(self):
        def stop_go(t):
            if t <= 1.5:
                return 0.4 * t
            if t <= 2.5:
                return 0.6
            return 0.6 + 0.4 * (t - 2.5)

        traj = trajectory_along_x(stop_go, 4000.0, 100.0)
        report = analyze_trajectory(traj)
        assert report.counts[ComfortRule.ContinuousLocomotion] == 0

    def test_exact_budget_walk_clean(self):
        traj = trajectory_along_x(lambda t: 0.4 * t, 2000.0, 100.0)
        report = analyze_trajectory(traj)
        assert report.counts[ComfortRule.ContinuousLocomotion] == 0


class TestSessionDuration:
    def stationary(self, span_ms):
        return [sample(0.0, Vec3(0, 0, 0)), sample(span_ms / 2.0, Vec3(0, 0, 0)), sample(span_ms, Vec3(0, 0, 0))]

    def test_thirty_five_minute_session(self):
        report = analyze_trajectory(self.stationary(2_100_000.0))
        findings = [f for f in report.findings if f.rule is ComfortRule.SessionDuration]
        assert len(findings) == 1
        f = findings[0]
        assert f.start_ms == 1_800_000.0
        assert f.end_ms == 2_100_000.0
        assert f.severity == pytest.approx(300.0, abs=1e-9)

    def test_under_budget_clean(self):
        report = analyze_trajectory(self.stationary(1_800_000.0))
        assert report.counts[ComfortRule.SessionDuration] == 0


class TestAnalyzeReport:
    def test_findings_sorted_by_start_then_rule_order(self):
        # frame drops and the acceleration ramp both start at t=1000
        samples = []
        for i in range(31):
            t = i * 100.0
            ft = 40.0 if 1000.0 <= t <= 1200.0 else 11.1
            samples.append(sample(t, Vec3(ramp_x(t / 1000.0), 0.0, 0.0), frame_time_ms=ft))
        report = analyze_trajectory(samples)
        assert [f.rule for f in report.findings] == [ComfortRule.AccelerationRamp, ComfortRule.FrameDrop]
        assert report.findings[0].start_ms == report.findings[1].start_ms == 1000.0

    def test_counts_cover_every_rule(self):
        traj = trajectory_along_x(lambda t: 0.0, 1000.0, 100.0)
        report = analyze_trajectory(traj)
        assert set(report.counts) == set(ComfortRule)
        assert all(v == 0 for v in report.counts.values())

    def test_time_shift_invariance(self):
        base = trajectory_along_x(ramp_x, 3000.0, 100.0)
        shifted = [
            sample(s.t_ms + 10_000.0, s.position, user_initiated=s.user_initiated)
            for s in base
        ]
        a = analyze_trajectory(base)
        b = analyze_trajectory(shifted)
        rel_a = [(f.rule, f.start_ms - 0.0, f.end_ms - 0.0, f.severity) for f in a.findings]
        rel_b = [(f.rule, f.start_ms - 10_000.0, f.end_ms - 10_000.0, f.severity) for f in b.findings]
        assert rel_a == rel_b

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValidationError):
            analyze_trajectory([sample(0.0, Vec3(0, 0, 0)), sample(100.0, Vec3(0, 0, 0))])

    def test_non_monotonic_times_rejected(self):
        with pytest.raises(ValidationError):
            analyze_trajectory([
                sample(0.0, Vec3(0, 0, 0)),
                sample(100.0, Vec3(0, 0, 0)),
                sample(100.0, Vec3(0, 0, 0)),
            ])


class TestValidation:
    def test_finding_rejects_inverted_span(self):
        with pytest.raises(ValidationError):
            ComfortFinding(rule=ComfortRule.FrameDrop, start_ms=200.0, end_ms=100.0, severity=1.0, detail="x")

    def test_finding_rejects_negative_severity(self):
        with pytest.raises(ValidationError):
            ComfortFinding(rule=ComfortRule.FrameDrop, start_ms=0.0, end_ms=100.0, severity=-1.0, detail="x")

    def test_config_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            ComfortConfig(accel_threshold_m_s2=0.0)
        with pytest.raises(ValidationError):
            ComfortConfig(motion_floor_m_s=-0.1)

    def test_sample_rejects_bad_fov_and_frame_time(self):
        with pytest.raises(ValidationError):
            sample(0.0, Vec3(0, 0, 0), fov_deg=0.0)
        with pytest.raises(ValidationError):
            sample(0.0, Vec3(0, 0, 0), fov_deg=180.0)
        with pytest.raises(ValidationError):
            sample(0.0, Vec3(0, 0, 0), frame_time_ms=0.0)

    def test_frame_times_are_bounded_in_library_trajectories(self):
        # two adjacent 1e308 ms frames used to sum to an infinite frame-drop severity
        rows = [(0.0, 1e308), (100.0, 1e308), (200.0, 11.1)]
        with pytest.raises(ValidationError, match=r"^frame_time_ms must be at most 1e\+100, got 1e\+308$"):
            analyze_trajectory([sample(t, Vec3(0, 0, 0), frame_time_ms=ft) for t, ft in rows])
        columns = Trajectory.from_samples([sample(t, Vec3(0, 0, 0)) for t, _ in rows])
        frame_ms = [ft for _, ft in rows]
        with pytest.raises(ValidationError, match="^frame_time_ms must be at most"):
            Trajectory(columns.t_ms, columns.pos, columns.fwd, columns.up, columns.fov, columns.user, frame_ms)
        assert sample(0.0, Vec3(0, 0, 0), frame_time_ms=MAX_FRAME_MS).frame_time_ms == 1e100

    def test_sample_rejects_non_unit_frame(self):
        with pytest.raises(ValidationError):
            sample(0.0, Vec3(0, 0, 0), forward=Vec3(0.0, 0.0, -2.0))


class TestComfortTourBytes:
    def test_rendered_section_matches_pinned_bytes(self):
        # the tour's span is ~35 s, so a 30 s budget makes SessionDuration fire
        report = analyze_trajectory(comfort_tour(), cfg=ComfortConfig(max_session_ms=30_000.0))
        assert all(report.counts[rule] >= 1 for rule in ComfortRule)
        text = render_document((render_comfort_section(report),))
        assert text.encode("utf-8") == (COMFORT_DIR / "expected_comfort.txt").read_bytes()
