import hashlib
import math

import pytest

from focusray import (
    TrajectorySample,
    ValidationError,
    Vec3,
    level_for_score,
    resample,
    rig_from_pose,
    run_scenario,
    score_ssq_files,
)
from focusray import simulate
from focusray.cli import EXIT_OK, main
from builders import FORWARD, UP, NoArrays, sample, sample_bits, write_large_scenario


class TestLevelForScore:
    def test_band_map(self):
        expected = {
            0: 1,
            499: 1,
            500: 2,
            1000: 2,
            1001: 3,
            2000: 3,
            2001: 4,
            3000: 4,
            3001: 5,
            5000: 5,
            5001: 6,
            999_999: 6,
        }
        for score, level in expected.items():
            assert level_for_score(score) == level, score

    def test_levels_monotone(self):
        prev = 1
        for score in range(0, 6000, 7):
            level = level_for_score(score)
            assert level >= prev
            prev = level

    def test_non_integers_rejected(self):
        for bad in (1.5, "500", True, None):
            with pytest.raises(ValidationError):
                level_for_score(bad)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            level_for_score(-1)


class TestResample:
    def test_aligned_trajectory_round_trips(self):
        traj = [sample(i * 16.0, Vec3(0.1 * i, 0.0, 0.0), fov_deg=90.0 + 0.001 * i) for i in range(5)]
        out = resample(traj, 16.0)
        assert [sample_bits(s) for s in out] == [sample_bits(s) for s in traj]

    def test_linear_interpolation(self):
        traj = [
            sample(0.0, Vec3(0.0, 0.0, 0.0), fov_deg=90.0, frame_time_ms=10.0),
            sample(100.0, Vec3(1.0, 0.0, 0.0), fov_deg=100.0, frame_time_ms=20.0),
        ]
        out = resample(traj, 25.0)
        assert [s.t_ms for s in out] == [0.0, 25.0, 50.0, 75.0, 100.0]
        assert out[1].position.x == pytest.approx(0.25, abs=1e-12)
        assert out[2].position.x == pytest.approx(0.5, abs=1e-12)
        assert out[2].fov_deg == pytest.approx(95.0, abs=1e-12)
        assert out[2].frame_time_ms == pytest.approx(15.0, abs=1e-12)

    def test_exact_tick_copies_sample_bitwise(self):
        odd = sample(96.0, Vec3(0.123456789, -0.5, 2.25), fov_deg=90.0001, frame_time_ms=11.0625)
        traj = [sample(0.0, Vec3(0.0, 0.0, 0.0)), odd]
        out = resample(traj, 16.0)
        assert sample_bits(out[-1]) == sample_bits(odd)

    def test_user_initiated_holds_left_value(self):
        traj = [
            sample(0.0, Vec3(0, 0, 0), user_initiated=True),
            sample(100.0, Vec3(0, 0, 0), user_initiated=False),
        ]
        out = resample(traj, 40.0)
        assert [s.user_initiated for s in out] == [True, True, True]

    def test_orientation_slerp_on_great_circle(self):
        left = sample(0.0, Vec3(0, 0, 0), forward=Vec3(0.0, 0.0, -1.0))
        right = sample(100.0, Vec3(0, 0, 0), forward=Vec3(-1.0, 0.0, 0.0))
        out = resample([left, right], 50.0)
        mid = out[1].forward
        assert mid.norm() == pytest.approx(1.0, abs=1e-12)
        angle = math.degrees(math.acos(max(-1.0, min(1.0, mid.dot(left.forward)))))
        assert angle == pytest.approx(45.0, abs=1e-9)

    def test_antipodal_orientations_rejected(self):
        left = sample(0.0, Vec3(0, 0, 0), forward=Vec3(0.0, 0.0, -1.0))
        right = sample(100.0, Vec3(0, 0, 0), forward=Vec3(0.0, 0.0, 1.0))
        with pytest.raises(ValidationError, match="opposite orientations"):
            resample([left, right], 50.0)

    def test_antipodal_error_names_vector_and_sample_times(self):
        left = sample(0.0, Vec3(0, 0, 0))
        right = sample(250.0, Vec3(0, 0, 0), forward=Vec3(0.0, 0.0, -1.0), up=Vec3(0.0, -1.0, 0.0))
        with pytest.raises(ValidationError, match=r"interpolate up between opposite orientations at t_ms 0\.0 and 250\.0"):
            resample([left, right], 100.0)

    def test_tick_larger_than_span(self):
        traj = [sample(0.0, Vec3(0, 0, 0)), sample(100.0, Vec3(1, 0, 0))]
        out = resample(traj, 1000.0)
        assert len(out) == 1
        assert sample_bits(out[0]) == sample_bits(traj[0])

    def test_multi_segment_advance(self):
        traj = [
            sample(0.0, Vec3(0.0, 0.0, 0.0)),
            sample(30.0, Vec3(3.0, 0.0, 0.0)),
            sample(90.0, Vec3(9.0, 0.0, 0.0)),
        ]
        out = resample(traj, 45.0)
        assert [s.t_ms for s in out] == [0.0, 45.0, 90.0]
        # 45 ms sits in the second segment: 3.0 + (45-30)/(90-30) * 6.0
        assert out[1].position.x == pytest.approx(4.5, abs=1e-12)

    def test_tick_count_is_bounded_before_any_sample_is_built(self, monkeypatch):
        def no_samples(**fields):
            raise AssertionError("resample built a sample")

        traj = [sample(0.0, Vec3(0, 0, 0)), sample(16.0, Vec3(1, 0, 0)), sample(1e12, Vec3(2, 0, 0))]
        monkeypatch.setattr(simulate, "TrajectorySample", no_samples)
        monkeypatch.setattr(simulate, "np", NoArrays())  # nor any column
        with pytest.raises(ValidationError, match=r"needs 62500000001 ticks of 16\.0 ms, above the limit of 1000000$"):
            resample(traj, 16.0)

    def test_tick_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_TICKS", 5)
        traj = [sample(0.0, Vec3(0, 0, 0)), sample(64.0, Vec3(1, 0, 0))]
        assert len(resample(traj, 16.0)) == 5
        with pytest.raises(ValidationError, match="needs 6 ticks"):
            resample(traj[:1] + [sample(80.0, Vec3(1, 0, 0))], 16.0)

    def test_validation(self):
        traj = [sample(0.0, Vec3(0, 0, 0)), sample(100.0, Vec3(0, 0, 0))]
        with pytest.raises(ValidationError):
            resample(traj, 0.0)
        with pytest.raises(ValidationError):
            resample(traj[:1], 16.0)


class TestRigFromPose:
    def test_axial_pose_eye_placement(self):
        rig = rig_from_pose(sample(0.0, Vec3(0, 0, 0)), 0.064)
        assert rig.ol == Vec3(-0.032, 0.0, 0.0)
        assert rig.or_ == Vec3(0.032, 0.0, 0.0)
        assert rig.forward == FORWARD
        assert rig.up == UP

    def test_eye_separation_matches_ipd(self):
        fwd = Vec3(1.0, 0.5, -1.0).normalized()
        pose = sample(0.0, Vec3(2.0, 1.0, -3.0), forward=fwd)
        rig = rig_from_pose(pose, 0.07)
        assert rig.ol.distance_to(rig.or_) == pytest.approx(0.07, abs=1e-12)
        mid = (rig.ol + rig.or_) * 0.5
        assert mid.distance_to(pose.position) < 1e-12

    def test_up_reorthogonalized(self):
        fwd = Vec3(0.0, -0.2, -1.0).normalized()
        pose = sample(0.0, Vec3(0, 0, 0), forward=fwd, up=UP)
        rig = rig_from_pose(pose, 0.064)
        assert abs(rig.up.dot(rig.forward)) < 1e-12
        assert rig.up.norm() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_ipd(self):
        with pytest.raises(ValidationError):
            rig_from_pose(sample(0.0, Vec3(0, 0, 0)), 0.0)


STATIONARY_TRAJ = (
    "t_ms px py pz fx fy fz ux uy uz fov_deg user_initiated frame_time_ms\n"
    + "".join(f"{t} 0 0 0 0 0 -1 0 1 0 90 1 11.1\n" for t in range(0, 2001, 100))
)


def scenario_files(tmp_path, scene_text, config_text="tick_ms = 100\n", traj_text=STATIONARY_TRAJ):
    scene = tmp_path / "scene.txt"
    traj = tmp_path / "traj.txt"
    config = tmp_path / "config.txt"
    out = tmp_path / "out.txt"
    scene.write_text(scene_text, encoding="utf-8")
    traj.write_text(traj_text, encoding="utf-8")
    config.write_text(config_text, encoding="utf-8")
    return str(scene), str(traj), str(config), str(out)


def timeline_rows(doc: str) -> list[list[str]]:
    lines = doc.splitlines()
    start = lines.index("[TIMELINE]")
    rows = []
    for line in lines[start + 2 :]:
        if not line:
            break
        rows.append(line.split(","))
    return rows


def section(doc: str, marker: str) -> list[str]:
    lines = doc.splitlines()
    start = lines.index(marker)
    end = start + 1
    while end < len(lines) and lines[end]:
        end += 1
    return lines[start:end]


class TestRunScenario:
    def test_single_object_convergence(self, tmp_path):
        scene, traj, config, out = scenario_files(tmp_path, "1 0 0 -10 1.0 1.0 target\n")
        run_scenario(scene, traj, config, out)
        doc = open(out, encoding="utf-8").read()
        rows = timeline_rows(doc)
        assert len(rows) == 21
        by_t = {row[0]: row for row in rows}
        first = by_t["0.000000"]
        assert first[1] == "1"
        assert first[6] == "0.000000"
        assert first[7] == "true"
        mid = by_t["300.000000"]
        assert mid[6] == "6.000000"  # 3 ticks into a 500 ms ramp to 10 m
        assert mid[7] == "true"
        settled = by_t["500.000000"]
        assert settled[6] == "10.000000"
        assert settled[7] == "false"
        last = by_t["2000.000000"]
        assert last[6] == "10.000000"
        assert last[1] == "1"

    def test_empty_scene_rows_keep_dynamics_columns(self, tmp_path):
        scene, traj, config, out = scenario_files(tmp_path, "# no objects\n")
        run_scenario(scene, traj, config, out)
        doc = open(out, encoding="utf-8").read()
        for row in timeline_rows(doc):
            assert row[1:6] == ["", "", "", "", ""]
            assert row[6] == "0.000000"
            assert row[7] == "false"

    def test_no_focus_blanks_focus_columns_only(self, tmp_path):
        scene, traj, config, out = scenario_files(tmp_path, "1 0 0 -10 1.0 1.0 target\n")
        run_scenario(scene, traj, config, out)
        focused = open(out, encoding="utf-8").read()
        run_scenario(scene, traj, config, out, no_focus=True)
        unfocused = open(out, encoding="utf-8").read()

        for row in timeline_rows(unfocused):
            assert row[1:] == ["", "", "", "", "", "", ""]
        assert section(focused, "[COMFORT]") == section(unfocused, "[COMFORT]")
        assert section(focused, "[CONFIG]") == section(unfocused, "[CONFIG]")
        ts_focused = [r[0] for r in timeline_rows(focused)]
        ts_unfocused = [r[0] for r in timeline_rows(unfocused)]
        assert ts_focused == ts_unfocused

    def test_config_section_echoes_parsed_values(self, tmp_path):
        scene, traj, config, out = scenario_files(
            tmp_path, "1 0 0 -10 1.0 1.0 t\n", config_text="tick_ms = 100\nray_k = 2\np_rm = 0.5\n"
        )
        run_scenario(scene, traj, config, out)
        doc = open(out, encoding="utf-8").read()
        cfg_lines = section(doc, "[CONFIG]")
        assert "ray_k = 2" in cfg_lines
        assert "tick_ms = 100.000000" in cfg_lines
        assert "p_rm = 0.500000" in cfg_lines

    def test_comfort_runs_on_recorded_samples_not_ticks(self, tmp_path):
        # two recorded samples 2.1e6 ms apart: resampling at 100 ms would
        # produce thousands of ticks, but the comfort duration must come
        # from the recorded span either way
        traj_text = (
            "t_ms px py pz fx fy fz ux uy uz fov_deg user_initiated frame_time_ms\n"
            "0 0 0 0 0 0 -1 0 1 0 90 1 11.1\n"
            "1050000 0 0 0 0 0 -1 0 1 0 90 1 11.1\n"
            "2100000 0 0 0 0 0 -1 0 1 0 90 1 11.1\n"
        )
        scene, traj, config, out = scenario_files(
            tmp_path, "# empty\n", config_text="tick_ms = 100000\n", traj_text=traj_text
        )
        run_scenario(scene, traj, config, out)
        doc = open(out, encoding="utf-8").read()
        comfort = section(doc, "[COMFORT]")
        assert "duration_ms = 2100000.000000" in comfort
        assert "count_SessionDuration = 1" in comfort

    def test_byte_identical_across_runs(self, tmp_path):
        scene, traj, config, out = scenario_files(tmp_path, "1 0 0 -10 1.0 1.0 target\n")
        run_scenario(scene, traj, config, out)
        first = open(out, "rb").read()
        run_scenario(scene, traj, config, out)
        second = open(out, "rb").read()
        assert first == second

    def test_document_layout(self, tmp_path):
        scene, traj, config, out = scenario_files(tmp_path, "1 0 0 -10 1.0 1.0 target\n")
        run_scenario(scene, traj, config, out)
        doc = open(out, encoding="utf-8").read()
        assert doc.startswith("[CONFIG]\n")
        assert "\n\n[TIMELINE]\n" in doc
        assert "\n\n[COMFORT]\n" in doc
        assert doc.endswith("\n")
        assert "\r" not in doc


class TestLargeScenario:
    # sha256 of the report of `write_large_scenario(seed=5)`: 200 objects,
    # 626 ticks at k=4, n=64. It pins selection, dynamics and rendering at
    # scale, so a faster kernel must reproduce every byte.
    PINNED_SHA256 = "375c52b397c2ac7870d5d911d6f9aa2c9d498f9f26b91be8942f90a72f09e1e5"

    def test_report_sha256_is_pinned(self, tmp_path):
        paths = write_large_scenario(tmp_path)
        argv = ["run", "--scene", paths["scene"], "--trajectory", paths["trajectory"],
                "--config", paths["config"], "--out", paths["out"]]
        assert main(argv) == EXIT_OK
        doc = open(paths["out"], "rb").read()
        assert len(timeline_rows(doc.decode("utf-8"))) == 626
        assert hashlib.sha256(doc).hexdigest() == self.PINNED_SHA256


class TestScoreSsqFiles:
    def test_protocol_document(self, tmp_path):
        zeros = " ".join(["0"] * 16) + "\n"
        threes = " ".join(["3"] * 16) + "\n"
        q1 = tmp_path / "q1.txt"
        q2 = tmp_path / "q2.txt"
        q3 = tmp_path / "q3.txt"
        profile = tmp_path / "profile.txt"
        out = tmp_path / "report.txt"
        q1.write_text(zeros, encoding="utf-8")
        q2.write_text(threes, encoding="utf-8")
        q3.write_text(zeros, encoding="utf-8")
        profile.write_text(
            "name = P01\nage = 27\ngender = female\nacademic_background = hci\n", encoding="utf-8"
        )
        score_ssq_files(str(q1), str(q2), str(q3), str(profile), str(out))
        doc = open(out, encoding="utf-8").read()
        assert doc.startswith("[SSQ]\n")
        assert "q1_total = 0.00" in doc
        assert "q2_nausea = 200.34" in doc
        assert "q2_oculomotor = 159.18" in doc
        assert "q2_disorientation = 292.32" in doc
        assert "q2_total = 235.62" in doc
        assert "delta_q2_total = 235.62" in doc
        assert "delta_q3_total = 0.00" in doc
