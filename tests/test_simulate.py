import hashlib
import math
import random
import tracemalloc

import pytest

from focusray import (
    TrajectorySample,
    ValidationError,
    Vec3,
    level_for_score,
    parse_scene,
    parse_trajectory,
    resample,
    rig_from_pose,
    run_scenario,
    score_ssq_files,
)
from focusray import simulate
from focusray.cli import EXIT_OK, main
from builders import FORWARD, UP, NoArrays, camera_row, culled, roi_row, sample, sample_bits, write_large_scenario
from oracles import replay_by_rows


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
        with pytest.raises(ValidationError, match=r"^resampling at tick_ms = 16\.0 needs more than 1000000 ticks$"):
            resample(traj, 16.0)

    def test_tick_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_TICKS", 5)
        traj = [sample(0.0, Vec3(0, 0, 0)), sample(64.0, Vec3(1, 0, 0))]
        assert len(resample(traj, 16.0)) == 5
        with pytest.raises(ValidationError, match="needs more than 5 ticks$"):
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

    def test_replay_memory_is_bounded(self, tmp_path):
        """The replay's peak of traced allocations, numpy arrays included, stays
        under 4 MB: selecting a chunk of ticks at a time must not grow it far
        beyond the 0.9 MB of one tick at a time."""
        paths = write_large_scenario(tmp_path)
        args = (paths["scene"], paths["trajectory"], paths["config"], paths["out"])
        run_scenario(*args)  # caches filled, modules imported
        tracemalloc.start()
        try:
            run_scenario(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, peak


# Headings of the lattice replay, as (forward, up): the axis directions,
# visited so that no two consecutive samples look in opposite directions.
_HEADINGS = {"-z": ((0, 0, -1), (0, 1, 0)), "-x": ((-1, 0, 0), (0, 1, 0)),
             "+x": ((1, 0, 0), (0, 1, 0)), "+z": ((0, 0, 1), (0, 1, 0))}
_TOUR = ["-z"] * 9 + ["-x"] * 4 + ["+z"] * 8 + ["+x"] * 5 + ["-z"] * 14


def _trajectory_text(rows) -> str:
    """Trajectory file text from (t_ms, pos, forward, up, fov, user, frame_ms) rows."""
    lines = ["t_ms px py pz fx fy fz ux uy uz fov_deg user_initiated frame_time_ms"]
    for t, pos, fwd, up, fov, user, frame in rows:
        lines.append(" ".join(map(repr, (float(t), *map(float, pos + fwd + up), float(fov)))) + f" {int(user)} {frame!r}")
    return "\n".join(lines) + "\n"


def _lattice_replay(rng: random.Random, weights: str = "0.5 0.3 0.2") -> tuple[str, str, str]:
    """Scene, trajectory and config text of a replay on a 1/8 m lattice.

    Objects ahead on the lattice, about half of them mirroring an earlier
    offset (distance ties), with values from a short list (importance
    ties), coincident twins, and chains of occluders along the view axis;
    more on both sides. Every 80 ms the head stands on a 1/2 m lattice,
    often at its center, and looks along an axis direction: behind it there is nothing, long enough
    for the persistence hold to expire. Ticks of 20 or 30 ms interpolate
    positions exactly; a long refocus keeps transitions in flight when the
    winner changes. `weights` gives p_rm, p_d and p_v.
    """
    lines, oid, offsets = [], 1, []

    def put(x, y, z, r, v):
        nonlocal oid
        lines.append(f"{oid} {x!r} {y!r} {z!r} {r!r} {v!r}")
        oid += rng.randint(1, 3)

    for _ in range(rng.randint(18, 30)):
        if offsets and rng.random() < 0.5:
            a, b, depth = rng.choice(offsets)
            a, b = rng.choice(((-a, b), (a, -b), (b, a)))
        else:
            a, b, depth = rng.randint(-40, 40) / 8, rng.randint(-16, 16) / 8, rng.randint(24, 240) / 8
            offsets.append((a, b, depth))
        r, v = rng.choice((0.5, 1.0, 2.0)), rng.choice((0.0, 0.25, 0.5, 1.0))
        for _ in range(1 + (rng.random() < 0.15)):  # a coincident twin with a higher id
            put(a, 1.5 + b, -depth, r, v)
    for _ in range(3):  # occluder chains: one line of sight, growing radii
        a, b = rng.randint(-16, 16) / 8, rng.randint(-8, 8) / 8
        for depth, r in zip(range(rng.randint(3, 6), 60, rng.randint(4, 9)), (0.5, 0.5, 1.0, 1.0, 2.0)):
            put(a, 1.5 + b, -float(depth), r, rng.choice((0.25, 0.5)))
    for side in (-1.0, 1.0):
        for _ in range(rng.randint(3, 6)):
            put(side * rng.randint(32, 120) / 8, 1.5 + rng.randint(-8, 8) / 8, -rng.randint(12, 48) / 8,
                rng.choice((0.5, 1.0)), rng.choice((0.0, 0.5, 1.0)))

    rows, fov = [], 90.0
    for i, heading in enumerate(_TOUR):
        # half the samples at the lattice's center, where mirrored offsets tie
        x, y = (0.0, 1.5) if rng.random() < 0.5 else (rng.randint(-4, 4) / 2, rng.randint(2, 4) / 2)
        fov += rng.choice((0.0, 0.0, 1.0, 1.5, -1.5))  # a step of 1 deg sits on the rule's threshold
        frame = rng.choice((11.1, 11.1, 11.1, 22.2, 30.0))  # 22.2 ms sits on the frame-drop limit
        rows.append((80.0 * i, (x, y, 0.0), *_HEADINGS[heading], fov, rng.random() < 0.7, frame))
    k, n = rng.randint(1, 3), rng.randint(4, 16)
    config = (f"tick_ms = {rng.choice((20, 30))}\nray_k = {k}\nray_n = {n}\nray_half_angle_deg = {rng.randint(8, 25)}\n"
              f"roi_half_angle_deg = {rng.randint(20, 50)}\nroi_z_far_m = {rng.randint(160, 320) / 8}\n"
              f"refocus_ms = 1000\npersistence_hold_ms = 200\n"
              + "".join(f"{key} = {w}\n" for key, w in zip(("p_rm", "p_d", "p_v"), weights.split())))
    return "\n".join(lines) + "\n", _trajectory_text(rows), config


def _wide_replay(rng: random.Random) -> tuple[str, str, str]:
    """A walk through an 800-object world on a 200 m disc with a short ROI,
    so each tick's cull takes the slab path. Positions and orientations
    are off any lattice, and the 30 ms ticks interpolate between 80 ms
    samples, so each stage rounds."""
    lines = []
    for oid in rng.sample(range(1, 5000), 800):
        r, phi = 200.0 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
        lines.append(f"{oid} {r * math.cos(phi):.6f} {rng.uniform(0.3, 3.0):.6f} {r * math.sin(phi):.6f} "
                     f"{rng.uniform(0.3, 2.0):.4f} {rng.randint(0, 4) / 4}")
    rows = []
    for i in range(20):
        yaw, pitch = 0.6 * math.sin(0.4 * i) + rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)
        fwd = (math.cos(pitch) * math.sin(yaw), math.sin(pitch), -math.cos(pitch) * math.cos(yaw))
        up = (-math.sin(pitch) * math.sin(yaw), math.cos(pitch), math.sin(pitch) * math.cos(yaw))
        pos = (-40.0 + 4.0 * i + rng.uniform(-0.3, 0.3), 1.6 + rng.uniform(-0.1, 0.1), rng.uniform(-0.5, 0.5))
        rows.append((80.0 * i, tuple(round(c, 6) for c in pos), tuple(round(c, 9) for c in fwd),
                     tuple(round(c, 9) for c in up), 90.0, True, round(rng.uniform(9.0, 40.0), 3)))
    config = "tick_ms = 30\nray_k = 2\nray_n = 12\nroi_z_far_m = 25\npersistence_hold_ms = 100\n"
    return "\n".join(lines) + "\n", _trajectory_text(rows), config


class TestReplayOracle:
    """`run_scenario` against `replay_by_rows` on seeded replays that reach
    the slab cull, lattice ties, occluder chains, ticks with no winner,
    persistence expiries and retargets mid-transition: the report byte for
    byte and, since it rounds to 6 decimals, each tick's mid camera and ROI
    rows, its winner and the comfort report exactly."""

    def check(self, monkeypatch, tmp_path, texts, no_focus=False):
        scene, traj, config, out = scenario_files(tmp_path, texts[0], config_text=texts[2], traj_text=texts[1])
        select, analyze, ticks, reports, sizes = simulate.select_focus, simulate.analyze_trajectory, [], [], []

        def select_spy(scene, cams, rois, *args):  # the replay selects a chunk of ticks per call, as rows
            win, candidates = select(scene, cams, rois, *args)
            winners = [candidates[w] if w >= 0 else None for w in win.tolist()]
            ticks.extend(zip(zip(*(c.tolist() for c in cams)), zip(*(r.tolist() for r in rois)), winners, strict=True))
            sizes.append(len(win))
            return win, candidates

        def analyze_spy(*args, **kwargs):
            reports.append(analyze(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(simulate, "select_focus", select_spy)
        monkeypatch.setattr(simulate, "analyze_trajectory", analyze_spy)
        run_scenario(scene, traj, config, out, no_focus=no_focus)
        want = replay_by_rows(scene, traj, config, no_focus=no_focus)
        assert ticks == [(camera_row(tick.rig), roi_row(tick.roi), tick.winner) for tick in want.ticks]
        # full chunks, then a short one: no replay here spans a multiple of the chunk size
        full, rest = divmod(len(want.ticks), simulate.CHUNK_TICKS)
        assert no_focus or sizes == [simulate.CHUNK_TICKS] * full + [rest] and rest > 0
        assert reports == [want.report]
        assert open(out, "rb").read() == want.document.encode("utf-8")
        return scene, want.ticks

    def test_lattice_replays_match_the_reference(self, monkeypatch, tmp_path):
        rng = random.Random(1212)
        seen = dict.fromkeys(("ties", "no winner", "expiry", "retarget mid-transition"), 0)
        # p_rm, p_d, p_v: without rm, importance ties at lattice points
        for weights in ("0.0 0.5 0.5", "0.0 1.0 0.0", "0.5 0.3 0.2", "0.0 0.0 1.0"):
            _, trace = self.check(monkeypatch, tmp_path, _lattice_replay(rng, weights))
            assert len(trace) > 2 * simulate.CHUNK_TICKS  # several full chunks
            for tick in trace:
                before, after = tick.before, tick.after
                seen["ties"] += sum(c.importance == getattr(tick.winner, "importance", None) for c in tick.candidates) > 1
                seen["no winner"] += tick.winner is None
                seen["expiry"] += before.current_target is not None and after.current_target is None
                seen["retarget mid-transition"] += (
                    before.transition is not None and after.current_target not in (None, before.current_target))
        assert min(seen.values()) >= 3, seen

    def test_wide_replay_takes_the_slab_path(self, monkeypatch, tmp_path):
        scene, trace = self.check(monkeypatch, tmp_path, _wide_replay(random.Random(800)))
        prepared = parse_scene(scene)
        assert all(culled(prepared, tick.roi)[1] < len(prepared) / 2 for tick in trace)
        assert sum(tick.winner is not None for tick in trace) >= len(trace) // 2

    def test_negative_zeros_render_as_zero(self, monkeypatch, tmp_path):
        # the recording starts at t_ms -0 and the only object's value is -0, so the first
        # tick's time and every winner's v are -0.0, which the report writes as 0.000000
        traj = STATIONARY_TRAJ.replace("\n0 0 0 0", "\n-0 0 0 0", 1)
        texts = "1 0 0 -5 1 -0 lamp\n", traj, "tick_ms = 100\np_rm = 0.5\np_d = 0.5\np_v = 0.0\n"
        _, trace = self.check(monkeypatch, tmp_path, texts)
        first_tick = resample(parse_trajectory(str(tmp_path / "traj.txt")), 100.0).t_ms[0]
        assert math.copysign(1.0, first_tick) == -1.0
        assert all(tick.winner is not None and math.copysign(1.0, tick.winner.v) == -1.0 for tick in trace)
        rows = timeline_rows(open(tmp_path / "out.txt", encoding="utf-8").read())
        assert rows[0][0] == "0.000000" and {row[5] for row in rows} == {"0.000000"}
        self.check(monkeypatch, tmp_path, texts, no_focus=True)

    def test_no_focus_replay(self, monkeypatch, tmp_path):
        _, trace = self.check(monkeypatch, tmp_path, _lattice_replay(random.Random(7)), no_focus=True)
        assert trace == []


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
