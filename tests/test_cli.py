import contextlib
import io
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from focusray import SimConfig, ValidationError, level_for_score, simulate
from focusray.cli import EXIT_OK, EXIT_OUTPUT, EXIT_PARSE, EXIT_USAGE, EXIT_VALIDATION, main
from focusray.config import CONFIG_FIELD_NAMES
from builders import NoArrays
from oracles import replay_by_rows

TRAJ = (
    "t_ms px py pz fx fy fz ux uy uz fov_deg user_initiated frame_time_ms\n"
    "0 0 0 0 0 0 -1 0 1 0 90 1 11.1\n"
    "100 0 0 0 0 0 -1 0 1 0 90 1 11.1\n"
    "200 0 0 0 0 0 -1 0 1 0 90 1 11.1\n"
)


def run_files(tmp_path, scene="1 0 0 -10 1.0 1.0 orb\n", config="tick_ms = 100\n", traj=TRAJ):
    paths = {}
    for name, text in (("scene", scene), ("traj", traj), ("config", config)):
        p = tmp_path / f"{name}.txt"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    paths["out"] = str(tmp_path / "out.txt")
    return paths


# Tick positions of the replays that refuse a tick, from the chunk size: TICKS
# ticks select in two full chunks and a short last one; FIRST lies in the
# first chunk, MID in the middle of the second and LAST in the last. All
# three are odd, so each can lie halfway between two rows.
TICKS = 2 * simulate.CHUNK_TICKS + 7
FIRST, MID, LAST = 1, simulate.CHUNK_TICKS * 3 // 2 + 1, 2 * simulate.CHUNK_TICKS + 5


def check_chunk_positions():
    chunk = simulate.CHUNK_TICKS
    assert [FIRST // chunk, MID // chunk, LAST // chunk, TICKS // chunk] == [0, 1, 2, 2]
    assert 0 < MID % chunk < chunk - 1 and TICKS % chunk and FIRST % 2 == MID % 2 == LAST % 2 == 1


def ssq_files(tmp_path, q2="0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n", profile=None):
    zeros = "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
    if profile is None:
        profile = "name = P01\nage = 27\ngender = male\nacademic_background = hci\n"
    paths = {}
    for name, text in (("q1", zeros), ("q2", q2), ("q3", zeros), ("profile", profile)):
        p = tmp_path / f"{name}.txt"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    paths["out"] = str(tmp_path / "report.txt")
    return paths


def quiet_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestLevelCommand:
    def level_output(self, score_text):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["level", score_text])
        return code, out.getvalue()

    def test_prints_level(self):
        assert self.level_output("499") == (EXIT_OK, "1\n")
        assert self.level_output("500") == (EXIT_OK, "2\n")
        assert self.level_output("5001") == (EXIT_OK, "6\n")

    def test_non_integer_is_usage_error(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["level", "abc"])
        assert code == EXIT_USAGE

    def test_negative_is_usage_error(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["level", "--", "-5"])
        assert code == EXIT_USAGE


class TestUsageErrors:
    def test_no_subcommand(self):
        code, _ = quiet_main([])
        assert code == EXIT_USAGE

    def test_unknown_flag(self, tmp_path):
        p = run_files(tmp_path)
        code, _ = quiet_main(["run", "--scene", p["scene"], "--wat", "x"])
        assert code == EXIT_USAGE

    def test_missing_required_flag(self, tmp_path):
        p = run_files(tmp_path)
        code, _ = quiet_main(["run", "--scene", p["scene"], "--trajectory", p["traj"]])
        assert code == EXIT_USAGE


def run_argv(p, *extra):
    return [
        "run",
        "--scene", p["scene"],
        "--trajectory", p["traj"],
        "--config", p["config"],
        "--out", p["out"],
        *extra,
    ]


class TestRunCommand:
    argv = staticmethod(run_argv)

    def test_success(self, tmp_path):
        p = run_files(tmp_path)
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_OK
        assert err == ""
        assert open(p["out"], encoding="utf-8").read().startswith("[CONFIG]\n")

    def test_no_focus_flag(self, tmp_path):
        p = run_files(tmp_path)
        assert quiet_main(self.argv(p, "--no-focus"))[0] == EXIT_OK

    def test_missing_file_is_parse_exit(self, tmp_path):
        p = run_files(tmp_path)
        p["scene"] = str(tmp_path / "nope.txt")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE
        assert "focusray:" in err

    def test_out_in_missing_directory_is_output_exit(self, tmp_path):
        p = run_files(tmp_path)
        p["out"] = str(tmp_path / "missing" / "out.txt")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_OUTPUT
        assert p["out"] in err
        assert not (tmp_path / "missing").exists()

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        # the output path is an existing directory: the temp file is written
        # beside it, then the rename onto the directory fails
        p = run_files(tmp_path)
        target = tmp_path / "report"
        target.mkdir()
        p["out"] = str(target)
        before = sorted(tmp_path.iterdir())
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_OUTPUT
        assert p["out"] in err
        assert sorted(tmp_path.iterdir()) == before
        assert list(target.iterdir()) == []

    def test_symlinked_out_is_written_through(self, tmp_path):
        p = run_files(tmp_path)
        (tmp_path / "real.txt").write_text("stale\n", encoding="utf-8")
        os.symlink(tmp_path / "real.txt", p["out"])
        assert quiet_main(self.argv(p))[0] == EXIT_OK
        assert os.path.islink(p["out"])
        assert (tmp_path / "real.txt").read_text(encoding="utf-8").startswith("[CONFIG]\n")

    def test_pipe_out_is_written_directly(self, tmp_path):
        # a pipe cannot be replaced by a rename: the document goes into it
        p = run_files(tmp_path)
        os.mkfifo(p["out"])
        received = []
        reader = threading.Thread(target=lambda: received.append(open(p["out"], "rb").read()), daemon=True)
        reader.start()
        assert quiet_main(self.argv(p))[0] == EXIT_OK
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert received[0].startswith(b"[CONFIG]\n")
        assert stat.S_ISFIFO(os.stat(p["out"]).st_mode)

    def test_rewrite_replaces_existing_document(self, tmp_path):
        p = run_files(tmp_path)
        with open(p["out"], "w", encoding="utf-8") as fh:
            fh.write("stale\n" * 10_000)
        assert quiet_main(self.argv(p))[0] == EXIT_OK
        assert open(p["out"], encoding="utf-8").read().startswith("[CONFIG]\n")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["config.txt", "out.txt", "scene.txt", "traj.txt"]

    def test_malformed_scene_is_parse_exit(self, tmp_path):
        p = run_files(tmp_path, scene="1 0 0 -10 1.0\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE
        assert "scene.txt:1" in err

    def test_malformed_trajectory_reports_line(self, tmp_path):
        p = run_files(tmp_path, traj=TRAJ.replace("90 1 11.1\n", "90 2 11.1\n", 1))
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE
        assert "traj.txt:2" in err

    def test_non_finite_orientation_is_parse_exit(self, tmp_path):
        p = run_files(tmp_path, traj=TRAJ.replace("100 0 0 0 0 0 -1", "100 0 0 0 nan 0 -1"))
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE
        assert "traj.txt:3" in err

    def test_forward_parallel_to_up_is_parse_exit(self, tmp_path):
        p = run_files(tmp_path, traj=TRAJ.replace("0 0 0 0 0 0 -1 0 1 0", "0 0 0 0 0 1 0 0 1 0", 1))
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE
        assert "traj.txt:2" in err

    def test_two_sample_trajectory_is_parse_exit(self, tmp_path):
        p = run_files(tmp_path, traj=TRAJ.rsplit("200 ", 1)[0])
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE
        assert "traj.txt:0: trajectory needs at least 3 samples, got 2" in err

    def test_non_utf8_scene_is_parse_exit(self, tmp_path):
        p = run_files(tmp_path)
        with open(p["scene"], "ab") as fh:
            fh.write(b"2 0 0 -5 1.0 1.0 caf\xff\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE
        assert "scene.txt:2: invalid UTF-8 byte 0xff" in err

    def test_opposite_orientations_is_validation_exit(self, tmp_path):
        p = run_files(tmp_path, traj=TRAJ.replace("100 0 0 0 0 0 -1", "100 0 0 0 0 0 1"), config="tick_ms = 50\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_VALIDATION
        assert f"{p['traj']}: cannot interpolate forward between opposite orientations at t_ms 0.0 and 100.0" in err
        assert err.endswith(f" (tick_ms from {p['config']})\n")

    def test_huge_time_span_is_validation_exit(self, tmp_path, monkeypatch):
        def no_samples(**fields):
            raise AssertionError("resample built a sample")

        monkeypatch.setattr(simulate, "TrajectorySample", no_samples)
        monkeypatch.setattr(simulate, "np", NoArrays())  # nor any column
        p = run_files(tmp_path, traj=TRAJ.replace("\n200 ", "\n1000000000000 "), config="tick_ms = 16\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_VALIDATION
        assert err == (f"focusray: {p['traj']}: resampling at tick_ms = 16.0 needs more than 1000000 ticks"
                       f" (tick_ms from {p['config']})\n")
        assert not os.path.exists(p["out"])

    def test_object_id_beyond_64_bits_is_parse_exit(self, tmp_path):
        p = run_files(tmp_path, scene="9223372036854775808 0 0 -10 1.0 1.0 orb\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE
        assert "scene.txt:1: object id must fit in 64 bits" in err

    def test_huge_radius_is_parse_exit(self, tmp_path):
        # squared, a radius of 1e300 would overflow the ray test
        p = run_files(tmp_path, scene="1 0 0 -5 1e300 0.5\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE
        assert "scene.txt:1: object 1: center and radius must be within 1e+100 m" in err
        assert not os.path.exists(p["out"])

    def test_huge_center_is_parse_exit(self, tmp_path):
        # squared, a center at x = 1e308 would overflow the ROI test
        p = run_files(tmp_path, scene="2 0 0 -5 1 0.5\n1 1e308 0 -5 1 0.5\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE
        assert "scene.txt:2: object 1: center and radius must be within 1e+100 m" in err

    def test_huge_position_is_parse_exit(self, tmp_path):
        p = run_files(tmp_path, traj=TRAJ.replace("\n200 0 0 0 ", "\n200 0 1.5e154 0 "))
        for extra in ((), ("--no-focus",)):
            code, err = quiet_main(self.argv(p, *extra))
            assert code == EXIT_PARSE
            assert "traj.txt:4: position must be within 1e+100 m on each axis" in err

    def test_huge_frame_times_are_parse_exit(self, tmp_path):
        # summed over the slow run, two frame times of 1e308 ms would overflow the frame-drop severity
        p = run_files(tmp_path, traj=TRAJ.replace("90 1 11.1\n1", "90 1 1e308\n1", 2))
        for extra in ((), ("--no-focus",)):
            code, err = quiet_main(self.argv(p, *extra))
            assert code == EXIT_PARSE
            assert "traj.txt:2: frame_time_ms must be at most 1e+100, got 1e+308" in err
            assert not os.path.exists(p["out"])

    def test_overflowing_speed_names_the_trajectory(self, tmp_path):
        # rows 1e-300 ms and 1e100 m apart parse, but their speed overflows in the comfort rules
        rows = [f"{1e-300 * i!r} {x} 0 0 0 0 -1 0 1 0 90 1 11.1\n" for i, x in enumerate(("0", "1e100", "-1e100"))]
        p = run_files(tmp_path, traj=TRAJ.splitlines(keepends=True)[0] + "".join(rows))
        for extra in ((), ("--no-focus",)):
            assert quiet_main(self.argv(p, *extra)) == (EXIT_VALIDATION, (
                f"focusray: {p['traj']}: velocity between the samples at t_ms 0.0 and 1e-300 overflows: "
                "Vec3 components must be finite, got (inf, 0.0, 0.0)\n"))
            assert not os.path.exists(p["out"])

    def test_frame_time_limit_is_inclusive(self, tmp_path):
        p = run_files(tmp_path, traj=TRAJ.replace(" 11.1\n", " 1e100\n"))
        for extra in ((), ("--no-focus",)):
            assert quiet_main(self.argv(p, *extra)) == (EXIT_OK, "")
            assert "3 slow frames" in open(p["out"], encoding="utf-8").read()

    def test_position_too_far_for_the_rig_names_the_tick(self, tmp_path):
        # at 1e20 m, eyes 64 mm apart round to the same point
        p = run_files(tmp_path, traj=TRAJ.replace("\n100 0 0 0 ", "\n100 1e20 0 0 "))
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_VALIDATION
        assert f"{p['traj']}: tick at t_ms 100.0: degenerate rig" in err

    def test_position_too_far_in_mid_chunk_names_its_tick(self, tmp_path):
        # ticks of 100 ms: the replay selects in chunks, and tick MID lies inside the second
        rows = [f"{100 * i} {'1e20' if i == MID else '0'} 0 0 0 0 -1 0 1 0 90 1 11.1\n" for i in range(TICKS)]
        check_chunk_positions()
        p = run_files(tmp_path, traj=TRAJ.splitlines(keepends=True)[0] + "".join(rows))
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_VALIDATION
        assert err.startswith(f"focusray: {p['traj']}: tick at t_ms {100.0 * MID!r}: degenerate rig")
        assert err.endswith(f" (ipd_m from {p['config']})\n")
        assert not os.path.exists(p["out"])

    def test_huge_ray_count_is_validation_exit(self, tmp_path):
        # refused when the config is read: a cone this size is never built
        p = run_files(tmp_path, config="ray_k = 100000000000000000000\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_VALIDATION
        assert "k * n must be at most 65536 rays, got 6400000000000000000000" in err

    def test_unknown_config_key_is_parse_exit(self, tmp_path):
        p = run_files(tmp_path, config="warp_speed = 9\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE

    def test_semantic_config_violation_is_validation_exit(self, tmp_path):
        p = run_files(tmp_path, config="p_rm = 0.9\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_VALIDATION
        assert err.startswith(f"focusray: {p['config']}: ")


# (position, forward, up) of a trajectory row whose rig is refused or flagged
_STILL = ("0 0 0", "0 0 -1", "0 1 0")
# forward within ~1e-12 of up: right normalizes, but the up made from it is 1.2e-9 short of unit length, so the
# parser refuses the row
_NEAR_UP = ("0 0 0", "0.35999999999985344 0.4800000000007042 0.7999999999991263", "0.36 0.48 0.8")
# as close, but the rebuilt up is 0.56e-9 short: the parser's and the replay's screens test its square and flag
# it; the row check and the rig accept it
_FLAGGED_ONLY = ("0 0 0", "0.3599999999996392 0.48000000000105125 0.799999999999944", "0.36 0.48 0.8")
# at 1e100 m, eyes 64 mm apart round to the same point
_FAR = ("1e100 0 0", "0 0 -1", "0 1 0")
# the ticks halfway between these two rows look along their up: forward and up trade places
_TURN = (("0 0 0", "1 0 0", "0 1 0"), ("0 0 0", "0 1 0", "1 0 0"))


def _rows(count, special):
    """Trajectory text of `count` still rows 100 ms apart, with `special` rows by index."""
    rows = (f"{100 * k} {' '.join(special.get(k, _STILL))} 90 1 11.1\n" for k in range(count))
    return TRAJ.splitlines(keepends=True)[0] + "".join(rows)


class TestRigRefusals:
    """A tick whose rig the replay refuses ends the run with exit 4 and a
    message naming the trajectory and the tick's time, and writes nothing,
    wherever the tick falls: the first chunk, mid-chunk or the last, short
    chunk. The earliest refused tick is the one named. A recorded row whose
    rig would rebuild an up off unit length is refused when it is read."""

    def check(self, tmp_path, traj, t_ms, message, tick_ms=100):
        check_chunk_positions()
        p = run_files(tmp_path, config=f"tick_ms = {tick_ms}\n", traj=traj)
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_VALIDATION
        assert err.startswith(f"focusray: {p['traj']}: tick at t_ms {t_ms!r}: {message}"), err
        assert err.endswith(f" (ipd_m from {p['config']})\n")
        assert not os.path.exists(p["out"])

    def argv(self, p):
        return ["run", "--scene", p["scene"], "--trajectory", p["traj"], "--config", p["config"], "--out", p["out"]]

    def test_forward_parallel_to_up(self, tmp_path):
        # (TICKS + 1) / 2 rows at 50 ms ticks: tick 2k + 1 lies halfway between rows k and k + 1
        for tick, later in ((FIRST, LAST), (MID, LAST), (LAST, None)):
            special = {(tick - 1) // 2: _TURN[0], (tick + 1) // 2: _TURN[1]}
            if later:
                special.update({(later - 1) // 2: _TURN[0], (later + 1) // 2: _TURN[1]})
            self.check(tmp_path, _rows((TICKS + 1) // 2, special), 50.0 * tick, "cannot normalize a near-zero vector",
                       tick_ms=50)

    def test_up_rebuilt_off_unit(self, tmp_path):
        # exit 3 at the first such row's line, with focus or without, and nothing written
        for row, later in ((0, MID), (MID, LAST), (LAST, None)):
            p = run_files(tmp_path, traj=_rows(TICKS, {row: _NEAR_UP, **({later: _NEAR_UP} if later else {})}))
            for extra in ([], ["--no-focus"]):
                code, err = quiet_main(self.argv(p) + extra)
                assert code == EXIT_PARSE
                assert err.startswith(f"focusray: {p['traj']}:{row + 2}: forward too near up: the rebuilt up has "
                                      "length 0.99999999"), err
                assert not os.path.exists(p["out"])

    def test_eyes_coincide(self, tmp_path):
        for tick, later in ((0, LAST), (MID, LAST), (LAST, None)):
            special = {tick: _FAR, **({later: _FAR} if later else {})}
            self.check(tmp_path, _rows(TICKS, special), 100.0 * tick, "degenerate rig")

    def test_flagged_tick_the_rig_accepts_replays(self, tmp_path):
        p = run_files(tmp_path, scene="1 0 0 -10 1.0 1.0 orb\n2 0.36 0.48 5 1 0.5\n",
                      traj=_rows(TICKS, {3: _FLAGGED_ONLY, MID: _FLAGGED_ONLY}))
        ticks = simulate.resample(simulate.parse_trajectory(p["traj"]), 100.0)
        assert np.flatnonzero(simulate.camera_rows(ticks, 0.064)[1]).tolist() == [3, MID]
        assert quiet_main(self.argv(p)) == (EXIT_OK, "")
        with open(p["out"], encoding="utf-8") as fh:
            doc = fh.read()
        assert doc == replay_by_rows(p["scene"], p["traj"], p["config"]).document
        assert "\n300.000000,2," in doc and f"\n{100 * MID}.000000,2," in doc  # both flagged ticks select object 2


def real(lo: float, hi: float):
    """A number in [lo, hi] as a file would hold it."""
    return st.floats(lo, hi).map(repr)


# any float at all as written (nan, infinities, subnormals, 1e308), any integer, or a word
ANY = st.one_of(st.floats().map(repr), st.floats().map(repr), st.integers().map(str),
               st.sampled_from(["x", "1,5", "0x10", "--"]))
POSE = st.sampled_from(["0 0 -1 0 1 0"] * 12 + ["0.6 0 -0.8 0 1 0"])  # forward, up


@st.composite
def file_text(draw, rows, broken: bool = False) -> str:
    """Lines of tokens: a string in a row is kept as it is, a strategy's
    token is valid. When `broken`, up to two of the valid tokens are
    overwritten by `ANY`, or a line is cut short at one of them."""
    lines, slots = [], []
    for row in draw(rows):
        lines.append([])
        for part in row:
            fixed = isinstance(part, str)
            for token in (part if fixed else draw(part)).split():
                lines[-1].append(token)
                if not fixed:
                    slots.append((len(lines) - 1, len(lines[-1]) - 1))
    if broken and slots and draw(st.integers(0, 4)):
        for k, value in draw(st.lists(st.tuples(st.integers(0, len(slots) - 1), ANY), min_size=1, max_size=2)):
            r, c = slots[k]
            lines[r][c] = value
    elif broken and slots:
        r, c = slots[draw(st.integers(0, len(slots) - 1))]
        del lines[r][c:]
    return "".join(" ".join(line) + "\n" for line in lines)


def scene_rows(n: int) -> list[tuple]:
    return [(st.just(str(i)), real(-5.0, 5.0), real(-5.0, 5.0), real(-20.0, 5.0), real(0.1, 3.0), real(0.0, 1.0),
             st.sampled_from(["", "orb"])) for i in range(n)]


# mostly on budget, else any slower frame up to the limit, where a run of them would overflow a sum
FRAME_MS = st.one_of(real(5.0, 40.0), real(5.0, 40.0), real(40.0, 1e100))


def trajectory_rows(n: int, pose=POSE, frame_ms=FRAME_MS, t_step=100.0, coord=real(-3.0, 3.0)) -> list[tuple]:
    return [(TRAJ.splitlines()[0],)] + [
        (st.just(repr(t_step * i)), coord, coord, coord, pose, real(30.0, 120.0), st.sampled_from(["0", "1"]), frame_ms)
        for i in range(n)
    ]


# every key at its default, a few of them drawn from a valid range instead
CONFIG_VALUES = {name: st.just(str(getattr(SimConfig(), name))) for name in CONFIG_FIELD_NAMES} | {
    "tick_ms": real(20.0, 200.0), "ray_k": st.integers(1, 6).map(str), "ray_n": st.integers(1, 12).map(str),
    "roi_z_far_m": real(1.0, 200.0), "ipd_m": real(0.01, 0.1), "refocus_ms": real(1.0, 1000.0),
    "accel_threshold_m_s2": real(0.1, 10.0), "max_session_ms": real(100.0, 1e6),
}


def run_file(name: str, broken: bool = False):
    """The text of one `run` input file: valid, or `broken` as `file_text`
    breaks it, or for a trajectory also by too few samples, frame times
    beyond the limit, a turn to the opposite orientation or rows so close in
    time and so far apart that a speed overflows."""
    if name == "scene":
        return file_text(st.integers(0, 4).map(scene_rows), broken)
    if name == "config":
        return file_text(st.lists(st.sampled_from(CONFIG_FIELD_NAMES), unique=True, min_size=broken, max_size=6).map(
            lambda keys: [(key, "=", CONFIG_VALUES[key]) for key in keys]), broken)
    if not broken:
        return file_text(st.integers(3, 6).map(trajectory_rows))
    too_slow = real(1.0000000000000002e100, 1.7976931348623157e308)
    turning = st.sampled_from(["0 0 -1 0 1 0", "0 0 1 0 1 0"])
    far = st.sampled_from(["0", "1e100", "-1e100"])
    return st.one_of(
        file_text(st.integers(3, 6).map(trajectory_rows), True),
        file_text(st.integers(0, 2).map(trajectory_rows)),
        file_text(st.integers(3, 6).map(lambda n: trajectory_rows(n, frame_ms=too_slow))),
        file_text(st.integers(3, 6).map(lambda n: trajectory_rows(n, pose=turning))),
        file_text(st.integers(3, 6).map(lambda n: trajectory_rows(n, t_step=1e-300, coord=far))),
    )


@st.composite
def run_inputs(draw) -> tuple[str | None, dict[str, bytes | None], bool]:
    """The three `run` input files, of which at most one, named first, is
    broken: in its text, by a byte that is not UTF-8, or by being absent
    (None); and whether to run with `--no-focus`."""
    broken = draw(st.sampled_from([None, "scene", "traj", "config"]))
    files = {}
    for name in ("scene", "traj", "config"):
        how = draw(st.sampled_from(["text", "text", "text", "byte", "absent"])) if name == broken else None
        data = draw(run_file(name, how == "text")).encode("utf-8")
        if how == "byte":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + b"\xff" + data[at:]
        files[name] = None if how == "absent" else data
    return broken, files, draw(st.booleans())


class TestRunFuzz:
    """`focusray run` on small generated files, at most one of them broken:
    every outcome is a documented exit code, valid files replay, and an
    error is on stderr, names the broken file and no other, and leaves no
    report; no exception or numpy warning gets out."""

    @settings(max_examples=100, deadline=None)
    @given(inputs=run_inputs())
    def test_every_outcome_is_an_exit_code(self, inputs):
        broken, files, no_focus = inputs
        with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = {name: os.path.join(d, f"{name}.txt") for name in files}
            for name, data in files.items():
                if data is not None:
                    Path(p[name]).write_bytes(data)
            p["out"] = os.path.join(d, "out.txt")
            # at most 400 ticks, so that a long recording is refused rather than replayed
            with mock.patch.object(simulate, "MAX_TICKS", 400):
                code, err = quiet_main(run_argv(p, *["--no-focus"] * no_focus))
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION)
            assert (err == "") if code == EXIT_OK else err.startswith("focusray: ")
            # a broken token can still be a valid one, so a broken file may replay; the tick grid
            # and the rig come from the trajectory and the config together, and name both
            named = [name for name in files if p[name] in err]
            assert code == EXIT_OK or named == [broken] or (broken in named and named == ["traj", "config"]), err
            assert broken is not None or code == EXIT_OK, err
            assert os.path.exists(p["out"]) == (code == EXIT_OK)


def ssq_argv(p):
    return ["ssq", "--q1", p["q1"], "--q2", p["q2"], "--q3", p["q3"], "--profile", p["profile"], "--out", p["out"]]


RATING_TEXT = ("0", "1", "2", "3")
PROFILE_VALUES = {
    "name": st.sampled_from(["P01", "Ana Lima", "x-7"]), "age": st.integers(1, 120).map(str),
    "gender": st.sampled_from(["male", "female", "other"]), "academic_background": st.sampled_from(["hci", "cs"]),
}


@st.composite
def questionnaire_text(draw, broken: bool) -> str:
    """16 ratings over one to sixteen lines, maybe under a comment; when
    `broken`, with a rating that is not one, too few or too many ratings."""
    tokens = draw(st.lists(st.sampled_from(RATING_TEXT), min_size=16, max_size=16))
    if broken:
        k = draw(st.integers(0, 15))
        fault = draw(st.sampled_from(["token", "short", "extra"]))
        if fault == "token":
            tokens[k] = draw(ANY.filter(lambda t: t not in RATING_TEXT))
        elif fault == "short":
            del tokens[k:]
        else:
            tokens.insert(k, draw(st.sampled_from(RATING_TEXT)))
    per_line = draw(st.sampled_from([16, 8, 4, 1]))
    lines = [" ".join(tokens[i:i + per_line]) for i in range(0, len(tokens), per_line)]
    return "".join(line + "\n" for line in ["# symptoms 1-16"] * draw(st.booleans()) + lines)


@st.composite
def profile_text(draw, broken: bool) -> str:
    """The four `key = value` lines in any order; when `broken`, with an age
    that is not a positive integer, a key missing, unknown or repeated, or a
    line with no `=`."""
    lines = [[key, "=", draw(value)] for key, value in PROFILE_VALUES.items()]
    lines = draw(st.permutations(lines))
    if broken:
        k = draw(st.integers(0, 3))
        fault = draw(st.sampled_from(["age", "missing", "unknown", "repeated", "no equals"]))
        if fault == "age":
            age = next(line for line in lines if line[0] == "age")
            age[2] = draw(ANY.filter(lambda t: not (t.isdigit() and int(t) > 0)))
        elif fault == "missing":
            del lines[k]
        elif fault == "unknown":
            lines.insert(k, ["height", "=", "180"])
        elif fault == "repeated":
            lines.insert(k, list(lines[draw(st.integers(0, 3))]))
        else:
            del lines[k][1]
    return "".join(" ".join(line) + "\n" for line in lines)


@st.composite
def ssq_inputs(draw) -> tuple[str | None, dict[str, bytes | None]]:
    """The four `ssq` input files, of which at most one, named first, is
    broken: in its text, by a byte that is not UTF-8, or by being absent
    (None)."""
    broken = draw(st.sampled_from([None, "q1", "q2", "q3", "profile"]))
    files = {}
    for name in ("q1", "q2", "q3", "profile"):
        how = draw(st.sampled_from(["text", "text", "text", "byte", "absent"])) if name == broken else None
        text = draw((profile_text if name == "profile" else questionnaire_text)(how == "text"))
        data = text.encode("utf-8")
        if how == "byte":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + b"\xff" + data[at:]
        files[name] = None if how == "absent" else data
    return broken, files


class TestSsqFuzz:
    """`focusray ssq` on generated files, at most one of them broken: a valid
    set exits 0 and writes the report, and a broken one exits 3 with an error
    on stderr that names that file and no other; nothing else gets out."""

    @settings(max_examples=150, deadline=None)
    @given(inputs=ssq_inputs())
    def test_the_error_names_the_broken_file(self, inputs):
        broken, files = inputs
        with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = {name: os.path.join(d, f"{name}.txt") for name in files}
            for name, data in files.items():
                if data is not None:
                    Path(p[name]).write_bytes(data)
            p["out"] = os.path.join(d, "report.txt")
            code, err = quiet_main(ssq_argv(p))
            if broken is None:
                assert (code, err) == (EXIT_OK, "")
            else:
                assert code == EXIT_PARSE and err.startswith("focusray: ")
                assert [name for name in files if p[name] in err] == [broken], err
            assert os.path.exists(p["out"]) == (code == EXIT_OK)


class TestLevelFuzz:
    """`focusray level` on any argument text: exit 0 with `level_for_score`
    of the integer the text spells, or exit 2 with a usage error; the one
    other exit 0 is argparse's help, for `-h` or a prefix of `--help`."""

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(), st.integers().map(str), st.integers(-9, 9).map(str),
                          st.sampled_from([500 * k + d for k in (1, 2, 4, 6, 10) for d in (-1, 0, 1)]).map(str),
                          st.sampled_from(["-h", "--he", "--", " 7 ", "+5", "1_000", "\u0663", "-0"])))
    def test_every_outcome_is_a_level_or_a_usage_error(self, text):
        try:
            want = f"{level_for_score(int(text))}\n"
        except (ValueError, ValidationError):
            want = None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["level", text])
        if want is not None:
            assert (code, out.getvalue(), err.getvalue()) == (EXIT_OK, want, "")
        elif code == EXIT_OK:
            assert out.getvalue().startswith("usage: focusray level") and text in ("-h", "--h", "--he", "--hel", "--help")
        else:
            assert code == EXIT_USAGE and out.getvalue() == ""
            assert err.getvalue().startswith("usage: focusray")


class TestSsqCommand:
    argv = staticmethod(ssq_argv)

    def test_success(self, tmp_path):
        p = ssq_files(tmp_path, q2="3 3 3 3 3 3 3 3 3 3 3 3 3 3 3 3\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_OK
        doc = open(p["out"], encoding="utf-8").read()
        assert "q2_total = 235.62" in doc

    def test_short_questionnaire_is_parse_exit(self, tmp_path):
        p = ssq_files(tmp_path, q2="0 0 0\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE
        assert "missing symptom 4" in err

    def test_bad_profile_is_parse_exit(self, tmp_path):
        p = ssq_files(tmp_path, profile="name = P01\nage = minus\ngender = x\nacademic_background = y\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE

    def test_non_utf8_profile_is_parse_exit(self, tmp_path):
        p = ssq_files(tmp_path)
        with open(p["profile"], "rb") as fh:
            data = fh.read()
        with open(p["profile"], "wb") as fh:
            fh.write(data.replace(b"male", b"m\xffle"))
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE
        assert "profile.txt:3: invalid UTF-8 byte 0xff" in err

    def test_missing_questionnaire_file(self, tmp_path):
        p = ssq_files(tmp_path)
        p["q3"] = str(tmp_path / "missing.txt")
        code, _ = quiet_main(self.argv(p))
        assert code == EXIT_PARSE


PACKAGE_ROOT = str(Path(simulate.__file__).resolve().parent.parent)
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
# Loaded by a child's `site` before its main module: reports at exit whether
# anything froze the collector's heap
REPORT_FREEZE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print(f'frozen={gc.get_freeze_count() > 0}', file=sys.stderr))\n"
)
# What the installer's `focusray` script does with its [project.scripts] target
RUN_SCRIPT_TARGET = (
    "import importlib, sys\n"
    "module, _, name = sys.argv.pop(1).partition(':')\n"
    "sys.exit(getattr(importlib.import_module(module), name)())\n"
)


def script_target():
    match = re.search(r'^\[project\.scripts\]\nfocusray = "([\w.]+:\w+)"$', PYPROJECT.read_text(encoding="utf-8"), re.M)
    assert match, "pyproject.toml names no focusray script"
    return match.group(1)


class TestProcessEntry:
    """Both process entries freeze the import-time heap before the command
    runs; importing the package or calling `main` in-process does not."""

    def launch(self, tmp_path, argv):
        (tmp_path / "sitecustomize.py").write_text(REPORT_FREEZE, encoding="utf-8")
        env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join([str(tmp_path), PACKAGE_ROOT])}
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    def entries(self):
        return {"-m": ["-m", "focusray.cli"], "script": ["-c", RUN_SCRIPT_TARGET, script_target()]}

    def test_script_names_the_process_entry(self):
        assert script_target() == "focusray.cli:console_main"

    def test_each_entry_runs_frozen(self, tmp_path):
        for name, entry in self.entries().items():
            assert self.launch(tmp_path, [*entry, "level", "1250"]) == (EXIT_OK, "3\n", "frozen=True\n"), name

    def test_each_entry_keeps_the_usage_exit(self, tmp_path):
        for name, entry in self.entries().items():
            code, out, err = self.launch(tmp_path, [*entry, "level", "abc"])
            assert (code, out) == (EXIT_USAGE, ""), name
            assert "score must be an integer, got 'abc'" in err and err.endswith("frozen=True\n"), name

    def test_import_and_in_process_main_leave_the_collector(self, tmp_path):
        code = (
            "import gc\n"
            "import focusray\n"
            "counts = [gc.get_freeze_count()]\n"
            "import focusray.cli\n"
            "counts.append(gc.get_freeze_count())\n"
            "assert focusray.cli.main(['level', '7']) == 0\n"
            "counts.append(gc.get_freeze_count())\n"
            "print(counts)\n"
        )
        assert self.launch(tmp_path, ["-c", code]) == (EXIT_OK, "1\n[0, 0, 0]\n", "frozen=False\n")
