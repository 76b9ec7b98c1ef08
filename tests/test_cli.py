import contextlib
import io
import os
import stat
import threading

from focusray import simulate
from focusray.cli import EXIT_OK, EXIT_OUTPUT, EXIT_PARSE, EXIT_USAGE, EXIT_VALIDATION, main

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


class TestRunCommand:
    def argv(self, p, *extra):
        return [
            "run",
            "--scene", p["scene"],
            "--trajectory", p["traj"],
            "--config", p["config"],
            "--out", p["out"],
            *extra,
        ]

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
        assert "forward between opposite orientations at t_ms 0.0 and 100.0" in err

    def test_huge_time_span_is_validation_exit(self, tmp_path, monkeypatch):
        def no_samples(**fields):
            raise AssertionError("resample built a sample")

        monkeypatch.setattr(simulate, "TrajectorySample", no_samples)
        p = run_files(tmp_path, traj=TRAJ.replace("\n200 ", "\n1000000000000 "), config="tick_ms = 16\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_VALIDATION
        assert "needs 62500000001 ticks of 16.0 ms, above the limit of 1000000" in err
        assert not os.path.exists(p["out"])

    def test_object_id_beyond_64_bits_is_parse_exit(self, tmp_path):
        p = run_files(tmp_path, scene="9223372036854775808 0 0 -10 1.0 1.0 orb\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE
        assert "scene.txt:1: object id must fit in 64 bits" in err

    def test_unknown_config_key_is_parse_exit(self, tmp_path):
        p = run_files(tmp_path, config="warp_speed = 9\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_PARSE

    def test_semantic_config_violation_is_validation_exit(self, tmp_path):
        p = run_files(tmp_path, config="p_rm = 0.9\n")
        code, err = quiet_main(self.argv(p))
        assert code == EXIT_VALIDATION
        assert "focusray:" in err


class TestSsqCommand:
    def argv(self, p):
        return [
            "ssq",
            "--q1", p["q1"],
            "--q2", p["q2"],
            "--q3", p["q3"],
            "--profile", p["profile"],
            "--out", p["out"],
        ]

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
