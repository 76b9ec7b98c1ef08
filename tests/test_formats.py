import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from focusray import (
    ComfortFinding,
    FocusCandidate,
    ComfortReport,
    ComfortRule,
    ParseError,
    Profile,
    SimConfig,
    ValidationError,
    Vec3,
    format_real,
    parse_config,
    parse_profile,
    parse_scene,
    parse_ssq_response,
    parse_trajectory,
    protocol_report,
    render_comfort_section,
    render_config_section,
    render_document,
    render_ssq_section,
    render_timeline_section,
    write_document,
)


def put(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


TRAJ_HEADER = "t_ms px py pz fx fy fz ux uy uz fov_deg user_initiated frame_time_ms"


class TestParseScene:
    def test_basic_scene(self, tmp_path):
        path = put(
            tmp_path,
            "scene.txt",
            "# a comment line\n"
            "\n"
            "1 0.0 0.0 -4.0 0.5 0.25 near orb\n"
            "2 1.5 0.0 -12.0 3.0 1.0\n",
        )
        objects = parse_scene(path)
        assert [o.id for o in objects] == [1, 2]
        assert objects[0].center == Vec3(0.0, 0.0, -4.0)
        assert objects[0].radius == 0.5
        assert objects[0].value == 0.25
        assert objects[0].label == "near orb"
        assert objects[1].label == ""

    def test_inline_comment_stripped(self, tmp_path):
        path = put(tmp_path, "scene.txt", "1 0 0 -4 0.5 0.2 # trailing note\n")
        assert parse_scene(path)[0].label == ""

    def test_empty_scene_is_valid(self, tmp_path):
        path = put(tmp_path, "scene.txt", "# nothing here\n")
        assert list(parse_scene(path)) == []

    def test_too_few_tokens(self, tmp_path):
        path = put(tmp_path, "scene.txt", "1 0 0 -4 0.5\n")
        with pytest.raises(ParseError, match=r"scene\.txt:1: expected"):
            parse_scene(path)

    def test_bad_id_reports_line(self, tmp_path):
        path = put(tmp_path, "scene.txt", "# header\n1 0 0 -4 0.5 0.2\nxx 0 0 -4 0.5 0.2\n")
        with pytest.raises(ParseError, match=r"scene\.txt:3: object id"):
            parse_scene(path)

    def test_bad_radius_token(self, tmp_path):
        path = put(tmp_path, "scene.txt", "1 0 0 -4 wide 0.2\n")
        with pytest.raises(ParseError, match="radius must be a number"):
            parse_scene(path)

    def test_duplicate_id(self, tmp_path):
        path = put(tmp_path, "scene.txt", "1 0 0 -4 0.5 0.2\n1 0 0 -9 0.5 0.2\n")
        with pytest.raises(ParseError, match="duplicate object id 1"):
            parse_scene(path)

    def test_invalid_object_values_become_parse_errors(self, tmp_path):
        path = put(tmp_path, "scene.txt", "1 0 0 -4 -0.5 0.2\n")
        with pytest.raises(ParseError, match=r"scene\.txt:1"):
            parse_scene(path)
        path = put(tmp_path, "scene2.txt", "1 0 0 -4 0.5 1.5\n")
        with pytest.raises(ParseError):
            parse_scene(path)


class TestParseTrajectory:
    def rows(self, *lines):
        return TRAJ_HEADER + "\n" + "\n".join(lines) + "\n"

    def test_basic_trajectory(self, tmp_path):
        path = put(
            tmp_path,
            "traj.txt",
            self.rows(
                "0 0 0 0 0 0 -1 0 1 0 90 1 11.1",
                "100 0.5 0 0 0 0 -2 0 1 0 90 0 11.1",
                "200 1 0 0 0 0 -1 0 1 0 90 1 11.1",
            ),
        )
        traj = parse_trajectory(path)
        assert len(traj) == 3
        assert traj[0].t_ms == 0.0
        assert traj[0].user_initiated is True
        assert traj[1].user_initiated is False
        assert traj[1].position == Vec3(0.5, 0.0, 0.0)
        # non-unit forward input comes back normalized
        assert traj[1].forward == Vec3(0.0, 0.0, -1.0)

    def test_missing_header(self, tmp_path):
        path = put(tmp_path, "traj.txt", "0 0 0 0 0 0 -1 0 1 0 90 1 11.1\n")
        with pytest.raises(ParseError, match="expected header"):
            parse_trajectory(path)

    def test_empty_file(self, tmp_path):
        path = put(tmp_path, "traj.txt", "")
        with pytest.raises(ParseError, match="missing trajectory header"):
            parse_trajectory(path)

    def test_wrong_field_count(self, tmp_path):
        path = put(tmp_path, "traj.txt", self.rows("0 0 0 0 0 0 -1 0 1 0 90 1"))
        with pytest.raises(ParseError, match="expected 13 fields, got 12"):
            parse_trajectory(path)

    def test_bad_user_initiated(self, tmp_path):
        path = put(
            tmp_path,
            "traj.txt",
            self.rows("0 0 0 0 0 0 -1 0 1 0 90 yes 11.1", "100 0 0 0 0 0 -1 0 1 0 90 1 11.1"),
        )
        with pytest.raises(ParseError, match="user_initiated must be 0 or 1"):
            parse_trajectory(path)

    def test_zero_forward_vector(self, tmp_path):
        path = put(
            tmp_path,
            "traj.txt",
            self.rows("0 0 0 0 0 0 0 0 1 0 90 1 11.1", "100 0 0 0 0 0 -1 0 1 0 90 1 11.1"),
        )
        with pytest.raises(ParseError, match="forward vector must be non-zero"):
            parse_trajectory(path)

    def test_non_finite_orientation_names_line(self, tmp_path):
        for row in ("100 0 0 0 nan 0 -1 0 1 0 90 1 11.1", "100 0 0 0 0 0 -1 0 inf 0 90 1 11.1"):
            path = put(tmp_path, "traj.txt", self.rows("0 0 0 0 0 0 -1 0 1 0 90 1 11.1", row))
            with pytest.raises(ParseError, match=r"traj\.txt:3: Vec3 components must be finite"):
                parse_trajectory(path)

    def test_forward_parallel_to_up_names_line(self, tmp_path):
        path = put(
            tmp_path,
            "traj.txt",
            self.rows("0 0 0 0 0 1 0 0 1 0 90 1 11.1", "100 0 0 0 0 0 -1 0 1 0 90 1 11.1"),
        )
        with pytest.raises(ParseError, match=r"traj\.txt:2: right \(forward x up\) vector must be non-zero"):
            parse_trajectory(path)

    def test_non_monotonic_time(self, tmp_path):
        path = put(
            tmp_path,
            "traj.txt",
            self.rows(
                "0 0 0 0 0 0 -1 0 1 0 90 1 11.1",
                "100 0 0 0 0 0 -1 0 1 0 90 1 11.1",
                "100 0 0 0 0 0 -1 0 1 0 90 1 11.1",
            ),
        )
        with pytest.raises(ParseError, match=r"traj\.txt:4: t_ms must strictly increase"):
            parse_trajectory(path)

    def test_single_sample_rejected(self, tmp_path):
        path = put(tmp_path, "traj.txt", self.rows("0 0 0 0 0 0 -1 0 1 0 90 1 11.1"))
        with pytest.raises(ParseError, match="at least 3 samples"):
            parse_trajectory(path)

    def test_two_samples_rejected(self, tmp_path):
        # the comfort rules' difference stencils need three samples
        path = put(tmp_path, "traj.txt", self.rows("0 0 0 0 0 0 -1 0 1 0 90 1 11.1", "100 0 0 0 0 0 -1 0 1 0 90 1 11.1"))
        with pytest.raises(ParseError, match=r"traj\.txt:0: trajectory needs at least 3 samples, got 2"):
            parse_trajectory(path)

    def test_line_numbers_skip_comments(self, tmp_path):
        path = put(
            tmp_path,
            "traj.txt",
            "# recorded session\n" + self.rows(
                "0 0 0 0 0 0 -1 0 1 0 90 1 11.1",
                "# midpoint note",
                "100 0 0 0 0 0 -1 0 1 0 90 2 11.1",
            ),
        )
        with pytest.raises(ParseError, match=r"traj\.txt:5: user_initiated"):
            parse_trajectory(path)

    def test_bad_fov_becomes_parse_error(self, tmp_path):
        path = put(
            tmp_path,
            "traj.txt",
            self.rows("0 0 0 0 0 0 -1 0 1 0 200 1 11.1", "100 0 0 0 0 0 -1 0 1 0 90 1 11.1"),
        )
        with pytest.raises(ParseError, match=r"traj\.txt:2"):
            parse_trajectory(path)


class TestParseConfig:
    def test_defaults_fill_missing_keys(self, tmp_path):
        path = put(tmp_path, "config.txt", "ray_k = 2\ntick_ms = 50\n")
        cfg = parse_config(path)
        assert cfg.ray_k == 2
        assert cfg.tick_ms == 50.0
        assert cfg.ray_n == 64  # untouched default

    def test_empty_config_is_all_defaults(self, tmp_path):
        cfg = parse_config(put(tmp_path, "config.txt", "# defaults\n"))
        assert cfg == SimConfig()

    def test_unknown_key(self, tmp_path):
        path = put(tmp_path, "config.txt", "rayz = 2\n")
        with pytest.raises(ParseError, match="unknown config key 'rayz'"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = put(tmp_path, "config.txt", "ray_k = 2\nray_k = 3\n")
        with pytest.raises(ParseError, match=r"config\.txt:2: duplicate config key"):
            parse_config(path)

    def test_int_field_rejects_float_token(self, tmp_path):
        path = put(tmp_path, "config.txt", "ray_k = 4.5\n")
        with pytest.raises(ParseError, match="ray_k must be an integer"):
            parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = put(tmp_path, "config.txt", "ray_k 2\n")
        with pytest.raises(ParseError, match="expected 'key = value'"):
            parse_config(path)

    def test_semantic_violations_are_validation_errors(self, tmp_path):
        path = put(tmp_path, "config.txt", "p_rm = 0.9\n")  # weights no longer sum to 1
        with pytest.raises(ValidationError):
            parse_config(path)
        path = put(tmp_path, "config2.txt", "ray_k = 0\n")
        with pytest.raises(ValidationError):
            parse_config(path)


class TestParseSsqResponse:
    def test_multiline_ratings(self, tmp_path):
        path = put(tmp_path, "q.txt", "# post-exposure\n0 1 2 3 0 1 2 3\n0 1 2 3 0 1 2 3\n")
        r = parse_ssq_response(path)
        assert r.ratings == (0, 1, 2, 3) * 4

    def test_extra_rating(self, tmp_path):
        path = put(tmp_path, "q.txt", " ".join(["1"] * 17) + "\n")
        with pytest.raises(ParseError, match="extra rating"):
            parse_ssq_response(path)

    def test_out_of_range_names_symptom(self, tmp_path):
        path = put(tmp_path, "q.txt", "0 0 0 0 0 0 0 0 0 0 0 4 0 0 0 0\n")
        with pytest.raises(ParseError, match="symptom 12: rating must be in 0..3"):
            parse_ssq_response(path)

    def test_missing_ratings(self, tmp_path):
        path = put(tmp_path, "q.txt", " ".join(["0"] * 15) + "\n")
        with pytest.raises(ParseError, match=r"missing symptom 16 \(found 15 of 16 ratings\)"):
            parse_ssq_response(path)

    def test_non_integer_token(self, tmp_path):
        path = put(tmp_path, "q.txt", "0 0 zero 0 0 0 0 0 0 0 0 0 0 0 0 0\n")
        with pytest.raises(ParseError, match="symptom 3 must be an integer"):
            parse_ssq_response(path)


class TestParseProfile:
    GOOD = "name = P01\nage = 27\ngender = female\nacademic_background = computer science\n"

    def test_basic_profile(self, tmp_path):
        p = parse_profile(put(tmp_path, "profile.txt", self.GOOD))
        assert p == Profile(name="P01", age=27, gender="female", academic_background="computer science")

    def test_value_may_contain_equals(self, tmp_path):
        text = self.GOOD.replace("computer science", "maths = logic")
        p = parse_profile(put(tmp_path, "profile.txt", text))
        assert p.academic_background == "maths = logic"

    def test_unknown_key(self, tmp_path):
        path = put(tmp_path, "profile.txt", self.GOOD + "height = 180\n")
        with pytest.raises(ParseError, match="unknown profile key 'height'"):
            parse_profile(path)

    def test_duplicate_key(self, tmp_path):
        path = put(tmp_path, "profile.txt", self.GOOD + "name = P02\n")
        with pytest.raises(ParseError, match="duplicate profile key 'name'"):
            parse_profile(path)

    def test_missing_key(self, tmp_path):
        path = put(tmp_path, "profile.txt", "name = P01\nage = 27\ngender = female\n")
        with pytest.raises(ParseError, match="missing required profile key 'academic_background'"):
            parse_profile(path)

    def test_age_parse_error_points_at_its_line(self, tmp_path):
        path = put(tmp_path, "profile.txt", self.GOOD.replace("27", "unknown"))
        with pytest.raises(ParseError, match=r"profile\.txt:2: age must be an integer"):
            parse_profile(path)

    def test_invalid_age_value(self, tmp_path):
        path = put(tmp_path, "profile.txt", self.GOOD.replace("27", "0"))
        with pytest.raises(ParseError, match=r"profile\.txt:2"):
            parse_profile(path)


class TestUndecodableInput:
    def test_names_file_and_line_of_first_bad_byte(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_bytes(b"1 0 0 -10 1.0 1.0 orb\n2 0 0 -5 1.0 1.0 b\xffd\n3 \xfe\n")
        with pytest.raises(ParseError, match=r"scene\.txt:2: invalid UTF-8 byte 0xff"):
            parse_scene(str(path))

    def test_line_count_follows_every_line_ending(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_bytes(b"name = P01\r\n\rage = \x80\n")
        with pytest.raises(ParseError, match=r"profile\.txt:3: invalid UTF-8 byte 0x80"):
            parse_profile(str(path))


# parser vocabulary, so the fuzzer also reaches past the first token
_FUZZ_TOKENS = [
    b" ", b"\n", b"\r\n", b"#", b"=", b"0", b"1", b"-3", b"0.5", b"1e400", b"nan", b"inf", b"9" * 40,
    b"\xc3\xa9", TRAJ_HEADER.encode(), b"0 0 0 0 0 0 -1 0 1 0 90 1 11.1",
    b"ray_k", b"tick_ms", b"p_rm", b"name", b"age", b"gender", b"academic_background",
]
_FUZZ_TEXT = st.lists(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=14).map(b" ".join), max_size=8).map(b"\n".join)
_FUZZ_BYTES = st.one_of(
    st.binary(max_size=300),
    _FUZZ_TEXT,
    _FUZZ_TEXT.map(lambda rows: TRAJ_HEADER.encode() + b"\n" + rows),
)


class TestParserFuzz:
    @pytest.mark.parametrize(
        "parser", [parse_scene, parse_trajectory, parse_config, parse_ssq_response, parse_profile],
        ids=lambda parser: parser.__name__,
    )
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_FUZZ_BYTES)
    def test_any_bytes_parse_or_raise_parse_error(self, tmp_path, parser, data):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        try:
            parser(str(path))
        except ParseError:
            pass
        except ValidationError:
            # a config that parses but breaks an invariant is the documented exit-4 path
            assert parser is parse_config


class TestFormatReal:
    def test_six_decimals(self):
        assert format_real(1.5) == "1.500000"
        assert format_real(-2.25) == "-2.250000"
        assert format_real(0.0) == "0.000000"

    def test_negative_zero_collapses(self):
        assert format_real(-0.0) == "0.000000"
        assert format_real(-0.0, 2) == "0.00"

    def test_rounding(self):
        assert format_real(0.1234567) == "0.123457"
        assert format_real(12.0934) == "12.093400"
        assert format_real(12.0934, 2) == "12.09"


class TestRendering:
    def test_config_section_field_order_and_types(self):
        lines = render_config_section(SimConfig())
        assert lines[0] == "[CONFIG]"
        assert "ray_k = 4" in lines
        assert "ray_n = 64" in lines
        assert "p_rm = 0.500000" in lines
        assert "tick_ms = 16.000000" in lines
        # one line per config field plus the section marker
        assert len(lines) == 1 + len(SimConfig.__dataclass_fields__)

    def test_timeline_rows(self):
        winner = FocusCandidate(object_id=2, rm=0.770833, d=0.879066, v=1.0, importance=0.849137)
        lines = render_timeline_section(np.array([50.0, 100.0]), [(winner, 1.209339, True), (None, 2.5, False)])
        assert lines[0] == "[TIMELINE]"
        assert lines[1] == "t_ms,selected_object_id,importance,rm,d,v,focal_distance_m,in_transition"
        assert lines[2] == "50.000000,2,0.849137,0.770833,0.879066,1.000000,1.209339,true"
        assert lines[3] == "100.000000,,,,,,2.500000,false"

    def test_timeline_of_tick_times_alone(self):
        t_ms = np.array([0.0, 16.0, -0.0, 1e-7, 123456.789])
        assert render_timeline_section(t_ms)[2:] == [
            "0.000000,,,,,,,", "16.000000,,,,,,,", "0.000000,,,,,,,", "0.000000,,,,,,,", "123456.789000,,,,,,,",
        ]

    def test_comfort_section_empty_report(self):
        report = ComfortReport(findings=(), counts={r: 0 for r in ComfortRule}, duration_ms=2000.0)
        lines = render_comfort_section(report)
        assert lines[0] == "[COMFORT]"
        assert "duration_ms = 2000.000000" in lines
        assert "findings = 0" in lines
        for rule in ComfortRule:
            assert f"count_{rule.value} = 0" in lines
        assert lines[-1] == "rule,start_ms,end_ms,heuristic_severity,detail"

    def test_comfort_detail_sanitized(self):
        finding = ComfortFinding(
            rule=ComfortRule.FrameDrop,
            start_ms=0.0,
            end_ms=100.0,
            severity=0.5,
            detail="worst, case\nframe",
        )
        counts = {r: 0 for r in ComfortRule}
        counts[ComfortRule.FrameDrop] = 1
        lines = render_comfort_section(ComfortReport(findings=(finding,), counts=counts, duration_ms=100.0))
        assert lines[-1] == "FrameDrop,0.000000,100.000000,0.500000,worst; case frame"

    def test_ssq_section_two_decimals_and_signed_deltas(self):
        profile = Profile(name="P01", age=27, gender="female", academic_background="cs")
        zero = tuple([0] * 16)
        one_discomfort = (1,) + zero[1:]
        from focusray import SsqResponse

        q1, q2, q3 = (SsqResponse(ratings=r) for r in (one_discomfort, zero, one_discomfort))
        lines = render_ssq_section(protocol_report(profile, q1, q2, q3))
        assert lines[0] == "[SSQ]"
        assert "name = P01" in lines
        assert "age = 27" in lines
        assert "q1_nausea = 9.54" in lines
        assert "delta_q2_nausea = -9.54" in lines
        assert "delta_q3_nausea = 0.00" in lines
        assert "delta_q3_total = 0.00" in lines

    def test_document_joins_with_blank_lines(self):
        text = render_document([["[A]", "x = 1"], ["[B]", "y = 2"]])
        assert text == "[A]\nx = 1\n\n[B]\ny = 2\n"

    def test_write_document_lf_bytes(self, tmp_path):
        out = tmp_path / "out.txt"
        write_document(str(out), "[A]\nline\n")
        assert out.read_bytes() == b"[A]\nline\n"


class TestRoundTrip:
    def test_scene_survives_render_parse_cycle(self, tmp_path):
        # not a renderer we ship for scenes; just confirm parse output is
        # stable when the same file is read twice
        path = put(tmp_path, "scene.txt", "1 0.25 -0.5 -4.125 0.5 0.333333 thing one\n")
        assert list(parse_scene(path)) == list(parse_scene(path))
