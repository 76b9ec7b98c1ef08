"""The columnar trajectory path against its row-wise reference.

`parse_trajectory`, `resample` and `analyze_trajectory` hold a recording as
`Trajectory` columns. `tests/oracles.py` keeps the row-wise versions they
replaced; on seeded recordings built to hit every edge of the arithmetic,
the two must agree on every sample, column, finding and error message, bit
for bit.
"""

import math
import random
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focusray import (
    ComfortConfig,
    ComfortRule,
    ParseError,
    Trajectory,
    ValidationError,
    Vec3,
    analyze_trajectory,
    parse_trajectory,
    resample,
)
from focusray import comfort, simulate
from focusray.geometry import dot_rows
from focusray.io_formats import _content_lines
from builders import profile, sample, sample_bits
import oracles
from oracles import analyze_by_rows, parse_trajectory_by_rows, resample_by_rows

HEADER = "t_ms px py pz fx fy fz ux uy uz fov_deg user_initiated frame_time_ms"
TICK_MS = 16.0
SEEDS = range(60)
# the rows a chunk of an earlier, chunked parse converted at a time; TestParseChunks keeps its edges as inputs
CHUNK_ROWS = 250
# thresholds low enough that every rule fires somewhere in the seeded set
SENSITIVE = ComfortConfig(min_episode_ms=100.0, walk_episode_ms=500.0, max_session_ms=2000.0)


def recording_rows(seed: int) -> list[list[float]]:
    """A seeded recording of ~100-500 rows (t_ms, position, forward, up, fov,
    user flag, frame time) stitched from segments that exercise the edges of
    the arithmetic: walks, acceleration ramps, calm teleports and jumps while
    walking; jittered and tick-aligned timestamps (a 16 ms tick lands exactly
    on samples); exactly parallel, near-parallel and near-opposite
    orientation steps; FOV steps and frame times exactly at their thresholds
    beside long random ramps and bursts; user flag toggles."""
    rng = random.Random(seed)
    t0 = rng.choice([0.0, 1000.0, round(rng.uniform(0.0, 5e4), 3)])
    t, x, z, v = t0, 0.0, 0.0, 0.0
    yaw, pitch, fov = rng.uniform(-math.pi, math.pi), rng.uniform(-0.3, 0.3), 90.0
    rows: list[list[float]] = []

    def emit(dt: float | None = None, user: bool = True, frame_ms: float | None = None, scale: float = 1.0) -> None:
        nonlocal t, x
        if rows:
            if dt is None:  # tick-aligned: the sample time is a tick time
                t = t0 + (math.floor((t - t0) / TICK_MS) + 1) * TICK_MS
            else:
                t = t + dt
            x += v * (t - rows[-1][0]) / 1000.0
        fwd = (math.cos(pitch) * math.sin(yaw), math.sin(pitch), -math.cos(pitch) * math.cos(yaw))
        up = (-math.sin(pitch) * math.sin(yaw), math.cos(pitch), math.sin(pitch) * math.cos(yaw))
        ft = rng.uniform(9.0, 13.0) if frame_ms is None else frame_ms
        rows.append([t, x, 1.6, z, *(c * scale for c in fwd), *up, fov, float(user), ft])

    emit()
    for _ in range(rng.randint(8, 16)):
        kind = rng.choice(("walk", "ramp", "stop", "teleport", "aligned", "pan", "parallel",
                           "flip", "fov_ramp", "fov_edge", "drops", "drop_edge"))
        user = rng.random() > 0.3
        n = rng.randint(8, 40)
        jitter = lambda: round(rng.uniform(8.0, 24.0), rng.choice((0, 3, 17)))  # noqa: E731
        if kind == "walk":
            v = rng.uniform(0.2, 1.5)
            for _ in range(n):
                emit(jitter(), user)
            if rng.random() < 0.5:  # a jump while walking
                x += rng.uniform(1.0, 4.0)
                emit(jitter(), user)
        elif kind == "ramp":
            a = rng.choice((-1.0, 1.0)) * rng.uniform(1.5, 4.0)
            for _ in range(n):
                v = max(0.0, v + a * 0.016)
                emit(jitter(), user)
        elif kind == "stop":
            v = 0.0
            for _ in range(n):
                emit(jitter(), user)
        elif kind == "teleport":  # calm on both sides
            v = 0.0
            emit(jitter(), user)
            x += rng.uniform(0.6, 6.0)
            z += rng.uniform(-2.0, 2.0)
            emit(jitter(), user)
            emit(jitter(), user)
        elif kind == "aligned":
            for _ in range(n):
                emit(None, user)
        elif kind == "pan":
            rate = rng.choice((-1.0, 1.0)) * math.radians(rng.uniform(10.0, 60.0))
            for _ in range(n):
                yaw += rate * 0.016
                pitch = max(-1.2, min(1.2, pitch + rng.uniform(-0.01, 0.01)))
                emit(jitter(), user)
        elif kind == "parallel":  # repeated and near-identical orientations
            for _ in range(n):
                yaw += rng.choice((0.0, 1e-10, -3e-9, 2e-12))
                emit(jitter(), user, scale=rng.choice((1.0, 1.0, 2.5, 0.3)))
        elif kind == "flip":  # near-opposite consecutive forward vectors
            yaw += math.pi - rng.choice((1e-3, 1e-5, 1e-7))
            emit(jitter(), user)
            emit(jitter(), user)
        elif kind == "fov_ramp":
            step = rng.choice((-1.0, 1.0)) * rng.uniform(1.01, 3.0)
            for _ in range(n):
                fov = max(20.0, min(160.0, fov + step * rng.uniform(0.9, 1.1)))
                emit(jitter(), user)
        elif kind == "fov_edge":  # steps of exactly the 1 degree threshold
            fov = float(round(fov))
            for _ in range(n):
                fov += rng.choice((-1.0, 1.0, 0.5))
                emit(jitter(), user)
        elif kind == "drops":
            for _ in range(n):
                emit(jitter(), user, frame_ms=rng.uniform(22.3, 60.0))
        else:  # frame times exactly at the drop limit, 2 x 11.1 ms
            for _ in range(n):
                emit(jitter(), user, frame_ms=rng.choice((22.2, 22.2, 2.0 * 11.1, 11.1)))
    return rows


def write_rows(tmp_path, rows, name: str = "traj.txt") -> str:
    lines = [HEADER]
    for i, row in enumerate(rows):
        fields = [repr(float(c)) for c in row]
        fields[11] = str(int(row[11]))
        lines.append(" ".join(fields) + ("  # note" if i % 37 == 5 else ""))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def assert_same_samples(columns: Trajectory, rows: list) -> None:
    assert [sample_bits(s) for s in columns] == [sample_bits(s) for s in rows]
    expected = Trajectory.from_samples(rows)
    for name in ("t_ms", "pos", "fwd", "up", "fov", "user", "frame_ms"):
        got, want = getattr(columns, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


def edge_config(reference: list, rng: random.Random) -> ComfortConfig:
    """Thresholds set to values the row-wise rules compute along the way, or
    to the float just below one, so that a last-bit difference in a speed,
    distance, acceleration or angular rate flips a flag and shows up."""
    ts = [s.t_ms / 1000.0 for s in reference]
    t_ms = [s.t_ms for s in reference]
    velocities = oracles._central_rate([s.position for s in reference], ts, "velocity", t_ms)
    gaps = [b.position.distance_to(a.position) for a, b in zip(reference, reference[1:])]

    def pick(values) -> float:
        value = rng.choice([v for v in values if v > 1e-300] or [1.0])
        return rng.choice((value, math.nextafter(value, 0.0)))

    speeds = oracles._gap_speeds_m_s(reference, gaps)
    return ComfortConfig(
        accel_threshold_m_s2=pick([a.norm() for a in oracles._central_rate(velocities, ts, "acceleration", t_ms)]),
        min_episode_ms=0.0,
        motion_floor_m_s=pick(rng.choice((speeds, [v.norm() for v in velocities]))),
        motion_floor_deg_s=pick(
            [oracles._angle_deg(reference[lo].forward, reference[hi].forward) / dt for lo, hi, dt in oracles._stencil(ts)]
        ),
        walk_episode_ms=50.0,
        jump_distance_min_m=pick(gaps),
    )


def finding_bits(report) -> tuple:
    findings = tuple(
        (f.rule, f.start_ms.hex(), f.end_ms.hex(), f.severity.hex(), f.detail) for f in report.findings
    )
    return findings, report.counts, report.duration_ms.hex()


class TestDifferentialOracles:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_parse_resample_and_rules_match_row_by_row(self, tmp_path, seed):
        path = write_rows(tmp_path, recording_rows(seed))
        reference = parse_trajectory_by_rows(path)
        traj = parse_trajectory(path)
        assert isinstance(traj, Trajectory)
        assert_same_samples(traj, reference)

        rng = random.Random(seed)
        for tick_ms in (TICK_MS, 11.1, round(rng.uniform(5.0, 40.0), 3)):
            ticks = resample(traj, tick_ms)
            assert_same_samples(ticks, resample_by_rows(reference, tick_ms))
            assert_same_samples(resample(reference, tick_ms), ticks)

        for cfg in (ComfortConfig(), SENSITIVE, *(edge_config(reference, rng) for _ in range(3))):
            expected = finding_bits(analyze_by_rows(reference, cfg=cfg))
            assert finding_bits(analyze_trajectory(traj, cfg=cfg)) == expected
            assert finding_bits(analyze_trajectory(reference, cfg=cfg)) == expected

    def test_seeded_set_covers_every_edge(self, tmp_path):
        rules = set()
        exact_ticks = parallel = 0
        for seed in SEEDS:
            rows = recording_rows(seed)
            traj = parse_trajectory(write_rows(tmp_path, rows))
            report = analyze_trajectory(traj, cfg=SENSITIVE)
            rules |= {f.rule for f in report.findings}
            ticks = resample(traj, TICK_MS)
            exact_ticks += len(np.intersect1d(ticks.t_ms, traj.t_ms)) - 1
            cos = np.einsum("ij,ij->i", traj.fwd[1:], traj.fwd[:-1])
            parallel += int((np.sin(np.arccos(np.clip(cos, -1.0, 1.0))) < 1e-9).sum())
        assert rules == set(ComfortRule)
        assert exact_ticks > 100
        assert parallel > 20


class TestParseErrorsUnderColumns:
    # (kind, columns to overwrite with tokens): one of each check in a row's order
    FAULTS = (
        ("fields", None),
        ("number", {4: "abc"}),
        ("frame number", {12: "1,5"}),
        ("user flag", {11: "2"}),
        ("forward finite", {5: "nan"}),
        ("forward zero", {4: "0", 5: "0", 6: "0"}),
        ("up finite", {8: "inf"}),
        ("up zero", {7: "0", 8: "0", 9: "0"}),
        ("right zero", {7: "0", 8: "0", 9: "-1", 4: "0", 5: "0", 6: "2"}),
        ("position finite", {2: "-inf"}),
        ("t finite", {0: "inf"}),
        ("fov", {10: "180"}),
        ("frame time", {12: "0"}),
        ("position magnitude", {3: "-1e101"}),
        ("time order", {0: "-5"}),
    )

    @staticmethod
    def corrupt(path: str, faults: dict[int, tuple]) -> None:
        """Rewrite data rows `faults` (0-based) with a fault of the given kind."""
        lines = open(path, encoding="utf-8").read().splitlines()
        for row, (_, cols) in faults.items():
            tokens = lines[1 + row].split("#")[0].split()
            if cols is None:
                tokens = tokens[:-1]
            else:
                for col, tok in cols.items():
                    tokens[col] = tok
            lines[1 + row] = " ".join(tokens)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @staticmethod
    def messages(path: str) -> tuple[str, str]:
        with pytest.raises(ParseError) as got:
            parse_trajectory(path)
        with pytest.raises(ParseError) as want:
            parse_trajectory_by_rows(path)
        return str(got.value), str(want.value)

    def test_earlier_row_wins_over_an_earlier_kind(self, tmp_path):
        path = write_rows(tmp_path, recording_rows(1))
        # row 5 breaks a late check (fov), row 9 the first one (field count)
        self.corrupt(path, {5: self.FAULTS[11], 9: self.FAULTS[0]})
        got, want = self.messages(path)
        assert got == want
        assert ":7: fov_deg must be in (0, 180)" in got

    def test_later_kind_in_the_earlier_row_wins(self, tmp_path):
        path = write_rows(tmp_path, recording_rows(2))
        self.corrupt(path, {3: self.FAULTS[-1], 4: self.FAULTS[1]})
        got, want = self.messages(path)
        assert got == want
        assert got.endswith(":5: t_ms must strictly increase")

    @pytest.mark.parametrize("kind", range(len(FAULTS)), ids=[kind for kind, _ in FAULTS])
    def test_fault_deep_in_a_long_file_names_its_line(self, tmp_path, kind):
        rows = [[i * 11.0, 0.001 * i, 1.6, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0, 90.0, 1.0, 11.1] for i in range(10_000)]
        path = write_rows(tmp_path, rows)
        self.corrupt(path, {8_999: self.FAULTS[kind]})
        got, want = self.messages(path)
        assert got == want
        assert "traj.txt:9001: " in got

    @pytest.mark.parametrize("seed", range(40))
    def test_random_faults_match_the_row_parser(self, tmp_path, seed):
        rng = random.Random(seed)
        rows = recording_rows(seed)
        path = write_rows(tmp_path, rows)
        picks = rng.sample(range(1, len(rows)), rng.randint(1, 3))
        self.corrupt(path, {row: rng.choice(self.FAULTS) for row in picks})
        got, want = self.messages(path)
        assert got == want


class TestParseChunks:
    """The body converts in one `np.loadtxt`; a body it refuses is checked and
    converted row by row, so the error stays the row parser's and the columns
    are `float`'s. The cases keep the rows around the edges of an earlier
    parse's chunks of `CHUNK_ROWS`."""

    EDGE = CHUNK_ROWS - 1  # the last row of the first chunk

    @staticmethod
    def still_rows(n: int) -> list[list[float]]:
        return [[i * 11.0, 0.001 * i, 1.6, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0, 90.0, 1.0, 11.1] for i in range(n)]

    @classmethod
    def still_lines(cls, n: int) -> list[str]:
        return [" ".join([*map(repr, r[:11]), "1", repr(r[12])]) for r in cls.still_rows(n)]

    @staticmethod
    def write_lines(tmp_path, rows: list[str], seps=("\n",)) -> str:
        """The header and `rows`, each line ended by the next of `seps` in turn."""
        lines = [HEADER, *rows]
        path = tmp_path / "traj.txt"
        path.write_text("".join(line + seps[i % len(seps)] for i, line in enumerate(lines)), encoding="utf-8")
        return str(path)

    @staticmethod
    def same_columns(path: str) -> None:
        assert_same_samples(parse_trajectory(path), parse_trajectory_by_rows(path))

    @pytest.mark.parametrize("first", (0, CHUNK_ROWS, None), ids=("first chunk", "second chunk", "every row"))
    @pytest.mark.parametrize("count", (12, 14))
    def test_a_chunk_whose_rows_all_hold_another_count(self, tmp_path, count, first):
        """numpy reads a body whose rows are all 12 or all 14 fields wide."""
        lines = self.still_lines(2 * CHUNK_ROWS + 10)
        for row in range(len(lines)) if first is None else range(first, first + CHUNK_ROWS):
            tokens = lines[row].split()
            lines[row] = " ".join(tokens[:12] if count == 12 else tokens + ["1"])
        got, want = TestParseErrorsUnderColumns.messages(self.write_lines(tmp_path, lines))
        assert got == want
        assert got.endswith(f"traj.txt:{(first or 0) + 2}: expected 13 fields, got {count}")

    FAULT_IDS = [kind for kind, _ in TestParseErrorsUnderColumns.FAULTS]

    @pytest.mark.parametrize("kind", range(len(FAULT_IDS)), ids=FAULT_IDS)
    @pytest.mark.parametrize(
        "layout",
        ({EDGE: None}, {EDGE + 1: None}, {EDGE: None, EDGE + 1: 1}, {EDGE + 1: None, EDGE + 2: 0}),
        ids=("before the edge", "after the edge", "before, then a number", "after, then a field count"),
    )
    def test_faults_beside_a_chunk_edge(self, tmp_path, kind, layout):
        """`layout` puts the fault of `kind` at the row given None, and the
        fault numbered by FAULTS at the row after it, which must not win."""
        faults = TestParseErrorsUnderColumns.FAULTS
        path = write_rows(tmp_path, self.still_rows(2 * CHUNK_ROWS + 10))
        TestParseErrorsUnderColumns.corrupt(path, {row: faults[kind if k is None else k] for row, k in layout.items()})
        got, want = TestParseErrorsUnderColumns.messages(path)
        assert got == want
        assert f"traj.txt:{min(layout) + 2}: " in got

    @pytest.mark.parametrize("row", (3, CHUNK_ROWS + 3))
    def test_tokens_float_accepts(self, tmp_path, row):
        """Underscores, other scripts' digits and bare signs and points parse
        as `float` parses them, into the same columns."""
        lines = self.still_lines(CHUNK_ROWS + 10)
        tokens = lines[row].split()
        tokens[0] = tokens[0][0] + "_" + tokens[0][1:]  # 3_3.0 is 33.0
        tokens[1:4] = ["+.5", "\u0661", "1_0.2_5e-0_1"]  # ARABIC-INDIC DIGIT ONE, then 1.025
        tokens[10], tokens[12] = "\u0669\u0660", "+5."  # 90 in ARABIC-INDIC digits
        lines[row] = " ".join(tokens)
        path = self.write_lines(tmp_path, lines)
        self.same_columns(path)
        traj = parse_trajectory(path)
        assert traj.t_ms[row] == row * 11.0 and traj.pos[row].tolist() == [0.5, 1.0, 1.025]
        assert traj.fov[row] == 90.0 and traj.frame_ms[row] == 5.0

    @pytest.mark.parametrize("token", ("infinity", "-Infinity", "1e400", "-1e400", "nan"))
    @pytest.mark.parametrize("col", (0, 2, 5, 10, 12))
    def test_tokens_float_reads_as_not_finite(self, tmp_path, token, col):
        rows = self.still_lines(CHUNK_ROWS + 10)
        for row in (CHUNK_ROWS + 4, 7):  # the earlier one is named
            tokens = rows[row].split()
            tokens[col] = token
            rows[row] = " ".join(tokens)
        got, want = TestParseErrorsUnderColumns.messages(self.write_lines(tmp_path, rows))
        assert got == want
        assert "traj.txt:9: " in got

    def test_comments_and_line_breaks_keep_line_numbers(self, tmp_path):
        """`#` opens a comment at a line's start, inside a token and after
        trailing space; every break `splitlines` honours ends a line."""
        rows = self.still_lines(2 * CHUNK_ROWS)
        rows[1] = rows[1] + "   # trailing note"
        rows[2] = rows[2][:-1] + "#5 and the rest"  # the last token 11.1 reads 11.
        rows[3:3] = ["# a comment line", "   ", "#"]
        seps = ("\n", "\x0c", "\x1c", "\u2028", "\r\n", "\x0b", "\x85", "\u2029", "\r", "\x1d", "\x1e")
        path = self.write_lines(tmp_path, rows, seps)
        self.same_columns(path)
        assert parse_trajectory(path).frame_ms[2] == 11.0
        fault = CHUNK_ROWS + 20
        tokens = rows[fault].split()
        tokens[10] = "180"
        rows[fault] = " ".join(tokens)
        got, want = TestParseErrorsUnderColumns.messages(self.write_lines(tmp_path, rows, seps))
        assert got == want
        assert f"traj.txt:{fault + 2}: fov_deg must be in (0, 180)" in got


# every line break `splitlines` honours, CRLF among them
BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# tokens only `float` reads, tokens `float` and numpy both refuse, and tokens they read as not finite
SWAPS = ("1_0", "\u0661", "\u0669\u0660", "abc", "1d5", "0x10", "1_", ".", "nan", "-inf", "1e400", "infinity")
USER_FLAGS = ("0", "1", "1.0", "+1", "01", "2")


@st.composite
def trajectory_files(draw) -> str:
    """A trajectory file's text: comment and blank lines, the header, and zero
    to four rows of 13 fields, or all of 12 or 14 (numpy reads either), each
    valid or with one drawn fault (a token swapped, the user flag swapped, a
    field dropped or one added, the time of the row before), every line ended
    by a drawn break."""
    lines = draw(st.lists(st.sampled_from(("# recorded", "", "   ")), max_size=2)) + [HEADER]
    width = draw(st.sampled_from((13, 13, 13, 12, 14)))
    for i in range(draw(st.sampled_from((0, 1, 2, 3, 3, 4, 4)))):  # mostly enough rows to parse
        forms = draw(st.lists(st.sampled_from(("{!r}", "{:.3e}", "{:g}")), min_size=3, max_size=3))
        coords = [form.format(draw(st.floats(-5.0, 5.0))) for form in forms]
        tokens = [repr(11.0 * i), *coords, "0", "0", "-1", "0", "1", "0", "90", draw(st.sampled_from("01")), "11.1"]
        tokens = tokens[:width] + ["1"] * (width - 13)
        fault = draw(st.sampled_from(("none",) * 5 + ("token", "flag", "fewer", "more", "time")))
        if fault == "token":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(SWAPS))
        elif fault == "flag":
            tokens[11] = draw(st.sampled_from(USER_FLAGS))
        elif fault == "fewer":
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        elif fault == "more":
            tokens.insert(draw(st.integers(0, len(tokens))), "1")
        elif fault == "time":
            tokens[0] = repr(11.0 * max(i - 1, 0))
        lines.append(" ".join(tokens) + draw(st.sampled_from(("", "", "  # note", "#5"))))
        lines += draw(st.lists(st.sampled_from(("# comment", "")), max_size=1))
    return "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)


class TestParseFuzz:
    """`parse_trajectory` against `parse_trajectory_by_rows` on drawn files:
    the same columns bit for bit, or the same `ParseError` text. The example
    count comes from the `parse` settings profile; CI runs `parse-long`."""

    @pytest.mark.filterwarnings("error")
    @settings(profile("parse"))
    @given(text=trajectory_files())
    def test_matches_the_row_parser(self, text):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "traj.txt"
            path.write_bytes(text.encode("utf-8"))
            try:
                want = parse_trajectory_by_rows(str(path))
            except ParseError as e:
                with pytest.raises(ParseError) as got:
                    parse_trajectory(str(path))
                assert str(got.value) == str(e)
            else:
                assert_same_samples(parse_trajectory(str(path)), want)


class TestParseMemory:
    @staticmethod
    def traced_peak(fn, path: str) -> int:
        fn(path)  # modules imported, caches filled
        tracemalloc.start()
        try:
            fn(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_parse_peaks_within_a_few_arrays_above_the_lines(self, tmp_path):
        """Above what reading the lines takes, the parse holds at most 2.5
        times the (rows, 13) float64 array it converts them to. Short tokens
        keep the lines' own peak low, so the conversion's share shows."""
        path = write_rows(tmp_path, TestParseChunks.still_rows(5_000))
        above = self.traced_peak(parse_trajectory, path) - self.traced_peak(_content_lines, path)
        assert above <= 2.5 * (5_000 * 13 * 8), above


class TestTrajectoryType:
    def traj(self):
        return Trajectory.from_samples(
            [sample(i * 10.0, Vec3(0.5 * i, 1.0, -2.0), user_initiated=i % 2 == 0, fov_deg=90.0 + i) for i in range(4)]
        )

    def test_samples_are_plain_python(self):
        s = self.traj()[1]
        for value in (s.t_ms, s.position.x, s.forward.z, s.up.y, s.fov_deg, s.frame_time_ms):
            assert type(value) is float
        assert type(s.user_initiated) is bool

    def test_indexing_len_and_iteration_order(self):
        traj = self.traj()
        assert len(traj) == 4
        assert [s.t_ms for s in traj] == [0.0, 10.0, 20.0, 30.0]
        assert [sample_bits(s) for s in traj] == [sample_bits(traj[i]) for i in range(4)]
        assert sample_bits(traj[-1]) == sample_bits(traj[3])
        assert sample_bits(traj[-4]) == sample_bits(traj[0])
        assert traj[2] == traj[-2] and hash(traj[2]) == hash(traj[-2])
        for bad in (4, -5):
            with pytest.raises(IndexError):
                traj[bad]

    def test_columns_are_read_only_and_shared(self):
        traj = self.traj()
        with pytest.raises(ValueError):
            traj.pos[0, 0] = 1.0
        assert Trajectory.from_samples(traj) is traj
        assert len(Trajectory.from_samples([])) == 0

    def test_owns_its_columns(self):
        traj = self.traj()
        pos, fov = traj.pos.copy(), traj.fov.copy()
        owned = Trajectory(traj.t_ms, pos, traj.fwd, traj.up, fov, traj.user, traj.frame_ms)
        pos[0, 0], fov[1] = math.nan, 180.0  # after the check: the trajectory holds copies
        assert owned.pos is not pos and owned.fov is not fov
        assert [sample_bits(s) for s in owned] == [sample_bits(s) for s in traj]

    def test_invalid_rows_raise_the_sample_error(self):
        traj = self.traj()
        fov = traj.fov.copy()
        fov[2] = 180.0
        with pytest.raises(ValidationError, match=r"fov_deg must be in \(0, 180\), got 180\.0"):
            Trajectory(traj.t_ms, traj.pos, traj.fwd, traj.up, fov, traj.user, traj.frame_ms)
        with pytest.raises(ValidationError, match="column pos must hold 4 rows"):
            Trajectory(traj.t_ms, traj.pos[:3], traj.fwd, traj.up, traj.fov, traj.user, traj.frame_ms)


class TestResampleErrors:
    BIG = 1.5e308  # two positions this far apart overflow the interpolation

    @staticmethod
    def path(*rows):
        """Samples from (t_ms, x, forward z, up y) rows; forward and up stay on the z and y axes."""
        return [
            sample(t, Vec3(x, 0.0, 0.0), forward=Vec3(0.0, 0.0, fz), up=Vec3(0.0, uy, 0.0)) for t, x, fz, uy in rows
        ]

    @pytest.mark.parametrize(
        "rows",
        [
            ((0.0, 0.0, -1.0, 1.0), (100.0, 0.0, 1.0, 1.0)),  # forward flips
            ((0.0, 0.0, -1.0, 1.0), (100.0, 0.0, -1.0, -1.0)),  # up flips
            ((0.0, 0.0, -1.0, 1.0), (100.0, 0.0, 1.0, -1.0)),  # both flip in one tick: forward is named
            ((0.0, 0.0, -1.0, 1.0), (30.0, 0.0, -1.0, 1.0), (100.0, 0.0, -1.0, -1.0), (200.0, 0.0, 1.0, -1.0)),
            ((0.0, 0.0, -1.0, 1.0), (30.0, 0.0, -1.0, -1.0), (100.0, 0.0, 1.0, -1.0)),  # up flips first
            ((0.0, -BIG, -1.0, 1.0), (100.0, BIG, -1.0, 1.0), (200.0, BIG, 1.0, 1.0)),  # overflow, then a flip
            ((0.0, 0.0, -1.0, 1.0), (100.0, 0.0, 1.0, 1.0), (200.0, -BIG, 1.0, 1.0), (300.0, BIG, 1.0, 1.0)),
            ((0.0, -BIG, -1.0, 1.0), (100.0, BIG, 1.0, 1.0)),  # overflow and a flip in the same tick
        ],
    )
    def test_first_faulty_tick_wins(self, rows):
        traj = self.path(*rows)
        with pytest.raises(ValidationError) as want:
            resample_by_rows(traj, 40.0)
        with pytest.raises(ValidationError) as got:
            resample(traj, 40.0)
        assert str(got.value) == str(want.value)


class TestSlerpAndAngleColumns:
    """`simulate._slerp` and `comfort._angles_deg` map scalar `math` over
    columns; row by row they must equal the oracles' scalar code, bit for bit."""

    @staticmethod
    def rows(seed: int = 0, n: int = 12_000) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, b, s) with unit rows `a` and `b`: random pairs, then pairs turned
        by angles whose sines fall on both sides of the 1e-9 cut, opposite
        pairs and pairs whose dot product rounds past +-1; `s` holds 0 and 1."""
        rng = np.random.default_rng(seed)
        unit = lambda v: v / np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]  # noqa: E731
        a, b = unit(rng.standard_normal((n, 3))), unit(rng.standard_normal((n, 3)))
        # near-parallel and near-opposite pairs: b is a (or -a) turned by `angles`
        k = n // 4
        angles = rng.choice((0.0, 1e-12, 1e-10, 1e-9, 5e-9, 1e-8, 1.1e-8, 1.5e-8, 3e-8, 1e-7, 1e-5), k)
        side = unit(np.cross(a[:k], rng.standard_normal((k, 3))))
        turned = a[:k] * np.cos(angles)[:, None] + side * np.sin(angles)[:, None]
        b[:k] = unit(np.where((rng.random(k) < 0.5)[:, None], turned, -turned))
        # pairs whose dot product rounds past +-1 (a row of `a` a hair long)
        long = np.flatnonzero(dot_rows(a, a) > 1.0)[: n // 10]
        long = long[long >= k]
        b[long] = a[long] * np.where(rng.random(len(long)) < 0.5, 1.0, -1.0)[:, None]
        s = rng.random(n)
        s[rng.random(n) < 0.1] = 0.0
        s[rng.random(n) < 0.1] = 1.0
        return a, b, s

    @staticmethod
    def oracle(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> tuple[list, list[int]]:
        """Each row's `oracles._slerp` as a Vec3, and the rows it refuses as opposite."""
        out, opposite = [], []
        for k, (ak, bk, sk) in enumerate(zip(a.tolist(), b.tolist(), s.tolist())):
            left, right = SimpleNamespace(forward=Vec3(*ak), t_ms=0.0), SimpleNamespace(forward=Vec3(*bk), t_ms=1.0)
            try:
                out.append(oracles._slerp(left, right, "forward", sk))
            except ValidationError:
                out.append(None)
                opposite.append(k)
        return out, opposite

    def test_slerp_matches_the_scalar_oracle_row_by_row(self):
        a, b, s = self.rows()
        got, first = simulate._slerp(a, b, s)
        want, opposite = self.oracle(a, b, s)
        assert first == opposite[0]
        for k, w in enumerate(want):
            if w is not None:
                assert [c.hex() for c in got[k].tolist()] == [w.x.hex(), w.y.hex(), w.z.hex()], k

    def test_rows_cover_every_edge(self):
        a, b, s = self.rows()
        d = dot_rows(a, b)
        sin_omega = np.array([math.sin(math.acos(max(-1.0, min(1.0, x)))) for x in d.tolist()])
        for near in (d > 0.0, d < 0.0):
            assert ((sin_omega < 1e-9) & near).sum() > 50 and ((sin_omega < 1e-7) & (sin_omega >= 1e-9) & near).sum() > 50
        assert (d > 1.0).sum() > 20 and (d < -1.0).sum() > 20
        assert (s == 0.0).sum() > 500 and (s == 1.0).sum() > 500 and len(s) >= 10_000
        assert 0 < self.oracle(a, b, s)[1][0] < len(s) // 2

    def test_without_opposite_rows_reports_none(self):
        a, b, s = self.rows(seed=1)
        keep = np.array([w is not None for w in self.oracle(a, b, s)[0]])
        assert simulate._slerp(a[keep], b[keep], s[keep])[1] == keep.sum()

    def test_angles_match_the_scalar_oracle_row_by_row(self):
        a, b, _ = self.rows(seed=2)
        want = [oracles._angle_deg(Vec3(*ak), Vec3(*bk)).hex() for ak, bk in zip(a.tolist(), b.tolist())]
        assert [x.hex() for x in comfort._angles_deg(a, b).tolist()] == want


class TestAnalyzeOverflow:
    """Finite positions far enough apart overflow a difference; the row-wise
    rules then raise the `Vec3` error of the first vector that is not finite,
    naming the quantity and the `t_ms` of the two samples it spans."""

    @staticmethod
    def path(xs, ts=None):
        ts = ts or [100.0 * i for i in range(len(xs))]
        return [sample(t, Vec3(x, 0.0, 0.0)) for t, x in zip(ts, xs)]

    @pytest.mark.parametrize(
        "traj",
        [
            path([0.0, 1.5e308, -1.5e308, 0.0]),  # a gap overflows
            path([-1e308, 0.0, 1e308, 1e308]),  # gaps fit, the central difference does not
            path([0.0, 1e300, 1e300, 1e300], [0.0, 1e-6, 1.0, 2.0]),  # the velocity overflows
            path([0.0, 1e290, 0.0, 1e290, 0.0], [0.0, 1e-6, 2e-6, 3e-6, 4e-6]),  # accelerations of -1e308: no error
            path([0.0, 1e200, 2e200, 3e200]),  # finite vectors whose norms overflow: no error
            path([0.0, 1e302, 0.0, 0.0], [0.0, 1e-3, 2e-3, 3e-3]),  # the acceleration overflows
        ],
    )
    def test_matches_the_row_wise_rules(self, traj):
        try:
            want = finding_bits(analyze_by_rows(traj, cfg=SENSITIVE))
        except ValidationError as e:
            with pytest.raises(ValidationError) as got:
                analyze_trajectory(traj, cfg=SENSITIVE)
            assert str(got.value) == str(e)
            assert " between the samples at t_ms " in str(e)
        else:
            assert finding_bits(analyze_trajectory(traj, cfg=SENSITIVE)) == want
