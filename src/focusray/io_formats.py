"""File parsing and output-document rendering for the CLI.

Input formats are plain UTF-8 text: scenes are one object per line,
trajectories a header plus rows, configs and profiles `key = value` pairs,
questionnaire responses 16 whitespace-separated integers. `#` starts a
comment anywhere on a line. Parse failures carry the file and line number.

The output document is a single UTF-8 file with named sections, LF line
endings, and fixed-width decimal formatting, so identical inputs always
produce byte-identical bytes.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .comfort import MIN_SAMPLES, ComfortReport, ComfortRule, Trajectory, TrajectorySample, invalid_sample_rows
from .config import CONFIG_FIELD_NAMES, INT_FIELDS, SimConfig
from .errors import GeometryError, OutputError, ParseError, ValidationError
from .geometry import MAX_COORD_M, PreparedScene, SceneObject, Vec3, norm_rows, view_frame_rows
from .ssq import Profile, ProtocolReport, SsqResponse

TRAJECTORY_HEADER = (
    "t_ms", "px", "py", "pz", "fx", "fy", "fz",
    "ux", "uy", "uz", "fov_deg", "user_initiated", "frame_time_ms",
)

TIMELINE_HEADER = "t_ms,selected_object_id,importance,rm,d,v,focal_distance_m,in_transition"
FINDINGS_HEADER = "rule,start_ms,end_ms,heuristic_severity,detail"

SCENE_ROW = np.dtype([("id", np.int64), ("numbers", np.float64, (5,))])  # a scene line's first six fields

PROFILE_KEYS = ("name", "age", "gender", "academic_background")


def _content_lines(path: str) -> list[tuple[int, str]]:
    """Non-empty lines with comments stripped, as (line number, text) pairs."""
    data = Path(path).read_bytes()
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # number lines as splitlines() below does, with "x" standing in for the bad byte
        lineno = len((data[: e.start].decode("utf-8") + "x").splitlines())
        raise ParseError(path, lineno, f"invalid UTF-8 byte 0x{data[e.start]:02x}") from None
    out: list[tuple[int, str]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.partition("#")[0].strip()
        if text:
            out.append((lineno, text))
    return out


def _parse_float(path: str, lineno: int, token: str, name: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(path, lineno, f"{name} must be a number, got {token!r}") from None


def _parse_int(path: str, lineno: int, token: str, name: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, lineno, f"{name} must be an integer, got {token!r}") from None


def parse_scene(path: str) -> PreparedScene:
    """Scene file: `id cx cy cz radius value label` per line; label optional.
    The objects come back in file order, prepared for selection.

    The ids (int64) and the five numbers (float64) convert in one
    `np.loadtxt` over the comment-stripped lines and are screened as
    columns. When numpy refuses the body, it is empty, or a screen flags a
    row, each row is checked in order, so the error names the same line and
    fault as a row-by-row parse.
    """
    lines = _content_lines(path)
    texts = [text for _, text in lines]
    try:  # numpy reads a token as `int` or `float` does, or refuses it (also `1_0` and other scripts' digits)
        with warnings.catch_warnings():  # a numpy that still reads `2.7` as the id 2 only warns; raised, it refuses
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(texts, SCENE_ROW, comments=None, usecols=range(6), ndmin=1) if texts else None
    except ValueError:
        rows = None
    if rows is not None:
        by_id = rows["id"].argsort()
        ids, numbers = rows["id"][by_id], rows["numbers"][by_id].T
        # the row checks as screens: unique ids, finite coordinates and radius within MAX_COORD_M,
        # radius > 0, value in [0, 1]
        if ((ids[1:] != ids[:-1]).all() and (np.abs(numbers[:4]) <= MAX_COORD_M).all() and (numbers[3] > 0.0).all()
                and ((numbers[4] >= 0.0) & (numbers[4] <= 1.0)).all()):
            scene = PreparedScene.__new__(PreparedScene)
            scene._sweep(ids, numbers, by_id, tuple([" ".join(t[6:]) for t in map(str.split, texts)]))
            return scene
    # refused, empty (where numpy would only warn) or flagged: each row is checked in order
    objects: list[SceneObject] = []
    seen: set[int] = set()
    for lineno, text in lines:
        tokens = text.split()
        if len(tokens) < 6:
            raise ParseError(path, lineno, "expected 'id cx cy cz radius value [label]'")
        obj_id = _parse_int(path, lineno, tokens[0], "object id")
        cx = _parse_float(path, lineno, tokens[1], "center x")
        cy = _parse_float(path, lineno, tokens[2], "center y")
        cz = _parse_float(path, lineno, tokens[3], "center z")
        radius = _parse_float(path, lineno, tokens[4], "radius")
        value = _parse_float(path, lineno, tokens[5], "value")
        label = " ".join(tokens[6:])
        if obj_id in seen:
            raise ParseError(path, lineno, f"duplicate object id {obj_id}")
        seen.add(obj_id)
        try:
            objects.append(SceneObject(id=obj_id, center=Vec3(cx, cy, cz), radius=radius, value=value, label=label))
        except ValidationError as e:
            raise ParseError(path, lineno, str(e)) from None
        if not max(abs(cx), abs(cy), abs(cz), radius) <= MAX_COORD_M:
            raise ParseError(path, lineno, f"object {obj_id}: center and radius must be within {MAX_COORD_M:g} m")
    return PreparedScene(objects)


def _unit_or_parse_error(path: str, lineno: int, v: Vec3, name: str) -> Vec3:
    try:
        return v.normalized()
    except GeometryError:
        raise ParseError(path, lineno, f"{name} vector must be non-zero") from None


def _check_trajectory_row(path: str, lineno: int, text: str, prev_t_ms: float | None) -> list[float]:
    """Every check of one trajectory row, in order; raises the row's first fault,
    else returns its 13 numbers as `float` reads them."""
    tokens = text.split()
    if len(tokens) != len(TRAJECTORY_HEADER):
        raise ParseError(path, lineno, f"expected {len(TRAJECTORY_HEADER)} fields, got {len(tokens)}")
    vals = [_parse_float(path, lineno, tok, name) for tok, name in zip(tokens[:11], TRAJECTORY_HEADER)]
    if tokens[11] not in ("0", "1"):
        raise ParseError(path, lineno, f"user_initiated must be 0 or 1, got {tokens[11]!r}")
    frame_time = _parse_float(path, lineno, tokens[12], "frame_time_ms")
    try:
        forward = _unit_or_parse_error(path, lineno, Vec3(vals[4], vals[5], vals[6]), "forward")
        up = _unit_or_parse_error(path, lineno, Vec3(vals[7], vals[8], vals[9]), "up")
        # the eyes lie along right = forward x up, which must not vanish, and a rig rebuilds up as right x forward
        right = _unit_or_parse_error(path, lineno, forward.cross(up), "right (forward x up)")
        if not (rebuilt := right.cross(forward)).is_unit():
            raise ParseError(path, lineno, f"forward too near up: the rebuilt up has length {rebuilt.norm()!r}")
        TrajectorySample(vals[0], Vec3(vals[1], vals[2], vals[3]), forward, up, vals[10], tokens[11] == "1", frame_time)
    except ValidationError as e:
        raise ParseError(path, lineno, str(e)) from None
    if not max(map(abs, vals[1:4])) <= MAX_COORD_M:
        raise ParseError(path, lineno, f"position must be within {MAX_COORD_M:g} m on each axis")
    if prev_t_ms is not None and not vals[0] > prev_t_ms:
        raise ParseError(path, lineno, "t_ms must strictly increase")
    return [*vals, float(tokens[11]), frame_time]


def parse_trajectory(path: str) -> Trajectory:
    """Trajectory file: the fixed 13-column header, then one row per sample.

    The rows convert in one `np.loadtxt` over their comment-stripped lines
    (numpy reads a token as `float` does, or refuses it; its converter takes
    only `0` and `1` as the user flag) and are checked as columns. When numpy
    refuses the body, or it holds rows of another width or none, each row is
    checked and converted on its own; else each flagged row is. So the error
    names the same line and fault as a row-by-row parse: the field count and
    numbers, the user flag, forward, up, right, the up rebuilt from it, the
    position, the sample invariants (the frame time's bound among them), the
    position's magnitude, then time order.
    """
    lines = _content_lines(path)
    if not lines:
        raise ParseError(path, 0, "missing trajectory header")
    header_lineno, header_text = lines[0]
    if tuple(header_text.split()) != TRAJECTORY_HEADER:
        raise ParseError(path, header_lineno, f"expected header '{' '.join(TRAJECTORY_HEADER)}'")

    rows = lines[1:]
    flags = {11: {"0": 0.0, "1": 1.0}.__getitem__}  # any other user flag refuses the body
    try:  # numpy refuses each token `float` refuses, and also `1_0` and other scripts' digits, which `float` reads
        vals = np.loadtxt([text for _, text in rows], comments=None, ndmin=2, converters=flags) if rows else None
    except ValueError:
        vals = None
    # refused, empty (where numpy would only warn) or every row of another width: each row is checked in order
    if vals is None or vals.shape[1] != len(TRAJECTORY_HEADER):
        checked: list[list[float]] = []
        for lineno, text in rows:
            checked.append(_check_trajectory_row(path, lineno, text, checked[-1][0] if checked else None))
        vals = np.array(checked).reshape(-1, len(TRAJECTORY_HEADER))
    t_ms, pos, fov, frame_ms = vals[:, 0], vals[:, 1:4], vals[:, 10], vals[:, 12]
    with np.errstate(all="ignore"):  # a non-finite row normalizes to nan, which the sample check flags
        fwd_norm, up_norm = norm_rows(vals[:, 4:7]), norm_rows(vals[:, 7:10])
        fwd, up = vals[:, 4:7] / fwd_norm[:, None], vals[:, 7:10] / up_norm[:, None]
        bad = ~(fwd_norm >= 1e-12) | ~(up_norm >= 1e-12) | view_frame_rows(fwd, up)[2]
    bad |= invalid_sample_rows(t_ms, pos, fwd, up, fov, frame_ms)
    bad |= ~(np.abs(pos) <= MAX_COORD_M).all(axis=1)
    bad[1:] |= ~(t_ms[1:] > t_ms[:-1])
    # the screens flag every faulty row, and each flagged row is checked in order
    for i in np.flatnonzero(bad).tolist():
        _check_trajectory_row(path, *rows[i], float(t_ms[i - 1]) if i else None)
    if len(vals) < MIN_SAMPLES:
        raise ParseError(path, 0, f"trajectory needs at least {MIN_SAMPLES} samples, got {len(vals)}")
    return Trajectory(t_ms, pos, fwd, up, fov, vals[:, 11] == 1.0, frame_ms)


def _key_values(path: str, kind: str, keys: Sequence[str]) -> Iterator[tuple[int, str, str]]:
    """The `key = value` lines of a config or profile file as (line, key,
    value text), in file order; an unknown or repeated key fails at its line."""
    seen: set[str] = set()
    for lineno, text in _content_lines(path):
        key, value = (part.strip() for part in text.split("=", 1)) if "=" in text else ("", "")
        if not key:
            raise ParseError(path, lineno, "expected 'key = value'")
        if key not in keys:
            raise ParseError(path, lineno, f"unknown {kind} key {key!r}")
        if key in seen:
            raise ParseError(path, lineno, f"duplicate {kind} key {key!r}")
        seen.add(key)
        yield lineno, key, value


def parse_config(path: str) -> SimConfig:
    """Config file: flat `key = value` pairs; unknown keys are errors, and
    values that break an invariant a `ValidationError` naming the file."""
    values = {
        key: (_parse_int if key in INT_FIELDS else _parse_float)(path, lineno, text, key)
        for lineno, key, text in _key_values(path, "config", CONFIG_FIELD_NAMES)
    }
    try:
        return SimConfig(**values)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


def parse_ssq_response(path: str) -> SsqResponse:
    """Questionnaire file: 16 whitespace-separated integer ratings, 0..3."""
    rated: list[int] = []
    last_lineno = 0
    for lineno, text in _content_lines(path):
        last_lineno = lineno
        for token in text.split():
            position = len(rated) + 1
            if position > 16:
                raise ParseError(path, lineno, f"expected 16 ratings, found extra rating {token!r}")
            rating = _parse_int(path, lineno, token, f"symptom {position}")
            if not 0 <= rating <= 3:
                raise ParseError(path, lineno, f"symptom {position}: rating must be in 0..3, got {rating}")
            rated.append(rating)
    if len(rated) < 16:
        raise ParseError(path, last_lineno, f"missing symptom {len(rated) + 1} (found {len(rated)} of 16 ratings)")
    return SsqResponse(ratings=tuple(rated))


def parse_profile(path: str) -> Profile:
    """Profile file: `key = value` pairs for name, age, gender, academic_background."""
    values: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, key, text in _key_values(path, "profile", PROFILE_KEYS):
        values[key], line_of[key] = text, lineno
    for key in PROFILE_KEYS:
        if key not in values:
            raise ParseError(path, 0, f"missing required profile key {key!r}")
    age = _parse_int(path, line_of["age"], values["age"], "age")
    try:
        return Profile(**{**values, "age": age})
    except ValidationError as e:
        raise ParseError(path, line_of["age"], str(e)) from None


def format_real(x: float, places: int = 6) -> str:
    """Fixed-point rendering, 6 decimals unless given; negative zero collapses to zero."""
    if x == 0.0:
        x = 0.0
    return f"{x:.{places}f}"


def render_config_section(cfg: SimConfig) -> list[str]:
    lines = ["[CONFIG]"]
    for name in SimConfig.__match_args__:
        value = getattr(cfg, name)
        rendered = str(value) if name in INT_FIELDS else format_real(value)
        lines.append(f"{name} = {rendered}")
    return lines


def render_timeline_section(t_ms: np.ndarray, focus: Sequence[Sequence] | None = None) -> list[str]:
    """One row per tick time. `focus` holds seven columns with an entry per
    tick: the winner's object id (None where no object won), its importance,
    rm, d and v (not read where there is no winner), the focal distance and
    the transition flag. Without it every focus cell is empty. A column of
    another length raises `ValidationError`.

    Each row is one `%` template. Reals render as `format_real` does: adding
    0.0 turns -0.0 into 0.0 and leaves every other float as it is."""
    lines = ["[TIMELINE]", TIMELINE_HEADER]
    times = (np.asarray(t_ms, np.float64) + 0.0).tolist()
    if focus is None:
        return lines + ["%.6f,,,,,,," % t for t in times]
    lengths = [len(c) for c in focus]
    if lengths != [len(times)] * 7:
        raise ValidationError(f"the timeline has {len(times)} tick times but focus columns of {lengths} rows")
    ids, *reals, moving = focus
    reals = [(np.asarray(c, np.float64) + 0.0).tolist() for c in reals]
    for t, oid, imp, rm, d, v, focal, m in zip(times, ids, *reals, moving):
        flag = "true" if m else "false"
        if oid is None:
            lines.append("%.6f,,,,,,%.6f,%s" % (t, focal, flag))
        else:
            lines.append("%.6f,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%s" % (t, oid, imp, rm, d, v, focal, flag))
    return lines


def _sanitize_detail(detail: str) -> str:
    return detail.replace(",", ";").replace("\n", " ")


def render_comfort_section(report: ComfortReport) -> list[str]:
    lines = ["[COMFORT]"]
    lines.append(f"duration_ms = {format_real(report.duration_ms)}")
    lines.append(f"findings = {len(report.findings)}")
    for rule in ComfortRule:
        lines.append(f"count_{rule.value} = {report.counts.get(rule, 0)}")
    lines.append(FINDINGS_HEADER)
    for f in report.findings:
        lines.append(
            ",".join(
                (
                    f.rule.value,
                    format_real(f.start_ms),
                    format_real(f.end_ms),
                    format_real(f.severity),
                    _sanitize_detail(f.detail),
                )
            )
        )
    return lines


def render_ssq_section(report: ProtocolReport) -> list[str]:
    lines = ["[SSQ]"] + [f"{key} = {getattr(report.profile, key)}" for key in PROFILE_KEYS]
    for tag in ("q1", "q2", "q3", "delta_q2", "delta_q3"):
        for cls in ("nausea", "oculomotor", "disorientation", "total"):
            lines.append(f"{tag}_{cls} = {format_real(getattr(getattr(report, tag), cls), 2)}")
    return lines


def render_document(sections: Sequence[Sequence[str]]) -> str:
    """Join sections with one blank line between them; LF endings throughout."""
    parts: list[str] = []
    for i, section in enumerate(sections):
        if i:
            parts.append("")
        parts.extend(section)
    return "\n".join(parts) + "\n"


def write_document(path: str, text: str) -> None:
    """Write `text` to `path` through a temp file beside the file it names and
    a rename, so a failed write never leaves a truncated or partial document.
    A symlink is written through, as `open` would; a path naming a device or
    pipe (`/dev/stdout`) is written directly, since it cannot be replaced."""
    special = os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path))
    target = path if special else os.path.realpath(path)
    tmp = target if special else f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        if tmp != target:
            os.replace(tmp, target)
    except OSError as e:
        if tmp != target and os.path.lexists(tmp):
            os.remove(tmp)
        raise OutputError(f"cannot write output {path}: {e.strerror or e}") from None
