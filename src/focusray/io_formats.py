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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from .comfort import MIN_SAMPLES, ComfortReport, ComfortRule, TrajectorySample
from .config import CONFIG_FIELD_NAMES, INT_FIELDS, SimConfig
from .errors import GeometryError, OutputError, ParseError, ValidationError
from .geometry import SceneObject, Vec3
from .ssq import Profile, ProtocolReport, SsqResponse

TRAJECTORY_HEADER = (
    "t_ms", "px", "py", "pz", "fx", "fy", "fz",
    "ux", "uy", "uz", "fov_deg", "user_initiated", "frame_time_ms",
)

TIMELINE_HEADER = "t_ms,selected_object_id,importance,rm,d,v,focal_distance_m,in_transition"
FINDINGS_HEADER = "rule,start_ms,end_ms,heuristic_severity,detail"

PROFILE_KEYS = ("name", "age", "gender", "academic_background")


@dataclass(frozen=True, slots=True)
class TimelineRow:
    """One tick of the scenario timeline; focus fields are None when the tick
    had no selection (or focus was disabled)."""

    t_ms: float
    selected_object_id: int | None
    importance: float | None
    rm: float | None
    d: float | None
    v: float | None
    focal_distance_m: float | None
    in_transition: bool | None


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
        text = line.split("#", 1)[0].strip()
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


def parse_scene(path: str) -> list[SceneObject]:
    """Scene file: `id cx cy cz radius value label` per line; label optional."""
    objects: list[SceneObject] = []
    seen: set[int] = set()
    for lineno, text in _content_lines(path):
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
    return objects


def _unit_or_parse_error(path: str, lineno: int, v: Vec3, name: str) -> Vec3:
    try:
        return v.normalized()
    except GeometryError:
        raise ParseError(path, lineno, f"{name} vector must be non-zero") from None


def parse_trajectory(path: str) -> list[TrajectorySample]:
    """Trajectory file: the fixed 13-column header, then one row per sample."""
    lines = _content_lines(path)
    if not lines:
        raise ParseError(path, 0, "missing trajectory header")
    header_lineno, header_text = lines[0]
    if tuple(header_text.split()) != TRAJECTORY_HEADER:
        raise ParseError(path, header_lineno, f"expected header '{' '.join(TRAJECTORY_HEADER)}'")

    samples: list[TrajectorySample] = []
    for lineno, text in lines[1:]:
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
            # the eye baseline runs along forward x up, so the two must not be parallel
            _unit_or_parse_error(path, lineno, forward.cross(up), "right (forward x up)")
            sample = TrajectorySample(
                t_ms=vals[0],
                position=Vec3(vals[1], vals[2], vals[3]),
                forward=forward,
                up=up,
                fov_deg=vals[10],
                user_initiated=tokens[11] == "1",
                frame_time_ms=frame_time,
            )
        except ValidationError as e:
            raise ParseError(path, lineno, str(e)) from None
        if samples and not sample.t_ms > samples[-1].t_ms:
            raise ParseError(path, lineno, "t_ms must strictly increase")
        samples.append(sample)
    if len(samples) < MIN_SAMPLES:
        raise ParseError(path, 0, f"trajectory needs at least {MIN_SAMPLES} samples, got {len(samples)}")
    return samples


def _split_key_value(path: str, lineno: int, text: str) -> tuple[str, str]:
    if "=" not in text:
        raise ParseError(path, lineno, "expected 'key = value'")
    key, value = text.split("=", 1)
    key = key.strip()
    value = value.strip()
    if not key:
        raise ParseError(path, lineno, "expected 'key = value'")
    return key, value


def parse_config(path: str) -> SimConfig:
    """Config file: flat `key = value` pairs; unknown keys are errors."""
    values: dict[str, object] = {}
    for lineno, text in _content_lines(path):
        key, value_text = _split_key_value(path, lineno, text)
        if key not in CONFIG_FIELD_NAMES:
            raise ParseError(path, lineno, f"unknown config key {key!r}")
        if key in values:
            raise ParseError(path, lineno, f"duplicate config key {key!r}")
        if key in INT_FIELDS:
            values[key] = _parse_int(path, lineno, value_text, key)
        else:
            values[key] = _parse_float(path, lineno, value_text, key)
    return SimConfig(**values)


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
    for lineno, text in _content_lines(path):
        key, value_text = _split_key_value(path, lineno, text)
        if key not in PROFILE_KEYS:
            raise ParseError(path, lineno, f"unknown profile key {key!r}")
        if key in values:
            raise ParseError(path, lineno, f"duplicate profile key {key!r}")
        values[key] = value_text
        line_of[key] = lineno
    for key in PROFILE_KEYS:
        if key not in values:
            raise ParseError(path, 0, f"missing required profile key {key!r}")
    age = _parse_int(path, line_of["age"], values["age"], "age")
    try:
        return Profile(
            name=values["name"],
            age=age,
            gender=values["gender"],
            academic_background=values["academic_background"],
        )
    except ValidationError as e:
        raise ParseError(path, line_of["age"], str(e)) from None


def format_real(x: float) -> str:
    """Fixed 6-decimal rendering; negative zero collapses to zero."""
    if x == 0.0:
        x = 0.0
    return f"{x:.6f}"


def _format_score(x: float) -> str:
    """Questionnaire scores render at 2 decimals."""
    if x == 0.0:
        x = 0.0
    return f"{x:.2f}"


def render_config_section(cfg: SimConfig) -> list[str]:
    lines = ["[CONFIG]"]
    for f in fields(SimConfig):
        value = getattr(cfg, f.name)
        rendered = str(value) if f.name in INT_FIELDS else format_real(value)
        lines.append(f"{f.name} = {rendered}")
    return lines


def _cell(x: float | None) -> str:
    return "" if x is None else format_real(x)


def render_timeline_section(rows: Sequence[TimelineRow]) -> list[str]:
    lines = ["[TIMELINE]", TIMELINE_HEADER]
    for row in rows:
        obj = "" if row.selected_object_id is None else str(row.selected_object_id)
        flag = "" if row.in_transition is None else ("true" if row.in_transition else "false")
        lines.append(
            ",".join(
                (
                    format_real(row.t_ms),
                    obj,
                    _cell(row.importance),
                    _cell(row.rm),
                    _cell(row.d),
                    _cell(row.v),
                    _cell(row.focal_distance_m),
                    flag,
                )
            )
        )
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
    lines = ["[SSQ]"]
    lines.append(f"name = {report.profile.name}")
    lines.append(f"age = {report.profile.age}")
    lines.append(f"gender = {report.profile.gender}")
    lines.append(f"academic_background = {report.profile.academic_background}")
    for tag, score in (("q1", report.q1), ("q2", report.q2), ("q3", report.q3)):
        for cls in ("nausea", "oculomotor", "disorientation", "total"):
            lines.append(f"{tag}_{cls} = {_format_score(getattr(score, cls))}")
    for tag, delta in (("delta_q2", report.delta_q2), ("delta_q3", report.delta_q3)):
        for cls in ("nausea", "oculomotor", "disorientation", "total"):
            lines.append(f"{tag}_{cls} = {_format_score(getattr(delta, cls))}")
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
