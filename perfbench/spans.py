"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces module-level bindings of focusray functions with timing
wrappers, so nothing under `src/` knows it is being measured. Each span
accumulates total time, time spent in child spans (self time is the
difference) and a call count; an optional observer turns a call's arguments
and result into counters. A binding that no longer exists, or an observer
that no longer fits its function, is recorded rather than raised, so a
refactor of the program degrades the traced numbers instead of the run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable

Observer = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.total_ns: dict[str, int] = defaultdict(int)
        self.child_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._open: list[list[int]] = []  # child time accumulated by each open span
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        def traced(*args, **kwargs):
            children = [0]
            self._open.append(children)
            start = time.perf_counter_ns()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self._open.pop()
                self.total_ns[name] += elapsed
                self.child_ns[name] += children[0]
                self.calls[name] += 1
                if self._open:
                    self._open[-1][0] += elapsed
            if observe is not None:
                obs_start = time.perf_counter_ns()
                try:
                    observe(self, args, kwargs, return_value)
                except Exception:  # an observer that no longer fits must not fail the run
                    self.broken.add(name)
                # observer time is tracing cost, not the caller's own work
                if self._open:
                    self._open[-1][0] += time.perf_counter_ns() - obs_start
            return return_value

        traced.__wrapped__ = fn
        return traced

    def patch(self, name: str, bindings: tuple[str, ...], observe: Observer | None = None) -> None:
        """Wrap each `module:attr` binding under span `name`; missing ones are noted."""
        found = False
        for binding in bindings:
            module_name, attr = binding.split(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, observe))
            found = True
        if not found:
            self.absent.append(name)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def dump(self) -> dict:
        return {
            "total_ns": dict(self.total_ns),
            "child_ns": dict(self.child_ns),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "absent": self.absent,
            "broken": sorted(self.broken),
        }


# --- observers: positional/keyword access follows the current signatures ---

def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _observe_nearest_hit(tr: Tracer, args: tuple, kwargs: dict, nearest) -> None:
    rays = len(nearest)
    objects = len(_arg(args, kwargs, 2, "objects"))
    tr.counters["rays.cast"] += rays
    tr.counters["rays.hit"] += int((nearest >= 0).sum())
    tr.counters["rays.pairs_tested"] += rays * objects


def _observe_select_focus(tr: Tracer, args: tuple, kwargs: dict, result) -> None:
    winner, candidates = result
    tr.counters["attention.scene_objects"] += len(_arg(args, kwargs, 0, "scene"))
    tr.counters["attention.candidates"] += len(candidates)
    tr.counters["attention.no_winner_calls"] += winner is None


def _observe_step(tr: Tracer, args: tuple, kwargs: dict, new_state) -> None:
    before = _arg(args, kwargs, 0, "state").current_target
    after = new_state.current_target
    tr.counters["dynamics.retargets"] += after is not None and after != before
    tr.counters["dynamics.persistence_expiries"] += before is not None and after is None


def _observe_resample(tr: Tracer, args: tuple, kwargs: dict, ticks) -> None:
    tr.counters["simulate.ticks"] += len(ticks)


def _observe_parse_trajectory(tr: Tracer, args: tuple, kwargs: dict, samples) -> None:
    tr.counters["io_formats.trajectory_rows"] += len(samples)


def _observe_write(tr: Tracer, args: tuple, kwargs: dict, _result) -> None:
    tr.counters["io_formats.report_bytes"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


def _observe_analyze(tr: Tracer, args: tuple, kwargs: dict, report) -> None:
    for rule, count in report.counts.items():
        tr.counters[f"comfort.findings.{rule.name}"] += count


# span name -> (bindings, observer). The library loop of the live workloads
# calls the package-level exports, `focusray run` the bindings in `simulate`.
SPANS: dict[str, tuple[tuple[str, ...], Observer | None]] = {
    "cli.main": (("focusray.cli:main",), None),
    "simulate.run_scenario": (("focusray.cli:run_scenario",), None),
    "io_formats.parse_scene": (("focusray.simulate:parse_scene", "focusray:parse_scene"), None),
    "io_formats.parse_trajectory": (
        ("focusray.simulate:parse_trajectory", "focusray:parse_trajectory"), _observe_parse_trajectory),
    "io_formats.parse_config": (("focusray.simulate:parse_config", "focusray:parse_config"), None),
    "simulate.resample": (("focusray.simulate:resample",), _observe_resample),
    "simulate.rig_from_pose": (("focusray.simulate:rig_from_pose", "focusray:rig_from_pose"), None),
    "geometry.derive_mid_camera": (
        ("focusray.simulate:derive_mid_camera", "focusray:derive_mid_camera"), None),
    "attention.select_focus": (("focusray.simulate:select_focus", "focusray:select_focus"), _observe_select_focus),
    "rays.ray_bundle": (("focusray.attention:ray_bundle",), None),
    "rays.rm_scores": (("focusray.attention:rm_scores",), None),
    "rays.nearest_hit": (("focusray.rays:nearest_hit_indices",), _observe_nearest_hit),
    "dynamics.apply_selection": (("focusray.simulate:apply_selection",), None),
    "dynamics.step": (("focusray.simulate:step", "focusray:step"), _observe_step),
    "comfort.analyze": (("focusray.simulate:analyze_trajectory",), _observe_analyze),
    "comfort.detect_acceleration_episodes": (("focusray.comfort:detect_acceleration_episodes",), None),
    "comfort.detect_frame_drops": (("focusray.comfort:detect_frame_drops",), None),
    "io_formats.render": (
        ("focusray.simulate:render_config_section", "focusray.simulate:render_timeline_section",
         "focusray.simulate:render_comfort_section", "focusray.simulate:render_document"),
        None,
    ),
    "io_formats.write": (("focusray.simulate:write_document",), _observe_write),
}

COMFORT_RULES = ("AccelerationRamp", "UncontrolledCamera", "FovManipulation",
                 "FrameDrop", "SessionDuration", "ContinuousLocomotion")


def install() -> Tracer:
    tracer = Tracer()
    for name, (bindings, observe) in SPANS.items():
        tracer.patch(name, bindings, observe)
    return tracer


def layer_metrics(dump: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from a tracer dump; absent spans read 0."""
    total, child, calls, counters = dump["total_ns"], dump["child_ns"], dump["calls"], dump["counters"]

    def secs(name: str) -> float:
        return total.get(name, 0) / 1e9

    def self_secs(name: str) -> float:
        return (total.get(name, 0) - child.get(name, 0)) / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sf_calls = calls.get("attention.select_focus", 0)
    out: dict[str, tuple[float, str]] = {
        "rays.nearest_hit_s": (secs("rays.nearest_hit"), "s"),
        "rays.pairs_tested": (counters.get("rays.pairs_tested", 0.0), "count"),
        "rays.hit_fraction": (ratio(counters.get("rays.hit", 0.0), counters.get("rays.cast", 0.0)), "ratio"),
        "rays.rm_scores.self_s": (self_secs("rays.rm_scores"), "s"),
        "rays.ray_bundle_s": (secs("rays.ray_bundle"), "s"),
        "attention.select_focus_s": (secs("attention.select_focus"), "s"),
        "attention.select_focus.self_s": (self_secs("attention.select_focus"), "s"),
        "attention.calls": (float(sf_calls), "count"),
        "attention.candidates_per_call": (ratio(counters.get("attention.candidates", 0.0), sf_calls), "count"),
        "attention.roi_keep_ratio": (
            ratio(counters.get("attention.candidates", 0.0), counters.get("attention.scene_objects", 0.0)), "ratio"),
        "attention.no_winner_calls": (counters.get("attention.no_winner_calls", 0.0), "count"),
        "simulate.rig_from_pose_s": (secs("simulate.rig_from_pose"), "s"),
        "geometry.derive_mid_camera_s": (secs("geometry.derive_mid_camera"), "s"),
        "simulate.run_scenario.self_s": (self_secs("simulate.run_scenario"), "s"),
        "simulate.resample_s": (secs("simulate.resample"), "s"),
        "simulate.ticks": (counters.get("simulate.ticks", 0.0), "count"),
        "io_formats.parse_trajectory_s": (secs("io_formats.parse_trajectory"), "s"),
        "io_formats.trajectory_rows": (counters.get("io_formats.trajectory_rows", 0.0), "count"),
        "io_formats.parse_scene_s": (secs("io_formats.parse_scene"), "s"),
        "io_formats.render_s": (secs("io_formats.render"), "s"),
        "io_formats.write_s": (secs("io_formats.write"), "s"),
        "io_formats.report_bytes": (counters.get("io_formats.report_bytes", 0.0), "bytes"),
        "comfort.analyze_s": (secs("comfort.analyze"), "s"),
        "comfort.detect_acceleration_episodes_s": (secs("comfort.detect_acceleration_episodes"), "s"),
        "comfort.detect_frame_drops_s": (secs("comfort.detect_frame_drops"), "s"),
        "dynamics.step_s": (secs("dynamics.step"), "s"),
        "dynamics.apply_selection_s": (secs("dynamics.apply_selection"), "s"),
        "dynamics.retargets": (counters.get("dynamics.retargets", 0.0), "count"),
        "dynamics.persistence_expiries": (counters.get("dynamics.persistence_expiries", 0.0), "count"),
        "cli.main.self_s": (self_secs("cli.main"), "s"),
    }
    for rule in COMFORT_RULES:
        out[f"comfort.findings.{rule}"] = (counters.get(f"comfort.findings.{rule}", 0.0), "count")
    return out
