"""Tests of the benchmark itself, at the small `QUICK` sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload, tmp_path):
    first = _files(gen.generate(workload, 3, tmp_path / "a", gen.QUICK))
    again = _files(gen.generate(workload, 3, tmp_path / "b", gen.QUICK))
    other = _files(gen.generate(workload, 4, tmp_path / "c", gen.QUICK))
    assert first == again
    assert set(first) == {"scene.txt", "trajectory.txt", "config.txt", "frames.txt"}
    assert first["trajectory.txt"] != other["trajectory.txt"]
    assert first["scene.txt"] != other["scene.txt"]


@pytest.mark.parametrize("workload", ["replay_dense", "live_wide"])
def test_full_size_workloads_load_the_roi_as_claimed(workload, tmp_path):
    assert gen.self_check(workload, gen.generate(workload, 0, tmp_path)) == []


def test_self_check_rejects_forward_parallel_to_up(tmp_path):
    workdir = gen.generate("live_wide", 0, tmp_path, gen.QUICK)
    lines = (workdir / "trajectory.txt").read_text().splitlines()
    cols = lines[5].split()
    cols[4:10] = ["0", "1", "0", "0", "1", "0"]
    lines[5] = " ".join(cols)
    (workdir / "trajectory.txt").write_text("\n".join(lines) + "\n")
    assert any("forward" in p for p in gen.self_check("live_wide", workdir, gen.QUICK))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_quick_run_reports_every_metric_with_its_unit(workload, trace):
    result = run.run(workload, seed=5, seconds=1.0, trace=trace, size=gen.QUICK)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "audit_long":
        assert all(values[f"comfort.findings.{rule}"] > 0 for rule in spans.COMFORT_RULES)
        assert values["simulate.ticks"] > 0 and values["attention.calls"] == 0
    else:
        assert values["attention.calls"] > 0 and values["rays.pairs_tested"] > 0
        assert 0.0 < values["rays.hit_fraction"] <= 1.0


def _pins(workload: str, seed: int, workdir: Path) -> dict[str, str]:
    gen.generate(workload, seed, workdir, gen.QUICK)
    gate = run.Gate(run.Tally(), {})
    run.run_cli(workload, workdir, gate)
    run.run_live(workload, workdir, gate)
    return gate.expected


def test_corrupted_report_raises_the_error_rate(tmp_path, monkeypatch):
    pins = _pins("replay_dense", 6, tmp_path)
    clean = run.run("replay_dense", seed=6, seconds=1.0, trace=False, size=gen.QUICK, pins=pins)
    assert clean["failed"] == 0

    real_launch = run.launch

    def corrupting_launch(argv, workdir):
        res = real_launch(argv, workdir)
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        if out is not None and out.name == "report.txt" and out.exists():
            data = bytearray(out.read_bytes())
            data[-2] ^= 1
            out.write_bytes(bytes(data))
        return res

    monkeypatch.setattr(run, "launch", corrupting_launch)
    result = run.run("replay_dense", seed=6, seconds=1.0, trace=False, size=gen.QUICK, pins=pins)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_unpinned_reports_must_agree_with_each_other():
    tally = run.Tally()
    gate = run.Gate(tally, {})
    assert gate.check("report", "aa", "first")
    assert not gate.check("report", "bb", "second")
    assert not gate.check("report", None, "no report")
    assert tally.attempted == 3 and len(tally.failures) == 2


def test_absent_binding_is_reported_not_raised():
    tracer = spans.Tracer()
    tracer.patch("gone.function", ("focusray.attention:no_such_function", "no_such_module:f"))
    assert tracer.absent == ["gone.function"]
    metrics = spans.layer_metrics(tracer.dump())
    assert {m["name"] for m in BENCHMARK["per_layer"]} - set(metrics) == {
        "trace.overhead_s", "attention.c9_evals_per_s"}


def test_self_time_excludes_child_spans_and_broken_observers_are_noted():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(5)], observe=lambda *a: 1 / 0)
    outer()
    dump = tracer.dump()
    assert dump["calls"] == {"inner": 5, "outer": 1}
    assert dump["child_ns"]["outer"] == dump["total_ns"]["inner"]
    assert 0 < dump["total_ns"]["outer"] - dump["child_ns"]["outer"] < dump["total_ns"]["outer"]
    assert dump["broken"] == ["outer"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "replay_dense", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
