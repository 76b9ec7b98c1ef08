"""focusray benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/` and the golden
fixture under `tests/data/golden/`). The inputs are generated from the seed
by `gen.py`; the program sees only the generated files. Every child process
gets `PYTHONPATH=<checkout>/src`, so nothing needs to be installed.

With `--trace 0` the end-to-end metrics are measured with nothing wrapped,
and scaled by the machine's speed during the run (`reference.py`). With
`--trace 1` the workload runs three times untraced and three times under the
span tracer (`spans.py`), and the per-layer metrics come from the fastest
traced run.
Each run also checks the program's output: every report's sha256 against
the digest pinned for the workload and seed (`digests.json`; for a seed
with no pin, reports must agree with each other), the live frame loop's
winner sequence the same way, and the golden fixture byte for byte. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. README.md explains each workload and
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import gen
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

CHILD_TIMEOUT_S = 120.0
MIN_ROUNDS = 3
REF_SAMPLES = 2
TRACE_REPEATS = 3

# workload -> `focusray run` flags, or None for the library frame loop only
WORKLOADS = {
    "replay_dense": [],
    "audit_long": ["--no-focus"],
    "live_wide": None,
}

END_TO_END_UNITS = {"run_wall_s": "s", "setup_s": "s", "frame_p50_ms": "ms", "frame_p99_ms": "ms",
                    "peak_rss_mb": "MB"}


@dataclass
class Launch:
    rc: int
    wall_s: float
    start_ns: int
    maxrss_mb: float
    stdout: str
    stderr: str


@dataclass
class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def launch(argv: list[str], workdir: Path) -> Launch:
    """Run a child to completion; wall time from launch to exit, and its own peak RSS."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall_ns = time.monotonic_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(
        rc=proc.returncode,
        wall_s=wall_ns / 1e9,
        start_ns=start,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_argv(inputs: Path, out: Path, flags: list[str]) -> list[str]:
    return ["run", "--scene", str(inputs / "scene.txt"), "--trajectory", str(inputs / "trajectory.txt"),
            "--config", str(inputs / "config.txt"), "--out", str(out), *flags]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def load_pins(workload: str, seed: int) -> dict[str, str]:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed), {})


class Gate:
    """Compares output digests with the pinned ones, or with each other when unpinned."""

    def __init__(self, tally: Tally, pins: dict[str, str]) -> None:
        self.tally = tally
        self.expected = dict(pins)
        self.pinned = bool(pins)

    def check(self, kind: str, digest: str | None, what: str) -> bool:
        expected = self.expected.setdefault(kind, digest) if digest is not None else None
        return self.tally.check(digest is not None and digest == expected, what)


def check_golden(tally: Tally, workdir: Path) -> None:
    out = workdir / "golden.txt"
    res = launch([sys.executable, "-m", "focusray.cli", *cli_argv(GOLDEN, out, [])], workdir)
    ok = res.rc == 0 and out.exists() and out.read_bytes() == (GOLDEN / "expected_output.txt").read_bytes()
    tally.check(ok, "golden fixture report differs from tests/data/golden/expected_output.txt")


def comfort_counts(report: Path) -> dict[str, int]:
    counts = {}
    with open(report, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("count_"):
                key, value = line[len("count_"):].split(" = ")
                counts[key] = int(value)
    return counts


def run_cli(workload: str, workdir: Path, gate: Gate, traced: bool = False) -> tuple[Launch, dict | None]:
    """One `focusray run` of the workload, checked; returns the launch and the trace dump."""
    flags = WORKLOADS[workload]
    report = workdir / "report.txt"
    report.unlink(missing_ok=True)
    dump_path = workdir / "trace.json"
    if traced:
        argv = [sys.executable, str(HERE / "worker.py"), "cli", str(dump_path), "--", *cli_argv(workdir, report, flags)]
    else:
        argv = [sys.executable, "-m", "focusray.cli", *cli_argv(workdir, report, flags)]
    res = launch(argv, workdir)
    digest = sha256_file(report) if res.rc == 0 and report.exists() else None
    gate.check("report", digest, f"{workload} report (exit {res.rc}) {res.stderr.strip()[-200:]}")
    if workload == "audit_long" and digest is not None:
        silent = [rule for rule in spans.COMFORT_RULES if comfort_counts(report).get(rule, 0) == 0]
        gate.tally.check(not silent, f"audit_long report has no findings for {silent}")
    dump = json.loads(dump_path.read_text(encoding="utf-8")) if traced and res.rc == 0 else None
    return res, dump


def run_live(workload: str, workdir: Path, gate: Gate, traced: bool = False) -> tuple[Launch, dict]:
    """One library frame-loop process, checked; returns the launch and its JSON result."""
    out = workdir / "live.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), "live", str(workdir), str(out)] + ["--trace"] * traced
    res = launch(argv, workdir)
    result = json.loads(out.read_text(encoding="utf-8")) if res.rc == 0 and out.exists() else {}
    gate.check("frames", result.get("winners_sha256"),
               f"{workload} frame loop winners (exit {res.rc}) {res.stderr.strip()[-200:]}")
    return res, result


def cli_ready_s(workdir: Path, tally: Tally) -> float | None:
    """Seconds from launch until `focusray run` could start its first tick.

    Inputs are parsed inside the run, so that is interpreter start plus
    `import focusray.cli`.
    """
    probe = "import time, focusray.cli; print(time.monotonic_ns())"
    res = launch([sys.executable, "-c", probe], workdir)
    ok = res.rc == 0 and res.stdout.strip().isdigit()
    if not tally.check(ok, f"set-up launch (exit {res.rc})"):
        return None
    return (int(res.stdout) - res.start_ns) / 1e9


def measure(workload: str, workdir: Path, seconds: float, gate: Gate) -> tuple[dict[str, float], dict]:
    """End-to-end metrics, untraced, from as many rounds as `seconds` allow (at least MIN_ROUNDS).

    A round is one frame-loop pass and, for the CLI workloads, one set-up
    launch and one `focusray run`, each after REF_SAMPLES samples of the
    reference workload. Times are medians over the rounds, scaled by the
    machine's speed during them (see reference.py). The frame percentiles
    are over the frames of each frame's median latency across passes.
    Returns the metrics and the raw figures behind them.
    """
    deadline = time.monotonic() + seconds
    is_cli = WORKLOADS[workload] is not None
    passes: list[list[int]] = []
    walls, rss, setup, refs = [], [], [], []
    while True:
        started = time.monotonic()
        refs += [reference.sample() for _ in range(REF_SAMPLES)]
        res, result = run_live(workload, workdir, gate)
        if result.get("latency_ns"):
            passes.append(result["latency_ns"])
        if is_cli:
            refs += [reference.sample() for _ in range(REF_SAMPLES)]
            ready = cli_ready_s(workdir, gate.tally)
            res, _ = run_cli(workload, workdir, gate)
        else:
            ready = (result["ready_ns"] - res.start_ns) / 1e9 if "ready_ns" in result else None
        if ready is not None:
            setup.append(ready)
        walls.append(res.wall_s)
        rss.append(res.maxrss_mb)
        if len(walls) >= MIN_ROUNDS and 2 * time.monotonic() - started > deadline:
            break  # another round like this one would overrun
    frames = sorted(statistics.median(f) / 1e6 for f in zip(*passes))
    raw = {
        "run_wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "frame_p50_ms": percentile(frames, 0.50) if frames else 0.0,
        "frame_p99_ms": percentile(frames, 0.99) if frames else 0.0,
    }
    ref_s = statistics.median(refs)
    scale = reference.scale(ref_s)
    print(f"perfbench: {workload} rounds={len(walls)} frames={len(frames)} reference_s={ref_s:.4f} "
          f"walls_s={[round(w, 3) for w in walls]} setup_s={[round(s, 4) for s in setup]}")
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["peak_rss_mb"] = statistics.median(rss)
    return metrics, {"raw": raw, "reference_s": ref_s, "scale": scale}


def c9_evals_per_s(workdir: Path, tally: Tally) -> float:
    res = launch([sys.executable, str(HERE / "worker.py"), "c9"], workdir)
    if not tally.check(res.rc == 0, f"criterion-9 micro-benchmark (exit {res.rc})"):
        return 0.0
    return float(res.stdout)


def measure_traced(workload: str, workdir: Path, gate: Gate) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the fastest of a few traced runs; the tracing overhead is
    the fastest traced minus the fastest untraced run."""
    run = run_live if WORKLOADS[workload] is None else run_cli
    plain = min((run(workload, workdir, gate)[0] for _ in range(TRACE_REPEATS)), key=lambda r: r.wall_s)
    traced, out = min((run(workload, workdir, gate, traced=True) for _ in range(TRACE_REPEATS)),
                      key=lambda r: r[0].wall_s)
    dump = out.get("trace") if run is run_live else out
    if dump is None:
        dump = {"total_ns": {}, "child_ns": {}, "calls": {}, "counters": {}, "absent": [], "broken": []}
    if dump["absent"] or dump["broken"]:
        print(f"perfbench: spans absent={dump['absent']} observers broken={dump['broken']}")
    metrics = spans.layer_metrics(dump)
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    metrics["attention.c9_evals_per_s"] = (c9_evals_per_s(workdir, gate.tally), "1/s")
    return metrics


def metadata() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    sources = sorted(SRC.rglob("*.py"))
    tree = hashlib.sha256()
    for path in sources:
        tree.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": tree.hexdigest(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: gen.Size = gen.FULL,
        pins: dict[str, str] | None = None) -> dict:
    """Generate, measure and check one workload; returns the result object."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        gen.generate(workload, seed, workdir, size)
        problems = gen.self_check(workload, workdir, size)
        for problem in problems:
            print(f"perfbench: workload {workload} seed {seed}: {problem}", file=sys.stderr)
        tally = Tally()
        tally.check(not problems, f"{workload} seed {seed} does not exercise what it claims")
        if pins is None:  # digests are pinned for the full sizes only
            pins = load_pins(workload, seed) if size == gen.FULL else {}
        gate = Gate(tally, pins)
        check_golden(tally, workdir)
        scaling = {}
        if trace:
            metrics = measure_traced(workload, workdir, gate)
        else:
            values, scaling = measure(workload, workdir, seconds, gate)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        print("perfbench: meta " + json.dumps({
            **metadata(), **scaling, "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
            "digests_pinned": gate.pinned, "digests": gate.expected,
            "error_rate": len(tally.failures) / tally.attempted,
        }, sort_keys=True))
        return {
            "correct": not tally.failures,
            "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="focusray benchmark: one workload, one seed")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "focusray" / "cli.py", GOLDEN / "expected_output.txt") if not p.exists()]
    if missing:
        print(f"perfbench: run from a focusray source checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    # One CPU for the runner and every child: the reference then measures
    # the CPU the workload runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
