"""The benchmark's span tracer, `perfbench/spans.py` loaded as it is, around
a replay of the golden fixture: every binding it wraps still exists, every
observer still fits its function, and selection and the ray kernel are seen
to run, so a refactor that breaks one fails here and not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import focusray.cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_binds_around_a_golden_replay(tmp_path):
    spans = load_spans()
    out = tmp_path / "out.txt"
    tracer = spans.install()
    try:
        code = focusray.cli.main(["run", "--scene", str(GOLDEN / "scene.txt"), "--trajectory",
                                  str(GOLDEN / "trajectory.txt"), "--config", str(GOLDEN / "config.txt"),
                                  "--out", str(out)])
    finally:
        tracer.restore()
    assert code == 0 and out.read_bytes() == (GOLDEN / "expected_output.txt").read_bytes()
    dump = tracer.dump()
    assert dump["absent"] == [] and dump["broken"] == []
    metrics = spans.layer_metrics(dump)
    assert metrics["attention.calls"][0] > 0 and metrics["rays.pairs_tested"][0] > 0
    assert metrics["simulate.ticks"][0] > 0 and metrics["io_formats.report_bytes"][0] == out.stat().st_size
