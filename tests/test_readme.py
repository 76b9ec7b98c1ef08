"""The README's Python examples run as written."""

import re
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_every_example_is_found():
    # the quick start, the chunk of rows and the trajectory columns
    assert len(BLOCKS) == 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_example_runs(index, tmp_path, monkeypatch):
    """Each fenced `python` block runs on its own, in a directory holding the
    golden trajectory as `traj.txt`, the file the examples read."""
    shutil.copy(ROOT / "tests" / "data" / "golden" / "trajectory.txt", tmp_path / "traj.txt")
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md example {index + 1}", "exec"), {"__name__": "readme"})
