from contextlib import contextmanager

import pytest
from hypothesis import Phase, settings

# The long profiles, which CI loads by name, do not shrink: each shrink step
# replays a whole scenario, so a failing example would take minutes to
# minimise. CI reports it as found; a rerun under the Tier-1 profile shrinks it.
_NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)
# Example counts of the differential replay fuzz (tests/test_replay_fuzz.py):
# within a few seconds of Tier-1, and the longer run
settings.register_profile("replay-fuzz", max_examples=50, deadline=None)
settings.register_profile("replay-fuzz-long", max_examples=400, deadline=None, phases=_NO_SHRINK)
# Example counts of the ray kernel's property tests: the reach cut through
# select_focus's chunks and its rows form against the oracle
# (tests/test_attention.py), and nearest_hit_indices' frames and
# camera-frame forms (tests/test_rays.py); CI runs the longer one in a step
# of its own
settings.register_profile("kernel", max_examples=25, deadline=None)
settings.register_profile("kernel-long", max_examples=300, deadline=None, phases=_NO_SHRINK)
# Example counts of the trajectory and scene parse fuzzes against the row oracles
# (tests/test_trajectory.py's TestParseFuzz, tests/test_formats.py's
# TestSceneParseFuzz); CI runs the longer one in a step of its own for each
settings.register_profile("parse", max_examples=300, deadline=None)
settings.register_profile("parse-long", max_examples=3000, deadline=None, phases=_NO_SHRINK)
# Example counts of the dynamics scan against `step` (tests/test_dynamics.py's
# TestScanAgainstStep); CI runs the longer one in a step of its own
settings.register_profile("dynamics-scan", max_examples=200, deadline=None)
settings.register_profile("dynamics-scan-long", max_examples=3000, deadline=None, phases=_NO_SHRINK)

_ACCEPTANCE_LINES: list[tuple[int, str]] = []


@pytest.fixture
def criterion():
    """Record a PASS/FAIL summary line for one acceptance criterion."""

    @contextmanager
    def _criterion(number: int, title: str):
        try:
            yield
        except BaseException:
            _ACCEPTANCE_LINES.append((number, f"FAIL  criterion {number}: {title}"))
            raise
        else:
            _ACCEPTANCE_LINES.append((number, f"PASS  criterion {number}: {title}"))

    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
