import os

import pytest

from isotropy import GridSpec, RngStream, SpatialDataset


def study_threads() -> int:
    env = os.environ.get("ISOTROPY_TEST_THREADS")
    if env:
        return int(env)
    return min(2, os.cpu_count() or 1)


@pytest.fixture
def grid_2x2():
    # values 1,2 on the bottom row and 3,5 on the top row of a unit grid
    locs = [(0, 0), (1, 0), (0, 1), (1, 1)]
    return SpatialDataset(locs, [1.0, 2.0, 3.0, 5.0], grid=GridSpec(2, 2))


@pytest.fixture
def random_field_18x12():
    from isotropy import ExponentialCovariance, GrfSampler

    g = GridSpec(18, 12)
    cov = ExponentialCovariance.from_effective_range(6.0)
    return GrfSampler(g.locations(), cov).draw(RngStream(424242), grid=g)


# ---------------------------------------------------------------------------
# Acceptance criterion reporting: collect one line per criterion and print
# them in the terminal summary so they are visible on every run.

_CRITERION_LINES: list[str] = []


def record_criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:>2} {status}  {description}"
    if detail:
        line += f"  [{detail}]"
    _CRITERION_LINES.append(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)
