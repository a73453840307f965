import pytest

from zxel import diagram, normalform, rewrite, semantics

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def _cold_plans():
    """Each test starts with no kept plan and no kept walk, so a test that
    swaps the walk plans with its walk instead of running a plan, or
    taking a walk, that an earlier test left behind, and a test that
    watches simplify sees it plan instead of replaying a kept plan."""
    semantics._plan.cache_clear()
    normalform._plan.cache_clear()
    rewrite._plan.cache_clear()
    diagram._WALKS.clear()


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
