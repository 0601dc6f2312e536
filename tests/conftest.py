"""Shared test plumbing: collect acceptance-criterion verdict lines and echo
them in the terminal summary so they are visible without -s, and run every
hypothesis test on a derandomized profile with no example database, so a
property failure reproduces on every run and machine."""

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def criterion_report():
    def _report(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)
        print(line)
    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
