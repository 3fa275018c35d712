"""Shared plumbing: collect acceptance verdict lines for the run summary,
and spy on the worker pools a test forks."""

import pytest

_criterion_lines: dict[int, str] = {}


@pytest.fixture
def record_criterion():
    def _record(result) -> None:
        _criterion_lines[result.number] = result.line()
    return _record


def pytest_terminal_summary(terminalreporter):
    if not _criterion_lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_criterion_lines):
        terminalreporter.write_line(_criterion_lines[number])


@pytest.fixture
def pool_spy(monkeypatch):
    """The process count of every worker pool forked while a test runs."""
    import concurrent.futures

    real = concurrent.futures.ProcessPoolExecutor
    pools = []

    def spy(procs, **kwargs):
        pools.append(procs)
        return real(procs, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return pools
