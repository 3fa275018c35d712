"""Acceptance gate: one test per shipped criterion, fixed seeds throughout.

Each test runs the corresponding checker from phantomdf.acceptance and
asserts its verdict; the verdict lines are echoed in the terminal
summary.  Tolerances live in the checkers, not here.
"""

import pytest

from phantomdf.acceptance import run_criterion


@pytest.fixture
def check(record_criterion):
    def _check(number: int) -> None:
        # two workers run a replica set of several chunks (criterion 8's
        # 1,000 Metropolis rows are two) on both cores of a small runner; a
        # set of one chunk runs in this process, and results do not depend
        # on the worker count
        result = run_criterion(number, workers=2)
        record_criterion(result)
        print(result.line())
        assert result.passed, result.line()
    return _check


def test_criterion_01_phantom_is_exact_at_driving_levels(check):
    check(1)


def test_criterion_02_mixture_closed_form_and_monte_carlo(check):
    check(2)


def test_criterion_03_mixture_extremal_index_zero(check):
    check(3)


def test_criterion_04_superheavy_tail_identity(check):
    check(4)


def test_criterion_05_moving_max_extremal_index_half(check):
    check(5)


def test_criterion_06_factorization_error_bounds(check):
    check(6)


def test_criterion_07_regenerative_lindley_pipeline(check):
    check(7)


def test_criterion_08_random_walk_sampler_pipeline(check):
    check(8)


def test_criterion_09_rate_threshold_closed_forms(check):
    check(9)


def test_criterion_10_worker_count_determinism(check):
    check(10)
