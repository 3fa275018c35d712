"""Atom locations, the index search, tail probe levels, and track
classification."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phantomdf.distributions import (
    AtomRule,
    DistFn,
    _jump_quantile,
    exponential,
    geometric,
    jump_sequence,
    mixture_component,
    shifted,
)
from phantomdf.errors import InvalidArgumentError
from phantomdf.estimate import exact_max_quantile
from phantomdf.grids import (
    HUGE_INDEX,
    PROBE_DEPTH,
    classify_ratio_track,
    converges_to,
    first_index_where,
    last_quarter,
    probe_levels,
)
from phantomdf.processes import MixtureSpec, _mixture_count_leq, _mixture_weight_leq


def finite_law(levels):
    """jump_sequence on the given increasing levels, with equal masses."""
    levels = np.asarray(levels, dtype=float)
    return jump_sequence(levels, 1.0 - np.arange(1.0, levels.size + 1) / levels.size)


class TestAtomLocations:
    def test_array_values(self):
        law = finite_law([1.0, 2.0, 5.0])
        assert law.atoms.location(1) == 1.0
        assert law.atoms.location(3) == 5.0
        assert law.atoms.count == 3
        assert law.right_end == 5.0

    def test_past_the_last_atom_is_infinite(self):
        atoms = finite_law([1.0, 2.0]).atoms
        assert atoms.location(3) == math.inf
        assert atoms.index_leq(1e300) == atoms.index_leq(math.inf) == 2

    def test_decreasing_locations_rejected(self):
        with pytest.raises(InvalidArgumentError):
            jump_sequence([2.0, 1.0], [0.5, 0.0])

    def test_empty_atom_list_rejected(self):
        with pytest.raises(InvalidArgumentError):
            jump_sequence([], [])

    def test_below_the_first_atom_counts_zero(self):
        law = geometric(0.3)
        assert law.atoms.index_leq(0.5) == 0
        assert law.jump_at(0.5) == 0.0
        assert law.tail(0.5) == 1.0

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
           st.floats(min_value=-60, max_value=60))
    def test_count_leq_matches_brute_force(self, raw, x):
        levels = np.unique(np.asarray(raw, dtype=float))
        assert finite_law(levels).atoms.index_leq(x) == int(np.sum(levels <= x))

    def test_count_leq_integer_locations(self):
        atoms = geometric(0.3).atoms  # atom i sits at i
        assert atoms.index_leq(0.5) == 0
        assert atoms.index_leq(1.0) == 1
        assert atoms.index_leq(1234567.9) == 1234567

    def test_shifted(self):
        law = shifted(geometric(0.3), 10.0)
        assert law.atoms.location(1) == 11.0
        assert law.atoms.location(5) == 15.0
        assert law.atoms.index_leq(15.0) == 5
        assert law.right_end == math.inf


# The searches that first_index_where replaced, restated over a location
# callable (a level sequence with no stored prefix and an infinite
# supremum), as references for the shared search.

def _old_count_leq(location, x: float) -> int:
    x = float(x)
    if x >= math.inf:
        return HUGE_INDEX
    lo, hi = 0, 1
    while location(hi) <= x:
        lo = hi
        hi *= 2
        if hi > HUGE_INDEX:
            return HUGE_INDEX
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if location(mid) <= x:
            lo = mid
        else:
            hi = mid
    return lo


def _old_jump_quantile(atoms, p: float) -> float:
    if not (0.0 < p < 1.0):
        raise InvalidArgumentError("quantile argument must lie in (0, 1)")
    target = 1.0 - p
    if atoms.tail(1) <= target:
        return atoms.location(1)
    lo, hi = 1, 2
    while atoms.tail(hi) > target:
        lo = hi
        hi *= 2
        if atoms.count is not None and hi >= atoms.count:
            hi = atoms.count
            break
        if hi > HUGE_INDEX:
            raise InvalidArgumentError("quantile beyond representable atom index")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if atoms.tail(mid) > target:
            lo = mid
        else:
            hi = mid
    return atoms.location(hi)


def _old_mixture_quantile(n: int, p: float) -> float:
    def cdf_at(j: int) -> float:
        return math.exp(n * math.log1p(-1.0 / j)) * _mixture_weight_leq(j)
    lo, hi = 1, 2
    while cdf_at(hi) < p:
        lo = hi
        hi *= 2
        if hi > HUGE_INDEX:
            raise InvalidArgumentError("quantile index overflow")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cdf_at(mid) < p:
            lo = mid
        else:
            hi = mid
    return float(hi)


def _same_outcome(new, old, *args):
    """Both calls return the same value, or both raise InvalidArgumentError."""
    try:
        want = old(*args)
    except InvalidArgumentError:
        with pytest.raises(InvalidArgumentError):
            new(*args)
        return
    assert new(*args) == want


XS = [-2.0, 0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-40, 1.0 - 2.0**-53, 1.0, 2.0, 2.5,
      7.0, 1234567.9, 2.0**53, 2.0**61, 3.0 * 2.0**60, 2.0**62, 1e300, math.inf]
PROBS = [1e-9, 0.01, 0.2, 0.5, 0.7, 0.9, 0.99, 0.999999, 1.0 - 1e-12, 1.0 - 2.0**-53]


class TestFirstIndexWhere:
    def test_smallest_index_above_start(self):
        assert first_index_where(lambda k: k >= 37, 0) == 37
        assert first_index_where(lambda k: k >= 37, 36) == 37
        assert first_index_where(lambda k: k >= 37, 40) == 41
        assert first_index_where(lambda k: k >= 2**61 + 3, 0) == 2**61 + 3

    def test_gives_up_past_huge_index(self):
        probes = []
        assert first_index_where(lambda k: probes.append(k) or False, 0) is None
        assert max(probes) == 2**62 == HUGE_INDEX
        probes.clear()
        assert first_index_where(lambda k: probes.append(k) or False, 2) is None
        assert max(probes) == 3 * 2**60 <= HUGE_INDEX  # the next doubling passes it

    @pytest.mark.parametrize("atoms", [
        geometric(0.3).atoms,
        jump_sequence(math.log1p, lambda i: 0.5 ** i).atoms,
        mixture_component(3).atoms,
        shifted(geometric(0.3), -0.5).atoms,
        finite_law([0.5, 2.0, 7.0]).atoms,
    ], ids=["identity", "log", "mixture-component", "shifted", "finite"])
    def test_count_leq_matches_old_search(self, atoms):
        for x in XS:
            want = _old_count_leq(atoms.location, x)
            if atoms.count is not None:
                want = min(want, atoms.count)
            assert atoms.index_leq(x) == want, x

    def test_mixture_count_leq_matches_old_search(self):
        for x in XS:
            assert _mixture_count_leq(x) == _old_count_leq(float, x), x

    @pytest.mark.parametrize("atoms", [
        geometric(0.3).atoms,
        geometric(1e-6).atoms,
        mixture_component(3).atoms,
        jump_sequence([1.0, 2.0, 3.0, 5.0, 8.0], [0.5, 0.3, 0.1, 0.05, 0.0]).atoms,
        jump_sequence(np.arange(1.0, 38.0), 1.0 - np.arange(1.0, 38.0) / 37.0).atoms,
        AtomRule(location=float, tail_after=lambda i: 0.5),
        # the last tail is not quite 0, so only the count stops the search
        AtomRule(location=lambda i: (1.0, 2.0, 3.0)[i - 1],
                 tail_after=lambda i: (0.5, 0.25, 5e-16)[i - 1], count=3),
    ], ids=["geometric", "geometric-slow", "mixture", "finite-5",
            "finite-37", "never-below-half", "finite-last-tail-positive"])
    def test_jump_quantile_matches_old_search(self, atoms):
        for p in PROBS:
            _same_outcome(_jump_quantile, _old_jump_quantile, atoms, p)

    def test_mixture_quantile_matches_old_search(self):
        for n in (1, 2, 10, 1000, 10**6):
            for p in PROBS:
                _same_outcome(lambda *a: exact_max_quantile(MixtureSpec(), *a),
                              _old_mixture_quantile, n, p)


class TestProbePolicy:
    def test_probabilities_are_tail_geometric(self):
        # exp(1) has tail exp(-x): the j-th probe level has tail 2**-j
        xs = probe_levels(exponential(1.0))
        np.testing.assert_allclose(np.exp(-xs), 2.0 ** -np.arange(1.0, PROBE_DEPTH + 1))

    def test_levels_strictly_ascending(self):
        xs = probe_levels(exponential(1.0))
        assert np.all(np.diff(xs) > 0)

    def test_bad_parameters_rejected(self):
        # a law whose quantiles are all infinite leaves no probe level
        law = DistFn(name="no-finite-quantile", tail=lambda x: np.ones(np.shape(x)),
                     quantile=lambda p: np.full(np.shape(p), np.inf), right_end=math.inf)
        with pytest.raises(InvalidArgumentError):
            probe_levels(law)


def test_last_quarter_size():
    assert last_quarter(np.arange(8.0)).tolist() == [6.0, 7.0]
    assert last_quarter(np.array([3.0])).tolist() == [3.0]


def test_converges_to():
    track = 1.0 + 1.0 / np.arange(1, 101)
    assert converges_to(track, 1.0, 0.02)
    assert not converges_to(track, 1.0, 1e-4)
    assert not converges_to(np.array([]), 1.0, 0.5)


@pytest.mark.parametrize("track,expected", [
    (1.0 + 0.5 ** np.arange(40), "one"),
    (2.0 ** -np.arange(40.0), "zero"),
    (2.0 ** np.arange(40.0), "inf"),
    (np.tile([0.5, 1.5], 20), "divergent"),
])
def test_classify_ratio_track(track, expected):
    assert classify_ratio_track(track, tol=0.02) == expected
