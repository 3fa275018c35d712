"""The jump laws' closed forms against the atom search they replaced, the
index search, tail probe levels, and track classification."""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phantomdf.distributions import (
    DistFn,
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
    first_index_where,
    last_quarter,
    probe_levels,
)
from phantomdf.processes import MixtureSpec, _mixture_count_leq, _mixture_weight_leq


def finite_law(levels):
    """jump_sequence on the given increasing levels, with equal masses."""
    levels = np.asarray(levels, dtype=float)
    return jump_sequence(levels, 1.0 - np.arange(1.0, levels.size + 1) / levels.size)


class TestFiniteJumpLaw:
    def test_array_values(self):
        law = finite_law([1.0, 2.0, 5.0])
        np.testing.assert_array_equal(law.tail([0.5, 1.0, 4.0, 5.0]),
                                      [1.0, 1.0 - 1.0 / 3.0, 1.0 - 2.0 / 3.0, 0.0])
        assert law.right_end == 5.0

    def test_past_the_last_atom_is_empty(self):
        law = finite_law([1.0, 2.0])
        assert law.tail(1e300) == law.tail(math.inf) == 0.0

    def test_decreasing_locations_rejected(self):
        with pytest.raises(InvalidArgumentError):
            jump_sequence([2.0, 1.0], [0.5, 0.0])

    def test_empty_atom_list_rejected(self):
        with pytest.raises(InvalidArgumentError):
            jump_sequence([], [])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(InvalidArgumentError):
            jump_sequence([1.0, 2.0, 3.0], [0.5, 0.0])

    def test_mass_left_beyond_the_last_atom_rejected(self):
        with pytest.raises(InvalidArgumentError):
            jump_sequence([1.0, 2.0], [0.5, 0.25])

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
           st.floats(min_value=-60, max_value=60))
    def test_tail_matches_brute_force(self, raw, x):
        levels = np.unique(np.asarray(raw, dtype=float))
        assert finite_law(levels).tail(x) == 1.0 - np.sum(levels <= x) / levels.size

    def test_shifted(self):
        law = shifted(geometric(0.3), 10.0)
        np.testing.assert_array_equal(law.tail([10.5, 11.0, 15.0, 15.5]),
                                      [1.0, 0.7, 0.7 ** 5, 0.7 ** 5])
        assert law.quantile(0.5) == 12.0
        assert law.right_end == math.inf


# The searches that first_index_where replaced, restated over a location
# callable (a level sequence with no stored prefix and an infinite
# supremum), as references for the shared search; and the atom rules the
# jump laws were built on, as references for their closed forms.

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


class _Atoms(NamedTuple):
    """The atom rule the jump laws were built on: atom i (from 1) sits at
    ``location(i)``, increasing in i, with tail mass ``tail_after(i)``
    beyond it, and ``count`` atoms, or infinitely many for None."""
    location: Callable[[int], float]
    tail_after: Callable[[int], float]
    count: int | None = None

    def tail(self, i: int) -> float:
        if i <= 0:
            return 1.0
        if self.count is not None and i > self.count:
            i = self.count
        return float(self.tail_after(int(i)))


def _geometric_atoms(p: float) -> _Atoms:
    q = 1.0 - p
    return _Atoms(location=float, tail_after=lambda n: q ** n)


def _mixture_component_atoms(k: int) -> _Atoms:
    base = k * k
    return _Atoms(location=lambda j: float(base + j - 1),
                  tail_after=lambda j: 1.0 / (base + j - 1))


def _finite_atoms(levels, tails) -> _Atoms:
    levels, tails = np.asarray(levels, dtype=float), np.asarray(tails, dtype=float)
    return _Atoms(location=lambda i: float(levels[i - 1]) if i <= levels.size else math.inf,
                  tail_after=lambda i: float(tails[min(int(i), tails.size) - 1]),
                  count=levels.size)


def _old_tail(atoms, x: float) -> float:
    """The tail after the last atom at or below x, that search capped at
    HUGE_INDEX atoms."""
    i = _old_count_leq(atoms.location, x)
    return atoms.tail(i if atoms.count is None else min(i, atoms.count))


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

    def test_mixture_count_leq_matches_old_search(self):
        for x in XS:
            assert _mixture_count_leq(x) == _old_count_leq(float, x), x

    def test_mixture_quantile_matches_old_search(self):
        for n in (1, 2, 10, 1000, 10**6):
            for p in PROBS:
                _same_outcome(lambda *a: exact_max_quantile(MixtureSpec(), *a),
                              _old_mixture_quantile, n, p)


# Tail points: below the first atom, on atoms and between them, 2**52 to
# 2**53, past 2**53 (where doubles are the even integers and up) up to the
# 2**62 atoms at which the old search stopped counting; 1e300 and inf are
# in test_tail_past_the_search_cap.
TAIL_XS = [*(x for x in XS if x < 1e300), 8.0, 8.9, 9.0, 9.5, 10.0, 999999.5, 1e6, 1e6 + 0.5, 1e6 + 1.0,
           2.0**52, 2.0**52 + 0.5, 2.0**52 + 1.0, 2.0**53 - 1.0, 2.0**53 + 2.0,
           2.0**62 - 1024.0, *np.random.default_rng(5).uniform(-3.0, 60.0, 200),
           *np.exp2(np.random.default_rng(6).uniform(0.0, 62.0, 200)).round()]
QUANTILE_PS = [5e-324, 2.0**-53, *PROBS, *np.random.default_rng(7).random(300)]
FINITE = ([1.0, 2.0, 3.0, 5.0, 8.0], [0.5, 0.3, 0.1, 0.05, 0.0])
FINITE_37 = (np.arange(1.0, 38.0), 1.0 - np.arange(1.0, 38.0) / 37.0)
# the last tail is not quite 0, so only the count ends the quantile search
FINITE_LAST_TAIL_POSITIVE = ([1.0, 2.0, 3.0], [0.5, 0.25, 5e-16])

JUMP_LAWS = [
    *(pytest.param(geometric(p), _geometric_atoms(p), id=f"geometric({p:g})")
      for p in (0.3, 0.5, 1e-6, 0.999)),
    *(pytest.param(mixture_component(k), _mixture_component_atoms(k), id=f"mixture({k})")
      for k in (1, 3, 1000)),
    *(pytest.param(jump_sequence(*law), _finite_atoms(*law), id=name)
      for name, law in [("finite-5", FINITE), ("finite-37", FINITE_37),
                        ("finite-last-tail-positive", FINITE_LAST_TAIL_POSITIVE)]),
]


class TestJumpLawClosedForms:
    """Each jump law's numpy tail and quantile against the atom search they
    replaced, bit for bit."""

    @pytest.mark.parametrize("law, atoms", JUMP_LAWS)
    def test_tail_matches_the_atom_search(self, law, atoms):
        xs = np.asarray(TAIL_XS)
        got = law.tail(xs)
        assert got.shape == xs.shape
        np.testing.assert_array_equal(got, [_old_tail(atoms, x) for x in xs])

    def test_tail_past_the_search_cap(self):
        """The search counted at most 2**62 atoms, so past 2**62 it read the
        tail after atom 2**62: q**(2**62) for a geometric law, 0 but for
        p below about 1.6e-16, and 1/(2**62 + k*k - 1) for a mixture
        component.  The closed forms read q**floor(x) and 1/floor(x), both
        0 at inf."""
        xs = np.array([1e300, math.inf])
        for p in (0.3, 0.5, 1e-6, 0.999):
            np.testing.assert_array_equal(geometric(p).tail(xs), [0.0, 0.0])
            assert _old_tail(_geometric_atoms(p), math.inf) == 0.0
        assert _old_tail(_geometric_atoms(2.0**-53), math.inf) == (1.0 - 2.0**-53) ** 2**62 > 0
        np.testing.assert_array_equal(geometric(2.0**-53).tail(xs), [0.0, 0.0])
        for k in (1, 3, 1000):
            np.testing.assert_array_equal(mixture_component(k).tail(xs), [1e-300, 0.0])
            assert _old_tail(_mixture_component_atoms(k), math.inf) == 1.0 / (2**62 + k * k - 1)
        for law in (FINITE, FINITE_37):
            np.testing.assert_array_equal(jump_sequence(*law).tail(xs), [0.0, 0.0])

    @pytest.mark.parametrize("law, atoms", JUMP_LAWS)
    def test_quantile_matches_the_atom_search(self, law, atoms):
        # F at the atoms and the doubles on either side: where geometric's
        # log-ratio guess lands one atom off
        first = atoms.location(1)
        xs = first + np.concatenate([np.arange(300.0), np.arange(300.0, 3e7, 3e7 / 500).round()])
        at = 1.0 - law.tail(xs)
        ps = np.concatenate([QUANTILE_PS, at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)])
        ps = ps[(ps > 0.0) & (ps < 1.0)]
        got = law.quantile(ps)
        assert got.shape == ps.shape
        np.testing.assert_array_equal(got, [_old_jump_quantile(atoms, p) for p in ps])
        assert law.quantile(0.5) == _old_jump_quantile(atoms, 0.5)

    @pytest.mark.parametrize("law, atoms", JUMP_LAWS)
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_quantile_outside_the_unit_interval_raises(self, law, atoms, p):
        with pytest.raises(InvalidArgumentError):
            law.quantile(p)
        with pytest.raises(InvalidArgumentError):
            law.quantile(np.array([0.5, p]))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, 2.0**-54])
    def test_geometric_parameter_outside_the_unit_interval_raises(self, p):
        # 1 - 2**-54 rounds to 1: that tail would read 1 everywhere
        with pytest.raises(InvalidArgumentError):
            geometric(p)


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


def test_classify_ratio_track_one_is_the_last_quarter_within_tol():
    track = 1.0 + 1.0 / np.arange(1, 101)
    assert classify_ratio_track(track, 0.02) == "one"
    assert classify_ratio_track(track, 1e-4) != "one"
    assert classify_ratio_track(np.array([]), 0.5) != "one"


@pytest.mark.parametrize("track,expected", [
    (1.0 + 0.5 ** np.arange(40), "one"),
    (2.0 ** -np.arange(40.0), "zero"),
    (2.0 ** np.arange(40.0), "inf"),
    (np.tile([0.5, 1.5], 20), "divergent"),
])
def test_classify_ratio_track(track, expected):
    assert classify_ratio_track(track, tol=0.02) == expected
