"""Level sequences, tail probe levels, and track classification."""

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
)
from phantomdf.errors import InvalidArgumentError
from phantomdf.estimate import exact_max_quantile
from phantomdf.grids import (
    HUGE_INDEX,
    PROBE_DEPTH,
    LevelSequence,
    classify_ratio_track,
    converges_to,
    first_index_where,
    last_quarter,
    probe_levels,
)
from phantomdf.processes import MixtureSpec, _mixture_weight_leq


class TestLevelSequence:
    def test_prefix_values(self):
        s = LevelSequence(prefix=[1.0, 1.0, 2.0, 5.0])
        assert s.value(1) == 1.0
        assert s.value(3) == 2.0
        assert s.prefix.size == 4
        assert s.sup == 5.0

    def test_beyond_prefix_fails_without_rule(self):
        s = LevelSequence(prefix=[1.0, 2.0])
        with pytest.raises(InvalidArgumentError):
            s.value(3)

    def test_rule_extends_prefix(self):
        s = LevelSequence(prefix=[0.5, 2.0], rule=float)
        assert s.value(2) == 2.0
        assert s.value(7) == 7.0
        assert math.isinf(s.sup)
        assert s.prefix.size == 2  # the rule serves every index past the prefix

    def test_decreasing_prefix_rejected(self):
        with pytest.raises(InvalidArgumentError):
            LevelSequence(prefix=[2.0, 1.0])

    def test_empty_without_rule_rejected(self):
        with pytest.raises(InvalidArgumentError):
            LevelSequence(prefix=[])

    def test_index_below_one_rejected(self):
        s = LevelSequence(rule=float)
        with pytest.raises(InvalidArgumentError):
            s.value(0)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
           st.floats(min_value=-60, max_value=60))
    def test_count_leq_matches_brute_force(self, raw, x):
        prefix = np.sort(np.asarray(raw, dtype=float))
        s = LevelSequence(prefix=prefix)
        assert s.count_leq(x) == int(np.sum(prefix <= x))

    def test_count_leq_rule_region(self):
        s = LevelSequence(rule=float)  # v_n = n
        assert s.count_leq(0.5) == 0
        assert s.count_leq(1.0) == 1
        assert s.count_leq(1234567.9) == 1234567

    def test_count_leq_bounded_rule_saturates(self):
        # v_n = 1 - 1/n climbs to sup = 1; at or past the sup the count is "infinite".
        s = LevelSequence(rule=lambda n: 1.0 - 1.0 / n, sup=1.0)
        assert s.count_leq(1.0) == HUGE_INDEX
        assert s.count_leq(0.75) == 4
        assert s.count_leq(0.0) == 1

    def test_shifted(self):
        s = LevelSequence(prefix=[1.0, 3.0], rule=float, sup=math.inf)
        t = s.shifted(10.0)
        assert t.value(1) == 11.0
        assert t.value(5) == 15.0


# The three searches that first_index_where replaced, copied verbatim (self
# renamed), as references for the shared search.

def _old_count_leq(self, x: float) -> int:
    x = float(x)
    k = int(np.searchsorted(self.prefix, x, side="right"))
    if k < self.prefix.size or self.rule is None:
        return k
    if x >= self.sup:
        return HUGE_INDEX
    lo = self.prefix.size
    hi = max(1, lo + 1)
    while self.value(hi) <= x:
        lo = hi
        hi *= 2
        if hi > HUGE_INDEX:
            return HUGE_INDEX
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if self.value(mid) <= x:
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


def _old_mixture_quantile(spec, n: int, p: float) -> float:
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
    return spec.vseq.value(hi)


def _same_outcome(new, old, *args):
    """Both calls return the same value, or both raise InvalidArgumentError."""
    try:
        want = old(*args)
    except InvalidArgumentError:
        with pytest.raises(InvalidArgumentError):
            new(*args)
        return
    assert new(*args) == want


BOUNDED = LevelSequence(rule=lambda n: 1.0 - 1.0 / n, sup=1.0)
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

    @pytest.mark.parametrize("seq", [
        LevelSequence(rule=float),
        LevelSequence(prefix=[0.5, 2.0, 2.0], rule=float),
        LevelSequence(rule=math.log1p),
        BOUNDED,
        LevelSequence(prefix=[-1.0, 0.25], rule=lambda n: 1.0 - 1.0 / n, sup=1.0),
        LevelSequence(rule=lambda n: 0.0, sup=1.0),  # never passes 0: saturates
    ], ids=["identity", "prefix", "log", "bounded", "bounded-prefix", "flat"])
    def test_count_leq_matches_old_search(self, seq):
        xs = [-2.0, 0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-40, 1.0 - 2.0**-53, 1.0, 2.0, 2.5,
              7.0, 1234567.9, 2.0**61, 3.0 * 2.0**60, 2.0**62, 1e300]
        for x in xs:
            assert seq.count_leq(x) == _old_count_leq(seq, x), x

    @pytest.mark.parametrize("atoms", [
        geometric(0.3).atoms,
        geometric(1e-6).atoms,
        mixture_component(3).atoms,
        mixture_component(2, BOUNDED).atoms,
        jump_sequence([1.0, 2.0, 3.0, 5.0, 8.0], [0.5, 0.3, 0.1, 0.05, 0.0]).atoms,
        jump_sequence(np.arange(1.0, 38.0), 1.0 - np.arange(1.0, 38.0) / 37.0).atoms,
        AtomRule(locations=LevelSequence(rule=float), tail_after=lambda i: 0.5),
        # the last tail is not quite 0, so only the count stops the search
        AtomRule(locations=LevelSequence(prefix=[1.0, 2.0, 3.0]),
                 tail_after=lambda i: (0.5, 0.25, 5e-16)[i - 1], count=3),
    ], ids=["geometric", "geometric-slow", "mixture", "mixture-bounded", "finite-5",
            "finite-37", "never-below-half", "finite-last-tail-positive"])
    def test_jump_quantile_matches_old_search(self, atoms):
        for p in PROBS:
            _same_outcome(_jump_quantile, _old_jump_quantile, atoms, p)

    @pytest.mark.parametrize("vseq", [LevelSequence(rule=float), BOUNDED],
                             ids=["identity", "bounded"])
    def test_mixture_quantile_matches_old_search(self, vseq):
        spec = MixtureSpec(vseq=vseq)
        for n in (1, 2, 10, 1000, 10**6):
            for p in PROBS:
                _same_outcome(lambda *a: exact_max_quantile(spec, *a),
                              lambda *a: _old_mixture_quantile(spec, *a), n, p)


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
        law = DistFn(name="no-finite-quantile", cdf=lambda x: 0.0 * np.asarray(x),
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
