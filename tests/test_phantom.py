"""Continuous and step phantoms built from a driving sequence."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phantomdf.distributions import DistFn, exponential
from phantomdf.errors import (
    DegenerateDrivingSequenceError,
    InsufficientGridError,
    InvalidArgumentError,
    InvalidSpecError,
)
from phantomdf.estimate import (
    MaxLawEstimate,
    MaxLawRow,
    estimate_driving_sequence,
    exact_maxlaw,
    theta_from_driving,
)
from phantomdf.phantom import (
    DrivingSequence,
    JumpPhantom,
    PhantomDistFn,
    driving_from_estimates,
    verify_phantom,
)
from phantomdf.processes import IIDSpec, MovingMaxSpec

GAMMA = math.exp(-1.0)


def plateau_driving():
    # the levels 1, 1, 1, 2, 3: three levels repeated 3, 1, 1 times
    return DrivingSequence(GAMMA, [1.0, 2.0, 3.0], [3, 4, 5])


def integer_driving(last):
    """The levels v_n = n for n <= last: every index is a knot."""
    n = np.arange(1, last + 1)
    return DrivingSequence(GAMMA, n.astype(float), n)


class ScalarReference:
    """The scalar phantom evaluation that the knot table replaced, kept as a
    reference: the knot accessors and the continuous ``exponent`` and jump
    ``log_cdf`` bodies as they were, one knot at a time."""

    def __init__(self, driving: DrivingSequence) -> None:
        self.driving = self  # the copied bodies read knots off self.driving
        self._knot_levels = driving._knot_levels
        self._knot_index = driving._knot_index
        self._log_gamma = math.log(driving.gamma)

    @property
    def knot_count(self):
        return int(self._knot_index.size)

    def knot(self, k):
        k = int(k)
        if k < 1:
            raise InvalidArgumentError("knot index must be >= 1")
        m = self._knot_index.size
        if k <= m:
            return float(self._knot_levels[k - 1]), int(self._knot_index[k - 1])
        raise InvalidArgumentError(
            f"knot {k} beyond the stored knot table ({m} knots)")

    def knot_leq(self, x):
        return int(np.searchsorted(self._knot_levels, float(x), side="right"))

    def _knot_exponent(self, k):
        x, p = self.driving.knot(k)
        return x, 1.0 / p

    def exponent(self, x):
        d = self.driving
        x = float(x)
        x1, e1 = self._knot_exponent(1)
        if x < x1:
            return (x1 - x) + e1
        k = d.knot_leq(x)
        xk, ek = self._knot_exponent(k)
        if x == xk:
            return ek
        if k >= d.knot_count:
            raise InvalidArgumentError("evaluation beyond the last stored knot")
        xn, en = self._knot_exponent(k + 1)
        t = (x - xk) / (xn - xk)
        return ek + t * (en - ek)

    def jump_log_cdf(self, x):
        k = self.driving.knot_leq(float(x))
        if k == 0:
            return -math.inf
        _, e = self._knot_exponent(k)
        return e * self._log_gamma


def _drivings():
    """Stored and parsed driving sequences, by name."""
    sizes = np.unique(np.round(10.0 ** np.arange(1.0, 4.01, 1.0 / 6.0)).astype(int))
    fitted = driving_from_estimates(
        GAMMA, sizes, exponential(1.0).quantile(GAMMA ** (1.0 / sizes)))
    parsed = PhantomDistFn.from_text(PhantomDistFn(fitted).to_text())
    return {
        "plateau": plateau_driving(),
        "estimates": driving_from_estimates(GAMMA, [2, 5, 9, 40], [1.0, 2.0, 3.0, 3.5]),
        "fitted": fitted,
        # the levels v_n = n up to n = 60
        "integers": integer_driving(60),
        # the levels 0.25, 0.25, 1, 1, 1.5, then v_n = n up to 60
        "plateaus-then-integers": DrivingSequence(
            0.3, np.r_[0.25, 1.0, 1.5, np.arange(6.0, 61.0)], np.r_[2, 4, 5, np.arange(6, 61)]),
        "parsed": parsed.driving,
    }


DRIVINGS = _drivings()


class TestKnotTableMatchesScalarReference:
    """The vectorised phantoms give the scalar reference's floats exactly."""

    @staticmethod
    def probe_levels(d: DrivingSequence) -> np.ndarray:
        xs = d.knots()[0][:60]
        mids = (xs[:-1] + xs[1:]) / 2.0
        thirds = xs[:-1] + (xs[1:] - xs[:-1]) / 3.0
        below = xs[0] - np.array([2.5, 1.0, 1e-9])
        between = np.random.default_rng(8).uniform(xs[0], xs[-1], 400)
        return np.concatenate([below, xs, mids, thirds, between])

    @pytest.mark.parametrize("name", DRIVINGS)
    def test_continuous_exponent(self, name):
        d = DRIVINGS[name]
        ref, G = ScalarReference(d), PhantomDistFn(d)
        x = self.probe_levels(d)
        want = np.array([ref.exponent(v) for v in x])
        np.testing.assert_array_equal(G.exponent(x), want)
        assert all(G.exponent(v) == w for v, w in zip(x[::7], want[::7]))
        np.testing.assert_array_equal(G.pow(x, 17), np.exp(17 * (want * ref._log_gamma)))

    @pytest.mark.parametrize("name", DRIVINGS)
    def test_jump_log_cdf(self, name):
        d = DRIVINGS[name]
        ref, J = ScalarReference(d), JumpPhantom(d)
        x = self.probe_levels(d)
        np.testing.assert_array_equal(J.log_cdf(x), [ref.jump_log_cdf(v) for v in x])

    @pytest.mark.parametrize("name", DRIVINGS)
    def test_past_the_last_knot_raises(self, name):
        d = DRIVINGS[name]
        ref = ScalarReference(d)
        G, J = PhantomDistFn(d), JumpPhantom(d)
        xs = d.knots()[0]
        beyond = float(xs[-1]) + 0.5
        for fn in (ref.exponent, G.exponent, G.log_cdf, J.log_cdf, G.tail, J.tail):
            with pytest.raises(InvalidArgumentError):
                fn(beyond)
        with pytest.raises(InvalidArgumentError):
            G.exponent(np.array([float(xs[0]), beyond]))  # one bad point suffices


class TestPhantomsAreDistFns:
    def test_isinstance(self):
        d = plateau_driving()
        assert isinstance(PhantomDistFn(d), DistFn)
        assert isinstance(JumpPhantom(d), DistFn)
        assert PhantomDistFn(d).right_end == 3.0

    def test_vectorised_cdf_sf(self):
        G = PhantomDistFn(integer_driving(1000))
        x = np.array([[0.5, 1.0], [2.7, 400.0]])
        lc = G.exponent(x) * math.log(GAMMA)
        np.testing.assert_array_equal(G.log_cdf(x), lc)
        np.testing.assert_array_equal(G.tail(x), -np.expm1(lc))
        assert G.tail(x).shape == x.shape

    def test_a_phantom_is_never_inverted(self):
        # the specs that read a law's quantile refuse a phantom
        d = plateau_driving()
        for G in (PhantomDistFn(d), JumpPhantom(d)):
            assert G.quantile is None
            with pytest.raises(InvalidSpecError, match="needs a quantile"):
                IIDSpec(G)

    def test_verify_reads_a_phantom_like_any_distfn(self):
        G = TestVerification().fit_from_exact_driving(GAMMA)
        plain = DistFn(name="copy", tail=G.tail, right_end=G.right_end)
        maxlaw = TestVerification().exact_maxlaw()
        assert verify_phantom(G, maxlaw) == verify_phantom(plain, maxlaw)


class TestDrivingSequence:
    def test_gamma_range_enforced(self):
        for g in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InvalidArgumentError):
                DrivingSequence(g, [1.0, 2.0], [1, 2])

    def test_constant_levels_are_degenerate(self):
        with pytest.raises(DegenerateDrivingSequenceError):
            driving_from_estimates(0.5, [1, 2, 3], [2.0, 2.0, 2.0])
        with pytest.raises(DegenerateDrivingSequenceError):
            DrivingSequence(0.5, [2.0], [3])

    @pytest.mark.parametrize("levels, index", [
        ([1.0, 1.0], [1, 2]),               # repeated level
        ([2.0, 1.0], [1, 2]),               # falling level
        ([1.0, math.inf], [1, 2]),          # infinite level
        ([1.0, math.nan], [1, 2]),          # nan level
        ([1.0, 2.0], [2, 2]),               # repeated index
        ([1.0, 2.0], [0, 2]),               # index below 1
        ([1.0, 2.0], [1]),                  # one index short
    ], ids=["repeated-level", "falling-level", "inf-level", "nan-level",
            "repeated-index", "index-zero", "short-index"])
    def test_malformed_knot_tables_refused(self, levels, index):
        with pytest.raises(InvalidArgumentError):
            DrivingSequence(GAMMA, levels, index)

    def test_sup_is_the_last_knot_level(self):
        assert DrivingSequence(GAMMA, [1.0, 2.0], [1, 2]).sup == 2.0
        assert plateau_driving().sup == 3.0
        assert integer_driving(50).sup == 50.0

    def test_plateaus_compress_to_knots(self):
        d = driving_from_estimates(GAMMA, [1, 2, 3, 4, 5], [1.0, 1.0, 1.0, 2.0, 3.0])
        xs, es = d.knots()  # the knots of plateau_driving()
        np.testing.assert_array_equal(xs, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(es, [1.0 / 3, 1.0 / 4, 1.0 / 5])
        assert np.searchsorted(xs, 2.5, side="right") == 2
        assert np.searchsorted(xs, 0.2, side="right") == 0

    def test_driving_from_estimates(self):
        d = driving_from_estimates(GAMMA, [2, 5, 9], [1.0, 2.0, 3.0])
        xs, es = d.knots()
        np.testing.assert_array_equal(xs, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(es, [1.0 / 2, 1.0 / 5, 1.0 / 9])
        with pytest.raises(InvalidArgumentError):
            driving_from_estimates(GAMMA, [5, 2], [1.0, 2.0])
        with pytest.raises(InvalidArgumentError):
            driving_from_estimates(GAMMA, [2, 5], [2.0, 1.0])


class TestContinuousPhantom:
    def test_exact_at_knots(self):
        G = PhantomDistFn(plateau_driving())
        assert G.exponent(1.0) == 1.0 / 3.0
        assert G.exponent(2.0) == 0.25
        assert G.exponent(3.0) == 0.2
        assert np.exp(G.log_cdf(1.0)) == pytest.approx(math.exp(-1.0 / 3.0), rel=1e-15)

    def test_linear_between_knots(self):
        G = PhantomDistFn(plateau_driving())
        assert G.exponent(1.5) == pytest.approx((1.0 / 3.0 + 0.25) / 2.0, rel=1e-15)

    def test_unit_slope_below_first_knot(self):
        G = PhantomDistFn(plateau_driving())
        assert G.exponent(0.25) == pytest.approx(0.75 + 1.0 / 3.0, rel=1e-15)

    def test_past_the_last_knot_fails(self):
        G = PhantomDistFn(plateau_driving())
        with pytest.raises(InvalidArgumentError):
            G.tail(3.5)

    def test_power_identity_strictly_increasing_levels(self):
        """G(v_n)**n = gamma at every index once plateaus are absent."""
        G = PhantomDistFn(integer_driving(10**6))
        for n in (1, 2, 17, 1000, 10**6):
            assert G.pow(float(n), n) == pytest.approx(GAMMA, abs=1e-12)

    def test_tail_complement(self):
        G = PhantomDistFn(plateau_driving())
        assert G.tail(2.0) == pytest.approx(1.0 - np.exp(G.log_cdf(2.0)), rel=1e-14)


class TestJumpPhantom:
    def test_step_values(self):
        J = JumpPhantom(plateau_driving())
        assert np.exp(J.log_cdf(0.99)) == 0.0
        assert np.exp(J.log_cdf(1.0)) == pytest.approx(GAMMA ** (1.0 / 3.0), rel=1e-15)
        assert np.exp(J.log_cdf(2.9)) == pytest.approx(GAMMA ** 0.25, rel=1e-15)
        assert np.exp(J.log_cdf(3.0)) == pytest.approx(GAMMA ** 0.2, rel=1e-15)
        with pytest.raises(InvalidArgumentError):
            J.tail(3.5)

    def test_jump_below_continuous(self):
        """The step variant never exceeds the interpolated one."""
        d = plateau_driving()
        G, J = PhantomDistFn(d), JumpPhantom(d)
        for x in np.linspace(1.0, 3.0, 41):
            assert np.exp(J.log_cdf(float(x))) <= np.exp(G.log_cdf(float(x))) + 1e-15

    def test_pow_at_zero_cdf(self):
        J = JumpPhantom(plateau_driving())
        assert J.pow(0.5, 100) == 0.0


def test_phantom_gap_dense_driving_is_small():
    # knots at every integer: interpolation slack at block size n is O(1/n)
    d = integer_driving(1000)
    G, J = PhantomDistFn(d), JumpPhantom(d)
    grid = np.arange(50.0, 400.0, 0.25)
    assert np.max(np.abs(G.pow(grid, 100) - J.pow(grid, 100))) < 0.01


class TestSerialization:
    def test_round_trip_exact(self):
        G = PhantomDistFn(plateau_driving())
        text = G.to_text()
        H = PhantomDistFn.from_text(text)
        assert H.to_text() == text
        for x in np.linspace(0.5, 3.0, 21):
            assert np.exp(H.log_cdf(float(x))) == np.exp(G.log_cdf(float(x)))

    def test_header_checked(self):
        with pytest.raises(InvalidArgumentError):
            PhantomDistFn.from_text("not a phantom\n")


@st.composite
def knot_tables(draw):
    size = draw(st.integers(min_value=2, max_value=12))
    ps = sorted(draw(st.lists(st.integers(min_value=1, max_value=100_000),
                              min_size=size, max_size=size, unique=True)))
    xs = sorted(draw(st.lists(st.floats(min_value=-1e9, max_value=1e9),
                              min_size=size, max_size=size, unique=True)))
    gamma = draw(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    return gamma, ps, xs


_HEADER = "phantomdf continuous v1\n"
_TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(lambda v: f"{v:.17g}"),
    st.integers(min_value=-3, max_value=8).map(str),
    st.integers(min_value=-3, max_value=2**40).map(str),
    st.sampled_from(["0", "1", "0.5", "1e-300", "5e-324", "1e400", "-0", "nan",
                     "two", "knots", "gamma", ""]),
)


@st.composite
def phantom_texts(draw):
    """Phantom files with random tokens in every field and random rows."""
    header = draw(st.sampled_from(["phantomdf continuous v1", "phantomdf v1", ""]))
    head_rows = [f"gamma {draw(_TOKENS)}", f"knots {draw(_TOKENS)}"]
    knot_row = st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 1.0)).map(
        lambda t: f"{t[0]:.17g} {t[1]:.17g}")
    rows = draw(st.lists(st.one_of(knot_row, st.lists(_TOKENS, max_size=3).map(" ".join)),
                         max_size=6))
    lines = [header] + draw(st.permutations(head_rows)) + rows
    return "\n".join(lines) + "\n"


class TestSerializationProperties:
    @given(knot_tables())
    def test_round_trip_keeps_every_knot(self, table):
        gamma, ps, xs = table
        G = PhantomDistFn(driving_from_estimates(gamma, ps, xs))
        text = G.to_text()
        H = PhantomDistFn.from_text(text)
        assert H.driving.gamma == G.driving.gamma
        for a, b in zip(H.driving.knots(), G.driving.knots()):
            np.testing.assert_array_equal(a, b)
        assert H.to_text() == text

    @settings(max_examples=300)
    @given(st.one_of(phantom_texts(), st.text(max_size=80)))
    @example(_HEADER + "gamma 0.5\nknots 1\n0.5 1\n")              # one knot
    @example(_HEADER + "gamma 0.5\nknots 2\n1 1\n1 0.5\n")         # repeated level
    @example(_HEADER + "gamma 0.5\nknots 2\n0 1\n1 5e-324\n")      # subnormal 1/p
    @example(_HEADER + "gamma 0.5\nknots 2\nnan 1\n1 0.5\n")       # nan level
    @example(_HEADER + "gamma 0.5\nknots 2\n0 1\n1 0.5\n2 0.25\n3 0.125\n")  # extra rows
    @example(_HEADER + "gamma 0.5\nknots 2\n0 1\n1 0.3\n")         # 0.3 is not 1/p
    def test_malformed_text_raises_only_invalid_argument(self, text):
        try:
            G = PhantomDistFn.from_text(text)
        except InvalidArgumentError:
            return
        assert G.driving.knots()[0].size >= 2  # parsed into a usable phantom

    @staticmethod
    def two_knots(e: str) -> str:
        return f"{_HEADER}gamma 0.5\nknots 2\n0 1\n1 {e}\n"

    def test_too_fine_exponent_refused_before_allocating(self):
        # below 1/HUGE_INDEX, 1/p is refused before round(1/e) sees it;
        # a fine 1/p is stored as one knot, never expanded index by index
        for e in ("5e-324", f"{2.0 ** -63:.17g}"):
            with pytest.raises(InvalidArgumentError):
                PhantomDistFn.from_text(self.two_knots(e))
        e = 1.0 / 2**26
        tracemalloc.start()
        try:
            G = PhantomDistFn.from_text(self.two_knots(f"{e:.17g}"))
            assert tracemalloc.get_traced_memory()[1] < 100_000
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(G.driving.knots()[1], [1.0, e])
        assert G.exponent(1.0) == e

    def test_exponent_that_is_not_1_over_p_refused(self):
        with pytest.raises(InvalidArgumentError, match="exactly 1/p"):
            PhantomDistFn.from_text(self.two_knots("0.3"))
        assert PhantomDistFn.from_text(self.two_knots(f"{1 / 3:.17g}")).exponent(1.0) == 1 / 3

    def test_rows_past_the_count_refused(self):
        with pytest.raises(InvalidArgumentError, match="knot count"):
            PhantomDistFn.from_text(self.two_knots("0.5") + "2 0.25\n3 0.125\n")


class TestVerification:
    def fit_from_exact_driving(self, gamma: float) -> PhantomDistFn:
        # dense fit grid, 6 sizes per decade, extended past the largest
        # verify size so high-probability levels stay inside the knot span
        F = exponential(1.0)
        sizes = np.unique(np.round(10.0 ** np.arange(1.0, 6.21, 1.0 / 6.0)).astype(int))
        levels = F.quantile(GAMMA ** (1.0 / sizes))
        return PhantomDistFn(driving_from_estimates(gamma, sizes, levels))

    def exact_maxlaw(self) -> MaxLawEstimate:
        return exact_maxlaw(IIDSpec(exponential(1.0)), [200, 2000],
                            probs=np.linspace(0.002, 0.998, 41))

    def test_true_phantom_verifies(self):
        rep = verify_phantom(self.fit_from_exact_driving(GAMMA), self.exact_maxlaw())
        assert rep.sup_gap < 0.03
        assert all(r.gap <= 3.0 * r.se_at_gap + 0.03 for r in rep.rows)
        assert rep.passes()

    def test_wrong_gamma_rejected(self):
        rep = verify_phantom(self.fit_from_exact_driving(0.6), self.exact_maxlaw())
        assert rep.sup_gap > 0.15
        assert not rep.passes()

    def test_thin_grid_refused(self):
        row = MaxLawRow(n=10, levels=np.linspace(0.0, 1.0, 20),
                        p_hat=np.full(20, 0.999), se=np.full(20, 0.01))
        maxlaw = MaxLawEstimate(rows=(row,))
        with pytest.raises(InsufficientGridError):
            verify_phantom(self.fit_from_exact_driving(GAMMA), maxlaw)


class TestExtremalIndex:
    """theta = log(gamma) / log(gamma'_n) on the exact moving max of window 2."""
    MOVMAX2 = MovingMaxSpec(window=2, base=exponential(1.0))

    def test_log_ratio(self):
        dse = estimate_driving_sequence(self.MOVMAX2, GAMMA, [100, 10_000], method="exact")
        est = theta_from_driving(self.MOVMAX2, dse, [100, 10_000], 0)
        for row in est.rows:
            assert row.theta == pytest.approx(math.log(GAMMA) / math.log(row.gamma_prime),
                                              rel=1e-12)
        assert est.theta_hat == pytest.approx(0.5, abs=0.01)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(min_value=0.05, max_value=8.0),
           gamma=st.floats(min_value=0.05, max_value=0.95))
    def test_scale_consistency(self, c, gamma):
        """Raising gamma to a power cannot move theta."""
        def theta(g):
            dse = estimate_driving_sequence(self.MOVMAX2, g, [10_000], method="exact")
            return theta_from_driving(self.MOVMAX2, dse, [10_000], 0).theta_hat

        base, scaled = theta(gamma), theta(gamma ** c)
        assert scaled == pytest.approx(base, abs=0.01)
        assert base == pytest.approx(0.5, abs=0.01)
