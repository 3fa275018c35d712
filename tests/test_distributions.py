"""Catalog laws and their tail, atom and increment structure.

Sampler checks use a Dvoretzky-Kiefer-Wolfowitz band at 99.9% confidence
with a fixed seed, so a failure means a real bug, not bad luck.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from phantomdf.distributions import (
    _CATALOG,
    DistFn,
    beta_law,
    dkw_epsilon,
    exponential,
    geometric,
    jump_sequence,
    make_distribution,
    mixture_component,
    pareto,
    shifted,
    superheavy,
    symmetric_pareto,
    uniform,
)
from phantomdf.errors import InsufficientGridError, InvalidArgumentError
from phantomdf.estimate import MaxLawEstimate, MaxLawRow, exact_max_quantile, exact_maxlaw
from phantomdf.grids import (
    PROBE_RATIO_TOL,
    classify_ratio_track,
    converges_to,
    last_quarter,
    probe_levels,
)
from phantomdf.phantom import verify_phantom
from phantomdf.processes import IIDSpec, exact_max_cdf
from phantomdf.seeding import rng_for

class SymmetricLomax:
    """The law of symmetric_pareto read through scipy: lomax at |x|, with
    half of the mass on each side of 0."""

    def __init__(self, alpha, scale):
        self.lomax = stats.lomax(alpha, scale=scale)

    def logpdf(self, x):
        return math.log(0.5) + self.lomax.logpdf(np.abs(x))

    def sf(self, x):
        half = 0.5 * self.lomax.sf(np.abs(x))
        return np.where(np.asarray(x) >= 0, half, 1.0 - half)

    def support(self):
        return -math.inf, math.inf


def superheavy_sf(x):
    """The tail of superheavy read through scipy: P(ln X > y) = exp(-sqrt(y)),
    so ln X is Weibull with shape 1/2."""
    return stats.weibull_min(0.5).sf(np.log(x))


# every continuous catalog law and the shift wrapper, each with scipy's
# survival function of the same law
TAIL_REFERENCES = [
    (exponential(1.0), stats.expon(scale=1.0).sf),
    (exponential(0.25), stats.expon(scale=1.0 / 0.25).sf),
    (pareto(2.0, 1.0), stats.lomax(2.0, scale=1.0).sf),
    (uniform(-1.0, 3.0), stats.uniform(-1.0, 4.0).sf),
    (beta_law(0.5, 0.5), stats.beta(0.5, 0.5).sf),
    (symmetric_pareto(2.0, 1.0), SymmetricLomax(2.0, 1.0).sf),
    (superheavy(), superheavy_sf),
    (shifted(pareto(2.0, 1.0), -2.0), stats.lomax(2.0, loc=-2.0, scale=1.0).sf),
]
CONTINUOUS = [law for law, _ in TAIL_REFERENCES]

probs = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


@pytest.mark.parametrize("dist, reference",
                         [pytest.param(law, ref, id=law.name) for law, ref in TAIL_REFERENCES])
def test_tail_is_the_survival_function(dist, reference):
    xs = np.asarray(dist.quantile(np.linspace(0.01, 0.99, 23)))
    np.testing.assert_allclose(np.asarray(dist.tail(xs)), reference(xs), atol=1e-12)


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: d.name)
def test_quantile_duality(dist):
    p = np.linspace(0.005, 0.995, 67)
    np.testing.assert_allclose(1.0 - np.asarray(dist.tail(dist.quantile(p))), p,
                               atol=1e-9, rtol=1e-9)


@pytest.mark.parametrize("dist", CONTINUOUS + [geometric(0.5), mixture_component(2)],
                         ids=lambda d: d.name)
def test_sampler_matches_cdf_dkw(dist):
    n = 4000
    x = np.sort(dist.draw(rng_for(99, "dkw", dist.name), n))
    u = np.unique(x)
    hi = np.searchsorted(x, u, side="right") / n
    lo = np.searchsorted(x, u, side="left") / n
    cdf = 1.0 - np.asarray(dist.tail(u), dtype=float)
    cdf_left = cdf - np.array([dist.jump_at(v) for v in u])
    gap = max(np.max(np.abs(hi - cdf)), np.max(np.abs(lo - cdf_left)))
    assert gap <= dkw_epsilon(n, 0.999)


# every catalog law with a density, at unit and non-unit parameters, and the
# shift wrapper, each with scipy's version of the same law; beta(0.5, 0.5) has
# infinite density at both ends and beta(2, 3) zero density there
WITH_DENSITY = [
    (exponential(1.0), stats.expon(scale=1.0)),
    (exponential(0.25), stats.expon(scale=1.0 / 0.25)),
    (pareto(2.0, 1.0), stats.lomax(2.0, scale=1.0)),
    (pareto(0.5, 3.0), stats.lomax(0.5, scale=3.0)),
    (uniform(-1.0, 3.0), stats.uniform(-1.0, 4.0)),
    (beta_law(0.5, 0.5), stats.beta(0.5, 0.5)),
    (beta_law(2.0, 3.0), stats.beta(2.0, 3.0)),
    (symmetric_pareto(2.0, 1.0), SymmetricLomax(2.0, 1.0)),
    (symmetric_pareto(1.5, 2.5), SymmetricLomax(1.5, 2.5)),
    (shifted(pareto(2.0, 1.0), -2.0), stats.lomax(2.0, loc=-2.0, scale=1.0)),
    (shifted(uniform(0.0, 1.0), 0.25), stats.uniform(loc=0.25, scale=1.0)),
]
CATALOG_ARGS = {"exp": (1.0,), "exponential": (2.0,), "pareto": (2.0, 1.0),
                "uniform": (0.0, 1.0), "beta": (0.5, 0.5), "geometric": (0.5,),
                "superheavy": (), "symmetric_pareto": (2.0, 1.0),
                "mixture_component": (2,)}


def test_every_catalog_law_with_a_density_has_a_log_density():
    assert set(CATALOG_ARGS) == set(_CATALOG)
    with_log_density = set()
    for name, args in CATALOG_ARGS.items():
        law = make_distribution(name, *args)
        if law.logpdf is not None:
            with_log_density.add(name)
        assert (shifted(law, 1.5).logpdf is None) == (law.logpdf is None), name
    assert with_log_density == {"exp", "exponential", "pareto", "uniform", "beta",
                                "symmetric_pareto"}
    assert {law.name.split("(")[0] for law, _ in WITH_DENSITY} >= {
        "exp", "pareto", "uniform", "beta", "symmetric_pareto"}


@pytest.mark.parametrize("dist, reference",
                         [pytest.param(law, ref, id=law.name) for law, ref in WITH_DENSITY])
def test_logpdf_is_the_log_of_the_density(dist, reference):
    # inside the support (quantiles, and the finite ends of scipy's support
    # of the same law), just outside it, and at +-inf, against scipy's log
    # density of that law (scipy also counts each finite end of the support
    # in it, so the two agree there); the log density is read with every
    # floating-point warning raised, so a log(0) fails the test
    inner = np.asarray(dist.quantile(np.linspace(1e-6, 1.0 - 1e-6, 201)), dtype=float)
    ends = [float(e) for e in reference.support() if math.isfinite(e)]
    outer = [e + d for e in ends for d in (-1.0, -1e-9, 1e-9, 1.0)]
    xs = np.concatenate([inner, ends, outer, [-np.inf, np.inf]])
    with np.errstate(divide="ignore"):
        want = np.asarray(reference.logpdf(xs), dtype=float)
    with np.errstate(all="raise"):
        got = np.asarray(dist.logpdf(xs), dtype=float)
    assert got.shape == xs.shape and not np.isnan(got).any()
    # an error in log f is a relative error of f; 1e-12 relative to
    # max(1, |log f|), and equal infinities where f is 0 or infinite
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    assert np.isneginf(got[[-2, -1]]).all()
    with np.errstate(all="raise"):  # a scalar argument
        assert float(dist.logpdf(inner[100])) == pytest.approx(float(want[100]),
                                                               rel=1e-12, abs=1e-12)


def test_dkw_epsilon_value():
    # sqrt(ln(2/alpha) / (2n)) at alpha = 0.05, n = 1000
    assert dkw_epsilon(1000, 0.95) == pytest.approx(math.sqrt(math.log(40.0) / 2000.0))
    with pytest.raises(InvalidArgumentError):
        dkw_epsilon(0)


def test_superheavy_tail_identity():
    """Survival exp(-sqrt(ln x)) inverts to quantile(1 - 1/n) = exp(ln(n)**2)."""
    d = superheavy()
    for n in (10, 1000, 10**6):
        v = float(d.quantile(1.0 - 1.0 / n))
        assert v == pytest.approx(math.exp(math.log(n) ** 2), rel=1e-8)
        assert n * float(d.tail(v)) == pytest.approx(1.0, rel=1e-7)
    assert float(d.tail(1.0)) == 1.0
    assert d.mean == math.inf


def test_geometric_atoms():
    d = geometric(0.25)
    assert 1.0 - float(d.tail(3.0)) == pytest.approx(1.0 - 0.75 ** 3)
    assert 1.0 - float(d.tail(3.5)) == pytest.approx(1.0 - 0.75 ** 3)
    assert d.jump_at(2.0) == pytest.approx(0.25 * 0.75)
    assert d.jump_at(2.5) == 0.0


def test_mixture_component_tail_identity():
    # tail after the n-th level is exactly 1/n, first atom sits at k*k
    d = mixture_component(3)
    assert float(d.tail(9.0)) == pytest.approx(1.0 / 9.0)
    assert float(d.tail(8.9)) == 1.0
    assert float(d.tail(100.0)) == pytest.approx(1.0 / 100.0)


def test_shifted_and_powered():
    base = exponential(1.0)
    sh = shifted(base, 2.5)
    assert float(sh.quantile(0.3)) == pytest.approx(float(base.quantile(0.3)) + 2.5)
    assert float(sh.tail(3.0)) == pytest.approx(float(base.tail(0.5)))

    # F**n is the max law of n i.i.d. draws
    spec, n = IIDSpec(base), 3
    x = 1.7
    assert exact_max_cdf(spec, n, x) == pytest.approx((1.0 - float(base.tail(x))) ** n)
    p = 0.42
    assert exact_max_cdf(spec, n, exact_max_quantile(spec, n, p)) == pytest.approx(p)


def test_make_distribution_catalog():
    d = make_distribution("pareto", 2.0, 1.0)
    assert d.name == pareto(2.0, 1.0).name
    with pytest.raises(InvalidArgumentError):
        make_distribution("cauchy")


# ---------------------------------------------------------------------------
# tail regularity, tail comparison, atom decay and increments: the
# hypotheses that ``rates`` takes as assertions, read off the catalog laws
# ---------------------------------------------------------------------------


def jump_over_tail(dist, xi=0.0):
    """dF(x) / (1 - F(x))**(1 + xi) at the probe levels with a positive tail."""
    xs = probe_levels(dist)
    sf = np.asarray(dist.tail(xs), dtype=float)
    jumps = np.array([dist.jump_at(x) for x in xs])
    keep = sf > 0
    return jumps[keep] / sf[keep] ** (1.0 + xi)


def tail_ratio_class(G, H):
    """Limit class of (1 - H)/(1 - G) along G's probe levels."""
    xs = probe_levels(G)
    gt = np.asarray(G.tail(xs), dtype=float)
    ht = np.asarray(H.tail(xs), dtype=float)
    keep = gt > 0
    return classify_ratio_track(ht[keep] / gt[keep], PROBE_RATIO_TOL)


def increment_ratio(dist, b, xs):
    """max over x in xs and u = 2**-j of (F(x + u) - F(x)) / u**b, read as
    the drop of the tail."""
    us = 2.0 ** -np.arange(0.0, 51.0)
    return max(float(np.max((float(dist.tail(x)) - np.asarray(dist.tail(x + us))) / us ** b))
               for x in xs)


def test_regularity_continuous_laws_pass():
    # left-limit tail ratio (1 - F(x-)) / (1 - F(x)) is identically one
    for d in (exponential(1.0), pareto(2.0, 1.0), uniform(0.0, 1.0)):
        np.testing.assert_allclose(1.0 + jump_over_tail(d), 1.0)


def test_regularity_geometric_fails():
    """Left-limit tail ratio is the constant 1/(1-p), never near 1."""
    np.testing.assert_allclose(1.0 + jump_over_tail(geometric(0.5)), 2.0)


def test_regularity_mixture_component_passes():
    # ratio at the n-th atom is 1 + 1/(n-1) -> 1
    assert converges_to(1.0 + jump_over_tail(mixture_component(1)), 1.0, PROBE_RATIO_TOL)


def test_tail_equivalence_verdicts():
    e1, e2 = exponential(1.0), exponential(2.0)
    assert tail_ratio_class(e1, e1) == "one"
    # (1-H)/(1-G) = exp(-2x)/exp(-x) = exp(-x) -> 0
    assert tail_ratio_class(e1, e2) == "zero"
    assert tail_ratio_class(e2, e1) == "inf"


def test_tail_equivalence_constant_ratio_is_divergent():
    # ratio -> 1/2: neither 0, 1 nor infinity
    half = DistFn(name="half-tail", tail=lambda x: 0.5 * np.exp(-np.asarray(x)),
                  quantile=lambda p: -np.log(2.0 * (1.0 - np.asarray(p))),
                  right_end=math.inf)
    assert tail_ratio_class(exponential(1.0), half) == "divergent"


def exact_rows(*rows):
    return MaxLawEstimate(rows=rows)


def test_sup_power_distance_self_is_zero():
    # verify_phantom's gap is sup |P(M_n <= x) - G(x)**n| over the law's grid
    F = exponential(1.0)
    ml = exact_maxlaw(IIDSpec(F), [64], np.linspace(0.005, 0.995, 199))
    assert verify_phantom(F, ml).sup_gap == pytest.approx(0.0, abs=1e-15)


def test_sup_power_distance_squared_law():
    """For H = F**2, sup |F**n - H**n| = max_a |a - a**2| = 1/4."""
    F = exponential(1.0)
    a = np.linspace(0.001, 0.999, 4096)
    for n in (1, 10, 200):
        xs = np.asarray(F.quantile(a ** (1.0 / n)))
        hn = (1.0 - np.asarray(F.tail(xs))) ** (2 * n)
        row = MaxLawRow(n=n, levels=xs, p_hat=hn, se=np.zeros_like(xs))
        assert verify_phantom(F, exact_rows(row)).sup_gap == pytest.approx(0.25, abs=2e-3)


def test_sup_power_distance_validation():
    empty = np.array([])
    with pytest.raises(InsufficientGridError):
        verify_phantom(exponential(1.0), exact_rows(MaxLawRow(10, empty, empty, empty)))


def test_delta_condition_continuous_trivial():
    for d in CONTINUOUS:
        assert not np.any(jump_over_tail(d))


def test_delta_condition_geometric():
    # mass/tail = p/(1-p) is constant: the xi = 0 limit condition fails
    np.testing.assert_allclose(jump_over_tail(geometric(0.5)), 1.0)
    # mass/tail**2 doubles at each atom and blows through any cap
    track = jump_over_tail(geometric(0.5), xi=1.0)
    np.testing.assert_allclose(track[1:] / track[:-1], 2.0)


def test_delta_condition_polynomial_tail():
    # atoms at n with tail 1/n: mass_n/tail_n ~ 1/n -> 0, so xi = 0 holds
    track = jump_over_tail(jump_sequence(float, lambda n: 1.0 / n))
    assert np.max(last_quarter(track)) <= PROBE_RATIO_TOL


def test_concentration_uniform_lipschitz():
    xs = np.linspace(0.02, 0.98, 25)
    assert increment_ratio(uniform(0.0, 1.0), 1.0, xs) == pytest.approx(1.0, abs=1e-9)


def test_concentration_jump_law_fails_every_b():
    # F(a) - F(a - u) is the atom's mass for every u, so the ratio blows up
    d, u = geometric(0.5), 2.0 ** -50
    assert d.jump_at(1.0) == 0.5
    for b in (0.3, 1.0):
        assert increment_ratio(d, b, [1.0 - u]) >= 0.5 / u ** b


def test_concentration_holder_half():
    # beta(1/2, 1/2) has cdf increments ~ (2/pi) sqrt(u) near 0: b = 1/2 works
    d = beta_law(0.5, 0.5)
    xs = np.asarray(d.quantile(np.linspace(0.02, 0.98, 25)))
    assert increment_ratio(d, 0.5, xs) < 2.0


@settings(max_examples=25)
@given(p=probs)
def test_pareto_quantile_formula(p):
    # tail (1 + x)**-2 on [0, inf); quantile is (1-p)**-1/2 - 1
    d = pareto(2.0, 1.0)
    assert float(d.quantile(p)) == pytest.approx((1.0 - p) ** -0.5 - 1.0, rel=1e-9, abs=1e-12)
