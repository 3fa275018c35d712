"""Closed-form rate thresholds and the discontinuous-marginal case split."""

import math

import pytest
from hypothesis import given, strategies as st

from phantomdf.errors import InvalidArgumentError
from phantomdf.rates import (
    GOLDEN_RATIO,
    AlphaCaseVerdict,
    DeltaEvidence,
    DependenceKind,
    ExponentialMixing,
    MDependent,
    PolynomialMixing,
    alpha_discontinuous_case,
    check_rate_sufficiency,
    threshold_beta,
)

bs = st.floats(min_value=1e-3, max_value=1.0)


def test_threshold_closed_forms():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert GOLDEN_RATIO == phi
    assert threshold_beta("alpha", 0.7) == 0.0
    assert threshold_beta("theta", 1.0) == phi * 2.0
    assert threshold_beta("eta", 1.0) == 4.0
    assert threshold_beta("kappa", 1.0) == phi * 6.0
    assert threshold_beta("theta", 0.5) == phi * 3.0


@given(b=bs)
def test_lambda_equals_kappa(b):
    assert threshold_beta("lambda", b) == threshold_beta("kappa", b)


@given(b=bs)
def test_threshold_ordering(b):
    """theta is the cheapest condition, kappa/lambda the dearest."""
    th = threshold_beta(DependenceKind.THETA, b)
    eta = threshold_beta(DependenceKind.ETA, b)
    kap = threshold_beta(DependenceKind.KAPPA, b)
    assert 0.0 < th < eta < kap


@given(b1=bs, b2=bs)
def test_threshold_monotone_in_b(b1, b2):
    lo, hi = sorted((b1, b2))
    for kind in ("theta", "eta", "kappa"):
        assert threshold_beta(kind, lo) >= threshold_beta(kind, hi)


@pytest.mark.parametrize("b", [0.0, -0.1, 1.0001, 7.0])
def test_b_domain(b):
    with pytest.raises(InvalidArgumentError):
        threshold_beta("theta", b)


def test_sufficiency_is_strict():
    thr = threshold_beta("eta", 0.5)
    assert not check_rate_sufficiency("eta", thr, 0.5).sufficient
    v = check_rate_sufficiency("eta", thr + 1e-9, 0.5)
    assert v.sufficient
    assert v.margin == pytest.approx(1e-9, rel=1e-3)


def test_alpha_needs_no_rate():
    v = check_rate_sufficiency("alpha", 0.001, 1.0)
    assert v.sufficient and v.threshold == 0.0
    assert "continuous" in v.note
    assert not check_rate_sufficiency("alpha", 0.0, 1.0).sufficient


def test_mixing_case_validation():
    with pytest.raises(InvalidArgumentError):
        MDependent(-1)
    with pytest.raises(InvalidArgumentError):
        ExponentialMixing(rho=1.0)
    with pytest.raises(InvalidArgumentError):
        PolynomialMixing(beta=0.0)
    with pytest.raises(InvalidArgumentError):
        alpha_discontinuous_case(object(), DeltaEvidence())


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_non_finite_rates_are_rejected(beta):
    with pytest.raises(InvalidArgumentError, match="beta must be finite"):
        check_rate_sufficiency("theta", beta, 1.0)
    with pytest.raises(InvalidArgumentError, match="beta must be finite"):
        PolynomialMixing(beta=beta)


@pytest.mark.parametrize("beta", [-1.0, -1e-12])
def test_negative_rates_are_rejected(beta):
    # a negative rate is no decay rate: an error, not an insufficient verdict
    with pytest.raises(InvalidArgumentError, match="beta must be >= 0"):
        check_rate_sufficiency("theta", beta, 1.0)


@pytest.mark.parametrize("m", [2.7, 2.0, math.inf, "3"])
def test_dependence_range_must_be_an_integer(m):
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        MDependent(m)


class TestDiscontinuousCases:
    def test_m_dependent_needs_base_bound(self):
        ok = alpha_discontinuous_case(MDependent(3), DeltaEvidence(delta0=True))
        assert ok.admits_phantom and ok.which_case == "m-dependent"
        miss = alpha_discontinuous_case(MDependent(3), DeltaEvidence(delta0=False))
        assert not miss.admits_phantom and miss.undetermined

    def test_exponential_needs_any_positive_xi(self):
        ev = DeltaEvidence(delta_xi={0.2: True, 0.1: False})
        ok = alpha_discontinuous_case(ExponentialMixing(0.5), ev)
        assert ok.admits_phantom and ok.which_case == "exponential"
        none = alpha_discontinuous_case(ExponentialMixing(0.5),
                                        DeltaEvidence(delta_xi={0.2: False}))
        assert none.undetermined

    def test_polynomial_boundary_is_undetermined(self):
        """xi = 1/beta sits on the strict boundary and never qualifies."""
        case = PolynomialMixing(4.0)
        boundary = alpha_discontinuous_case(case, DeltaEvidence(delta_xi={0.25: True}))
        assert boundary.undetermined and not boundary.admits_phantom
        above = alpha_discontinuous_case(case, DeltaEvidence(delta_xi={0.26: True}))
        assert above.admits_phantom and above.which_case == "polynomial"

    @given(beta=st.floats(min_value=0.1, max_value=50.0),
           xi=st.floats(min_value=1e-3, max_value=10.0))
    def test_polynomial_threshold_matches_inverse(self, beta, xi):
        verdict = alpha_discontinuous_case(PolynomialMixing(beta),
                                           DeltaEvidence(delta_xi={xi: True}))
        assert verdict.admits_phantom == (xi > 1.0 / beta)

    def test_misses_never_refute(self):
        for case in (MDependent(1), ExponentialMixing(0.9), PolynomialMixing(2.0)):
            v = alpha_discontinuous_case(case, DeltaEvidence())
            assert isinstance(v, AlphaCaseVerdict)
            assert v.undetermined and not v.admits_phantom
