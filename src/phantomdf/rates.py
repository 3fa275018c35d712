"""Sufficient-condition calculators for weak-dependence rate theorems.

Pure arithmetic over user-asserted decay rates and concentration
exponents.  Nothing here estimates mixing coefficients from data; the
point is to machine-check applicability conditions, with strict
inequalities kept strict.

Result records are NamedTuples: immutable, compared and hashed field
by field, and about five times cheaper to define at import than a
frozen dataclass.  A class stays a frozen dataclass only where it
validates in ``__post_init__``, caches, is subclassed or is assigned to
(here the three mixing cases, which validate, and ``DeltaEvidence``,
whose jump-bound map has a default factory).  The package loads this
module only when a name from it is first asked for.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from .errors import InvalidArgumentError

__all__ = [
    "GOLDEN_RATIO",
    "DependenceKind",
    "threshold_beta",
    "RateVerdict",
    "check_rate_sufficiency",
    "MDependent",
    "ExponentialMixing",
    "PolynomialMixing",
    "DeltaEvidence",
    "AlphaCaseVerdict",
    "alpha_discontinuous_case",
]

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


class DependenceKind(str, enum.Enum):
    ALPHA = "alpha"
    THETA = "theta"
    ETA = "eta"
    KAPPA = "kappa"
    LAMBDA = "lambda"


def _check_b(b: float) -> float:
    if not (0.0 < b <= 1.0):
        raise InvalidArgumentError("concentration exponent b must lie in (0, 1]")
    return float(b)


def threshold_beta(kind: DependenceKind | str, b: float) -> float:
    """Minimal polynomial decay rate beta that the theorems require.

    For strongly mixing sequences with continuous marginals no rate is
    needed at all, so the alpha kind returns 0 (any positive rate
    clears it).
    """
    kind = DependenceKind(kind)
    b = _check_b(b)
    if kind is DependenceKind.ALPHA:
        return 0.0
    if kind is DependenceKind.THETA:
        return GOLDEN_RATIO * (1.0 + 1.0 / b)
    if kind is DependenceKind.ETA:
        return 2.0 * (1.0 + 1.0 / b)
    # kappa and lambda share one threshold
    return 2.0 * GOLDEN_RATIO * (1.0 + 2.0 / b)


class RateVerdict(NamedTuple):
    kind: DependenceKind
    b: float
    beta: float
    threshold: float
    sufficient: bool
    margin: float
    note: str = ""


def check_rate_sufficiency(kind: DependenceKind | str, beta: float,
                           b: float) -> RateVerdict:
    """Strict test beta > threshold; boundary inputs are not sufficient."""
    kind = DependenceKind(kind)
    thr = threshold_beta(kind, b)
    if not math.isfinite(beta):
        raise InvalidArgumentError(f"decay rate beta must be finite, got {beta:g}")
    if beta < 0:
        raise InvalidArgumentError(f"decay rate beta must be >= 0, got {beta:g}")
    note = ""
    if kind is DependenceKind.ALPHA:
        note = "no rate needed for continuous marginals"
    return RateVerdict(kind=kind, b=float(b), beta=float(beta), threshold=thr,
                       sufficient=bool(beta > thr), margin=float(beta - thr),
                       note=note)


# ---------------------------------------------------------------------------
# discontinuous marginals under strong mixing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MDependent:
    """m-dependence: blocks more than m steps apart are independent."""
    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 0:
            raise InvalidArgumentError(f"dependence range m must be an integer >= 0, "
                                       f"got {self.m!r}")


@dataclass(frozen=True)
class ExponentialMixing:
    """Strong mixing with coefficients alpha(k) = O(rho**k)."""
    rho: float

    def __post_init__(self):
        if not (0.0 <= self.rho < 1.0):
            raise InvalidArgumentError("exponential base rho must lie in [0, 1)")


@dataclass(frozen=True)
class PolynomialMixing:
    """Strong mixing with coefficients alpha(k) = O(k**-beta)."""
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise InvalidArgumentError("polynomial rate beta must be finite and positive")


MixingCase = MDependent | ExponentialMixing | PolynomialMixing


@dataclass(frozen=True)
class DeltaEvidence:
    """Which jump-mass bounds the caller has verified for the marginal."""
    delta0: bool = False
    delta_xi: Mapping[float, bool] = field(default_factory=dict)

    def satisfied_xis(self) -> list[float]:
        return sorted(x for x, ok in self.delta_xi.items() if ok and x > 0)


class AlphaCaseVerdict(NamedTuple):
    admits_phantom: bool
    which_case: str | None
    undetermined: bool
    detail: str


def alpha_discontinuous_case(case: MixingCase,
                             evidence: DeltaEvidence) -> AlphaCaseVerdict:
    """Continuous-phantom verdict for a possibly discontinuous marginal.

    The three clauses are sufficient conditions only, so a miss means
    undetermined, never a refutation.
    """
    if isinstance(case, MDependent):
        if evidence.delta0:
            return AlphaCaseVerdict(True, "m-dependent", False,
                                    f"{case.m}-dependent with the base jump bound")
        return AlphaCaseVerdict(False, None, True,
                                "m-dependent but the base jump bound is unverified")
    if isinstance(case, ExponentialMixing):
        xs = evidence.satisfied_xis()
        if xs:
            return AlphaCaseVerdict(True, "exponential", False,
                                    f"exponential mixing with jump bound at xi={xs[0]:g}")
        return AlphaCaseVerdict(False, None, True,
                                "exponential mixing but no jump bound at any xi > 0")
    if isinstance(case, PolynomialMixing):
        need = 1.0 / case.beta
        xs = [x for x in evidence.satisfied_xis() if x > need]
        if xs:
            return AlphaCaseVerdict(True, "polynomial", False,
                                    f"polynomial rate {case.beta:g} with jump bound at "
                                    f"xi={xs[0]:g} > 1/beta={need:g}")
        return AlphaCaseVerdict(False, None, True,
                                f"polynomial rate {case.beta:g} needs a jump bound at "
                                f"some xi > {need:g}")
    raise InvalidArgumentError(f"unknown mixing case {type(case).__name__}")
