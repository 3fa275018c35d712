"""Phantom distribution functions for stationary sequences.

Construction of continuous and jump phantoms from driving sequences,
Monte Carlo verification of the phantom property, extremal-index
estimation, regenerative (cycle-maximum) phantoms, and closed-form
sufficient-condition calculators for weak-dependence rate theorems.

The rate calculators load on first use: ``phantomdf.MDependent``,
``from phantomdf import check_rate_sufficiency`` and ``dir(phantomdf)``
reach them, and a command that does not read them does not import them.
"""

from .distributions import (
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
from .errors import (
    DegenerateDrivingSequenceError,
    InsufficientDataError,
    InsufficientGridError,
    InvalidArgumentError,
    InvalidSpecError,
    NotExactlyComputableError,
    NotRegenerativeError,
    PhantomdfError,
)
from .estimate import (
    BTReport,
    CnDiagnostic,
    CycleTailBand,
    DrivingSeqEstimate,
    MaxLawEstimate,
    PropBasicSeries,
    RegenStats,
    ThetaEstimate,
    block_maxima_table,
    check_BT,
    cycle_tail_ratio,
    decompose_regenerative,
    driving_from_maxima,
    estimate_Cn,
    estimate_driving_sequence,
    exact_maxlaw,
    maxlaw_from_maxima,
    propbasic_series,
    rootzen_phantom,
    theta_from_driving,
)
from .grids import HUGE_INDEX
from .phantom import (
    DrivingSequence,
    JumpPhantom,
    PhantomDistFn,
    PhantomVerification,
    driving_from_estimates,
    verify_phantom,
)
from .processes import (
    IIDSpec,
    LindleySpec,
    MetropolisCheck,
    MetropolisSpec,
    MixtureSpec,
    MovingMaxSpec,
    exact_max_cdf,
    generate,
    lindley_step_tail_vs_stationary,
    marginal_sf,
    metropolis_config_check,
    target_tail_condition,
)
from .seeding import rng_for, rngs_for, seed_sequence

__version__ = "0.1.0"

# names served from .rates by __getattr__ (PEP 562)
_RATES = (
    "AlphaCaseVerdict",
    "DeltaEvidence",
    "DependenceKind",
    "ExponentialMixing",
    "MDependent",
    "PolynomialMixing",
    "RateVerdict",
    "alpha_discontinuous_case",
    "check_rate_sufficiency",
    "threshold_beta",
)


def __getattr__(name: str):
    if name in _RATES:
        from . import rates
        return getattr(rates, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_RATES})
