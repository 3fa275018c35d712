"""Phantom distribution functions for stationary sequences.

Construction of continuous and jump phantoms from driving sequences,
Monte Carlo verification of the phantom property, extremal-index
estimation, regenerative (cycle-maximum) phantoms, and closed-form
sufficient-condition calculators for weak-dependence rate theorems.
"""

from .distributions import (
    AtomRule,
    DistFn,
    beta_law,
    dkw_epsilon,
    exponential,
    geometric,
    jump_law,
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
    estimate_theta_single_sequence,
    exact_maxlaw,
    maxlaw_from_maxima,
    propbasic_series,
    rootzen_phantom,
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
    SamplePath,
    TailComparison,
    exact_max_cdf,
    generate,
    lindley_step_tail_vs_stationary,
    marginal_sf,
    metropolis_config_check,
    target_tail_condition,
)
from .rates import (
    AlphaCaseVerdict,
    DeltaEvidence,
    DependenceKind,
    ExponentialMixing,
    MDependent,
    PolynomialMixing,
    RateVerdict,
    alpha_discontinuous_case,
    check_rate_sufficiency,
    threshold_beta,
)
from .seeding import rng_for, seed_sequence

__version__ = "0.1.0"
