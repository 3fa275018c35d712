"""Stationary process specifications and samplers.

Five kinds are supported: i.i.d. sequences, Lindley recursions (waiting
times of a single-server queue), Metropolis random walks, the frozen
exchangeable mixture (a non-ergodic construction whose component is
drawn once per path), and moving maxima over a sliding window.

Where the max law has a closed form (:func:`exact_max_cdf`), estimators
prefer it; Lindley and Metropolis paths are simulated.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .distributions import DistFn, mixture_component
from .errors import (
    InsufficientDataError,
    InvalidArgumentError,
    InvalidSpecError,
    NotExactlyComputableError,
)
from .grids import (
    HUGE_INDEX,
    PROBE_DEPTH,
    PROBE_RATIO_TOL,
    classify_ratio_track,
    converges_to,
    first_index_where,
    probe_levels,
)
from .seeding import rng_for

__all__ = [
    "IIDSpec",
    "LindleySpec",
    "MetropolisSpec",
    "MixtureSpec",
    "MovingMaxSpec",
    "SamplePath",
    "generate",
    "exact_max_cdf",
    "marginal_sf",
    "describe_spec",
    "default_burn_in",
    "MetropolisCheck",
    "metropolis_config_check",
    "target_tail_condition",
    "TailShiftReport",
    "TailComparison",
    "lindley_step_tail_vs_stationary",
]

DEFAULT_BURN_IN = 10_000


@dataclass(frozen=True)
class IIDSpec:
    marginal: DistFn


@dataclass(frozen=True)
class LindleySpec:
    """X_{j+1} = max(X_j + Z_j, 0) with i.i.d. steps Z; needs E[Z] < 0."""
    step: DistFn
    burn_in: int | None = None

    def __post_init__(self) -> None:
        if self.step.mean is None:
            raise InvalidSpecError("step law needs a declared mean to check stability")
        if not self.step.mean < 0:
            raise InvalidSpecError(
                f"Lindley recursion is unstable: step mean {self.step.mean} >= 0")


@dataclass(frozen=True)
class MetropolisSpec:
    """Random-walk Metropolis chain with a symmetric proposal.

    The invariant marginal is ``target`` itself, which is why the target
    is carried as a DistFn (density included) rather than a bare density.
    """
    target: DistFn
    proposal: DistFn
    burn_in: int | None = None
    init: float | None = None

    def __post_init__(self) -> None:
        if self.target.pdf is None or self.proposal.pdf is None:
            raise InvalidSpecError("target and proposal need densities")
        if self.init is not None and not math.isfinite(self.init):
            raise InvalidSpecError(f"init must be finite, got {self.init:g}")
        z = np.linspace(0.0, 0.999, 101)
        zz = self.proposal.quantile(0.5 + 0.499 * z[1:])
        asym = np.max(np.abs(np.asarray(self.proposal.pdf(zz))
                             - np.asarray(self.proposal.pdf(-zz))))
        if asym > 1e-9:
            raise InvalidSpecError("proposal density must be symmetric about 0")
        probe = np.linspace(-100.0, 100.0, 4001)
        if not np.any(np.asarray(self.target.pdf(probe)) > 0):
            raise InvalidSpecError("target density vanishes on the probe grid")


@dataclass(frozen=True)
class MixtureSpec:
    """Exchangeable mixture: component K with P(K=k) = 1/(k(k+1)), frozen per
    path; the atom levels are v_j = j."""


@dataclass(frozen=True)
class MovingMaxSpec:
    """X_j = max of a window of m i.i.d. base draws; marginal is base**m."""
    window: int
    base: DistFn

    def __post_init__(self) -> None:
        if int(self.window) < 1:
            raise InvalidSpecError("window must be >= 1")


ProcessSpec = IIDSpec | LindleySpec | MetropolisSpec | MixtureSpec | MovingMaxSpec


@dataclass(frozen=True)
class SamplePath:
    spec: ProcessSpec
    seed: int
    values: np.ndarray
    burn_in: int = 0
    regeneration_marks: np.ndarray | None = None
    mixture_component: int | None = None


def describe_spec(spec: ProcessSpec) -> str:
    if isinstance(spec, IIDSpec):
        return f"iid[{spec.marginal.name}]"
    if isinstance(spec, LindleySpec):
        return f"lindley[step={spec.step.name},burn={spec.burn_in}]"
    if isinstance(spec, MetropolisSpec):
        return (f"metropolis[target={spec.target.name},"
                f"proposal={spec.proposal.name},burn={spec.burn_in}]")
    if isinstance(spec, MixtureSpec):
        return "exchangeable-mixture"
    if isinstance(spec, MovingMaxSpec):
        return f"moving-max[m={spec.window},base={spec.base.name}]"
    raise InvalidArgumentError(f"unknown spec {type(spec).__name__}")


def spec_digest(spec: ProcessSpec) -> str:
    return hashlib.sha256(describe_spec(spec).encode()).hexdigest()[:16]


def default_burn_in(spec: ProcessSpec) -> int:
    if isinstance(spec, LindleySpec):
        if spec.burn_in is not None:
            return int(spec.burn_in)
        return max(DEFAULT_BURN_IN, int(math.ceil(20.0 / abs(spec.step.mean))))
    if isinstance(spec, MetropolisSpec):
        return DEFAULT_BURN_IN if spec.burn_in is None else int(spec.burn_in)
    return 0


# ---------------------------------------------------------------------------
# path generation
# ---------------------------------------------------------------------------

SLAB = 16_384  # fixed time-slab length; constant so slab boundaries (and with
               # them the Metropolis draw order) never depend on chunking
FILL_ROWS = 32  # Metropolis rows drawn row-major per transposed block copy


def _empty(shape, field: str) -> np.ndarray:
    """np.empty(shape) of floats; a shape numpy cannot allocate is a bad
    value of the config field that sized it."""
    try:
        return np.empty(shape)
    except MemoryError as exc:
        raise InvalidArgumentError(f"{field} is too large: {exc}") from None


def _mixture_draw_component(rng: np.random.Generator) -> int:
    # P(K > k) = 1/(k+1) <=> K = ceil(u / (1 - u))
    u = rng.random()
    k = int(math.ceil(u / max(1.0 - u, 1e-300)))
    return max(1, min(k, HUGE_INDEX))


def _path_slabs(spec: ProcessSpec, rngs: list[np.random.Generator],
                length: int) -> Iterator[np.ndarray]:
    """Stationary values 0..length-1 of one path per generator, in time slabs.

    Yields (len(rngs), slab_len) blocks, row i from rngs[i], with slab_len <=
    SLAB, that concatenate along axis 1 to the kept window; burn-in is
    simulated and dropped here.  Slabs cut the time axis burn + length at
    multiples of SLAB, and every row draws only from its own generator,
    sequentially in time, so a replica's values do not depend on which rows
    share the call.  Slabs are views of buffers that the next slab
    overwrites (Metropolis slabs are transposed views of time-major ones),
    so a caller must reduce or copy a slab before it calls next().
    """
    rows = len(rngs)
    burn = default_burn_in(spec)
    total = burn + length
    width = min(SLAB, total)

    def draws(laws, out: np.ndarray) -> np.ndarray:
        for i, (law, rng) in enumerate(zip(laws, rngs)):
            out[i] = law.draw(rng, out.shape[1])
        return out

    if isinstance(spec, IIDSpec):
        laws = [spec.marginal] * rows
    elif isinstance(spec, MixtureSpec):
        laws = [mixture_component(_mixture_draw_component(rng)) for rng in rngs]
    elif isinstance(spec, MovingMaxSpec):
        m = int(spec.window)
        laws = [spec.base] * rows
        carry = draws(laws, _empty((rows, m - 1), "window"))
        buf = _empty((rows, m - 1 + width), "window")  # carry, then the slab's draws
    elif isinstance(spec, LindleySpec):
        laws = [spec.step] * rows
        c_prev = np.zeros(rows)  # partial sum of the steps so far
        m_prev = np.zeros(rows)  # its running minimum, floored at 0
        low_buf = np.empty(width)
    elif isinstance(spec, MetropolisSpec):
        x = np.full(rows, spec.init if spec.init is not None
                    else float(spec.target.quantile(0.5)))
        fx = np.asarray(spec.target.pdf(x), dtype=float)
        pdf, where = spec.target.pdf, np.where
        # time-major increment and uniform buffers, and a row-major fill scratch
        zt_buf, ut_buf = np.empty((width, rows)), np.empty((width, rows))
        fill = np.empty((min(FILL_ROWS, rows), width))
    else:
        raise InvalidArgumentError(f"unknown spec {type(spec).__name__}")
    if not isinstance(spec, (MetropolisSpec, MovingMaxSpec)):
        buf = np.empty((rows, width))

    for pos in range(0, total, SLAB):
        s_len = min(SLAB, total - pos)
        if isinstance(spec, MovingMaxSpec):
            # x_t = max(raw_t, ..., raw_{t+m-1}): keep the last m - 1 draws for
            # the next slab, then fold neighbouring maxima m - 1 times in place
            buf[:, :m - 1] = carry
            draws(laws, buf[:, m - 1:m - 1 + s_len])
            carry = buf[:, s_len:s_len + m - 1].copy()
            for k in range(s_len + m - 2, s_len - 1, -1):
                np.maximum(buf[:, :k], buf[:, 1:k + 1], out=buf[:, :k])
            xs = buf[:, :s_len]
        elif isinstance(spec, LindleySpec):
            # X_{j+1} = max(X_j + Z_j, 0) = C_{j+1} - min(0, C_1..C_{j+1}); the
            # carry enters before the cumsum so slabs add up as one long cumsum
            # (the running minimum goes one row at a time through one
            # row-sized buffer, so a slab holds a single slab-sized array)
            xs = draws(laws, buf[:, :s_len])
            xs[:, 0] += c_prev
            np.cumsum(xs, axis=1, out=xs)
            c_prev = xs[:, -1].copy()
            low = low_buf[:s_len]
            for i in range(rows):
                np.minimum.accumulate(xs[i], out=low)
                np.minimum(low, m_prev[i], out=low)
                m_prev[i] = low[-1]
                xs[i] -= low
        elif isinstance(spec, MetropolisSpec):
            # time-major, so each step reads and writes contiguous rows; the
            # chain state overwrites the increment it was built from.  Each
            # row draws its increments, then its uniforms, from its own
            # generator; a group of rows goes in with one transposed copy.
            zt, ut = zt_buf[:s_len], ut_buf[:s_len]
            for lo in range(0, rows, FILL_ROWS):
                group = rngs[lo:lo + FILL_ROWS]
                block = fill[:len(group), :s_len]
                for row, rng in zip(block, group):
                    row[:] = spec.proposal.draw(rng, s_len)
                zt[:, lo:lo + len(group)] = block.T
                for row, rng in zip(block, group):
                    rng.random(s_len, out=row)
                ut[:, lo:lo + len(group)] = block.T
            for z, u in zip(zt, ut):
                # u <= min(fy/fx, 1); a state of zero density always moves
                y = x + z
                fy = pdf(y)
                acc = u * fx <= fy
                x = where(acc, y, x)
                fx = where(acc, fy, fx)
                z[:] = x
            xs = zt.T
        else:
            xs = draws(laws, buf[:, :s_len])
        start = max(burn - pos, 0)
        if start < s_len:
            yield xs[:, start:]


def generate(spec: ProcessSpec, seed: int, length: int) -> SamplePath:
    """Simulate one path of the given length (after any burn-in).

    Identical (spec, seed, length) triples produce identical values.
    """
    if length < 1:
        raise InvalidArgumentError("length must be >= 1")
    tag = describe_spec(spec)
    values = _empty(length, "length")
    pos = 0
    for slab in _path_slabs(spec, [rng_for(seed, "path", tag)], length):
        values[pos:pos + slab.shape[1]] = slab[0]  # copied before next() reuses it
        pos += slab.shape[1]
    if isinstance(spec, LindleySpec):
        return SamplePath(spec, seed, values, burn_in=default_burn_in(spec),
                          regeneration_marks=np.nonzero(values == 0.0)[0])
    if isinstance(spec, MetropolisSpec):
        return SamplePath(spec, seed, values, burn_in=default_burn_in(spec))
    if isinstance(spec, MixtureSpec):
        # the engine drew the component first from this same stream
        k = _mixture_draw_component(rng_for(seed, "path", tag))
        return SamplePath(spec, seed, values, mixture_component=k)
    return SamplePath(spec, seed, values)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _mixture_count_leq(x: float) -> int:
    """Number of mixture levels v_j = j at or below x; HUGE_INDEX for x >= 2**62."""
    x = float(x)
    j = first_index_where(lambda j: float(j) > x, 0)
    return HUGE_INDEX if j is None else j - 1


def _mixture_weight_leq(j: int) -> float:
    # sum of 1/(k(k+1)) over components k with k*k <= j
    return 1.0 - 1.0 / (math.isqrt(j) + 1)


def exact_max_cdf(spec: ProcessSpec, n: int, x: float) -> float:
    """P(max of n consecutive values <= x), exact where a closed form exists."""
    if n < 1:
        raise InvalidArgumentError("block size must be >= 1")
    if isinstance(spec, IIDSpec):
        t = float(spec.marginal.tail(x))
        return math.exp(n * math.log1p(-min(t, 1.0))) if t < 1.0 else 0.0
    if isinstance(spec, MovingMaxSpec):
        t = float(spec.base.tail(x))
        e = n + spec.window - 1
        return math.exp(e * math.log1p(-min(t, 1.0))) if t < 1.0 else 0.0
    if isinstance(spec, MixtureSpec):
        j = _mixture_count_leq(x)
        if j < 1:
            return 0.0
        if j >= HUGE_INDEX:
            return 1.0
        return math.exp(n * math.log1p(-1.0 / j)) * _mixture_weight_leq(j)
    raise NotExactlyComputableError(
        f"no closed-form max law for {describe_spec(spec)}")


def marginal_sf(spec: ProcessSpec, x: float) -> float:
    """Exact stationary marginal tail P(X_1 > x), where known."""
    if isinstance(spec, IIDSpec):
        return float(spec.marginal.tail(x))
    if isinstance(spec, MetropolisSpec):
        return float(spec.target.tail(x))
    if isinstance(spec, MovingMaxSpec):
        t = float(spec.base.tail(x))
        return -math.expm1(spec.window * math.log1p(-min(t, 1.0)))
    if isinstance(spec, MixtureSpec):
        j = _mixture_count_leq(x)
        if j < 1:
            return 1.0
        if j >= HUGE_INDEX:
            return 0.0
        k = math.isqrt(j)
        # components with k*k > j contribute their full weight 1/(K+1)
        return 1.0 / (k + 1) + (1.0 / j) * (1.0 - 1.0 / (k + 1))
    raise NotExactlyComputableError(
        f"no closed-form marginal for {describe_spec(spec)}")


def has_exact_max_law(spec: ProcessSpec) -> bool:
    return isinstance(spec, (IIDSpec, MovingMaxSpec, MixtureSpec))


# ---------------------------------------------------------------------------
# Metropolis diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetropolisCheck:
    ok: bool
    support_connected: bool
    interval_in_support: bool
    monotone_on_interval: bool
    max_constancy_run: float
    proposal_floor: float  # k_h on |x| <= (b-a)/3
    proposal_symmetric: bool
    notes: tuple[str, ...]


# points of each grid that metropolis_config_check probes the densities on
CHECK_GRID_POINTS = 1024


def metropolis_config_check(target_pdf: Callable, proposal_pdf: Callable,
                            a: float, b: float) -> MetropolisCheck:
    """Grid-based check of the mixing conditions for the Metropolis walk.

    (i) the support of the target is connected (one contiguous positive
    run on a wide probe grid containing [a, b]); (ii) the target is
    monotone on [a, b] with no constancy run longer than (b-a)/4;
    (iii) the proposal is symmetric and bounded away from 0 on
    |x| <= (b-a)/3.
    """
    if not b > a:
        raise InvalidArgumentError("need b > a")
    span = b - a
    notes: list[str] = []

    wide = np.linspace(a - 2.0 * span, b + 2.0 * span, 4 * CHECK_GRID_POINTS)
    fw = np.asarray(target_pdf(wide), dtype=float)
    pos = fw > 0.0
    runs = np.nonzero(np.diff(pos.astype(int)))[0]
    support_connected = bool(pos.any() and runs.size <= 2
                             and (runs.size < 2 or pos[runs[0] + 1]))
    if not support_connected:
        notes.append("target support is empty or disconnected on the probe grid")

    xs = np.linspace(a, b, CHECK_GRID_POINTS)
    fv = np.asarray(target_pdf(xs), dtype=float)
    interval_in_support = bool(np.all(fv > 0.0))
    if not interval_in_support:
        notes.append("target density vanishes somewhere on [a, b]")
    scale = float(np.max(np.abs(fv))) if fv.size else 0.0
    tol = 1e-12 * max(scale, 1.0)
    d = np.diff(fv)
    monotone = bool(np.all(d >= -tol) or np.all(d <= tol))
    if not monotone:
        notes.append("target density is not monotone on [a, b]")
    flat = np.abs(d) <= tol
    max_run = 0
    run = 0
    for is_flat in flat:
        run = run + 1 if is_flat else 0
        max_run = max(max_run, run)
    dx = span / (CHECK_GRID_POINTS - 1)
    max_constancy = max_run * dx
    if max_constancy > span / 4.0:
        monotone_ok = False
        notes.append(f"constancy run of length {max_constancy:.3g} exceeds (b-a)/4")
    else:
        monotone_ok = monotone

    half = span / 3.0
    hz = np.linspace(-half, half, CHECK_GRID_POINTS)
    hv = np.asarray(proposal_pdf(hz), dtype=float)
    floor = float(np.min(hv))
    sym = float(np.max(np.abs(hv - hv[::-1]))) <= 1e-9 * max(float(np.max(np.abs(hv))), 1.0)
    if floor <= 0.0:
        notes.append("proposal density is not bounded away from 0 on |x| <= (b-a)/3")
    if not sym:
        notes.append("proposal density is not symmetric about 0")

    ok = support_connected and interval_in_support and monotone_ok and floor > 0.0 and sym
    return MetropolisCheck(ok=ok, support_connected=support_connected,
                           interval_in_support=interval_in_support,
                           monotone_on_interval=monotone_ok,
                           max_constancy_run=float(max_constancy),
                           proposal_floor=floor, proposal_symmetric=sym,
                           notes=tuple(notes))


@dataclass(frozen=True)
class TailShiftReport:
    m: float
    holds: bool
    levels: np.ndarray
    ratio_track: np.ndarray


def target_tail_condition(F: DistFn, m: float) -> TailShiftReport:
    """Does (1 - F(u + m)) / (1 - F(u)) -> 1 toward the right end?

    This is the flat-tail criterion under which a bounded-step chain has
    extremal index zero.  Exponential and bounded-support tails fail it;
    polynomial and slower tails pass.
    """
    if not m > 0:
        raise InvalidArgumentError("shift m must be positive")
    xs = probe_levels(F)
    base = np.asarray(F.tail(xs), dtype=float)
    shifted_tail = np.asarray(F.tail(xs + m), dtype=float)
    keep = base > 0
    track = shifted_tail[keep] / base[keep]
    return TailShiftReport(m=float(m), holds=converges_to(track, 1.0, PROBE_RATIO_TOL),
                           levels=xs[keep], ratio_track=track)


@dataclass(frozen=True)
class TailComparison:
    levels: np.ndarray
    ratio_track: np.ndarray
    verdict: str  # equivalent | ratio->0 | ratio->inf | divergent | mismatched-right-ends


_VERDICT = {"one": "equivalent", "zero": "ratio->0", "inf": "ratio->inf",
            "divergent": "divergent"}

# Looser ratio tolerance for comparisons against an empirical tail: at the
# 0.999 quantile of a 1e5-point path the binomial noise alone is ~10%.
EMPIRICAL_RATIO_TOL = 0.2


def lindley_step_tail_vs_stationary(step: DistFn, values) -> TailComparison:
    """Compare the step tail 1-H against the empirical stationary tail.

    For subexponential steps the stationary tail is one order heavier
    (integrated tail), so the expected verdict is 'ratio->0'.  Probe
    levels are the empirical quantiles at 1 - 2**-j, capped at 0.999.
    """
    values = np.asarray(getattr(values, "values", values), dtype=float)
    if values.size < 100_000:
        raise InsufficientDataError("need at least 1e5 path values")
    vmax = float(values.max())
    if math.isfinite(step.right_end) and vmax > step.right_end:
        return TailComparison(levels=np.array([]), ratio_track=np.array([]),
                              verdict="mismatched-right-ends")
    sorted_vals = np.sort(values)
    qs = 1.0 - 2.0 ** (-np.arange(1.0, PROBE_DEPTH + 1))
    qs = qs[qs <= 0.999]
    idx = np.minimum((qs * values.size).astype(int), values.size - 1)
    levels = np.unique(sorted_vals[idx])
    emp_sf = (values.size - np.searchsorted(sorted_vals, levels, side="right")) \
        / values.size
    step_sf = np.asarray(step.tail(levels), dtype=float)
    keep = emp_sf > 0
    track = step_sf[keep] / emp_sf[keep]
    return TailComparison(levels=levels[keep], ratio_track=track,
                          verdict=_VERDICT[classify_ratio_track(track, EMPIRICAL_RATIO_TOL)])
