"""Stationary process specifications and samplers.

Five kinds are supported: i.i.d. sequences, Lindley recursions (waiting
times of a single-server queue), Metropolis random walks, the frozen
exchangeable mixture (a non-ergodic construction whose component is
drawn once per path), and moving maxima over a sliding window.

Where the max law has a closed form (:func:`exact_max_cdf`), estimators
prefer it; Lindley and Metropolis paths are simulated.

Result records are NamedTuples: immutable, compared and hashed field
by field, and about five times cheaper to define at import than a
frozen dataclass.  A class stays a frozen dataclass only where it
validates in ``__post_init__``, caches, is subclassed or is assigned to
(here the five process specs, some of which validate their fields).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

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
    PROBE_RATIO_TOL,
    PROBE_TAILS,
    ascending_distinct,
    classify_ratio_track,
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
    "generate",
    "exact_max_cdf",
    "marginal_sf",
    "describe_spec",
    "default_burn_in",
    "MetropolisCheck",
    "metropolis_config_check",
    "target_tail_condition",
    "lindley_step_tail_vs_stationary",
]

DEFAULT_BURN_IN = 10_000
# the longest Lindley burn-in a spec may ask for: at about 15 ns a step,
# 0.15 s per replica path
MAX_BURN_IN = 10**7


def _need_quantile(law: DistFn, role: str) -> None:
    """Refuse a law with no quantile where a spec reads one."""
    if law.quantile is None:
        raise InvalidSpecError(f"{role} law {law.name!r} needs a quantile")


@dataclass(frozen=True)
class IIDSpec:
    """X_j i.i.d. with law ``marginal``; block maxima are drawn through
    its quantile."""
    marginal: DistFn

    def __post_init__(self) -> None:
        _need_quantile(self.marginal, "marginal")


@dataclass(frozen=True)
class LindleySpec:
    """X_{j+1} = max(X_j + Z_j, 0) with i.i.d. steps Z; needs E[Z] < 0.

    A path drops a burn-in of max(DEFAULT_BURN_IN, ceil(20 / |E[Z]|))
    steps, which may not exceed MAX_BURN_IN.
    """
    step: DistFn

    def __post_init__(self) -> None:
        mean = self.step.mean
        if mean is None:
            raise InvalidSpecError("step law needs a declared mean to check stability")
        if not mean < 0:
            raise InvalidSpecError(
                f"Lindley recursion is unstable: step mean {mean} >= 0")
        burn = 20.0 / -mean  # inf where the division overflows
        if not burn <= MAX_BURN_IN:
            raise InvalidSpecError(
                f"step mean {mean} needs a burn-in of {burn:.3g} steps; "
                f"at most {MAX_BURN_IN} are allowed")


@dataclass(frozen=True)
class MetropolisSpec:
    """Random-walk Metropolis chain with a symmetric proposal.

    The invariant marginal is ``target`` itself, which is why the target
    is carried as a DistFn (log density included) rather than a bare
    density, and why a chain starts from a draw of it, stationary from its
    first step, with no burn-in.  The chain accepts on the target's log
    density; the proposal's is read only to check its symmetry.
    """
    target: DistFn
    proposal: DistFn

    def __post_init__(self) -> None:
        if self.target.logpdf is None or self.proposal.logpdf is None:
            raise InvalidSpecError("target and proposal need a log density")
        _need_quantile(self.proposal, "proposal")
        z = np.linspace(0.0, 0.999, 101)
        zz = self.proposal.quantile(0.5 + 0.499 * z[1:])
        # isclose fails on NaN and holds where both sides are -inf
        if not np.all(np.isclose(self.proposal.logpdf(zz), self.proposal.logpdf(-zz),
                                 rtol=0.0, atol=1e-9)):
            raise InvalidSpecError("proposal density must be symmetric about 0")
        probe = np.linspace(-100.0, 100.0, 4001)
        if not np.any(np.asarray(self.target.logpdf(probe)) > -np.inf):
            raise InvalidSpecError("target density vanishes on the probe grid")


@dataclass(frozen=True)
class MixtureSpec:
    """Exchangeable mixture: component K with P(K=k) = 1/(k(k+1)), frozen per
    path; the atom levels are v_j = j."""


@dataclass(frozen=True)
class MovingMaxSpec:
    """X_j = max of a window of m i.i.d. base draws; marginal is base**m.
    Block maxima are drawn through the base law's quantile."""
    window: int
    base: DistFn

    def __post_init__(self) -> None:
        if int(self.window) < 1:
            raise InvalidSpecError("window must be >= 1")
        _need_quantile(self.base, "base")


ProcessSpec = IIDSpec | LindleySpec | MetropolisSpec | MixtureSpec | MovingMaxSpec


def describe_spec(spec: ProcessSpec) -> str:
    if isinstance(spec, IIDSpec):
        return f"iid[{spec.marginal.name}]"
    if isinstance(spec, LindleySpec):
        # "burn=None" stays: this text seeds every Lindley path (its
        # rng_for tag) and heads path.txt, so changing it moves their bytes
        return f"lindley[step={spec.step.name},burn=None]"
    if isinstance(spec, MetropolisSpec):
        return f"metropolis[target={spec.target.name},proposal={spec.proposal.name}]"
    if isinstance(spec, MixtureSpec):
        return "exchangeable-mixture"
    if isinstance(spec, MovingMaxSpec):
        return f"moving-max[m={spec.window},base={spec.base.name}]"
    raise InvalidArgumentError(f"unknown spec {type(spec).__name__}")


def spec_digest(spec: ProcessSpec) -> str:
    return hashlib.sha256(describe_spec(spec).encode()).hexdigest()[:16]


def default_burn_in(spec: ProcessSpec) -> int:
    if isinstance(spec, LindleySpec):
        return max(DEFAULT_BURN_IN, math.ceil(20.0 / -spec.step.mean))
    return 0


# ---------------------------------------------------------------------------
# path generation
# ---------------------------------------------------------------------------

SLAB = 16_384  # fixed time-slab length; constant so slab boundaries (and with
               # them the Metropolis draw order) never depend on chunking
FILL_ROWS = 32  # Metropolis rows drawn row-major per transposed block copy
U_STEPS = 256  # Metropolis time steps per block of acceptance uniforms; any
               # value draws the same uniforms, it only sizes the block


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
    SLAB, that concatenate along axis 1 to the kept window; a Lindley
    burn-in is simulated and dropped here.  A Metropolis chain starts from
    a draw of its target, its invariant law, and so has no burn-in.  Slabs
    cut the time axis burn + length at multiples of SLAB, and every row
    draws only from its own generator, sequentially in time, so a
    replica's values do not depend on which rows share the call.  Slabs
    are views of buffers that the next slab overwrites (Metropolis slabs are
    transposed views of time-major ones), so a caller must reduce or copy a
    slab before it calls next().
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
        # the start state: each row's first draw from the target, taken
        # from its own generator before any increment
        x = np.array([spec.target.draw(rng, 1)[0] for rng in rngs])
        lx = np.asarray(spec.target.logpdf(x), dtype=float)
        logpdf, add, copyto = spec.target.logpdf, np.add, np.copyto
        # a time-major increment buffer, a time-major block of U_STEPS
        # uniforms, and a row-major fill scratch
        zt_buf, ut_buf = np.empty((width, rows)), np.empty((min(U_STEPS, width), rows))
        fill = np.empty((min(FILL_ROWS, rows), width))

        def fill_rows(out_t: np.ndarray, draw) -> None:
            # column i of the time-major out_t gets draw(rngs[i], steps),
            # one group of rows per transposed copy
            steps = out_t.shape[0]
            for lo in range(0, rows, FILL_ROWS):
                group = rngs[lo:lo + FILL_ROWS]
                block = fill[:len(group), :steps]
                for row, rng in zip(block, group):
                    row[:] = draw(rng, steps)
                out_t[:, lo:lo + len(group)] = block.T
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
            # row-sized buffer, so a slab holds a single slab-sized array).
            # The slab's burn-in steps, which are never kept, only fold their
            # minimum into m_prev: min is exact, so the kept values are the
            # same bits as with the running minimum taken through them.  The
            # kept window's running minimum is fmin's, which is faster than
            # minimum's and differs from it only on NaN; the partial sums are
            # finite, since the step mean is finite and negative and
            # parse_law refuses a law whose quantile is infinite at any
            # probe level a double reaches
            xs = draws(laws, buf[:, :s_len])
            xs[:, 0] += c_prev
            np.cumsum(xs, axis=1, out=xs)
            c_prev = xs[:, -1].copy()
            skip = min(max(burn - pos, 0), s_len)
            if skip:
                np.minimum(m_prev, xs[:, :skip].min(axis=1), out=m_prev)
            if skip < s_len:
                low = low_buf[:s_len - skip]
                for i in range(rows):
                    np.fmin.accumulate(xs[i, skip:], out=low)
                    np.minimum(low, m_prev[i], out=low)
                    m_prev[i] = low[-1]
                    xs[i, skip:] -= low
        elif isinstance(spec, MetropolisSpec):
            # time-major, so each step reads and writes contiguous rows; the
            # chain state overwrites the increment it was built from.  Each
            # row draws its slab's increments, then its uniforms U_STEPS
            # steps at a time, just before the steps that read them, from
            # its own generator (random(a) then random(b) is random(a + b)
            # on one stream); a group of rows goes in with one transposed copy.
            zt = zt_buf[:s_len]
            fill_rows(zt, spec.proposal.draw)
            for t0 in range(0, s_len, U_STEPS):
                ut = ut_buf[:min(U_STEPS, s_len - t0)]
                fill_rows(ut, np.random.Generator.random)
                with np.errstate(divide="ignore"):  # u = 0 gives log u = -inf
                    np.log(ut, out=ut)
                for z, lu in zip(zt[t0:t0 + ut.shape[0]], ut):
                    # the proposal y = x + z overwrites z and becomes the
                    # state wherever it is accepted: log u + log f(x) <= log
                    # f(y), which is u f(x) <= f(y).  The negation rejects a
                    # NaN sum (log 0 + inf, where u f(x) is 0 * inf) as that
                    # rule does, and a state of zero density (-inf) always
                    # moves.  logpdf returns a new array, which becomes the
                    # state's log density.
                    add(x, z, out=z)
                    ly = logpdf(z)
                    rej = ~(lx + lu <= ly)
                    copyto(z, x, where=rej)
                    copyto(ly, lx, where=rej)
                    x, lx = z, ly
            x = x.copy()  # a row of zt, which the next slab's fill overwrites
            xs = zt.T
        else:
            xs = draws(laws, buf[:, :s_len])
        start = max(burn - pos, 0)
        if start < s_len:
            yield xs[:, start:]


def generate(spec: ProcessSpec, seed: int, length: int) -> np.ndarray:
    """The values of one path of the given length (after any burn-in);
    identical (spec, seed, length) triples produce identical values."""
    if length < 1:
        raise InvalidArgumentError("length must be >= 1")
    values = _empty(length, "length")
    pos = 0
    for slab in _path_slabs(spec, [rng_for(seed, "path", describe_spec(spec))], length):
        values[pos:pos + slab.shape[1]] = slab[0]  # copied before next() reuses it
        pos += slab.shape[1]
    return values


def _regeneration_marks(values: np.ndarray) -> np.ndarray:
    """Where a Lindley path regenerates: the indices of its zeros."""
    return np.flatnonzero(values == 0.0)


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


def _window_law(spec: ProcessSpec) -> tuple[DistFn, int] | None:
    """(base law, window m) of a spec whose values are maxima of m i.i.d.
    base draws, m = 1 for an IID spec; None for the other kinds."""
    if isinstance(spec, IIDSpec):
        return spec.marginal, 1
    if isinstance(spec, MovingMaxSpec):
        return spec.base, spec.window
    return None


def exact_max_cdf(spec: ProcessSpec, n: int, x: float) -> float:
    """P(max of n consecutive values <= x), exact where a closed form exists."""
    if n < 1:
        raise InvalidArgumentError("block size must be >= 1")
    window = _window_law(spec)
    if window is not None:
        base, m = window
        t = float(base.tail(x))
        return math.exp((n + m - 1) * math.log1p(-min(t, 1.0))) if t < 1.0 else 0.0
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

class MetropolisCheck(NamedTuple):
    ok: bool
    support_connected: bool
    monotone_on_interval: bool  # no constancy run longer than (b-a)/4 either
    proposal_floor: float  # k_h on |x| <= (b-a)/3


# points of each grid that metropolis_config_check probes the densities on
CHECK_GRID_POINTS = 1024


def metropolis_config_check(spec: MetropolisSpec, a: float, b: float) -> MetropolisCheck:
    """Grid-based check of the mixing conditions for the Metropolis walk.

    (i) the support of the target is connected (one contiguous run of
    log density above ``-inf`` on a wide probe grid containing [a, b]);
    (ii) the target is positive and monotone on [a, b] with no constancy
    run longer than (b-a)/4, both read on its log density; (iii) the
    proposal is bounded away from 0 on |x| <= (b-a)/3 (its symmetry is the
    spec's own check).  ``ok`` holds when all three do.
    """
    if not b > a:
        raise InvalidArgumentError("need b > a")
    span = b - a

    wide = np.linspace(a - 2.0 * span, b + 2.0 * span, 4 * CHECK_GRID_POINTS)
    pos = np.asarray(spec.target.logpdf(wide), dtype=float) > -np.inf
    runs = np.nonzero(np.diff(pos.astype(int)))[0]
    support_connected = bool(pos.any() and runs.size <= 2
                             and (runs.size < 2 or pos[runs[0] + 1]))

    xs = np.linspace(a, b, CHECK_GRID_POINTS)
    lv = np.asarray(spec.target.logpdf(xs), dtype=float)
    interval_in_support = bool(np.all(lv > -np.inf))
    tol = 1e-12 * max(float(np.max(np.abs(lv), initial=0.0, where=np.isfinite(lv))), 1.0)
    # comparisons rather than differences, so a run of -inf reads as flat
    up = lv[1:] >= lv[:-1] - tol
    down = lv[1:] <= lv[:-1] + tol
    monotone = bool(np.all(up) or np.all(down))
    flat = up & down
    max_run = 0
    run = 0
    for is_flat in flat:
        run = run + 1 if is_flat else 0
        max_run = max(max_run, run)
    dx = span / (CHECK_GRID_POINTS - 1)
    monotone_ok = monotone and max_run * dx <= span / 4.0

    half = span / 3.0
    hz = np.linspace(-half, half, CHECK_GRID_POINTS)
    floor = float(np.exp(np.min(spec.proposal.logpdf(hz))))

    ok = support_connected and interval_in_support and monotone_ok and floor > 0.0
    return MetropolisCheck(ok=ok, support_connected=support_connected,
                           monotone_on_interval=monotone_ok, proposal_floor=floor)


def target_tail_condition(F: DistFn, m: float) -> bool:
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
    return classify_ratio_track(shifted_tail[keep] / base[keep], PROBE_RATIO_TOL) == "one"


_VERDICT = {"one": "equivalent", "zero": "ratio->0", "inf": "ratio->inf",
            "divergent": "divergent"}

# Looser ratio tolerance for comparisons against an empirical tail: at the
# 0.999 quantile of a 1e5-point path the binomial noise alone is ~10%.
EMPIRICAL_RATIO_TOL = 0.2


def _empirical_tail(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct empirical quantiles of a path >= 0 at 1 - 2**-j, capped at
    0.999, and the path's empirical tail at each.

    A Lindley path sits at 0 much of the time, so only its positive values
    are sorted: an order statistic below the count of zeros is 0, and no
    zero lies above a level.
    """
    positive = values[values > 0.0]
    positive.sort()
    zeros = values.size - positive.size
    qs = 1.0 - PROBE_TAILS
    qs = qs[qs <= 0.999]
    ranks = np.minimum((qs * values.size).astype(int), values.size - 1) - zeros
    order_stats = np.zeros(ranks.size)
    order_stats[ranks >= 0] = positive[ranks[ranks >= 0]]
    # qs ascends, so the levels are ascending and finite: adjacent
    # differences dedupe them (np.unique imports numpy.ma on its first call)
    levels = ascending_distinct(order_stats)
    emp_sf = (positive.size - np.searchsorted(positive, levels, side="right")) / values.size
    return levels, emp_sf


def lindley_step_tail_vs_stationary(step: DistFn, values: np.ndarray) -> str:
    """Verdict of the step tail 1-H against the empirical stationary tail:
    'equivalent', 'ratio->0', 'ratio->inf', 'divergent' or
    'mismatched-right-ends'.

    For subexponential steps the stationary tail is one order heavier
    (integrated tail), so the expected verdict is 'ratio->0'.  Probe
    levels are the empirical quantiles at 1 - 2**-j, capped at 0.999.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 100_000:
        raise InsufficientDataError("need at least 1e5 path values")
    if not values.min() >= 0.0:  # NaN fails too
        raise InvalidArgumentError("a Lindley path is >= 0")
    vmax = float(values.max())
    if math.isfinite(step.right_end) and vmax > step.right_end:
        return "mismatched-right-ends"
    levels, emp_sf = _empirical_tail(values)
    step_sf = np.asarray(step.tail(levels), dtype=float)
    keep = emp_sf > 0
    track = step_sf[keep] / emp_sf[keep]
    return _VERDICT[classify_ratio_track(track, EMPIRICAL_RATIO_TOL)]
