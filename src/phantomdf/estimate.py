"""Monte Carlo and exact estimators for max laws and phantom inputs.

Block maxima come from independent blocks; for Markov kinds that means
independent stationary paths (a Lindley path after its own burn-in, a
Metropolis chain from a draw of its target), each from its own seed
substream and each as long as the largest block it serves, so results do
not depend on the worker count.  A phantom's fit table reads R of them
at every block size up to the largest verified block and fewer above it,
where the verdict reads its knots only near G^n = 1.  For kinds with a
closed-form max law the block maxima are drawn by inverse transform from
that law, one uniform per replica, shared across block sizes (which makes
estimated driving levels monotone in n for free).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .distributions import DistFn
from .errors import (
    InsufficientDataError,
    InvalidArgumentError,
    NotExactlyComputableError,
    NotRegenerativeError,
)
from .grids import HUGE_INDEX, first_index_where
from .phantom import (PhantomDistFn, PhantomVerification, driving_from_estimates,
                      verify_phantom)
from .processes import (
    FILL_ROWS,
    IIDSpec,
    LindleySpec,
    MetropolisSpec,
    MixtureSpec,
    MovingMaxSpec,
    ProcessSpec,
    SamplePath,
    _empty,
    _mixture_count_leq,
    _mixture_draw_component,
    _mixture_weight_leq,
    _path_slabs,
    describe_spec,
    exact_max_cdf,
    generate,
    has_exact_max_law,
    lindley_step_tail_vs_stationary,
    marginal_sf,
)
from .seeding import rng_for

__all__ = [
    "MaxLawRow",
    "MaxLawEstimate",
    "exact_maxlaw",
    "DrivingSeqEstimate",
    "estimate_driving_sequence",
    "driving_from_maxima",
    "maxlaw_from_maxima",
    "block_maxima_table",
    "BTPair",
    "BTRow",
    "BTReport",
    "check_BT",
    "CnDiagnostic",
    "estimate_Cn",
    "PropBasicRow",
    "PropBasicSeries",
    "propbasic_series",
    "RegenStats",
    "decompose_regenerative",
    "rootzen_phantom",
    "CycleTailBand",
    "cycle_tail_ratio",
    "ThetaRow",
    "ThetaEstimate",
    "estimate_theta_single_sequence",
    "theta_from_driving",
    "divergence_rule",
    "VERIFY_RULE",
    "fit_phantom",
    "two_sided_gaps",
    "verify_by_simulation",
    "RegenPhantom",
    "regen_phantom",
]

MIN_REPLICAS = 200
# Most rows per replica chunk, by kernel shape; one chunk is one _path_slabs
# call.  The Metropolis kernel steps time with six numpy calls per time step
# plus the target's log density (four more for symmetric_pareto at unit
# scale), each over all rows of its chunk, so rows make a chain step
# cheaper: up to 512 rows, 512 x SLAB x 8 B = 64 MB per slab array.  The
# other kernels loop over rows and vectorise along time, so their chunk only
# sets memory: FILL_ROWS rows, 4 MB per slab array.
_STEP_ROWS = 512


def _chunk_rows(spec: ProcessSpec) -> int:
    return _STEP_ROWS if isinstance(spec, MetropolisSpec) else FILL_ROWS


def _chunk_plan(lengths: np.ndarray, workers: int,
                cap: int) -> tuple[list[tuple[int, int]], int]:
    """Replica chunks [lo, hi) of at most ``cap`` rows, each inside one run
    of equal ``lengths``, and the number of processes to run them.

    Each run is cut into ceil(rows / workers)-row chunks, longest run
    first, so the pool starts on the longest paths.  The worker count is
    clamped to the core count before it sizes the chunks, so no value forks
    more processes than there are cores or cuts a run into more chunks than
    that clamp and the cap need.
    """
    if workers < 1:
        raise InvalidArgumentError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    lengths = np.asarray(lengths)
    starts = np.flatnonzero(np.diff(lengths, prepend=-1)).tolist()  # none when empty
    runs = sorted(zip(starts, [*starts[1:], lengths.size]), key=lambda run: -lengths[run[0]])
    chunks = []
    for lo, hi in runs:
        size = min(max(1, math.ceil((hi - lo) / workers)), cap)
        chunks += [(a, min(a + size, hi)) for a in range(lo, hi, size)]
    return chunks, min(workers, len(chunks))


# The chunk function of the running _map_chunks call.  Specs carry closures
# that do not pickle, so forked workers inherit it instead of receiving it.
_CHUNK_FN: Callable[[int, int], object] | None = None


def _run_chunk(bounds: tuple[int, int]):
    return _CHUNK_FN(*bounds)


def _map_chunks(fn: Callable[[int, int], object], lengths: np.ndarray, workers: int,
                cap: int) -> list[tuple[tuple[int, int], object]]:
    """[((lo, hi), fn(lo, hi))] over the replica chunks of ``lengths`` (at
    most ``cap`` rows of one length each), longest first.

    With more than one process the chunks run in a pool forked after
    _CHUNK_FN is set; only the bounds go out and the chunk results come
    back.  Every replica draws from its own substream, so the results do
    not depend on the worker count or on scheduling.
    """
    global _CHUNK_FN
    chunks, procs = _chunk_plan(lengths, workers, cap)
    if procs <= 1:  # one chunk or one worker; no chunks when there are no replicas
        return [((lo, hi), fn(lo, hi)) for lo, hi in chunks]
    # imported here so that one-worker runs load no process machinery
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    _CHUNK_FN = fn
    try:
        with ProcessPoolExecutor(procs, mp_context=get_context("fork")) as pool:
            return list(zip(chunks, pool.map(_run_chunk, chunks)))
    finally:
        _CHUNK_FN = None


def _window_maxima(spec: ProcessSpec, windows: Sequence[tuple[int, int]], lengths,
                   seed: int, tag: str, workers: int = 1) -> tuple[np.ndarray, int]:
    """max(X_a, ..., X_{b-1}) for each window [a, b) of each replica's path,
    and the number of moves of the Metropolis chains.

    Replica r draws from rng_for(seed, tag, r) and its path runs to
    ``lengths[r]``, at most the largest b.  The maxima are
    (len(windows), len(lengths)); an empty window gives -inf, and a window
    that ends past its replica's path gives nan.  Each chunk runs rows of
    one length through one path call.  Every path draws as a path to the
    longest length would, so a replica's values are the first of its path
    at that length, whatever its own length and however the rows are cut.
    The window ends cut the time axis into segments, the slab scan reads
    each segment's max once, and a window's max is the max of its segments,
    so every path value is read once whatever the windows.  The moves are
    the steps t >= 1 of every path with X_t != X_{t-1}: with a continuous
    proposal, the accepted ones.  Other kinds count none.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    horizon = int(lengths.max(initial=0))
    cuts = np.unique([0, *(t for w in windows for t in w)])
    at = {int(t): j for j, t in enumerate(cuts)}
    ends = np.array([b for _, b in windows])
    count_moves = isinstance(spec, MetropolisSpec)

    def chunk(lo: int, hi: int) -> tuple[np.ndarray, int]:
        length = int(lengths[lo])  # every row of a chunk runs this far
        rngs = [rng_for(seed, tag, r) for r in range(lo, hi)]
        seg = np.full((cuts.size - 1, hi - lo), -np.inf)  # max over [cuts[j], cuts[j+1])
        pos = moves = 0
        last = None  # the last value of the slab before
        for slab in _path_slabs(spec, rngs, length, horizon):
            end = pos + slab.shape[1]
            for j in range(np.searchsorted(cuts, pos, side="right") - 1,
                           np.searchsorted(cuts, end)):
                a, b = max(cuts[j], pos) - pos, min(cuts[j + 1], end) - pos
                np.maximum(seg[j], slab[:, a:b].max(axis=1), out=seg[j])
            if count_moves:
                # one comparison over the slab, and its first step against
                # the slab before
                moves += np.count_nonzero(slab[:, 1:] != slab[:, :-1])
                if last is not None:
                    moves += np.count_nonzero(slab[:, 0] != last)
                last = slab[:, -1].copy()
            pos = end
        maxima = np.array([seg[at[a]:at[b]].max(axis=0, initial=-np.inf)
                           for a, b in windows])
        maxima[ends > length] = np.nan
        return maxima, moves

    out = _empty((len(windows), lengths.size), "replicas")
    moves = 0
    for (lo, hi), (part, part_moves) in _map_chunks(chunk, lengths, workers,
                                                    _chunk_rows(spec)):
        out[:, lo:hi] = part
        moves += part_moves
    return out, moves


def _acceptance_rate(spec: ProcessSpec, moves: int, lengths) -> float | None:
    """The moves per step of Metropolis paths of the given lengths, each
    path's steps after its first value; None for other kinds."""
    steps = int(np.maximum(np.asarray(lengths) - 1, 0).sum())
    return moves / steps if isinstance(spec, MetropolisSpec) and steps else None


def _validate_sizes(block_sizes) -> list[int]:
    ns = [int(n) for n in np.atleast_1d(block_sizes)]
    if not ns or any(n < 1 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidArgumentError("block sizes must be strictly increasing, >= 1")
    return ns


def _check_replicas(R: int) -> None:
    if R < MIN_REPLICAS:
        raise InvalidArgumentError(f"need at least {MIN_REPLICAS} replicas, got {R}")


def _check_gamma(gamma: float) -> None:
    if not (0.0 < gamma < 1.0):
        raise InvalidArgumentError("gamma must lie strictly inside (0, 1)")


# ---------------------------------------------------------------------------
# block maxima
# ---------------------------------------------------------------------------

class _MaximaTable:
    """Block maxima per block size n, every column ascending.

    ``replicas[n]`` is the number of maxima in column n; ``values(n, ranks)``
    gives column n at 1-based ascending ranks, and the estimators read a
    column only through ``at`` and ``count_leq``.  ``acceptance_rate`` is
    the share of the Metropolis chains' steps that moved, None for other
    kinds.
    """

    def __init__(self, n_list: Sequence[int], replicas: Sequence[int],
                 values: Callable[[int, np.ndarray], np.ndarray],
                 acceptance_rate: float | None) -> None:
        self.n_list, self._values = tuple(n_list), values
        self.replicas = dict(zip(self.n_list, (int(k) for k in replicas)))
        self.acceptance_rate = acceptance_rate

    def at(self, n: int, ranks: np.ndarray) -> np.ndarray:
        """Column n at the ascending 1-based ``ranks``; values that decrease
        across them (a quantile that is not monotone) are rejected."""
        vals = self._values(n, ranks)
        _check_ascending(vals)
        return vals

    def count_leq(self, n: int, x: float, start: int) -> int:
        """Values of column n at or below x, given that the value at rank
        ``start`` is (or that ``start`` is 0).

        Equal values form one run of ranks, so the first rank above x, found
        by doubling and bisection past ``start``, is exact.
        """
        read: dict[int, float] = {}

        def above(j: int) -> bool:
            k = start + j
            if k > self.replicas[n]:
                return True
            read[k] = float(self._values(n, np.array([k]))[0])
            return read[k] > x

        count = start + first_index_where(above, 0) - 1
        _check_ascending(np.array([read[k] for k in sorted(read)]))
        return count


def _check_ascending(values: np.ndarray) -> None:
    if np.any(values[1:] < values[:-1]):
        raise InvalidArgumentError(
            "block maxima decrease across the ranks read: the quantile is not monotone")


def _knot_replicas(n_list: Sequence[int], R: int, n_max: int) -> np.ndarray:
    """Replicas per block size of a fit table whose largest verified block
    is ``n_max``: R up to n_max, then min(R, max(MIN_REPLICAS, ceil(R f(s))))
    at s = n / n_max > 1, with f(s) = (e - 1) e^{-1/s} s^{-2} / (1 - e^{-1/s}).

    A knot at n is read at a verified block's levels where G^{n_max} is
    about gamma^{1/s}; with gamma = 1/e, R f(s) replicas there keep the
    phantom's delta-method SE within the max law's SE at R replicas
    (README).  f(1) = 1 and f falls for s >= 1, so the counts never rise
    with n.
    """
    s = np.asarray(n_list, dtype=float) / n_max
    f = (math.e - 1.0) * np.exp(-1.0 / s) / (s * s * -np.expm1(-1.0 / s))
    counts = np.minimum(R, np.maximum(MIN_REPLICAS, np.ceil(R * f))).astype(np.int64)
    return np.where(s <= 1.0, R, counts)


def block_maxima_table(spec: ProcessSpec, block_sizes, R: int, seed: int,
                       tag: str = "maxlaw", workers: int = 1,
                       budget_above: int | None = None) -> _MaximaTable:
    """Block maxima for each requested block size, every column ascending.

    The estimators read each column by rank.  IID and moving-max maxima are
    Q(u**(1/(n + shift))) of sorted uniforms u, with Q evaluated only at the
    ranks read, so the table holds R log-uniforms whatever the number of
    block sizes.  Monte-Carlo (Markov) and mixture maxima are sorted once,
    when the table is built.  A column whose values decrease across the
    ranks read (a quantile that is not monotone) is rejected.

    Every column holds R maxima, except that a Monte-Carlo table given
    ``budget_above`` holds only the first ``_knot_replicas`` of R at the
    block sizes above it: replica r runs to the largest block size whose
    count includes it.  Transform columns cost nothing per block size and
    keep R.
    """
    n_list = _validate_sizes(block_sizes)
    accept = None
    counts = np.full(len(n_list), R)
    if not has_exact_max_law(spec):
        if budget_above is not None:
            counts = _knot_replicas(n_list, R, budget_above)
        lengths = np.zeros(R, dtype=np.int64)
        for n, k in zip(n_list, counts):
            lengths[:k] = n
        maxima, moves = _window_maxima(spec, [(0, n) for n in n_list], lengths, seed,
                                       tag, workers)
        accept = _acceptance_rate(spec, moves, lengths)
    else:
        # the uniforms become log-uniforms in place: one R-sized array
        logu = rng_for(seed, tag, "maxima").random(out=_empty(R, "replicas"))
        np.log(np.maximum(logu, 1e-300, out=logu), out=logu)
        if isinstance(spec, (IIDSpec, MovingMaxSpec)):
            logu.sort()
            quantile, shift = ((spec.marginal.quantile, 0) if isinstance(spec, IIDSpec)
                               else (spec.base.quantile, spec.window - 1))
            # one numpy expression for whole columns and single ranks alike,
            # so a rank read carries the very bits of the built column
            return _MaximaTable(n_list, counts, lambda n, ranks: np.asarray(
                quantile(np.exp(logu[ranks - 1] / (n + shift))), dtype=float), None)
        krng = rng_for(seed, tag, "component")  # drawn after the uniforms
        ks = np.array([_mixture_draw_component(krng) for _ in range(R)], dtype=np.int64)
        bases = ks.astype(float) ** 2
        maxima = _empty((len(n_list), R), "replicas")
        for row, n in zip(maxima, n_list):
            t = -np.expm1(logu / n)  # tail level of the per-component quantile
            idx = np.maximum(np.ceil(1.0 / np.maximum(t, 1e-300)), bases)
            np.minimum(idx, float(HUGE_INDEX), out=row)  # the level v_idx = idx
    for row, k in zip(maxima, counts):
        row[:k].sort()  # a column's own replicas; the rest ran shorter paths
    row_of = {n: i for i, n in enumerate(n_list)}
    return _MaximaTable(n_list, counts, lambda n, ranks: maxima[row_of[n], ranks - 1],
                        accept)


# ---------------------------------------------------------------------------
# max law estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxLawRow:
    n: int
    levels: np.ndarray
    p_hat: np.ndarray
    se: np.ndarray
    replicas: int = 0  # the block maxima behind p_hat; 0 for a closed form


@dataclass(frozen=True)
class MaxLawEstimate:
    rows: tuple[MaxLawRow, ...]


def exact_max_quantile(spec: ProcessSpec, n: int, p: float) -> float:
    """inf{x : P(M_n <= x) >= p} from the closed-form max law."""
    if not (0.0 < p < 1.0):
        raise InvalidArgumentError("probability must lie in (0, 1)")
    if isinstance(spec, IIDSpec):
        return float(spec.marginal.quantile(math.exp(math.log(p) / n)))
    if isinstance(spec, MovingMaxSpec):
        e = n + spec.window - 1
        return float(spec.base.quantile(math.exp(math.log(p) / e)))
    if isinstance(spec, MixtureSpec):
        # smallest j > 1 with P(M_n <= v_j) = (1 - 1/j)**n P(K*K <= j) >= p
        j = first_index_where(
            lambda j: math.exp(n * math.log1p(-1.0 / j)) * _mixture_weight_leq(j) >= p, 1)
        if j is None:
            raise InvalidArgumentError("quantile index overflow")
        return float(j)
    raise NotExactlyComputableError(f"no closed form for {describe_spec(spec)}")


def _type1_rank(p: float, R: int) -> int:
    """1-based rank of the type-1 empirical p-quantile of R values."""
    return min(max(1, math.ceil(p * R)), R)


def _binom_quantile(q: float, R: int, p: float) -> int:
    """Smallest k with P(Bin(R, p) <= k) >= q, up to the rounding of the sum.

    The pmf is summed over R p +- t, clipped to [0, R]; with
    t = 25 + sqrt(625 + 150 var), about 12.25 SD at large R, Bernstein's
    inequality leaves less than 1e-32 of the mass outside, too little to
    move a rank.  The log-pmf comes from the ratios pmf(k+1) / pmf(k), each
    of order one, so no large log-gamma values cancel even at R = 1e6.
    """
    mean = R * p
    half = 25.0 + math.sqrt(625.0 + 150.0 * mean * (1.0 - p))
    lo = max(0, math.floor(mean - half))
    hi = min(R, math.ceil(mean + half))
    k = np.arange(lo, hi, dtype=float)
    steps = np.log((R - k) / (k + 1.0)) + (math.log(p) - math.log1p(-p))
    log_pmf = np.concatenate(([0.0], np.cumsum(steps)))
    cdf = np.cumsum(np.exp(log_pmf - log_pmf.max()))
    return lo + int(np.searchsorted(cdf / cdf[-1], q, side="left"))


def exact_maxlaw(spec: ProcessSpec, block_sizes, probs) -> MaxLawEstimate:
    """Closed-form max law at the exact ``probs``-quantiles of each block size."""
    rows = []
    for n in _validate_sizes(block_sizes):
        xs = np.unique([exact_max_quantile(spec, n, float(p)) for p in probs])
        p = np.array([exact_max_cdf(spec, n, float(x)) for x in xs])
        rows.append(MaxLawRow(n=n, levels=xs, p_hat=p, se=np.zeros_like(p)))
    return MaxLawEstimate(rows=tuple(rows))


# ---------------------------------------------------------------------------
# driving sequence estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DrivingSeqEstimate:
    gamma: float
    n_values: np.ndarray
    v_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    method: str
    replicas: np.ndarray  # block maxima behind each level; 0 for a closed form
    raw_violations: int = 0
    acceptance_rate: float | None = None  # of the Metropolis chains behind it

    def row(self, n: int) -> tuple[float, float, float]:
        """(v_hat, ci_lo, ci_hi) stored for block size n."""
        idx = np.nonzero(self.n_values == int(n))[0]
        if idx.size == 0:
            raise InvalidArgumentError(f"no driving level stored for n={n}")
        i = idx[0]
        return float(self.v_hat[i]), float(self.ci_lo[i]), float(self.ci_hi[i])

    def level_for(self, n: int) -> float:
        return self.row(n)[0]


def driving_from_maxima(gamma: float, table: _MaximaTable) -> DrivingSeqEstimate:
    """Driving-sequence estimate from an existing block-maxima table, each
    level and its CI read at its own column's replica count."""
    _check_gamma(gamma)
    n_list = list(table.n_list)
    counts = np.array([table.replicas[n] for n in n_list])
    ranks = {R: np.array([max(_binom_quantile(0.025, R, gamma), 1),
                          _type1_rank(gamma, R),
                          min(_binom_quantile(0.975, R, gamma) + 1, R)])
             for R in np.unique(counts).tolist()}
    reads = [table.at(n, ranks[R]) for n, R in zip(n_list, counts.tolist())]
    ci_lo, v_hat, ci_hi = np.array(reads, dtype=float).reshape(-1, 3).T.copy()
    violations = int(np.count_nonzero(np.diff(v_hat) < 0))
    return DrivingSeqEstimate(gamma=gamma, n_values=np.asarray(n_list),
                              v_hat=np.maximum.accumulate(v_hat),
                              ci_lo=ci_lo, ci_hi=ci_hi, method="monte-carlo",
                              replicas=counts, raw_violations=violations,
                              acceptance_rate=table.acceptance_rate)


def maxlaw_from_maxima(table: _MaximaTable, probs=None,
                       level_cap: float | None = None) -> MaxLawEstimate:
    """Max-law estimate on empirical-quantile grids of an existing table,
    each column read at its own replica count.

    ``level_cap`` drops grid levels above a known evaluation bound (for
    comparison against a phantom whose last knot level is that bound).
    """
    if probs is None:
        probs = np.linspace(0.01, 0.99, 33)
    rows = []
    for n in table.n_list:
        R = table.replicas[n]
        ranks = np.unique(np.array([_type1_rank(float(p), R) for p in probs],
                                   dtype=np.int64))
        vals = table.at(n, ranks)
        xs = np.unique(vals)
        if level_cap is not None:
            xs = xs[xs <= level_cap]
        # each level's count starts from the last rank read at that level
        starts = ranks[np.searchsorted(vals, xs, side="right") - 1]
        p = np.array([table.count_leq(n, x, int(k)) for x, k in zip(xs, starts)],
                     dtype=np.int64) / R
        se = np.sqrt(p * (1.0 - p) / R)
        rows.append(MaxLawRow(n=n, levels=xs, p_hat=p, se=se, replicas=R))
    return MaxLawEstimate(rows=tuple(rows))


def _resolve_method(spec: ProcessSpec, method: str) -> str:
    """'exact' or 'monte-carlo'; 'auto' picks exact where a closed form exists."""
    if method not in ("auto", "exact", "monte-carlo"):
        raise InvalidArgumentError(
            f"method must be 'auto', 'exact' or 'monte-carlo', got {method!r}")
    if method == "auto":
        return "exact" if has_exact_max_law(spec) else "monte-carlo"
    return method


def estimate_driving_sequence(spec: ProcessSpec, gamma: float, block_sizes,
                              R: int = 1000, seed: int = 0,
                              method: str = "auto",
                              workers: int = 1) -> DrivingSeqEstimate:
    """Estimate v_n = inf{x : P(M_n <= x) >= gamma} for each block size.

    Exact mode inverts the closed-form max law; Monte Carlo mode takes
    the type-1 empirical gamma-quantile of R block maxima, with an
    order-statistic confidence interval, and enforces monotonicity in n
    by a running maximum (violations are counted, not hidden).
    """
    _check_gamma(gamma)
    n_list = _validate_sizes(block_sizes)
    method = _resolve_method(spec, method)
    if method == "exact":
        v = np.array([exact_max_quantile(spec, n, gamma) for n in n_list])
        return DrivingSeqEstimate(gamma=gamma, n_values=np.asarray(n_list),
                                  v_hat=v, ci_lo=v.copy(), ci_hi=v.copy(),
                                  method="exact", replicas=np.zeros(len(n_list), int))
    _check_replicas(R)
    table = block_maxima_table(spec, n_list, R, seed, tag="driving", workers=workers)
    return driving_from_maxima(gamma, table)


# ---------------------------------------------------------------------------
# long-range factorization check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BTPair:
    p: int
    q: int
    value: float  # P(M_{p+q} <= v) - P(M_p <= v) P(M_q <= v)
    se: float


@dataclass(frozen=True)
class BTRow:
    n: int
    level: float
    b_value: float
    pairs: tuple[BTPair, ...]
    cov_diag: float  # Cov(1{M_{p-r_n} <= v}, 1{max over (p, p+q] <= v}), worst pair


@dataclass(frozen=True)
class BTReport:
    T: float
    method: str
    replicas: int
    r_exponent: float
    r_adjusted: bool
    rows: tuple[BTRow, ...]
    acceptance_rate: float | None  # of the Monte-Carlo Metropolis chains

    def max_b(self) -> float:
        return max((r.b_value for r in self.rows), default=0.0)


_DEFAULT_PAIR_FRACTIONS = ((0.5, 0.5), (1.0, 0.5), (0.5, 1.0), (1.0, 1.0))


def _bt_exact_cov(spec: ProcessSpec, v: float, p: int, q: int, r: int) -> float:
    a_len = p - r
    if a_len < 1:
        return 0.0
    if isinstance(spec, IIDSpec):
        return 0.0
    if isinstance(spec, MovingMaxSpec):
        m = spec.window
        overlap = max(0, (a_len + m - 1) - p)
        f = 1.0 - float(spec.base.tail(v))
        if f <= 0.0:
            return 0.0
        total = (a_len + m - 1) + (q + m - 1)
        return f ** (total - overlap) - f ** total
    if isinstance(spec, MixtureSpec):
        j = _mixture_count_leq(v)
        if j < 1 or j >= HUGE_INDEX:
            return 0.0
        c = _mixture_weight_leq(j)
        base = math.exp((a_len + q) * math.log1p(-1.0 / j))
        return c * (1.0 - c) * base
    raise NotExactlyComputableError("no closed-form covariance")


def _product_gap_se(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Delta-method SE of mean(a) - mean(b) mean(c), for indicator rows a, b
    and c read off the same replicas."""
    cov = np.cov(np.vstack([a, b, c]).astype(float), ddof=1) / a.size
    grad = np.array([1.0, -c.mean(), -b.mean()])
    return float(np.sqrt(max(grad @ cov @ grad, 0.0)))


def check_BT(spec: ProcessSpec, dse: DrivingSeqEstimate, T: float = 2.0,
             n_list=None, pair_fractions=_DEFAULT_PAIR_FRACTIONS,
             R: int = 1000, seed: int = 0, method: str = "auto",
             workers: int = 1) -> BTReport:
    """Factorization check sup |P(M_{p+q} <= v_n) - P(M_p <= v_n) P(M_q <= v_n)|.

    Pairs (p, q) come from fractions of n and must satisfy p + q <= T n.
    Alongside the b-values each row carries the covariance diagnostic
    Cov(1{M_{p-r} <= v}, 1{window max over (p, p+q] <= v}) at its worst pair,
    with r_n = max(1, floor(n**e)); e starts at 1/3 and is lowered to 1/4
    then 1/5 if floor(n**e) * P(X_1 > v_n) fails to decay along n_list.
    Monte Carlo reads every block size off one replica set, tagged by the
    largest block, whose paths run to the largest p + q as they would for
    that block alone; on a Metropolis chain the report carries the share of
    those paths' steps that moved.
    """
    if not (math.isfinite(T) and T > 0):
        raise InvalidArgumentError(f"T must be finite and positive, got {T:g}")
    if n_list is None:
        n_list = [int(n) for n in dse.n_values]
    n_list = _validate_sizes(n_list)
    method = _resolve_method(spec, method)

    pair_table: dict[int, list[tuple[int, int]]] = {}
    for n in n_list:
        prs = []
        for f1, f2 in pair_fractions:
            p, q = max(1, round(f1 * n)), max(1, round(f2 * n))
            if p + q > T * n:
                raise InvalidArgumentError(
                    f"pair ({p},{q}) violates p + q <= T*n at n={n}")
            prs.append((p, q))
        pair_table[n] = prs

    # marginal tails at the driving levels, for the choice of the r_n exponent
    tails = {}
    for n in n_list:
        v = dse.level_for(n)
        try:
            tails[n] = marginal_sf(spec, v)
        except NotExactlyComputableError:
            tails[n] = None  # filled from simulation below

    candidates = (1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0)

    rows = []
    if method == "exact":
        for n in n_list:
            v = dse.level_for(n)
            prs = []
            for p, q in pair_table[n]:
                d = exact_max_cdf(spec, p + q, v) \
                    - exact_max_cdf(spec, p, v) * exact_max_cdf(spec, q, v)
                prs.append(BTPair(p=p, q=q, value=d, se=0.0))
            rows.append((n, v, prs, None))
        replicas, accept = 0, None
    else:
        _check_replicas(R)
        replicas = R
        # the windows [0, t) for t = 1, p, q, p + q and p - r_n (under every
        # candidate exponent: it is chosen after all rows), and (p, p + q],
        # of every block size
        pairs = [(n, p, q) for n in n_list for p, q in pair_table[n]]
        heads = [1, *(t for _, p, q in pairs for t in (p, q, p + q)),
                 *(max(p - max(1, math.floor(n ** e)), 0)
                   for n, p, _ in pairs for e in candidates)]
        windows = [(0, t) for t in heads] + [(p, p + q) for _, p, q in pairs]
        lengths = np.full(R, max(b for _, b in windows))
        maxima, moves = _window_maxima(spec, windows, lengths, seed,
                                       f"bt-{n_list[-1]}", workers)
        maxima = dict(zip(windows, maxima))
        accept = _acceptance_rate(spec, moves, lengths)
        for n in n_list:
            v = dse.level_for(n)
            le = {w: m <= v for w, m in maxima.items()}
            if tails[n] is None:
                tails[n] = np.count_nonzero(~le[0, 1]) / R  # first value above v
            prs = []
            for p, q in pair_table[n]:
                ipq, ip, iq = le[0, p + q], le[0, p], le[0, q]
                d = ipq.mean() - ip.mean() * iq.mean()
                prs.append(BTPair(p=p, q=q, value=float(d),
                                  se=_product_gap_se(ipq, ip, iq)))
            rows.append((n, v, prs, le))

    # choose the r exponent so that r_n * tail decays along n_list
    for chosen in candidates:  # the last one when none decays
        prods = [math.floor(n ** chosen) * tails[n] for n in n_list]
        if all(b <= a * 1.05 for a, b in zip(prods, prods[1:])):
            break
    adjusted = chosen != candidates[0]

    out_rows = []
    for n, v, prs, le in rows:
        worst = max(prs, key=lambda b: abs(b.value))
        r_n = max(1, math.floor(n ** chosen))
        if le is None:
            cov = _bt_exact_cov(spec, v, worst.p, worst.q, r_n)
        else:
            a = le[0, max(worst.p - r_n, 0)].astype(float)
            b = le[worst.p, worst.p + worst.q].astype(float)
            cov = float(np.mean(a * b) - a.mean() * b.mean())
        out_rows.append(BTRow(n=n, level=v, b_value=abs(worst.value),
                              pairs=tuple(prs), cov_diag=cov))
    return BTReport(T=float(T), method=method, replicas=replicas,
                    r_exponent=chosen, r_adjusted=adjusted, rows=tuple(out_rows),
                    acceptance_rate=accept)


# ---------------------------------------------------------------------------
# skeleton diagnostic and the sandwich series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CnDiagnostic:
    c_hat: float
    c_se: float  # delta-method SE of the worst skeleton difference
    p_single: float
    sandwich_ok: bool


def estimate_Cn(spec: ProcessSpec, level: float, n: int, m: int, k: int,
                R: int = 1000, seed: int = 0, gamma: float | None = None,
                workers: int = 1) -> CnDiagnostic:
    """Skeleton factorization diagnostic at spacing m with k skeleton points.

    Z_j is the max of X_m, X_{2m}, ..., X_{jm}; the statistic is
    C_hat = max_{2<=j<=k} |P(Z_j <= v) - P(X_1 <= v) P(Z_{j-1} <= v)|,
    reported with the delta-method SE of its worst j, and the report checks
    the sandwich
    gamma <= P(M_n <= v) <= P(X_1 <= v)**k + k * C_hat within 3 SE.
    """
    if k < 2 or m < 1:
        raise InvalidArgumentError("need k >= 2 and m >= 1")
    if k * m > n:
        raise InvalidArgumentError("need k * m <= n")
    _check_replicas(R)
    v = float(level)
    skel_t = [j * m - 1 for j in range(1, k + 1)]  # times of X_m, X_2m, ..., X_km
    windows = [(0, 1), (0, n), *((t, t + 1) for t in skel_t)]
    # k m <= n: every window ends by n
    below = _window_maxima(spec, windows, np.full(R, n), seed, f"cn-{n}-{m}-{k}",
                           workers)[0] <= v
    single_le, max_le = below[0], below[1]
    skel_le = np.minimum.accumulate(below[2:].T, axis=1)
    pz = skel_le.mean(axis=0)  # P(Z_j <= v), j = 1..k
    p1 = float(single_le.mean())
    pmn = float(max_le.mean())
    diffs = np.abs(pz[1:] - p1 * pz[:-1])
    j = int(np.argmax(diffs))  # Z_{j+2} against X_1 and Z_{j+1}
    c_hat = float(diffs[j])
    c_se = _product_gap_se(skel_le[:, j + 1], single_le, skel_le[:, j])
    se1 = math.sqrt(p1 * (1.0 - p1) / R)
    semn = math.sqrt(pmn * (1.0 - pmn) / R)
    bound = p1 ** k + k * c_hat
    se_bound = k * p1 ** (k - 1) * se1 + 2.0 * k * math.sqrt(0.25 / R)
    lower_ok = True if gamma is None else pmn >= gamma - 3.0 * semn
    upper_ok = pmn <= bound + 3.0 * (semn + se_bound)
    return CnDiagnostic(c_hat=c_hat, c_se=c_se, p_single=p1,
                        sandwich_ok=bool(lower_ok and upper_ok))


@dataclass(frozen=True)
class PropBasicRow:
    n: int
    k: int
    m: int
    level: float
    k_tail: float      # k_n * P(X_1 > v_n)
    k_c: float         # k_n * C_hat(m_n; k_n)
    k_c_se: float      # k_n * SE(C_hat)
    sandwich_ok: bool  # gamma <= P(M_n <= v_n) <= P(X_1 <= v_n)**k_n + k_n C_hat


@dataclass(frozen=True)
class PropBasicSeries:
    rows: tuple[PropBasicRow, ...]
    max_k_tail: float | None  # None when no block size has a row
    diverging: bool


def propbasic_series(spec: ProcessSpec, dse: DrivingSeqEstimate, R: int = 1000,
                     seed: int = 0, workers: int = 1) -> PropBasicSeries:
    """Track k_n * C_n(m_n; k_n) and k_n * P(X_1 > v_n) along dse's block sizes.

    k_n = max(isqrt(n), 2) skeleton points at spacing m_n = isqrt(n); a
    block size below 2 holds no two-point skeleton and gets no row.  When
    the first series tends to 0, boundedness of the second is the
    condition for a phantom at the driving levels; the report flags its
    divergence via the factor-2-per-decade rule.
    """
    rows = []
    for n in (int(n) for n in dse.n_values if n >= 2):
        k, m = max(math.isqrt(n), 2), math.isqrt(n)
        v = dse.level_for(n)
        diag = estimate_Cn(spec, v, n, m, k, R=R, seed=seed, gamma=dse.gamma,
                           workers=workers)
        try:
            tail = marginal_sf(spec, v)
        except NotExactlyComputableError:
            tail = 1.0 - diag.p_single
        rows.append(PropBasicRow(n=n, k=k, m=m, level=v,
                                 k_tail=float(k * tail), k_c=float(k * diag.c_hat),
                                 k_c_se=float(k * diag.c_se),
                                 sandwich_ok=diag.sandwich_ok))
    series = [r.k_tail for r in rows]
    return PropBasicSeries(rows=tuple(rows), max_k_tail=max(series, default=None),
                           diverging=divergence_rule([r.n for r in rows], series))


# ---------------------------------------------------------------------------
# regenerative decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegenStats:
    cycle_count: int
    maxima: np.ndarray     # Y_j, cycle maxima
    mu_hat: float          # mean cycle length
    mu_se: float
    zero_cycle_diag: dict[int, float]

    @cached_property
    def cycle_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct cycle maxima and how many cycle maxima lie at or below
        each, built once."""
        uniq, counts = np.unique(self.maxima, return_counts=True)
        return uniq, np.cumsum(counts, out=counts)

    @cached_property
    def cycle_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct cycle maxima and their empirical CDF, built once."""
        uniq, below = self.cycle_counts
        return uniq, below / self.cycle_count


# most sliding windows the zero-cycle diagnostic averages, per window length
MAX_DIAG_WINDOWS = 20_000


def decompose_regenerative(path: SamplePath,
                           diag_windows=(10, 100, 1000)) -> RegenStats:
    """Split a regenerative path into cycles at its regeneration marks.

    The zero-cycle diagnostic estimates P(Y_0 > max of the next n cycle
    maxima) by a sliding window over the observed cycles; the delayed
    first cycle, before the first mark, is left out and cannot be resampled
    from a single path, so the diagnostic is an approximation, not an
    assertion.
    """
    marks = path.regeneration_marks
    if marks is None:
        raise NotRegenerativeError("path carries no regeneration marks")
    marks = np.asarray(marks, dtype=np.int64)
    if marks.size < 2:
        raise NotRegenerativeError("path never completes a regeneration cycle")
    values = path.values
    waits = np.diff(marks)
    maxima = np.maximum.reduceat(values, marks)[:-1]
    mu = float(waits.mean())
    mu_se = float(waits.std(ddof=1) / math.sqrt(waits.size)) if waits.size > 1 else 0.0
    diag: dict[int, float] = {}
    for w in diag_windows:
        w = int(w)
        if maxima.size <= w + 1:
            continue
        count = min(maxima.size - w, MAX_DIAG_WINDOWS)
        lead = maxima[:count]
        windows = np.lib.stride_tricks.sliding_window_view(maxima[1:], w)[:count]
        diag[w] = float(np.mean(lead > windows.max(axis=1)))
    return RegenStats(cycle_count=int(waits.size), maxima=maxima,
                      mu_hat=mu, mu_se=mu_se, zero_cycle_diag=diag)


MIN_CYCLES = 500


def rootzen_phantom(rs: RegenStats) -> DistFn:
    """Phantom from cycle maxima: G = (empirical law of Y)**(1/mu_hat).

    The empirical CDF is interpolated linearly between distinct observed
    cycle maxima (continuous except for a genuine atom at the cycle floor).
    """
    if rs.cycle_count < MIN_CYCLES:
        raise InsufficientDataError(
            f"need at least {MIN_CYCLES} cycles, got {rs.cycle_count}")
    uniq, cum = rs.cycle_cdf
    tail_knots = 1.0 - cum
    inv_mu = 1.0 / rs.mu_hat

    def ecdf_tail(x):
        return np.interp(np.asarray(x, dtype=float), uniq, tail_knots,
                         left=1.0, right=0.0)

    def ecdf_inv(t):
        return np.interp(np.asarray(t, dtype=float), cum, uniq)

    def log_cdf(x):
        with np.errstate(divide="ignore"):
            return inv_mu * np.log1p(-np.minimum(ecdf_tail(x), 1.0))

    def quantile(p):
        p = np.asarray(p, dtype=float)
        return ecdf_inv(np.exp(rs.mu_hat * np.log(p)))

    return DistFn(name="rootzen-phantom", tail=lambda x: -np.expm1(log_cdf(x)),
                  quantile=quantile, right_end=float(uniq[-1]))


@dataclass(frozen=True)
class CycleTailBand:
    level: float
    ratio: float  # P(Y > y) / (mu_hat * (1 - H(y)))
    exceedances: int


def cycle_tail_ratio(rs: RegenStats, step: DistFn, q: float = 0.99) -> CycleTailBand:
    """Cycle-maximum tail against mu * step tail at the empirical q-quantile of Y."""
    if not (0.0 < q < 1.0):
        raise InvalidArgumentError("q must lie in (0, 1)")
    # the type-1 q-quantile is the first distinct maximum whose count at or
    # below reaches its rank; the rest lie above it
    uniq, below = rs.cycle_counts
    j = int(np.searchsorted(below, _type1_rank(q, rs.maxima.size)))
    y, exc = float(uniq[j]), rs.maxima.size - int(below[j])
    p_exc = exc / rs.cycle_count
    denom = rs.mu_hat * float(step.tail(y))
    ratio = math.inf if denom == 0.0 else p_exc / denom
    return CycleTailBand(level=float(y), ratio=float(ratio), exceedances=exc)


# ---------------------------------------------------------------------------
# extremal index from one stationary sequence
# ---------------------------------------------------------------------------

def divergence_rule(n_list: Sequence[int], series: Sequence[float]) -> bool:
    """Factor-2-per-decade divergence: s must grow by >= 2**log10(n'/n) per step."""
    if len(series) < 2:
        return False
    for (n0, s0), (n1, s1) in zip(zip(n_list, series), zip(n_list[1:], series[1:])):
        if s0 <= 0:
            return False
        needed = 2.0 ** math.log10(n1 / n0)
        if s1 / s0 < needed:
            return False
    return True


@dataclass(frozen=True)
class ThetaRow:
    n: int
    level: float
    tail: float
    s: float            # n * P(X_1 > v_n)
    gamma_prime: float  # exp(-s)
    theta: float
    theta_lo: float
    theta_hi: float


@dataclass(frozen=True)
class ThetaEstimate:
    method: str
    verdict: str  # "zero" | "positive"
    theta_hat: float | None
    se: float | None
    rows: tuple[ThetaRow, ...]


def estimate_theta_single_sequence(spec: ProcessSpec, gamma: float, n_list,
                                   R: int = 1000, seed: int = 0,
                                   method: str = "auto",
                                   workers: int = 1) -> ThetaEstimate:
    """Extremal index from driving levels of one stationary sequence,
    estimated at ``n_list`` (see ``theta_from_driving``)."""
    dse = estimate_driving_sequence(spec, gamma, n_list, R=R, seed=seed,
                                    method=method, workers=workers)
    return theta_from_driving(spec, dse, n_list, seed)


def theta_from_driving(spec: ProcessSpec, dse: DrivingSeqEstimate, n_list,
                       seed: int) -> ThetaEstimate:
    """Extremal index read off the driving levels ``dse`` stores at ``n_list``.

    theta_hat(n) = log(gamma) / log(gamma'_n) with
    gamma'_n = exp(-n P(X_1 > v_hat_n)); the marginal tail is exact when
    the kind has a known stationary marginal, else empirical from an
    auxiliary path.  Verdict 'zero' when n P(X_1 > v_hat_n) diverges per
    the factor-2-per-decade rule.
    """
    n_list = _validate_sizes(n_list)
    levels = [dse.row(n) for n in n_list]
    try:
        marginal_sf(spec, levels[0][0])
        def tail_at(x: float) -> float:
            return marginal_sf(spec, x)
    except NotExactlyComputableError:
        aux_len = max(100_000, 20 * n_list[-1])
        aux = generate(spec, int(rng_for(seed, "theta-marginal").integers(2**63)), aux_len)
        emp_sorted = np.sort(aux.values)
        def tail_at(x: float) -> float:
            idx = np.searchsorted(emp_sorted, x, side="right")
            return float((emp_sorted.size - idx) / emp_sorted.size)

    log_gamma = math.log(dse.gamma)
    rows = []
    s_series = []
    for n, (v, lo_v, hi_v) in zip(n_list, levels):
        t = float(tail_at(v))
        s = n * t
        s_series.append(s)
        theta = -log_gamma / s if s > 0 else math.inf
        t_lo, t_hi = float(tail_at(hi_v)), float(tail_at(lo_v))
        th_hi = -log_gamma / (n * t_lo) if t_lo > 0 else math.inf
        th_lo = -log_gamma / (n * t_hi) if t_hi > 0 else math.inf
        rows.append(ThetaRow(n=n, level=v, tail=t, s=s,
                             gamma_prime=math.exp(-s), theta=theta,
                             theta_lo=min(th_lo, th_hi), theta_hi=max(th_lo, th_hi)))
    zero = divergence_rule(n_list, s_series)
    if zero:
        verdict, theta_hat, se = "zero", None, None
    else:
        last = rows[-1]
        verdict = "positive"
        theta_hat = last.theta
        se = (last.theta_hi - last.theta_lo) / (2.0 * 1.959963984540054) \
            if dse.method == "monte-carlo" else 0.0
    return ThetaEstimate(method=dse.method, verdict=verdict, theta_hat=theta_hat, se=se,
                         rows=tuple(rows))


# ---------------------------------------------------------------------------
# experiment pipelines: build a phantom, then check G**n by simulation
# ---------------------------------------------------------------------------

# the verdict of every simulation check of a phantom, at each block size
_GAP_SE, _GAP_TOL = 3.0, 0.05
VERIFY_RULE = f"gap <= {_GAP_SE:g} SE + {_GAP_TOL:g}"


def _fit_sizes(block_sizes: list[int]) -> list[int]:
    # knots every sixth of a decade; a verified block's 0.01 and 0.99
    # levels sit at effective indices n/4.6 and 99.5n, so the grid runs
    # from a decade below the smallest block to two past the largest
    lo = max(0.0, math.log10(min(block_sizes)) - 1.0)
    hi = math.log10(max(block_sizes)) + 2.0
    grid = 10.0 ** np.arange(lo, hi + 1e-9, 1.0 / 6.0)
    sizes = np.unique(np.round(grid).astype(int))
    return sorted(set(sizes.tolist()) | set(block_sizes))


def fit_phantom(spec: ProcessSpec, gamma: float, block_sizes, R: int, seed: int,
                tag: str, workers: int = 1) -> tuple[DrivingSeqEstimate, PhantomDistFn]:
    """O'Brien's continuous phantom, its driving levels fitted to block
    maxima per size of a log grid around ``block_sizes``.

    Every fit size up to the largest block reads R maxima.  A simulated
    (Markov) table reads fewer above it (``_knot_replicas``): those knots
    are read only where G^n lies near 1, and there the knot's own noise
    stays within the max law's.  ``dse.replicas`` holds each knot's count.
    """
    blocks = _validate_sizes(block_sizes)
    _check_gamma(gamma)
    _check_replicas(R)
    fit = block_maxima_table(spec, _fit_sizes(blocks), R, seed, tag=tag, workers=workers,
                             budget_above=blocks[-1])
    dse = driving_from_maxima(gamma, fit)
    return dse, PhantomDistFn(driving_from_estimates(gamma, dse.n_values, dse.v_hat))


def two_sided_gaps(dse: DrivingSeqEstimate, phantom: PhantomDistFn,
                   ver: PhantomVerification) -> list[dict]:
    """For each verified block, the fitted phantom's own SE at the worst
    level, the replica count behind it, and the gap over both SEs.

    At a level where G^n = p, a knot fitted from R_N replicas gives G^n
    the delta-method SE p |log p| sqrt((1 - gamma) / (gamma R_N)) / |log gamma|;
    R_N is the smaller count of the two knots that bracket the level, or
    the count of the one knot that G reads there (at a knot, or below the
    first).  The z-score is gap / sqrt(se_maxlaw^2 + se_phantom^2), None
    when both SEs are 0.  ``VERIFY_RULE`` still reads the one-sided gap.
    """
    gamma = dse.gamma
    count = dict(zip(dse.n_values.tolist(), dse.replicas.tolist()))
    xs, es = phantom.driving.knots()
    knot_counts = np.array([count[round(1.0 / e)] for e in es.tolist()])
    rows = []
    for r in ver.rows:
        x = r.level_at_gap
        k = int(np.searchsorted(xs, x, side="right"))  # knots at or below x
        i = max(k - 1, 0)
        j = k if x > xs[i] else i  # x lies at or below the last knot
        R_N = int(min(knot_counts[i], knot_counts[j]))
        p = math.exp(r.n * float(phantom.log_cdf(x)))  # G^n, in (0, 1]
        se = (0.0 if p == 0.0 else
              p * abs(math.log(p)) * math.sqrt((1.0 - gamma) / (gamma * R_N))
              / abs(math.log(gamma)))
        both = math.hypot(r.se_at_gap, se)
        rows.append({"n": r.n, "phantom_se": se, "phantom_replicas": R_N,
                     "z": r.gap / both if both > 0.0 else None})
    return rows


def verify_by_simulation(spec: ProcessSpec, phantom: DistFn, block_sizes, R: int,
                         seed: int, tag: str, workers: int = 1
                         ) -> tuple[MaxLawEstimate, PhantomVerification, bool]:
    """Max law of R block maxima per size, G**n's gaps to it, and the verdict.

    The last knot level of a continuous phantom caps the compared levels.
    """
    n_list = _validate_sizes(block_sizes)
    _check_replicas(R)
    table = block_maxima_table(spec, n_list, R, seed, tag=tag, workers=workers)
    cap = phantom.driving.sup if isinstance(phantom, PhantomDistFn) else None
    ml = maxlaw_from_maxima(table, level_cap=cap)
    ver = verify_phantom(phantom, ml)
    return ml, ver, ver.passes(se_multiplier=_GAP_SE, tolerance=_GAP_TOL)


@dataclass(frozen=True)
class RegenPhantom:
    path: SamplePath
    stats: RegenStats
    maxlaw: MaxLawEstimate
    verification: PhantomVerification
    verified: bool
    band: CycleTailBand
    band_ok: bool  # cycle tail ratio inside [0.5, 2]
    tail_verdict: str  # step tail against the stationary tail
    tail_ok: bool  # step tail negligible against the stationary tail


def regen_phantom(step: DistFn, length: int, block_sizes, R: int, seed: int,
                  tag: str, workers: int = 1) -> RegenPhantom:
    """Regenerative phantom of one Lindley path with the given step law,
    verified by simulation, with its cycle-tail band and tail verdict."""
    blocks = _validate_sizes(block_sizes)
    _check_replicas(R)
    # the verification table's array, tried before the path work it follows,
    # so a replica count numpy cannot allocate exits before any simulation
    _empty((len(blocks), R), "replicas")
    spec = LindleySpec(step=step)
    path = generate(spec, seed, length)
    rs = decompose_regenerative(path)
    G = rootzen_phantom(rs)
    ml, ver, verified = verify_by_simulation(spec, G, blocks, R, seed, tag, workers)
    band = cycle_tail_ratio(rs, step, q=0.99)
    tail_verdict = lindley_step_tail_vs_stationary(step, path.values)
    return RegenPhantom(path=path, stats=rs, maxlaw=ml, verification=ver,
                        verified=verified, band=band, band_ok=0.5 <= band.ratio <= 2.0,
                        tail_verdict=tail_verdict, tail_ok=tail_verdict == "ratio->0")
