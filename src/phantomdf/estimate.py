"""Monte Carlo and exact estimators for max laws and phantom inputs.

Block maxima always come from R independent blocks; for Markov kinds
that means R independent paths, each with its own burn-in and its own
seed substream, so results do not depend on the worker count.  For kinds
with a closed-form max law the block maxima are drawn by inverse
transform from that law, one uniform per replica, shared across block
sizes (which makes estimated driving levels monotone in n for free).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

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
    IIDSpec,
    LindleySpec,
    MixtureSpec,
    MovingMaxSpec,
    ProcessSpec,
    SamplePath,
    TailComparison,
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
    "divergence_rule",
    "VERIFY_RULE",
    "fit_phantom",
    "verify_by_simulation",
    "RegenPhantom",
    "regen_phantom",
]

MIN_REPLICAS = 200
# Replicas per chunk: one chunk is one _path_slabs call, whose per-step numpy
# calls cover all of its rows, so bigger chunks step faster; 256 rows x SLAB
# x 8 B = 32 MB per slab array bounds the memory a chunk holds.
_CHUNK_CAP = 256


def _chunk_plan(R: int, workers: int) -> tuple[list[tuple[int, int]], int]:
    """Replica chunks [lo, hi) of R and the number of processes to run them.

    The worker count is clamped to the core count before it sizes the
    chunks, so no value forks more processes than there are cores or cuts
    R into more chunks than that clamp needs.
    """
    if workers < 1:
        raise InvalidArgumentError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    size = min(max(1, math.ceil(R / workers)), _CHUNK_CAP)
    chunks = [(lo, min(lo + size, R)) for lo in range(0, R, size)]
    return chunks, min(workers, len(chunks))


# The chunk function of the running _map_chunks call.  Specs carry closures
# that do not pickle, so forked workers inherit it instead of receiving it.
_CHUNK_FN: Callable[[int, int], object] | None = None


def _run_chunk(bounds: tuple[int, int]):
    return _CHUNK_FN(*bounds)


def _map_chunks(fn: Callable[[int, int], object], R: int,
                workers: int) -> list[tuple[tuple[int, int], object]]:
    """[((lo, hi), fn(lo, hi))] over the replica chunks of R, in chunk order.

    With more than one process the chunks run in a pool forked after
    _CHUNK_FN is set; only the bounds go out and the chunk results come
    back.  Every replica draws from its own substream, so the results do
    not depend on the worker count or on scheduling.
    """
    global _CHUNK_FN
    chunks, procs = _chunk_plan(R, workers)
    if procs <= 1:  # one chunk or one worker; no chunks when R == 0
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


def _window_maxima(spec: ProcessSpec, windows: Sequence[tuple[int, int]], R: int,
                   seed: int, tag: str, workers: int = 1) -> np.ndarray:
    """max(X_a, ..., X_{b-1}) for each window [a, b) of each replica's path.

    Returns (len(windows), R); an empty window gives -inf.  Replica r draws
    from rng_for(seed, tag, r) and its path runs to the largest b.  The
    window ends cut the time axis into segments, the slab scan reads each
    segment's max once, and a window's max is the max of its segments, so
    every path value is read once whatever the windows.
    """
    cuts = np.unique([0, *(t for w in windows for t in w)])
    at = {int(t): j for j, t in enumerate(cuts)}

    def chunk(lo: int, hi: int) -> np.ndarray:
        rngs = [rng_for(seed, tag, r) for r in range(lo, hi)]
        seg = np.full((cuts.size - 1, hi - lo), -np.inf)  # max over [cuts[j], cuts[j+1])
        pos = 0
        for slab in _path_slabs(spec, rngs, int(cuts[-1])):
            end = pos + slab.shape[1]
            for j in range(np.searchsorted(cuts, pos, side="right") - 1,
                           np.searchsorted(cuts, end)):
                a, b = max(cuts[j], pos) - pos, min(cuts[j + 1], end) - pos
                np.maximum(seg[j], slab[:, a:b].max(axis=1), out=seg[j])
            pos = end
        return np.array([seg[at[a]:at[b]].max(axis=0, initial=-np.inf)
                         for a, b in windows])

    out = _empty((len(windows), R), "replicas")
    for (lo, hi), part in _map_chunks(chunk, R, workers):
        out[:, lo:hi] = part
    return out


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

class _QuantileColumns(Mapping):
    """Block maxima Q(u**(1/(n + shift))) of sorted uniforms u, by block size n.

    The map u -> Q(u**(1/e)) is non-decreasing, so every column comes out
    ascending.  A column is built when it is read and not kept, so the table
    holds one array of R log-uniforms whatever the number of block sizes.
    """

    def __init__(self, quantile: Callable, shift: int, n_list: Sequence[int],
                 logu: np.ndarray) -> None:
        self._quantile, self._shift = quantile, shift
        self._n_list, self._logu = tuple(n_list), logu

    def __getitem__(self, n: int) -> np.ndarray:
        if n not in self._n_list:
            raise KeyError(n)
        p = np.exp(self._logu / (n + self._shift))
        return np.asarray(self._quantile(p), dtype=float)

    def __iter__(self):
        return iter(self._n_list)

    def __len__(self) -> int:
        return len(self._n_list)


def _transform_maxima(spec: ProcessSpec, n_list: Sequence[int], R: int,
                      seed: int, tag: str) -> Mapping[int, np.ndarray]:
    rng = rng_for(seed, tag, "maxima")
    u = np.maximum(rng.random(out=_empty(R, "replicas")), 1e-300)
    logu = np.log(u)
    if isinstance(spec, IIDSpec):
        logu.sort()
        return _QuantileColumns(spec.marginal.quantile, 0, n_list, logu)
    if isinstance(spec, MovingMaxSpec):
        logu.sort()
        return _QuantileColumns(spec.base.quantile, spec.window - 1, n_list, logu)
    if isinstance(spec, MixtureSpec):
        out: dict[int, np.ndarray] = {}
        krng = rng_for(seed, tag, "component")
        ks = np.array([_mixture_draw_component(krng) for _ in range(R)], dtype=np.int64)
        bases = ks.astype(float) ** 2
        for n in n_list:
            t = -np.expm1(logu / n)  # tail level of the per-component quantile
            idx = np.maximum(np.ceil(1.0 / np.maximum(t, 1e-300)), bases)
            out[n] = np.minimum(idx, float(HUGE_INDEX))  # the level v_idx = idx
        return out
    raise InvalidArgumentError("no transform sampler for this kind")


def block_maxima_table(spec: ProcessSpec, block_sizes, R: int, seed: int,
                       tag: str = "maxlaw", workers: int = 1) -> Mapping[int, np.ndarray]:
    """R block maxima for each requested block size.

    Order contract: IID and moving-max columns are ascending and built
    when read; Monte-Carlo (Markov) and mixture columns are in replica order.
    """
    n_list = _validate_sizes(block_sizes)
    if has_exact_max_law(spec):
        return _transform_maxima(spec, n_list, R, seed, tag)
    maxima = _window_maxima(spec, [(0, n) for n in n_list], R, seed, tag, workers)
    return dict(zip(n_list, maxima))


# ---------------------------------------------------------------------------
# max law estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxLawRow:
    n: int
    levels: np.ndarray
    p_hat: np.ndarray
    se: np.ndarray


@dataclass(frozen=True)
class MaxLawEstimate:
    method: str  # "monte-carlo" | "exact"
    replicas: int
    rows: tuple[MaxLawRow, ...]

    def row(self, n: int) -> MaxLawRow:
        for r in self.rows:
            if r.n == int(n):
                return r
        raise InvalidArgumentError(f"no estimate stored for block size {n}")


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


def _ascending(col: np.ndarray) -> np.ndarray:
    """The column itself when already ascending, else a sorted copy."""
    return col if np.all(col[1:] >= col[:-1]) else np.sort(col)


def _type1_quantile(sorted_vals: np.ndarray, p: float) -> float:
    k = max(1, math.ceil(p * sorted_vals.size))
    return float(sorted_vals[min(k, sorted_vals.size) - 1])


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
    return MaxLawEstimate(method="exact", replicas=0, rows=tuple(rows))


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
    replicas: int
    raw_violations: int = 0

    def level_for(self, n: int) -> float:
        idx = np.nonzero(self.n_values == int(n))[0]
        if idx.size == 0:
            raise InvalidArgumentError(f"no driving level stored for n={n}")
        return float(self.v_hat[idx[0]])


def driving_from_maxima(gamma: float, table: Mapping[int, np.ndarray],
                        R: int) -> DrivingSeqEstimate:
    """Driving-sequence estimate from an existing block-maxima table."""
    _check_gamma(gamma)
    n_list = sorted(int(n) for n in table)
    k_lo = max(_binom_quantile(0.025, R, gamma), 1)
    k_hi = min(_binom_quantile(0.975, R, gamma) + 1, R)
    v_hat = np.empty(len(n_list))
    ci_lo = np.empty(len(n_list))
    ci_hi = np.empty(len(n_list))
    for i, n in enumerate(n_list):
        s = _ascending(table[n])
        v_hat[i] = _type1_quantile(s, gamma)
        ci_lo[i] = s[k_lo - 1]
        ci_hi[i] = s[k_hi - 1]
    violations = int(np.count_nonzero(np.diff(v_hat) < 0))
    return DrivingSeqEstimate(gamma=gamma, n_values=np.asarray(n_list),
                              v_hat=np.maximum.accumulate(v_hat),
                              ci_lo=ci_lo, ci_hi=ci_hi, method="monte-carlo",
                              replicas=R, raw_violations=violations)


def maxlaw_from_maxima(table: Mapping[int, np.ndarray], R: int,
                       probs=None, level_cap: float | None = None) -> MaxLawEstimate:
    """Max-law estimate on empirical-quantile grids of an existing table.

    ``level_cap`` drops grid levels above a known evaluation bound (for
    comparison against a phantom whose last knot level is that bound).
    """
    if probs is None:
        probs = np.linspace(0.01, 0.99, 33)
    rows = []
    for n in sorted(int(n) for n in table):
        s = _ascending(table[n])
        xs = np.unique([_type1_quantile(s, float(p)) for p in probs])
        if level_cap is not None:
            xs = xs[xs <= level_cap]
        p = np.searchsorted(s, xs, side="right") / R
        se = np.sqrt(p * (1.0 - p) / R)
        rows.append(MaxLawRow(n=n, levels=xs, p_hat=p, se=se))
    return MaxLawEstimate(method="monte-carlo", replicas=R, rows=tuple(rows))


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
                                  method="exact", replicas=0)
    _check_replicas(R)
    table = block_maxima_table(spec, n_list, R, seed, tag="driving", workers=workers)
    return driving_from_maxima(gamma, table, R)


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
    worst_pair: tuple[int, int]
    pairs: tuple[BTPair, ...]
    r_n: int
    r_tail_product: float
    cov_diag: float


@dataclass(frozen=True)
class BTReport:
    T: float
    method: str
    replicas: int
    r_exponent: float
    r_adjusted: bool
    rows: tuple[BTRow, ...]

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


def check_BT(spec: ProcessSpec, dse: DrivingSeqEstimate, T: float = 2.0,
             n_list=None, pair_fractions=_DEFAULT_PAIR_FRACTIONS,
             R: int = 1000, seed: int = 0, method: str = "auto",
             workers: int = 1) -> BTReport:
    """Factorization check sup |P(M_{p+q} <= v_n) - P(M_p <= v_n) P(M_q <= v_n)|.

    Pairs (p, q) come from fractions of n and must satisfy p + q <= T n.
    Alongside the b-values the report carries the covariance diagnostic
    Cov(1{M_{p-r} <= v}, 1{window max over (p, p+q] <= v}) with
    r_n = floor(n**e); e starts at 1/3 and is lowered to 1/4 then 1/5 if
    r_n * P(X_1 > v_n) fails to decay along n_list.
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

    # marginal tails at the driving levels, for the r_n diagnostic
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
            worst = max(prs, key=lambda b: abs(b.value))
            rows.append((n, v, prs, worst, None))
        replicas = 0
    else:
        _check_replicas(R)
        replicas = R
        for n in n_list:
            v = dse.level_for(n)
            prs_pq = pair_table[n]
            # the windows [0, t) for t = 1, p, q, p + q and p - r_n (under every
            # candidate exponent: it is chosen after all rows), and (p, p + q]
            heads = [1, *(t for p, q in prs_pq for t in (p, q, p + q)),
                     *(max(p - max(1, math.floor(n ** e)), 0)
                       for p, _ in prs_pq for e in candidates)]
            windows = [(0, t) for t in heads] + [(p, p + q) for p, q in prs_pq]
            le = dict(zip(windows, _window_maxima(spec, windows, R, seed, f"bt-{n}",
                                                  workers) <= v))
            if tails[n] is None:
                tails[n] = np.count_nonzero(~le[0, 1]) / R  # first value above v
            prs = []
            for p, q in prs_pq:
                ipq = le[0, p + q]
                ip = le[0, p]
                iq = le[0, q]
                d = ipq.mean() - ip.mean() * iq.mean()
                cov = np.cov(np.vstack([ipq, ip, iq]).astype(float), ddof=1) / R
                grad = np.array([1.0, -iq.mean(), -ip.mean()])
                se = float(np.sqrt(max(grad @ cov @ grad, 0.0)))
                prs.append(BTPair(p=p, q=q, value=float(d), se=se))
            worst = max(prs, key=lambda b: abs(b.value))
            rows.append((n, v, prs, worst, le))

    # choose the r exponent so that r_n * tail decays along n_list
    chosen = candidates[0]
    adjusted = False
    for e in candidates:
        prods = [math.floor(n ** e) * tails[n] for n in n_list]
        if all(b <= a * 1.05 for a, b in zip(prods, prods[1:])) or len(prods) < 2:
            chosen = e
            adjusted = e != candidates[0]
            break
    else:
        chosen = candidates[-1]
        adjusted = True

    out_rows = []
    for n, v, prs, worst, le in rows:
        r_n = max(1, math.floor(n ** chosen))
        if le is None:
            cov = _bt_exact_cov(spec, v, worst.p, worst.q, r_n)
        else:
            a = le[0, max(worst.p - r_n, 0)].astype(float)
            b = le[worst.p, worst.p + worst.q].astype(float)
            cov = float(np.mean(a * b) - a.mean() * b.mean())
        out_rows.append(BTRow(n=n, level=v, b_value=abs(worst.value),
                              worst_pair=(worst.p, worst.q), pairs=tuple(prs),
                              r_n=r_n, r_tail_product=float(r_n * tails[n]),
                              cov_diag=cov))
    return BTReport(T=float(T), method=method, replicas=replicas,
                    r_exponent=chosen, r_adjusted=adjusted, rows=tuple(out_rows))


# ---------------------------------------------------------------------------
# skeleton diagnostic and the sandwich series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CnDiagnostic:
    n: int
    m: int
    k: int
    level: float
    c_hat: float
    worst_j: int
    p_single: float
    p_single_se: float
    p_max_n: float
    p_max_n_se: float
    skeleton_probs: np.ndarray
    upper_bound: float
    sandwich_lower_ok: bool
    sandwich_upper_ok: bool


def estimate_Cn(spec: ProcessSpec, level: float, n: int, m: int, k: int,
                R: int = 1000, seed: int = 0, gamma: float | None = None,
                workers: int = 1) -> CnDiagnostic:
    """Skeleton factorization diagnostic at spacing m with k skeleton points.

    Z_j is the max of X_m, X_{2m}, ..., X_{jm}; the statistic is
    C_hat = max_{2<=j<=k} |P(Z_j <= v) - P(X_1 <= v) P(Z_{j-1} <= v)|,
    and the report checks the sandwich
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
    below = _window_maxima(spec, windows, R, seed, f"cn-{n}-{m}-{k}", workers) <= v
    single_le, max_le = below[0], below[1]
    skel_le = np.minimum.accumulate(below[2:].T, axis=1)
    pz = skel_le.mean(axis=0)  # P(Z_j <= v), j = 1..k
    p1 = float(single_le.mean())
    pmn = float(max_le.mean())
    diffs = np.abs(pz[1:] - p1 * pz[:-1])
    worst = int(np.argmax(diffs))
    c_hat = float(diffs[worst])
    se1 = math.sqrt(p1 * (1.0 - p1) / R)
    semn = math.sqrt(pmn * (1.0 - pmn) / R)
    bound = p1 ** k + k * c_hat
    se_bound = k * p1 ** (k - 1) * se1 + 2.0 * k * math.sqrt(0.25 / R)
    lower_ok = True if gamma is None else pmn >= gamma - 3.0 * semn
    upper_ok = pmn <= bound + 3.0 * (semn + se_bound)
    return CnDiagnostic(n=n, m=m, k=k, level=v, c_hat=c_hat, worst_j=worst + 2,
                        p_single=p1, p_single_se=se1, p_max_n=pmn,
                        p_max_n_se=semn, skeleton_probs=pz, upper_bound=bound,
                        sandwich_lower_ok=bool(lower_ok),
                        sandwich_upper_ok=bool(upper_ok))


@dataclass(frozen=True)
class PropBasicRow:
    n: int
    k: int
    m: int
    level: float
    k_tail: float      # k_n * P(X_1 > v_n)
    k_c: float         # k_n * C_hat(m_n; k_n)
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
                                 sandwich_ok=diag.sandwich_lower_ok
                                 and diag.sandwich_upper_ok))
    series = [r.k_tail for r in rows]
    return PropBasicSeries(rows=tuple(rows), max_k_tail=max(series, default=None),
                           diverging=divergence_rule([r.n for r in rows], series))


# ---------------------------------------------------------------------------
# regenerative decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegenStats:
    cycle_count: int
    waits: np.ndarray      # W_j, cycle lengths
    maxima: np.ndarray     # Y_j, cycle maxima
    mu_hat: float
    mu_se: float
    zero_cycle_diag: dict[int, float]
    head_wait: int | None
    head_max: float | None

    @cached_property
    def cycle_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct cycle maxima and their empirical CDF, built once."""
        uniq, counts = np.unique(self.maxima, return_counts=True)
        return uniq, np.cumsum(counts) / self.cycle_count


# most sliding windows the zero-cycle diagnostic averages, per window length
MAX_DIAG_WINDOWS = 20_000


def decompose_regenerative(path: SamplePath,
                           diag_windows=(10, 100, 1000)) -> RegenStats:
    """Split a regenerative path into cycles at its regeneration marks.

    The zero-cycle diagnostic estimates P(Y_0 > max of the next n cycle
    maxima) by a sliding window over the observed cycles; the delayed
    first cycle is reported but cannot be resampled from a single path,
    so the diagnostic is an approximation, not an assertion.
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
    head_wait = int(marks[0]) if marks[0] > 0 else None
    head_max = float(values[:marks[0]].max()) if marks[0] > 0 else None
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
    return RegenStats(cycle_count=int(waits.size), waits=waits, maxima=maxima,
                      mu_hat=mu, mu_se=mu_se, zero_cycle_diag=diag,
                      head_wait=head_wait, head_max=head_max)


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

    def cdf(x):
        return np.exp(log_cdf(x))

    def sf(x):
        return -np.expm1(log_cdf(x))

    def quantile(p):
        p = np.asarray(p, dtype=float)
        return ecdf_inv(np.exp(rs.mu_hat * np.log(p)))

    return DistFn(name="rootzen-phantom", cdf=cdf, sf=sf,
                  quantile=quantile, right_end=float(uniq[-1]),
                  left_end=float(uniq[0]),
                  sampler=lambda rng, size: quantile(np.maximum(rng.random(size), 1e-300)))


@dataclass(frozen=True)
class CycleTailBand:
    level: float
    ratio: float  # P(Y > y) / (mu_hat * (1 - H(y)))
    exceedances: int


def cycle_tail_ratio(rs: RegenStats, step: DistFn, q: float = 0.99) -> CycleTailBand:
    """Cycle-maximum tail against mu * step tail at the empirical q-quantile of Y."""
    if not (0.0 < q < 1.0):
        raise InvalidArgumentError("q must lie in (0, 1)")
    s = np.sort(rs.maxima)
    y = _type1_quantile(s, q)
    exc = int(np.count_nonzero(rs.maxima > y))
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
    gamma: float
    method: str
    verdict: str  # "zero" | "positive"
    theta_hat: float | None
    se: float | None
    rows: tuple[ThetaRow, ...]
    driving: DrivingSeqEstimate


def estimate_theta_single_sequence(spec: ProcessSpec, gamma: float, n_list,
                                   R: int = 1000, seed: int = 0,
                                   method: str = "auto",
                                   workers: int = 1) -> ThetaEstimate:
    """Extremal index from driving levels of one stationary sequence.

    theta_hat(n) = log(gamma) / log(gamma'_n) with
    gamma'_n = exp(-n P(X_1 > v_hat_n)); the marginal tail is exact when
    the kind has a known stationary marginal, else empirical from an
    auxiliary path.  Verdict 'zero' when n P(X_1 > v_hat_n) diverges per
    the factor-2-per-decade rule.
    """
    n_list = _validate_sizes(n_list)
    dse = estimate_driving_sequence(spec, gamma, n_list, R=R, seed=seed,
                                    method=method, workers=workers)

    emp_sorted = None
    try:
        marginal_sf(spec, dse.v_hat[0])
        def tail_at(x: float) -> float:
            return marginal_sf(spec, x)
    except NotExactlyComputableError:
        aux_len = max(100_000, 20 * n_list[-1])
        aux = generate(spec, int(rng_for(seed, "theta-marginal").integers(2**63)), aux_len)
        emp_sorted = np.sort(aux.values)
        def tail_at(x: float) -> float:
            idx = np.searchsorted(emp_sorted, x, side="right")
            return float((emp_sorted.size - idx) / emp_sorted.size)

    log_gamma = math.log(gamma)
    rows = []
    s_series = []
    for i, n in enumerate(n_list):
        v = float(dse.v_hat[i])
        t = float(tail_at(v))
        s = n * t
        s_series.append(s)
        theta = -log_gamma / s if s > 0 else math.inf
        lo_v, hi_v = float(dse.ci_lo[i]), float(dse.ci_hi[i])
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
    return ThetaEstimate(gamma=gamma, method=dse.method, verdict=verdict,
                         theta_hat=theta_hat, se=se, rows=tuple(rows), driving=dse)


# ---------------------------------------------------------------------------
# experiment pipelines: build a phantom, then check G**n by simulation
# ---------------------------------------------------------------------------

# the verdict of every simulation check of a phantom, at each block size
_GAP_SE, _GAP_TOL = 3.0, 0.05
VERIFY_RULE = f"gap <= {_GAP_SE:g} SE + {_GAP_TOL:g}"


def _fit_sizes(block_sizes: list[int]) -> list[int]:
    # knots every sixth of a decade; a verified block's 0.01 and 0.99
    # levels sit at effective indices n/4.6 and 460n, so the grid runs
    # from a decade below the smallest block to two past the largest
    lo = max(0.0, math.log10(min(block_sizes)) - 1.0)
    hi = math.log10(max(block_sizes)) + 2.0
    grid = 10.0 ** np.arange(lo, hi + 1e-9, 1.0 / 6.0)
    sizes = np.unique(np.round(grid).astype(int))
    return sorted(set(sizes.tolist()) | set(block_sizes))


def fit_phantom(spec: ProcessSpec, gamma: float, block_sizes, R: int, seed: int,
                tag: str, workers: int = 1) -> tuple[DrivingSeqEstimate, PhantomDistFn]:
    """O'Brien's continuous phantom, its driving levels fitted to R block
    maxima per size of a log grid around ``block_sizes``."""
    sizes = _fit_sizes(_validate_sizes(block_sizes))
    _check_gamma(gamma)
    _check_replicas(R)
    fit = block_maxima_table(spec, sizes, R, seed, tag=tag, workers=workers)
    dse = driving_from_maxima(gamma, fit, R)
    return dse, PhantomDistFn(driving_from_estimates(gamma, dse.n_values, dse.v_hat))


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
    ml = maxlaw_from_maxima(table, R, level_cap=cap)
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
    tails: TailComparison
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
    tails = lindley_step_tail_vs_stationary(step, path.values)
    return RegenPhantom(path=path, stats=rs, maxlaw=ml, verification=ver,
                        verified=verified, band=band, band_ok=0.5 <= band.ratio <= 2.0,
                        tails=tails, tail_ok=tails.verdict == "ratio->0")
