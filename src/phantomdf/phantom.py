"""Continuous and jump phantom distribution functions.

Given gamma in (0, 1) and non-decreasing levels v_1 <= v_2 <= ... , the
continuous phantom is G(x) = gamma**g(x) where g interpolates linearly
(in x) between the knots (v_{p_k}, 1/p_k); p_k is the last index of the
k-th constancy run, so plateaus in the levels are compressed away.  Below
the first knot g(x) = (v_{p_1} - x) + 1/p_1, and g vanishes at the
supremum of the levels.  By construction G(v_n)**n = gamma exactly at
every knot, which is the property the verification tooling leans on.

The jump phantom takes the value gamma**(1/p_k) on [v_{p_k}, v_{p_k+1})
and brackets the continuous one from below on each step.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import DistFn, _log_cdf
from .errors import (
    DegenerateDrivingSequenceError,
    InsufficientGridError,
    InvalidArgumentError,
)
from .grids import (
    HUGE_INDEX,
    LevelGrid,
    LevelSequence,
    ProbePolicy,
    classify_limit,
)

__all__ = [
    "DrivingSequence",
    "PhantomDistFn",
    "JumpPhantom",
    "build_continuous_phantom",
    "build_jump_phantom",
    "driving_from_estimates",
    "phantom_gap",
    "verify_phantom",
    "PhantomVerification",
    "extremal_index_from_gammas",
    "extremal_index_tail_ratio",
    "ThetaTailReport",
]


class DrivingSequence:
    """gamma plus the levels v_n, with plateau runs compressed to knots.

    Levels may be given as an array (finite prefix) or a
    :class:`LevelSequence` carrying a closed-form rule.  Plateau
    detection uses exact equality of stored levels; a rule region is
    assumed strictly increasing (spot-checked).
    """

    def __init__(self, gamma: float, levels) -> None:
        gamma = float(gamma)
        if not (0.0 < gamma < 1.0):
            raise InvalidArgumentError("gamma must lie strictly inside (0, 1)")
        if not isinstance(levels, LevelSequence):
            levels = LevelSequence(prefix=np.asarray(levels, dtype=float))
        self.gamma = gamma
        self.levels = levels

        prefix = levels.prefix
        if levels.rule is None and np.unique(prefix).size < 2:
            raise DegenerateDrivingSequenceError(
                "all driving levels coincide; no phantom exists")
        if levels.rule is not None and prefix.size:
            if float(levels.rule(prefix.size + 1)) <= float(prefix[-1]):
                raise InvalidArgumentError(
                    "rule must strictly exceed the stored prefix")
        if levels.rule is not None:
            a = float(levels.value(prefix.size + 1))
            b = float(levels.value(prefix.size + 2))
            if not b > a:
                raise InvalidArgumentError("rule region must be strictly increasing")

        # Last index of each constancy run in the prefix.
        if prefix.size:
            ends = np.nonzero(np.diff(prefix) > 0)[0]
            run_ends = np.concatenate([ends, [prefix.size - 1]])
            self._knot_levels = prefix[run_ends]
            self._knot_index = run_ends + 1  # 1-based level indices p_k
        else:
            self._knot_levels = np.array([], dtype=float)
            self._knot_index = np.array([], dtype=int)

    # -- knot access --------------------------------------------------

    @property
    def plateau_index(self) -> np.ndarray:
        return self._knot_index.copy()

    @property
    def knot_count(self) -> int | None:
        """Number of knots, or None when a rule supplies infinitely many."""
        if self.levels.rule is not None:
            return None
        return int(self._knot_index.size)

    def knot(self, k: int) -> tuple[float, int]:
        """Level and 1-based level index of the k-th knot."""
        k = int(k)
        if k < 1:
            raise InvalidArgumentError("knot index must be >= 1")
        m = self._knot_index.size
        if k <= m:
            return float(self._knot_levels[k - 1]), int(self._knot_index[k - 1])
        if self.levels.rule is None:
            raise InvalidArgumentError(
                f"knot {k} beyond stored driving prefix ({m} knots)")
        n = self.levels.prefix.size + (k - m)
        return self.levels.value(n), n

    def knot_leq(self, x: float) -> int:
        """Largest knot index k with knot level <= x (0 when below all)."""
        x = float(x)
        m = self._knot_index.size
        k = int(np.searchsorted(self._knot_levels, x, side="right"))
        if k < m or self.levels.rule is None:
            return k
        n = self.levels.count_leq(x)
        if n <= self.levels.prefix.size:
            return k
        if n >= HUGE_INDEX:
            return HUGE_INDEX
        return m + (n - self.levels.prefix.size)

    def same_as(self, other: "DrivingSequence") -> bool:
        if self is other:
            return True
        return (self.gamma == other.gamma
                and np.array_equal(self.levels.prefix, other.levels.prefix)
                and self.levels.rule is other.levels.rule)


class _PhantomBase:
    """Shared knot geometry for the two phantom variants."""

    def __init__(self, driving: DrivingSequence) -> None:
        self.driving = driving
        self._log_gamma = math.log(driving.gamma)

    def _knot_exponent(self, k: int) -> tuple[float, float]:
        x, p = self.driving.knot(k)
        return x, 1.0 / p

    def pow(self, x: float, n: float) -> float:
        """G(x)**n evaluated as exp(n * log G(x))."""
        return math.exp(n * self.log_cdf(x))

    def log_cdf(self, x: float) -> float:  # overridden
        raise NotImplementedError


class PhantomDistFn(_PhantomBase):
    """Continuous phantom G(x) = gamma**g(x)."""

    def exponent(self, x: float) -> float:
        """The exponent g(x); exact value 1/p_k at every knot."""
        d = self.driving
        x = float(x)
        if d.levels.rule is not None and x >= d.levels.sup:
            return 0.0
        x1, e1 = self._knot_exponent(1)
        if x < x1:
            return (x1 - x) + e1
        k = d.knot_leq(x)
        xk, ek = self._knot_exponent(k)
        if x == xk:
            return ek
        count = d.knot_count
        if count is not None and k >= count:
            raise InvalidArgumentError(
                "evaluation beyond the stored driving prefix; supply a rule")
        xn, en = self._knot_exponent(k + 1)
        t = (x - xk) / (xn - xk)
        return ek + t * (en - ek)

    def log_cdf(self, x: float) -> float:
        return self.exponent(x) * self._log_gamma

    def eval(self, x: float) -> float:
        return math.exp(self.log_cdf(x))

    def tail(self, x: float) -> float:
        return -math.expm1(self.log_cdf(x))

    def exponent_inverse(self, g: float) -> float:
        """x with exponent(x) = g, for g > 0 (and the level sup at g = 0)."""
        d = self.driving
        if g < 0:
            raise InvalidArgumentError("exponent must be >= 0")
        if g == 0.0:
            if math.isfinite(d.levels.sup):
                return d.levels.sup
            raise InvalidArgumentError("exponent 0 is not attained")
        x1, e1 = self._knot_exponent(1)
        if g >= e1:
            return x1 + (e1 - g)
        count = d.knot_count
        lo, hi = 1, 2
        while True:
            if count is not None and hi > count:
                _, e_last = self._knot_exponent(count)
                if g >= e_last:
                    hi = count
                    break
                raise InvalidArgumentError(
                    "quantile beyond the stored driving prefix; supply a rule")
            if self._knot_exponent(hi)[1] < g:
                break
            lo = hi
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._knot_exponent(mid)[1] >= g:
                lo = mid
            else:
                hi = mid
        xk, ek = self._knot_exponent(lo)
        if g == ek:
            return xk
        xn, en = self._knot_exponent(lo + 1)
        return xk + (ek - g) / (ek - en) * (xn - xk)

    def quantile(self, p: float) -> float:
        p = float(p)
        if not (0.0 < p < 1.0):
            raise InvalidArgumentError("quantile argument must lie in (0, 1)")
        return self.exponent_inverse(math.log(p) / self._log_gamma)

    def as_distfn(self, name: str = "phantom") -> DistFn:
        from .distributions import _vectorize
        return DistFn(
            name=name,
            cdf=_vectorize(self.eval),
            sf=_vectorize(self.tail),
            quantile=_vectorize(self.quantile),
            right_end=self.driving.levels.sup,
            sampler=lambda rng, size: np.fromiter(
                (self.quantile(u) for u in np.maximum(rng.random(size), 1e-300)),
                dtype=float, count=size),
        )

    # -- serialization -------------------------------------------------

    def to_text(self, max_level_index: int | None = None) -> str:
        """Serialize gamma and the (x, g) knot table, 17 significant digits."""
        d = self.driving
        count = d.knot_count
        if count is None:
            if max_level_index is None:
                raise InvalidArgumentError(
                    "rule-backed phantom needs max_level_index for serialization")
            ks = []
            k = 1
            while True:
                _, p = d.knot(k)
                if p > max_level_index:
                    break
                ks.append(k)
                k += 1
        else:
            ks = list(range(1, count + 1))
        buf = io.StringIO()
        buf.write("phantomdf continuous v1\n")
        buf.write(f"gamma {d.gamma:.17g}\n")
        buf.write(f"knots {len(ks)}\n")
        for k in ks:
            x, e = self._knot_exponent(k)
            buf.write(f"{x:.17g} {e:.17g}\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "PhantomDistFn":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines or lines[0] != "phantomdf continuous v1":
            raise InvalidArgumentError("unrecognized phantom serialization header")
        rows = [ln.split() for ln in lines[1:]]
        if len(rows) < 2 or [r[0] for r in rows[:2]] != ["gamma", "knots"] \
                or any(len(r) != 2 for r in rows):
            raise InvalidArgumentError("truncated or malformed phantom serialization")
        try:
            gamma = float(rows[0][1])
            count = int(rows[1][1])
            knots = [(float(x), float(e)) for x, e in rows[2:2 + count]]
        except ValueError as exc:
            raise InvalidArgumentError(f"non-numeric phantom field: {exc}") from None
        if len(knots) != count:
            raise InvalidArgumentError("knot count does not match table")
        if not all(0.0 < e <= 1.0 for _, e in knots):
            raise InvalidArgumentError("knot exponents 1/p must lie in (0, 1]")
        xs = [x for x, _ in knots]
        ps = [int(round(1.0 / e)) for _, e in knots]
        if any(b <= a for a, b in zip([0] + ps, ps)):
            raise InvalidArgumentError("knot exponents must strictly decrease")
        prefix = np.repeat(np.asarray(xs, dtype=float), np.diff([0] + ps))
        return build_continuous_phantom(DrivingSequence(gamma, prefix))


class JumpPhantom(_PhantomBase):
    """Step phantom: 0 below the first knot, gamma**(1/p_k) on each step."""

    def eval(self, x: float) -> float:
        d = self.driving
        x = float(x)
        if d.levels.rule is not None and x >= d.levels.sup:
            return 1.0
        k = d.knot_leq(x)
        if k == 0:
            return 0.0
        if k >= HUGE_INDEX:
            return 1.0
        count = d.knot_count
        if count is not None and k >= count and x > self.driving.knot(count)[0]:
            raise InvalidArgumentError(
                "evaluation beyond the stored driving prefix; supply a rule")
        return math.exp(self.log_cdf(x))

    def log_cdf(self, x: float) -> float:
        d = self.driving
        x = float(x)
        if d.levels.rule is not None and x >= d.levels.sup:
            return 0.0
        k = d.knot_leq(x)
        if k == 0:
            return -math.inf
        if k >= HUGE_INDEX:
            return 0.0
        _, e = self._knot_exponent(k)
        return e * self._log_gamma

    def pow(self, x: float, n: float) -> float:
        lc = self.log_cdf(x)
        return 0.0 if lc == -math.inf else math.exp(n * lc)


def build_continuous_phantom(driving: DrivingSequence) -> PhantomDistFn:
    return PhantomDistFn(driving)


def build_jump_phantom(driving: DrivingSequence) -> JumpPhantom:
    return JumpPhantom(driving)


def driving_from_estimates(gamma: float, n_values, v_values) -> DrivingSequence:
    """Driving sequence from levels estimated on a subgrid of block sizes.

    The estimate at block size n_i is held constant over (n_{i-1}, n_i],
    which makes the estimation points plateau ends: the resulting phantom
    has knots exactly at (v_i, 1/n_i).
    """
    n_values = np.asarray(n_values, dtype=int)
    v_values = np.asarray(v_values, dtype=float)
    if n_values.size != v_values.size or n_values.size == 0:
        raise InvalidArgumentError("need matching, non-empty n and level arrays")
    if n_values[0] < 1 or np.any(np.diff(n_values) <= 0):
        raise InvalidArgumentError("block sizes must be strictly increasing, >= 1")
    if np.any(np.diff(v_values) < 0):
        raise InvalidArgumentError("estimated levels must be non-decreasing")
    reps = np.diff(np.concatenate([[0], n_values]))
    prefix = np.repeat(v_values, reps)
    return DrivingSequence(gamma, prefix)


def _log_cdf_any(G, xs: np.ndarray) -> np.ndarray:
    if isinstance(G, _PhantomBase):
        return np.array([G.log_cdf(float(x)) for x in xs], dtype=float)
    return _log_cdf(G, np.asarray(xs, dtype=float))


def phantom_gap(continuous: PhantomDistFn, jump: JumpPhantom,
                n: int, grid: LevelGrid) -> float:
    """max over the grid of |G**n - Gtilde**n| for the two variants."""
    if not continuous.driving.same_as(jump.driving):
        raise InvalidArgumentError("phantoms stem from different driving sequences")
    if n < 1:
        raise InvalidArgumentError("power index must be >= 1")
    if len(grid) == 0:
        raise InvalidArgumentError("empty evaluation grid")
    a = np.exp(n * _log_cdf_any(continuous, grid.values))
    b = np.array([jump.pow(float(x), n) for x in grid.values])
    return float(np.max(np.abs(a - b)))


@dataclass(frozen=True)
class VerifyRow:
    n: int
    gap: float
    se_at_gap: float
    level_at_gap: float


@dataclass(frozen=True)
class PhantomVerification:
    rows: tuple[VerifyRow, ...]
    sup_gap: float

    def passes(self, se_multiplier: float = 3.0, tolerance: float = 0.0) -> bool:
        return all(r.gap <= se_multiplier * r.se_at_gap + tolerance for r in self.rows)


def verify_phantom(G, maxlaw, min_levels: int = 16) -> PhantomVerification:
    """Compare G**n against an estimated max law on its level grid.

    ``maxlaw`` is a MaxLawEstimate; each block size contributes the sup of
    |p_hat - G**n| over the grid together with the standard error at the
    offending level.  A grid with fewer than ``min_levels`` levels whose
    estimated probabilities fall inside [0.01, 0.99] raises
    InsufficientGridError.
    """
    rows = []
    for r in maxlaw.rows:
        inside = np.count_nonzero((r.p_hat >= 0.01) & (r.p_hat <= 0.99))
        if inside < min_levels:
            raise InsufficientGridError(
                f"n={r.n}: only {inside} grid levels inside [0.01, 0.99]")
        gn = np.exp(r.n * _log_cdf_any(G, r.levels))
        gaps = np.abs(r.p_hat - gn)
        i = int(np.argmax(gaps))
        rows.append(VerifyRow(n=int(r.n), gap=float(gaps[i]),
                              se_at_gap=float(r.se[i]),
                              level_at_gap=float(r.levels[i])))
    sup_gap = max((r.gap for r in rows), default=0.0)
    return PhantomVerification(rows=tuple(rows), sup_gap=sup_gap)


def extremal_index_from_gammas(gamma: float, gamma_prime: float) -> float:
    """theta = log(gamma) / log(gamma_prime); theta = 0 when gamma_prime = 0."""
    gamma = float(gamma)
    gamma_prime = float(gamma_prime)
    if not (0.0 < gamma < 1.0):
        raise InvalidArgumentError("gamma must lie strictly inside (0, 1)")
    if gamma_prime == 0.0:
        return 0.0
    if not (0.0 < gamma_prime < 1.0):
        raise InvalidArgumentError("gamma_prime must lie in [0, 1)")
    return math.log(gamma) / math.log(gamma_prime)


@dataclass(frozen=True)
class ThetaTailReport:
    levels: np.ndarray
    ratio_track: np.ndarray
    converged: bool
    theta: float | None


def extremal_index_tail_ratio(G: DistFn, F: DistFn,
                              probe: ProbePolicy = ProbePolicy()) -> ThetaTailReport:
    """Limit of (1-G)/(1-F) toward the shared right end, when it stabilizes."""
    if G.right_end != F.right_end:
        raise InvalidArgumentError("right ends differ; tail ratio undefined")
    xs = probe.levels(F)
    ft = np.asarray(F.tail(xs), dtype=float)
    gt = np.asarray(G.tail(xs), dtype=float)
    keep = ft > 0
    track = gt[keep] / ft[keep]
    status, value = classify_limit(track, probe.ratio_tol)
    return ThetaTailReport(levels=xs[keep], ratio_track=track,
                           converged=status == "converged",
                           theta=value if status == "converged" else None)
