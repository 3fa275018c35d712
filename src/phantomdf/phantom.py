"""Continuous and jump phantom distribution functions.

Given gamma in (0, 1) and non-decreasing levels v_1 <= v_2 <= ... , the
continuous phantom is G(x) = gamma**g(x) where g interpolates linearly
(in x) between the knots (v_{p_k}, 1/p_k); p_k is the last index of the
k-th constancy run, so plateaus in the levels are compressed away and
only the knots are stored.  Below
the first knot g(x) = (v_{p_1} - x) + 1/p_1, and g vanishes at the
supremum of the levels.  By construction G(v_n)**n = gamma exactly at
every knot, which is the property the verification tooling leans on.

The jump phantom takes the value gamma**(1/p_k) on [v_{p_k}, v_{p_k+1})
and brackets the continuous one from below on each step.  Both phantoms
are DistFns that read one knot table (ascending knot levels and their
exponents 1/p_k) with ``np.searchsorted``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistFn, _log_cdf
from .errors import (
    DegenerateDrivingSequenceError,
    InsufficientGridError,
    InvalidArgumentError,
)
from .grids import HUGE_INDEX, first_index_where

__all__ = [
    "DrivingSequence",
    "PhantomDistFn",
    "JumpPhantom",
    "driving_from_estimates",
    "verify_phantom",
    "PhantomVerification",
]

# Largest level index of a knot table that a rule expands index by index.
MAX_KNOT_INDEX = 2**24


class DrivingSequence:
    """gamma plus the knot table of a driving sequence v_1 <= v_2 <= ...

    The knots are the strictly increasing levels v_{p_k} at the strictly
    increasing 1-based level indices p_k, the last index of each plateau
    run of the levels.  A closed-form ``rule`` may continue the table:
    every index past the last knot index is then a knot of level rule(n),
    assumed strictly increasing (spot-checked) up to ``sup`` (``inf`` by
    default).  Without a rule, sup is the last knot level.
    """

    def __init__(self, gamma: float, levels, index, rule=None,
                 sup: float | None = None) -> None:
        gamma = float(gamma)
        if not (0.0 < gamma < 1.0):
            raise InvalidArgumentError("gamma must lie strictly inside (0, 1)")
        levels = np.asarray(levels, dtype=float)
        index = np.asarray(index, dtype=np.int64)
        if levels.ndim != 1 or levels.shape != index.shape:
            raise InvalidArgumentError("need one knot index per knot level")
        if not np.all(np.isfinite(levels)) or np.any(np.diff(levels) <= 0):
            raise InvalidArgumentError("knot levels must be finite and strictly increase")
        if index.size and (index[0] < 1 or np.any(np.diff(index) <= 0)):
            raise InvalidArgumentError("knot indices must be >= 1 and strictly increase")
        if rule is None and levels.size < 2:
            raise DegenerateDrivingSequenceError(
                "all driving levels coincide; no phantom exists")
        if rule is None and sup is not None:
            raise InvalidArgumentError("a sup bounds a rule; the knots give their own")
        self.gamma = gamma
        self.rule = rule
        self.sup = float(levels[-1]) if rule is None else \
            (math.inf if sup is None else float(sup))
        self._knot_levels = levels
        self._knot_index = index
        self._last_index = int(index[-1]) if index.size else 0  # the rule starts after it
        if rule is not None:
            a = float(rule(self._last_index + 1))
            if levels.size and not a > levels[-1]:
                raise InvalidArgumentError("rule must strictly exceed the last knot level")
            if not float(rule(self._last_index + 2)) > a:
                raise InvalidArgumentError("rule region must be strictly increasing")

    def knots(self, upto: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The knot table: ascending levels v_{p_k} and exponents 1/p_k.

        A sequence without a rule returns its stored knots.  A rule-backed
        one returns the knots with level index p_k <= ``upto``, reading its
        rule at every index past the last stored knot; an ``upto`` past
        MAX_KNOT_INDEX raises instead of allocating.
        """
        levels, index = self._knot_levels, self._knot_index
        rule = self.rule
        if rule is not None:
            if upto is None:
                raise InvalidArgumentError(
                    "a rule-backed knot table needs a largest level index")
            if upto > MAX_KNOT_INDEX:
                raise InvalidArgumentError(
                    f"knot table up to level index {upto} exceeds the bound "
                    f"{MAX_KNOT_INDEX}")
            keep = index <= upto
            tail = range(self._last_index + 1, upto + 1)
            levels = np.concatenate(
                [levels[keep], np.fromiter(map(rule, tail), dtype=float, count=len(tail))])
            index = np.concatenate([index[keep], np.arange(tail.start, tail.stop)])
        return levels, 1.0 / index


def _knots_over(d: DrivingSequence, x: np.ndarray):
    """Knot table reaching past every x, and where x sits in it.

    Returns the table, the number k of knots at or below each x, and the
    mask of x at or above the supremum of a rule-backed sequence (where
    the exponent vanishes).  x past the stored knots of a sequence
    without a rule raises.
    """
    rule = d.rule
    top = (x >= d.sup) & (rule is not None)
    if rule is None:
        xs, es = d.knots()
    else:
        inside = x[~top]
        x_max = float(inside.max()) if inside.size else -math.inf
        # every stored knot and the first rule knot past the largest x
        upto = first_index_where(lambda n: rule(n) > x_max, d._last_index)
        xs, es = d.knots(HUGE_INDEX + 1 if upto is None else upto)
    k = np.searchsorted(xs, x, side="right")
    if np.any((k == xs.size) & (x > xs[-1]) & ~top):
        raise InvalidArgumentError(
            "evaluation beyond the stored driving prefix; supply a rule")
    return xs, es, k, top


def _knots_under(d: DrivingSequence, g: np.ndarray):
    """Knot table reaching an exponent below every positive g."""
    if d.rule is None:
        return d.knots()
    positive = g[g > 0]
    low = float(positive.min()) if positive.size else 1.0
    # p = floor(1/low) + 2 exceeds 1/low whatever the rounding of 1/low
    upto = int(min(1.0 / low, 2.0 * MAX_KNOT_INDEX)) + 2
    return d.knots(max(upto, d._last_index + 1))


def _exponent_of(p, log_gamma: float) -> np.ndarray:
    """The exponent g with gamma**g = p, for p in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise InvalidArgumentError("quantile argument must lie in (0, 1)")
    return np.log(p) / log_gamma


class PhantomDistFn(DistFn):
    """Continuous phantom G(x) = gamma**g(x), evaluated on the knot table."""

    def __init__(self, driving: DrivingSequence) -> None:
        super().__init__(name="phantom",
                         cdf=lambda x: np.exp(self.log_cdf(x)),
                         sf=lambda x: -np.expm1(self.log_cdf(x)),
                         quantile=lambda p: self.exponent_inverse(
                             _exponent_of(p, self._log_gamma)),
                         right_end=driving.sup)
        self.driving = driving
        self._log_gamma = math.log(driving.gamma)

    def exponent(self, x):
        """The exponent g(x); exact value 1/p_k at every knot."""
        x = np.asarray(x, dtype=float)
        xs, es, k, top = _knots_over(self.driving, x)
        i = np.maximum(k - 1, 0)        # last knot at or below x
        j = np.minimum(k, xs.size - 1)  # the knot after it
        xk, ek = xs[i], es[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            g = ek + ((x - xk) / (xs[j] - xk)) * (es[j] - ek)
        g = np.where(x == xk, ek, g)  # exact at knots, the last one included
        g = np.where(k == 0, (xs[0] - x) + es[0], g)
        return np.where(top, 0.0, g)[()]

    def exponent_inverse(self, g):
        """x with exponent(x) = g, for g > 0 (and the level sup at g = 0)."""
        d = self.driving
        g = np.asarray(g, dtype=float)
        if np.any(g < 0):
            raise InvalidArgumentError("exponent must be >= 0")
        zero = g == 0.0
        if zero.any() and not math.isfinite(d.sup):
            raise InvalidArgumentError("exponent 0 is not attained")
        xs, es = _knots_under(d, g)
        k = np.searchsorted(-es, -g, side="right")  # knots with exponent >= g
        if np.any((k == es.size) & (g < es[-1]) & ~zero):
            raise InvalidArgumentError(
                "quantile beyond the stored driving prefix; supply a rule")
        i = np.maximum(k - 1, 0)
        j = np.minimum(k, es.size - 1)
        xk, ek = xs[i], es[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = xk + (ek - g) / (ek - es[j]) * (xs[j] - xk)
        x = np.where(g == ek, xk, x)  # exact at knots, the last one included
        x = np.where(k == 0, xs[0] + (es[0] - g), x)
        return np.where(zero, d.sup, x)[()]

    def log_cdf(self, x):
        return self.exponent(x) * self._log_gamma

    def pow(self, x, n):
        """G(x)**n evaluated as exp(n * log G(x))."""
        return np.exp(n * self.log_cdf(x))

    # -- serialization -------------------------------------------------

    def to_text(self, max_level_index: int | None = None) -> str:
        """Serialize gamma and the (x, g) knot table, 17 significant digits."""
        d = self.driving
        if d.rule is not None and max_level_index is None:
            raise InvalidArgumentError(
                "rule-backed phantom needs max_level_index for serialization")
        xs, es = d.knots(max_level_index)
        rows = "".join(f"{x:.17g} {e:.17g}\n" for x, e in zip(xs.tolist(), es.tolist()))
        return (f"phantomdf continuous v1\ngamma {d.gamma:.17g}\n"
                f"knots {xs.size}\n{rows}")

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
            knots = [(float(x), float(e)) for x, e in rows[2:]]
        except ValueError as exc:
            raise InvalidArgumentError(f"non-numeric phantom field: {exc}") from None
        if len(knots) != count:
            raise InvalidArgumentError("knot count does not match table")
        if count < 2:
            raise InvalidArgumentError("a phantom table needs at least two knots")
        # the bound refuses 1/p that round(1/e) could not take (5e-324)
        if not all(1.0 / HUGE_INDEX <= e <= 1.0 for _, e in knots):
            raise InvalidArgumentError(
                f"knot exponents 1/p must lie in [1/{HUGE_INDEX}, 1]")
        ps = [round(1.0 / e) for _, e in knots]
        if any(1.0 / p != e for p, (_, e) in zip(ps, knots)):
            raise InvalidArgumentError("knot exponents must be exactly 1/p for integer p")
        return cls(DrivingSequence(gamma, [x for x, _ in knots], ps))


class JumpPhantom(DistFn):
    """Step phantom on the same knot table: 0 below the first knot,
    gamma**(1/p_k) on [v_{p_k}, v_{p_{k+1}})."""

    def __init__(self, driving: DrivingSequence) -> None:
        super().__init__(name="jump-phantom",
                         cdf=lambda x: np.exp(self.log_cdf(x)),
                         sf=lambda x: -np.expm1(self.log_cdf(x)),
                         quantile=self._quantile,
                         right_end=driving.sup)
        self.driving = driving
        self._log_gamma = math.log(driving.gamma)

    def log_cdf(self, x):
        x = np.asarray(x, dtype=float)
        _, es, k, top = _knots_over(self.driving, x)
        lc = np.where(k == 0, -np.inf, es[np.maximum(k - 1, 0)] * self._log_gamma)
        return np.where(top, 0.0, lc)[()]

    def pow(self, x, n):
        return np.exp(n * self.log_cdf(x))

    def _quantile(self, p):
        g = _exponent_of(p, self._log_gamma)
        xs, es = _knots_under(self.driving, g)
        k = np.searchsorted(-es, -g, side="left")  # knots with exponent > g
        if np.any(k == es.size):
            raise InvalidArgumentError(
                "quantile beyond the stored driving prefix; supply a rule")
        return xs[k][()]


def driving_from_estimates(gamma: float, n_values, v_values) -> DrivingSequence:
    """Driving sequence from levels estimated on a subgrid of block sizes.

    The estimate at block size n_i is held constant over (n_{i-1}, n_i],
    which makes the estimation points plateau ends: the resulting phantom
    has knots exactly at (v_i, 1/n_i).  Tied levels, which a running
    maximum of the estimates produces, form one plateau and keep the last
    of their block sizes.
    """
    n_values = np.asarray(n_values, dtype=np.int64)
    v_values = np.asarray(v_values, dtype=float)
    if n_values.size != v_values.size or n_values.size == 0:
        raise InvalidArgumentError("need matching, non-empty n and level arrays")
    last = np.append(v_values[1:] != v_values[:-1], True)  # each run's last entry
    return DrivingSequence(gamma, v_values[last], n_values[last])


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

    def gaps(self) -> list[dict]:
        """Per-block-size gap and its SE, as the JSON reports list them."""
        return [{"n": r.n, "gap": r.gap, "se": r.se_at_gap} for r in self.rows]


def verify_phantom(G: DistFn, maxlaw, min_levels: int = 16) -> PhantomVerification:
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
        gn = np.exp(r.n * _log_cdf(G, r.levels))
        gaps = np.abs(r.p_hat - gn)
        i = int(np.argmax(gaps))
        rows.append(VerifyRow(n=int(r.n), gap=float(gaps[i]),
                              se_at_gap=float(r.se[i]),
                              level_at_gap=float(r.levels[i])))
    sup_gap = max((r.gap for r in rows), default=0.0)
    return PhantomVerification(rows=tuple(rows), sup_gap=sup_gap)
