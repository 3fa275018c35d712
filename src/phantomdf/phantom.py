"""Continuous and jump phantom distribution functions.

Given gamma in (0, 1) and finitely many non-decreasing levels
v_1 <= v_2 <= ... <= v_N, the continuous phantom is G(x) = gamma**g(x)
where g interpolates linearly (in x) between the knots (v_{p_k}, 1/p_k);
p_k is the last index of the k-th constancy run, so plateaus in the
levels are compressed away and only the knots are stored.  Below the
first knot g(x) = (v_{p_1} - x) + 1/p_1; the last knot level v_N is the
phantom's right end, and evaluation past it raises.  By construction
G(v_n)**n = gamma exactly at every knot, which is the property the
verification tooling leans on.

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
from .grids import HUGE_INDEX

__all__ = [
    "DrivingSequence",
    "PhantomDistFn",
    "JumpPhantom",
    "driving_from_estimates",
    "verify_phantom",
    "PhantomVerification",
]

class DrivingSequence:
    """gamma plus the knot table of a driving sequence v_1 <= ... <= v_N.

    The knots are the strictly increasing levels v_{p_k} at the strictly
    increasing 1-based level indices p_k, the last index of each plateau
    run of the levels; sup is the last knot level.
    """

    def __init__(self, gamma: float, levels, index) -> None:
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
        if levels.size < 2:
            raise DegenerateDrivingSequenceError(
                "all driving levels coincide; no phantom exists")
        self.gamma = gamma
        self.sup = float(levels[-1])
        self._knot_levels = levels
        self._knot_index = index

    def knots(self) -> tuple[np.ndarray, np.ndarray]:
        """The knot table: ascending levels v_{p_k} and exponents 1/p_k."""
        return self._knot_levels, 1.0 / self._knot_index


def _knots_over(d: DrivingSequence, x: np.ndarray):
    """Knot table and the number k of knots at or below each x; x past
    the last knot raises."""
    xs, es = d.knots()
    if np.any(x > xs[-1]):
        raise InvalidArgumentError("evaluation beyond the last knot")
    return xs, es, np.searchsorted(xs, x, side="right")


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
                         tail=lambda x: -np.expm1(self.log_cdf(x)),
                         quantile=lambda p: self.exponent_inverse(
                             _exponent_of(p, self._log_gamma)),
                         right_end=driving.sup)
        self.driving = driving
        self._log_gamma = math.log(driving.gamma)

    def exponent(self, x):
        """The exponent g(x); exact value 1/p_k at every knot."""
        x = np.asarray(x, dtype=float)
        xs, es, k = _knots_over(self.driving, x)
        i = np.maximum(k - 1, 0)        # last knot at or below x
        j = np.minimum(k, xs.size - 1)  # the knot after it
        xk, ek = xs[i], es[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            g = ek + ((x - xk) / (xs[j] - xk)) * (es[j] - ek)
        g = np.where(x == xk, ek, g)  # exact at knots, the last one included
        return np.where(k == 0, (xs[0] - x) + es[0], g)[()]

    def exponent_inverse(self, g):
        """x with exponent(x) = g, for g at or above the last knot's 1/p."""
        g = np.asarray(g, dtype=float)
        xs, es = self.driving.knots()
        if np.any(g < es[-1]):
            raise InvalidArgumentError("exponent below the last knot's")
        k = np.searchsorted(-es, -g, side="right")  # knots with exponent >= g
        i = np.maximum(k - 1, 0)
        j = np.minimum(k, es.size - 1)
        xk, ek = xs[i], es[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = xk + (ek - g) / (ek - es[j]) * (xs[j] - xk)
        x = np.where(g == ek, xk, x)  # exact at knots, the last one included
        return np.where(k == 0, xs[0] + (es[0] - g), x)[()]

    def log_cdf(self, x):
        return self.exponent(x) * self._log_gamma

    def pow(self, x, n):
        """G(x)**n evaluated as exp(n * log G(x))."""
        return np.exp(n * self.log_cdf(x))

    # -- serialization -------------------------------------------------

    def to_text(self) -> str:
        """Serialize gamma and the (x, g) knot table, 17 significant digits."""
        d = self.driving
        xs, es = d.knots()
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
                         tail=lambda x: -np.expm1(self.log_cdf(x)),
                         quantile=self._quantile,
                         right_end=driving.sup)
        self.driving = driving
        self._log_gamma = math.log(driving.gamma)

    def log_cdf(self, x):
        x = np.asarray(x, dtype=float)
        _, es, k = _knots_over(self.driving, x)
        return np.where(k == 0, -np.inf, es[np.maximum(k - 1, 0)] * self._log_gamma)[()]

    def pow(self, x, n):
        return np.exp(n * self.log_cdf(x))

    def _quantile(self, p):
        g = _exponent_of(p, self._log_gamma)
        xs, es = self.driving.knots()
        k = np.searchsorted(-es, -g, side="left")  # knots with exponent > g
        if np.any(k == es.size):
            raise InvalidArgumentError("quantile beyond the last knot")
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


# fewest grid levels with estimated probability in [0.01, 0.99] that
# verify_phantom compares a phantom on
MIN_VERIFY_LEVELS = 16


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
        """Per-block-size gap, its SE and the level it sits at, as the JSON
        reports list them."""
        return [{"n": r.n, "gap": r.gap, "se": r.se_at_gap, "level": r.level_at_gap}
                for r in self.rows]


def verify_phantom(G: DistFn, maxlaw) -> PhantomVerification:
    """Compare G**n against an estimated max law on its level grid.

    ``maxlaw`` is a MaxLawEstimate; each block size contributes the sup of
    |p_hat - G**n| over the grid together with the standard error at the
    offending level.  A grid with fewer than MIN_VERIFY_LEVELS levels whose
    estimated probabilities fall inside [0.01, 0.99] raises
    InsufficientGridError.
    """
    rows = []
    for r in maxlaw.rows:
        inside = np.count_nonzero((r.p_hat >= 0.01) & (r.p_hat <= 0.99))
        if inside < MIN_VERIFY_LEVELS:
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
