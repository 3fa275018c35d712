"""Level sequences, probe policies and evaluation grids.

Analyzer routines never pick probe points ad hoc: they take a
:class:`ProbePolicy` (tail-geometric probing plus the convergence and
truncation rules) or an explicit :class:`LevelGrid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError

# Sentinel index for "infinitely many levels at or below x" (bounded sequences).
HUGE_INDEX = 2**62


def first_index_where(holds: Callable[[int], bool], start: int) -> int | None:
    """Smallest k > start with holds(k); None if there is none up to HUGE_INDEX.

    ``holds`` must be monotone: false up to some index and true from there
    on.  The search doubles from start + 1 until ``holds`` is true, then
    bisects, and gives up as soon as the doubling would pass HUGE_INDEX.
    """
    lo, hi = start, start + 1
    while not holds(hi):
        lo, hi = hi, 2 * hi
        if hi > HUGE_INDEX:
            return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


class LevelSequence:
    """Non-decreasing levels v_1 <= v_2 <= ... with lazy evaluation.

    A finite prefix is stored as an array; indices beyond the prefix are
    served by ``rule`` when one is given and fail explicitly otherwise.
    ``sup`` is the supremum of the whole sequence (``inf`` by default for
    rule-backed sequences, the last prefix value otherwise).
    """

    def __init__(self,
                 prefix: Sequence[float] = (),
                 rule: Callable[[int], float] | None = None,
                 sup: float | None = None) -> None:
        self.prefix = np.asarray(prefix, dtype=float)
        if self.prefix.size and np.any(np.diff(self.prefix) < 0):
            raise InvalidArgumentError("levels must be non-decreasing")
        self.rule = rule
        if rule is None and self.prefix.size == 0:
            raise InvalidArgumentError("level sequence needs a prefix or a rule")
        if rule is not None and self.prefix.size:
            nxt = float(rule(self.prefix.size + 1))
            if nxt < float(self.prefix[-1]):
                raise InvalidArgumentError("rule must continue the prefix monotonically")
        if sup is None:
            sup = math.inf if rule is not None else float(self.prefix[-1])
        self.sup = float(sup)

    def __len__(self) -> int:
        # Finite only for prefix-only sequences.
        if self.rule is not None:
            raise InvalidArgumentError("rule-backed sequence has no finite length")
        return int(self.prefix.size)

    def value(self, n: int) -> float:
        n = int(n)
        if n < 1:
            raise InvalidArgumentError("level index must be >= 1")
        if n <= self.prefix.size:
            return float(self.prefix[n - 1])
        if self.rule is None:
            raise InvalidArgumentError(
                f"level index {n} beyond stored prefix of size {self.prefix.size}")
        return float(self.rule(n))

    def values(self, indices) -> np.ndarray:
        return np.array([self.value(int(n)) for n in np.atleast_1d(indices)], dtype=float)

    def count_leq(self, x: float) -> int:
        """Largest n with v_n <= x; 0 when x sits below v_1.

        For a bounded rule-backed sequence and x at or above the supremum
        the count is infinite; ``HUGE_INDEX`` stands in for it.
        """
        x = float(x)
        k = int(np.searchsorted(self.prefix, x, side="right"))
        if k < self.prefix.size or self.rule is None:
            return k
        if x >= self.sup:
            return HUGE_INDEX
        k = first_index_where(lambda n: self.value(n) > x, self.prefix.size)
        return HUGE_INDEX if k is None else k - 1

    def shifted(self, offset: float) -> "LevelSequence":
        rule = None
        if self.rule is not None:
            base = self.rule
            rule = lambda n: float(base(n)) + offset
        sup = self.sup + offset if math.isfinite(self.sup) else self.sup
        return LevelSequence(self.prefix + offset, rule=rule, sup=sup)


@dataclass(frozen=True)
class ProbePolicy:
    """Default probing scheme for tail diagnostics.

    Probe levels sit at quantile(1 - 2**-j), j = 1..depth, so they are
    geometric in tail probability.  ``ratio_tol`` parameterizes the
    convergence rule (last quarter of a track inside [1-tol, 1+tol]);
    ``tail_cutoff`` and ``cap`` implement the truncation rule for
    suprema ("finite" means no probed value beyond ``cap`` below the
    quantile of 1 - tail_cutoff).
    """

    depth: int = 40
    ratio_tol: float = 0.02
    tail_cutoff: float = 1e-8
    cap: float = 1e8
    explicit_levels: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise InvalidArgumentError("probe depth must be >= 1")
        if not (0 < self.ratio_tol < 1):
            raise InvalidArgumentError("ratio_tol must lie in (0, 1)")
        if not (0 < self.tail_cutoff < 1):
            raise InvalidArgumentError("tail_cutoff must lie in (0, 1)")

    def probabilities(self) -> np.ndarray:
        j = np.arange(1, self.depth + 1, dtype=float)
        return 1.0 - 2.0 ** (-j)

    def levels(self, dist) -> np.ndarray:
        """Probe levels for ``dist``, ascending, duplicates and overflow dropped."""
        if self.explicit_levels is not None:
            xs = np.asarray(self.explicit_levels, dtype=float)
            if xs.size == 0:
                raise InvalidArgumentError("explicit probe grid is empty")
            if np.any(np.diff(xs) <= 0):
                raise InvalidArgumentError("explicit probe grid must be strictly ascending")
            return xs
        xs = np.asarray(dist.quantile(self.probabilities()), dtype=float)
        xs = xs[np.isfinite(xs)]
        if xs.size == 0:
            raise InvalidArgumentError("no finite probe levels for this distribution")
        keep = np.concatenate([[True], np.diff(xs) > 0])
        return xs[keep]

    def truncation_level(self, dist) -> float:
        return float(dist.quantile(1.0 - self.tail_cutoff))


@dataclass(frozen=True)
class LevelGrid:
    """A fixed ascending grid of evaluation levels."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.size and np.any(np.diff(self.values) < 0):
            raise InvalidArgumentError("grid levels must be ascending")

    def __len__(self) -> int:
        return int(self.values.size)

    @classmethod
    def from_values(cls, xs) -> "LevelGrid":
        return cls(np.asarray(xs, dtype=float))

    @classmethod
    def power_scale(cls, dist, n: int, size: int = 512,
                    min_tail: float | None = None) -> "LevelGrid":
        """Grid tuned for comparing n-th powers of distribution functions.

        Levels are quantiles at probabilities 1 - c/n with c log-spaced, so
        the region where F**n moves from ~0 to ~1 is covered densely and the
        lowest level sits at quantile(min_tail), default 1e-3/n.
        """
        if n < 1:
            raise InvalidArgumentError("power index must be >= 1")
        if min_tail is None:
            min_tail = 1e-3 / n
        c = np.geomspace(1e-4, n * (1.0 - min_tail), size)
        p = np.clip(1.0 - c / n, min_tail, 1.0 - 1e-16)
        p = np.unique(p)
        xs = np.asarray(dist.quantile(p), dtype=float)
        xs = xs[np.isfinite(xs)]
        keep = np.concatenate([[True], np.diff(xs) > 0])
        return cls(xs[keep])


def last_quarter(track: np.ndarray) -> np.ndarray:
    track = np.asarray(track, dtype=float)
    k = max(1, track.size // 4)
    return track[-k:]


def converges_to(track, target: float, tol: float) -> bool:
    """Convergence rule: the last quarter of the track stays within tol of target."""
    track = np.asarray(track, dtype=float)
    if track.size == 0:
        return False
    tail = last_quarter(track)
    return bool(np.all(np.abs(tail - target) <= tol))


def classify_limit(track, tol: float) -> tuple[str, float | None]:
    """Classify a track as converged (to the median of its last quarter) or divergent."""
    track = np.asarray(track, dtype=float)
    if track.size == 0:
        return "divergent", None
    tail = last_quarter(track)
    value = float(np.median(tail))
    scale = max(1.0, abs(value))
    if np.all(np.abs(tail - value) <= tol * scale):
        return "converged", value
    return "divergent", None


# Thresholds for deciding that a positive ratio track heads to 0 or infinity.
RATIO_ZERO_THRESHOLD = 0.05
RATIO_INF_THRESHOLD = 20.0


def classify_ratio_track(track, tol: float) -> str:
    """Limit class of a nonnegative ratio track: 'one', 'zero', 'inf' or 'divergent'."""
    track = np.asarray(track, dtype=float)
    if track.size == 0:
        return "divergent"
    tail = last_quarter(track)
    if np.all(np.abs(tail - 1.0) <= tol):
        return "one"
    if np.max(tail) <= RATIO_ZERO_THRESHOLD and tail[-1] <= track[0]:
        return "zero"
    if np.min(tail) >= RATIO_INF_THRESHOLD and tail[-1] >= track[0]:
        return "inf"
    return "divergent"
