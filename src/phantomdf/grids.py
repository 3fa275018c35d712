"""Level sequences, tail probe levels and ratio-track classification.

Tail diagnostics never pick probe points ad hoc: they read
:func:`probe_levels` and judge their tracks with the convergence rule
at ``PROBE_RATIO_TOL``.
"""

from __future__ import annotations

import math
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


# Tail diagnostics probe at quantile(1 - 2**-j), j = 1..PROBE_DEPTH, so the
# probes are geometric in tail probability; a ratio track converges when
# its last quarter stays within PROBE_RATIO_TOL of the target.
PROBE_DEPTH = 40
PROBE_RATIO_TOL = 0.02


def probe_levels(dist) -> np.ndarray:
    """Probe levels for ``dist``, ascending, duplicates and overflow dropped."""
    p = 1.0 - 2.0 ** -np.arange(1.0, PROBE_DEPTH + 1)
    with np.errstate(over="ignore"):
        xs = np.asarray(dist.quantile(p), dtype=float)
    xs = xs[np.isfinite(xs)]
    if xs.size == 0:
        raise InvalidArgumentError("no finite probe levels for this distribution")
    keep = np.concatenate([[True], np.diff(xs) > 0])
    return xs[keep]


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
