"""Index search, tail probe levels and ratio-track classification.

Tail diagnostics never pick probe points ad hoc: they read
:func:`probe_levels` and judge their tracks with the convergence rule
at ``PROBE_RATIO_TOL``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InvalidArgumentError

# Sentinel index for "infinitely many levels at or below x".
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


# Tail diagnostics probe at quantile(1 - 2**-j), j = 1..PROBE_DEPTH, so the
# probes are geometric in tail probability; a ratio track converges when
# its last quarter stays within PROBE_RATIO_TOL of the target.
PROBE_DEPTH = 40
PROBE_RATIO_TOL = 0.02
PROBE_TAILS = 2.0 ** -np.arange(1.0, PROBE_DEPTH + 1)  # the tails 2**-j


def probe_levels(dist) -> np.ndarray:
    """Probe levels for ``dist``, ascending, duplicates and overflow dropped."""
    with np.errstate(over="ignore"):
        xs = np.asarray(dist.quantile(1.0 - PROBE_TAILS), dtype=float)
    xs = xs[np.isfinite(xs)]
    if xs.size == 0:
        raise InvalidArgumentError("no finite probe levels for this distribution")
    keep = np.concatenate([[True], np.diff(xs) > 0])
    return xs[keep]


def ascending_distinct(xs: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array of finite values, in order:
    np.unique(xs), by adjacent differences.  (np.unique without
    return_counts imports numpy.ma on its first call, 15-25 ms of a
    command's fixed cost.)"""
    keep = np.empty(xs.size, dtype=bool)
    keep[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=keep[1:])
    return xs[keep]


def last_quarter(track: np.ndarray) -> np.ndarray:
    track = np.asarray(track, dtype=float)
    k = max(1, track.size // 4)
    return track[-k:]


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
