"""Distribution functions with declared tails.

A :class:`DistFn` is a law given by its tail 1 - F, with an optional
quantile function, log density and sampler.  Every
estimator reads F through the tail, which does not cancel near the right
end.  The jump laws (``geometric``, ``mixture_component``,
``jump_sequence``) give their tail and quantile in closed form too.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError
from .grids import HUGE_INDEX

__all__ = [
    "DistFn",
    "exponential",
    "pareto",
    "uniform",
    "beta_law",
    "geometric",
    "superheavy",
    "symmetric_pareto",
    "mixture_component",
    "jump_sequence",
    "shifted",
    "make_distribution",
    "dkw_epsilon",
]


@dataclass(frozen=True)
class DistFn:
    """A distribution function F given by its tail.

    Parameters
    ----------
    tail
        Vectorized survival function 1 - F, in a closed form that avoids
        cancellation near the right end wherever one exists.
    right_end
        sup{x : F(x) < 1}; ``inf`` for unbounded laws.
    quantile
        Vectorized generalized inverse of F, inf{x : F(x) >= p}; every
        catalog law has one, a phantom (which is evaluated, never inverted)
        has none.
    logpdf
        Vectorized log density, for a law with a density; ``-inf`` where the
        density is 0.
    sampler
        ``sampler(rng, size) -> ndarray`` of i.i.d. draws.
    mean
        Analytic mean when known (``inf`` allowed), else None.
    """

    name: str
    tail: Callable
    right_end: float
    quantile: Callable | None = None
    logpdf: Callable | None = None
    sampler: Callable | None = None
    mean: float | None = None

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.sampler is None:
            raise InvalidArgumentError(f"law {self.name!r} has no sampler")
        return np.asarray(self.sampler(rng, int(size)), dtype=float)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def exponential(rate: float = 1.0) -> DistFn:
    """Exponential law with the given rate."""
    if rate <= 0:
        raise InvalidArgumentError("rate must be positive")

    def tail(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, np.exp(-rate * np.maximum(x, 0.0)), 1.0)

    def quantile(p):
        return -np.log1p(-np.asarray(p, dtype=float)) / rate

    log_rate = math.log(rate)

    def logpdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, log_rate - rate * np.maximum(x, 0.0), -np.inf)

    return DistFn(name=f"exp({rate:g})", tail=tail, quantile=quantile,
                  logpdf=logpdf, right_end=math.inf,
                  sampler=lambda rng, size: rng.exponential(1.0 / rate, size),
                  mean=1.0 / rate)


def pareto(alpha: float, scale: float = 1.0) -> DistFn:
    """Pareto-type law on [0, inf) with tail (1 + x/scale)**(-alpha)."""
    if alpha <= 0 or scale <= 0:
        raise InvalidArgumentError("alpha and scale must be positive")

    def tail(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, np.exp(-alpha * np.log1p(np.maximum(x, 0.0) / scale)), 1.0)

    def quantile(p):
        return scale * np.expm1(-np.log1p(-np.asarray(p, dtype=float)) / alpha)

    # a difference of logs: alpha / scale may underflow to 0 or overflow
    log_c = math.log(alpha) - math.log(scale)

    def logpdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0,
                        log_c - (alpha + 1.0) * np.log1p(np.maximum(x, 0.0) / scale),
                        -np.inf)

    mean = scale / (alpha - 1.0) if alpha > 1 else math.inf
    return DistFn(name=f"pareto({alpha:g},{scale:g})", tail=tail,
                  quantile=quantile, logpdf=logpdf, right_end=math.inf,
                  sampler=lambda rng, size: quantile(rng.random(size)),
                  mean=mean)


def uniform(a: float = 0.0, b: float = 1.0) -> DistFn:
    if not b > a:
        raise InvalidArgumentError("need b > a")
    span = b - a

    def tail(x):
        return 1.0 - np.clip((np.asarray(x, dtype=float) - a) / span, 0.0, 1.0)

    def quantile(p):
        return a + span * np.asarray(p, dtype=float)

    def logpdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= a) & (x <= b), -math.log(span), -np.inf)

    return DistFn(name=f"uniform({a:g},{b:g})", tail=tail,
                  quantile=quantile, logpdf=logpdf, right_end=b,
                  sampler=lambda rng, size: rng.uniform(a, b, size),
                  mean=0.5 * (a + b))


def beta_law(c: float, d: float) -> DistFn:
    if c <= 0 or d <= 0:
        raise InvalidArgumentError("shape parameters must be positive")
    # only this law needs scipy; keep it off the import path
    from scipy import special, stats

    frozen = stats.beta(c, d)
    xlogy, xlog1py = special.xlogy, special.xlog1py
    log_b = float(special.betaln(c, d))

    def logpdf(x):
        # scipy's own closed form, without its per-call dispatch; the
        # density is infinite at an end where its exponent is below 0
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, xlog1py(d - 1.0, -x) + xlogy(c - 1.0, x) - log_b, -np.inf)

    return DistFn(name=f"beta({c:g},{d:g})", tail=frozen.sf,
                  quantile=frozen.ppf, logpdf=logpdf, right_end=1.0,
                  sampler=lambda rng, size: rng.beta(c, d, size),
                  mean=c / (c + d))


def _tail_target(u) -> np.ndarray:
    """1 - u, the tail a jump law's quantile at u must reach; u in (0, 1)."""
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise InvalidArgumentError("quantile argument must lie in (0, 1)")
    return 1.0 - u


def geometric(p: float) -> DistFn:
    """Geometric law on {1, 2, ...} with success probability p: the tail
    beyond x is q**floor(x), q = 1 - p."""
    if not (0.0 < p < 1.0):
        raise InvalidArgumentError("p must lie in (0, 1)")
    q = 1.0 - p
    if q == 1.0:
        raise InvalidArgumentError(f"p = {p:g} rounds 1 - p to 1, so the tail never falls")
    log_q = math.log(q)

    def tail(x):
        # float_power is C's pow, as Python's q ** n; np.power may differ
        return np.float_power(q, np.floor(np.maximum(np.asarray(x, dtype=float), 0.0)))

    def quantile(u):
        # the first k >= 1 with q**k <= 1 - u: the log ratio, then one step
        t = _tail_target(u)
        k = np.maximum(np.ceil(np.log(t) / log_q), 1.0)
        k = np.where(tail(k) > t, k + 1.0, k)
        return np.where((k > 1.0) & (tail(k - 1.0) <= t), k - 1.0, k)

    return DistFn(name=f"geometric({p:g})", tail=tail, quantile=quantile,
                  right_end=math.inf,
                  sampler=lambda rng, size: rng.geometric(p, size).astype(float),
                  mean=1.0 / p)


def superheavy() -> DistFn:
    """Law on (1, inf) with survival x**(-1/sqrt(ln x)), natural logarithm.

    The tail simplifies to exp(-sqrt(ln x)), which decays slower than any
    power of x; the mean is infinite and so is every moment.
    """

    def tail(x):
        x = np.asarray(x, dtype=float)
        safe = np.maximum(x, np.nextafter(1.0, 2.0))
        return np.where(x > 1.0, np.exp(-np.sqrt(np.log(safe))), 1.0)

    def quantile(p):
        return np.exp(np.log1p(-np.asarray(p, dtype=float)) ** 2)

    def sampler(rng, size):
        u = np.maximum(rng.random(size), 1e-300)
        return np.exp(np.log(u) ** 2)

    return DistFn(name="superheavy", tail=tail, quantile=quantile,
                  right_end=math.inf, sampler=sampler, mean=math.inf)


def symmetric_pareto(alpha: float, scale: float = 1.0) -> DistFn:
    """Two-sided Pareto-type law: density prop. to (1 + |x|/scale)**-(alpha+1)."""
    if alpha <= 0 or scale <= 0:
        raise InvalidArgumentError("alpha and scale must be positive")

    def tail(x):
        x = np.asarray(x, dtype=float)
        t = 0.5 * np.exp(-alpha * np.log1p(np.abs(x) / scale))
        return np.where(x >= 0, t, 1.0 - t)

    def quantile(p):
        p = np.asarray(p, dtype=float)
        t = np.minimum(p, 1.0 - p)  # the tail beyond the quantile
        # a small alpha puts mass beyond the largest double: inf, on purpose
        with np.errstate(over="ignore"):
            mag = scale * np.expm1(-np.log(2.0 * t) / alpha)
        return np.where(p >= 0.5, mag, -mag)

    # a difference of logs: alpha / (2 scale) may underflow to 0 or overflow
    log_c = math.log(alpha) - math.log(2.0) - math.log(scale)

    def logpdf(x):
        # the Metropolis kernel calls this once per time step: four numpy
        # calls at the unit scale
        x = np.abs(x)
        if scale != 1.0:
            x = x / scale
        return log_c - (alpha + 1.0) * np.log1p(x)

    return DistFn(name=f"symmetric_pareto({alpha:g},{scale:g})",
                  tail=tail, quantile=quantile, logpdf=logpdf, right_end=math.inf,
                  sampler=lambda rng, size: quantile(rng.random(size)),
                  mean=0.0 if alpha > 1 else None)


def mixture_component(k: int) -> DistFn:
    """Component law F_k of the exchangeable mixture construction.

    F_k places its first atom at the level v_{k*k} and jumps to 1 - 1/n at
    v_n for every n >= k*k, so n * (tail at v_n) is exactly 1; the levels
    are v_n = n, so the tail beyond x >= k*k is 1 / floor(x).
    """
    k = int(k)
    if k < 1 or k * k > HUGE_INDEX:
        raise InvalidArgumentError("component index must lie in [1, 2**31]")
    base = k * k
    first = float(base)

    def tail(x):
        n = np.floor(np.asarray(x, dtype=float))
        return np.where(n >= first, 1.0 / np.maximum(n, first), 1.0)

    def quantile(u):
        # the first level n >= k*k with 1/n <= 1 - u; as 1 - u is a multiple
        # of 2**-53, 1/(1 - u) never rounds across such an n
        return np.maximum(np.ceil(1.0 / _tail_target(u)), first)

    def sampler(rng, size):
        # the level index n itself, an integer-valued float, is the draw v_n
        u = np.maximum(rng.random(size), 1e-300)
        idx = np.minimum(np.ceil(1.0 / u), float(HUGE_INDEX))
        return np.maximum(idx, base)

    return DistFn(name=f"mixture-component(k={k})", tail=tail, quantile=quantile,
                  right_end=math.inf, sampler=sampler)


def jump_sequence(levels, tailprobs) -> DistFn:
    """Purely-jump law on finitely many atoms: the tail beyond
    ``levels[i]`` is ``tailprobs[i]``, and the last tail is 0."""
    arr = np.asarray(levels, dtype=float)
    tarr = np.asarray(tailprobs, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or tarr.shape != arr.shape:
        raise InvalidArgumentError(
            "atom locations and tail probabilities must be nonempty 1-d arrays of one length")
    if np.any(np.diff(arr) <= 0):
        raise InvalidArgumentError("atom locations must be strictly increasing")
    if np.any(tarr < 0) or np.any(tarr > 1) or np.any(np.diff(tarr) > 0):
        raise InvalidArgumentError("tail probabilities must be non-increasing in [0, 1]")
    if tarr[-1] > 1e-15:
        raise InvalidArgumentError(
            "finite atom list must exhaust the mass (tail after last atom is 0)")
    tails = np.concatenate(([1.0], tarr))
    rising = -tarr  # ascending, for searchsorted

    def tail(x):
        return tails[np.searchsorted(arr, x, side="right")]

    def quantile(u):
        # the first atom whose tail is at most 1 - u; the last atom ends the list
        i = np.searchsorted(rising, -_tail_target(u), side="left")
        return arr[np.minimum(i, arr.size - 1)]

    return DistFn(name="jumpseq", tail=tail, quantile=quantile, right_end=float(arr[-1]),
                  sampler=lambda rng, size: quantile(np.maximum(rng.random(size), 1e-300)))


def shifted(dist: DistFn, offset: float) -> DistFn:
    """Law of X + offset."""
    offset = float(offset)
    if not math.isfinite(offset):
        raise InvalidArgumentError(f"shift must be finite, got {offset:g}")

    sampler = None
    if dist.sampler is not None:
        inner = dist.sampler
        sampler = lambda rng, size: np.asarray(inner(rng, size), dtype=float) + offset
    return DistFn(
        name=f"{dist.name}{offset:+g}",
        tail=lambda x: dist.tail(np.asarray(x, dtype=float) - offset),
        quantile=((lambda p: np.asarray(dist.quantile(p), dtype=float) + offset)
                  if dist.quantile else None),
        logpdf=((lambda x: dist.logpdf(np.asarray(x, dtype=float) - offset))
                if dist.logpdf else None),
        right_end=dist.right_end + offset,  # an infinite end stays put
        sampler=sampler,
        mean=None if dist.mean is None else dist.mean + offset,
    )


_CATALOG: dict[str, Callable[..., DistFn]] = {
    "exp": exponential,
    "exponential": exponential,
    "pareto": pareto,
    "uniform": uniform,
    "beta": beta_law,
    "geometric": geometric,
    "superheavy": superheavy,
    "symmetric_pareto": symmetric_pareto,
    "mixture_component": mixture_component,
}


def make_distribution(name: str, *args, **kwargs) -> DistFn:
    """Instantiate a catalog law by name.

    Arguments that do not fit the law's signature, and non-finite numbers,
    raise InvalidArgumentError before the law is built.
    """
    key = name.strip().lower().replace("-", "_")
    if key not in _CATALOG:
        raise InvalidArgumentError(
            f"unknown distribution {name!r}; catalog: {sorted(set(_CATALOG))}")
    law = _CATALOG[key]
    try:
        inspect.signature(law).bind(*args, **kwargs)
    except TypeError as exc:
        raise InvalidArgumentError(f"bad arguments for {name!r}: {exc}") from None
    if any(isinstance(a, float) and not math.isfinite(a)
           for a in (*args, *kwargs.values())):
        raise InvalidArgumentError(f"parameters of {name!r} must be finite")
    return law(*args, **kwargs)


def dkw_epsilon(n: int, confidence: float = 0.999) -> float:
    """Half-width of the Dvoretzky-Kiefer-Wolfowitz band at the given confidence."""
    if n < 1 or not (0 < confidence < 1):
        raise InvalidArgumentError("need n >= 1 and confidence in (0, 1)")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))


def _log_cdf(dist: DistFn, xs: np.ndarray) -> np.ndarray:
    tails = np.asarray(dist.tail(xs), dtype=float)
    with np.errstate(divide="ignore"):
        return np.log1p(-np.minimum(tails, 1.0))
