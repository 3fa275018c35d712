"""Distribution functions with declared tails and atoms.

A :class:`DistFn` is a law given by its tail 1 - F, with its quantile
function, declared atoms, an optional log density and an optional sampler.
Every estimator reads F through the tail, which does not cancel near the
right end.  Atoms are always declared, never inferred numerically: a law
without an ``atoms`` rule is treated as continuous everywhere.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError
from .grids import HUGE_INDEX, first_index_where

__all__ = [
    "AtomRule",
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


def _vectorize(fn: Callable[[float], float]) -> Callable:
    def wrapped(x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return fn(float(arr))
        out = np.fromiter((fn(float(v)) for v in arr.ravel()),
                          dtype=float, count=arr.size)
        return out.reshape(arr.shape)
    return wrapped


@dataclass(frozen=True)
class AtomRule:
    """Atom bookkeeping for a purely-jump (or mixed) law.

    Atom i (1-based) sits at ``location(i)``, increasing in i, and the tail
    mass strictly beyond it is ``tail_after(i)``; ``tail_after(0)`` is 1 by
    convention, so atom i carries mass tail(i-1) - tail(i).
    """

    location: Callable[[int], float]
    tail_after: Callable[[int], float]
    count: int | None = None

    def tail(self, i: int) -> float:
        if i <= 0:
            return 1.0
        if self.count is not None and i > self.count:
            i = self.count
        return float(self.tail_after(int(i)))

    def mass(self, i: int) -> float:
        return self.tail(i - 1) - self.tail(i)

    def index_leq(self, x: float) -> int:
        """Number of atoms at or below x; HUGE_INDEX when the search runs out."""
        x = float(x)
        k = first_index_where(lambda i: self.location(i) > x, 0)
        i = HUGE_INDEX if k is None else k - 1
        return i if self.count is None else min(i, self.count)


@dataclass(frozen=True)
class DistFn:
    """A distribution function F given by its tail, with atom structure.

    Parameters
    ----------
    tail
        Vectorized survival function 1 - F, in a closed form that avoids
        cancellation near the right end wherever one exists.
    quantile
        Vectorized generalized inverse of F, inf{x : F(x) >= p}.
    right_end
        sup{x : F(x) < 1}; ``inf`` for unbounded laws.
    logpdf
        Vectorized log density, for a law with a density; ``-inf`` where the
        density is 0.
    atoms
        Declared atom rule, or None for a continuous law.
    sampler
        ``sampler(rng, size) -> ndarray`` of i.i.d. draws.
    mean
        Analytic mean when known (``inf`` allowed), else None.
    """

    name: str
    tail: Callable
    quantile: Callable
    right_end: float
    logpdf: Callable | None = None
    atoms: AtomRule | None = None
    sampler: Callable | None = None
    mean: float | None = None

    def jump_at(self, x: float) -> float:
        """Mass of the declared atom at x (0.0 when none)."""
        if self.atoms is None:
            return 0.0
        i = self.atoms.index_leq(float(x))
        if i < 1 or i >= HUGE_INDEX:
            return 0.0
        if self.atoms.location(i) == float(x):
            return self.atoms.mass(i)
        return 0.0

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
    from scipy import stats  # only this law needs scipy; keep it off the import path

    frozen = stats.beta(c, d)
    return DistFn(name=f"beta({c:g},{d:g})", tail=frozen.sf,
                  quantile=frozen.ppf, logpdf=frozen.logpdf, right_end=1.0,
                  sampler=lambda rng, size: rng.beta(c, d, size),
                  mean=c / (c + d))


def _jump_quantile(atoms: AtomRule, p: float) -> float:
    if not (0.0 < p < 1.0):
        raise InvalidArgumentError("quantile argument must lie in (0, 1)")
    target = 1.0 - p
    # a finite list ends at its last atom: nothing lies beyond it
    k = first_index_where(lambda i: (atoms.count is not None and i >= atoms.count)
                          or atoms.tail(i) <= target, 0)
    if k is None:
        raise InvalidArgumentError("quantile beyond representable atom index")
    return atoms.location(k)


def jump_law(name: str, atoms: AtomRule,
             sampler: Callable | None = None,
             mean: float | None = None) -> DistFn:
    """Build a purely-jump DistFn from an atom rule."""
    if atoms.count is not None and atoms.tail(atoms.count) > 1e-15:
        raise InvalidArgumentError(
            "finite atom list must exhaust the mass (tail after last atom is 0)")

    tail = _vectorize(lambda x: atoms.tail(atoms.index_leq(x)))
    quantile = _vectorize(lambda p: _jump_quantile(atoms, p))
    right_end = math.inf if atoms.count is None else atoms.location(atoms.count)
    if sampler is None:
        sampler = lambda rng, size: quantile(np.maximum(rng.random(size), 1e-300))
    return DistFn(name=name, tail=tail, quantile=quantile, right_end=right_end,
                  atoms=atoms, sampler=sampler, mean=mean)


def geometric(p: float) -> DistFn:
    """Geometric law on {1, 2, ...} with success probability p."""
    if not (0.0 < p < 1.0):
        raise InvalidArgumentError("p must lie in (0, 1)")
    q = 1.0 - p
    atoms = AtomRule(location=float, tail_after=lambda n: q ** n)
    return jump_law(f"geometric({p:g})", atoms,
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
        t = np.where(p >= 0.5, 1.0 - p, p)
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
    are v_n = n.
    """
    k = int(k)
    if k < 1 or k * k > HUGE_INDEX:
        raise InvalidArgumentError("component index must lie in [1, 2**31]")
    base = k * k

    atoms = AtomRule(location=lambda j: float(base + j - 1),
                     tail_after=lambda j: 1.0 / (base + j - 1))

    def sampler(rng, size):
        # the level index n itself, an integer-valued float, is the draw v_n
        u = np.maximum(rng.random(size), 1e-300)
        idx = np.minimum(np.ceil(1.0 / u), float(HUGE_INDEX))
        return np.maximum(idx, base)

    return jump_law(f"mixture-component(k={k})", atoms, sampler=sampler)


def jump_sequence(levels, tailprobs, count: int | None = None) -> DistFn:
    """Purely-jump law with prescribed atom locations and tail probabilities.

    ``levels`` and ``tailprobs`` may be arrays (finite support; the last
    tail must be 0) or callables indexed from 1 (infinite support).  An
    array of levels reads as ``inf`` past its last atom.
    """
    if callable(levels):
        location = levels
    else:
        arr = np.asarray(levels, dtype=float)
        if arr.ndim != 1:
            raise InvalidArgumentError("atom locations must be a 1-d array")
        if np.any(np.diff(arr) <= 0):
            raise InvalidArgumentError("atom locations must be strictly increasing")
        location = lambda i: float(arr[i - 1]) if i <= arr.size else math.inf
        count = arr.size if count is None else count
    if callable(tailprobs):
        tail = tailprobs
    else:
        tarr = np.asarray(tailprobs, dtype=float)
        if np.any(tarr < 0) or np.any(tarr > 1) or np.any(np.diff(tarr) > 0):
            raise InvalidArgumentError("tail probabilities must be non-increasing in [0, 1]")
        tail = lambda i: float(tarr[min(int(i), tarr.size) - 1])
        count = tarr.size if count is None else count
    atoms = AtomRule(location=location, tail_after=tail, count=count)
    return jump_law("jumpseq", atoms)


def shifted(dist: DistFn, offset: float) -> DistFn:
    """Law of X + offset."""
    offset = float(offset)
    if not math.isfinite(offset):
        raise InvalidArgumentError(f"shift must be finite, got {offset:g}")

    atoms = None
    if dist.atoms is not None:
        inner_location = dist.atoms.location
        atoms = AtomRule(location=lambda i: inner_location(i) + offset,
                         tail_after=dist.atoms.tail_after,
                         count=dist.atoms.count)
    sampler = None
    if dist.sampler is not None:
        inner = dist.sampler
        sampler = lambda rng, size: np.asarray(inner(rng, size), dtype=float) + offset
    return DistFn(
        name=f"{dist.name}{offset:+g}",
        tail=lambda x: dist.tail(np.asarray(x, dtype=float) - offset),
        quantile=lambda p: np.asarray(dist.quantile(p), dtype=float) + offset,
        logpdf=((lambda x: dist.logpdf(np.asarray(x, dtype=float) - offset))
                if dist.logpdf else None),
        right_end=dist.right_end + offset,  # an infinite end stays put
        atoms=atoms, sampler=sampler,
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
