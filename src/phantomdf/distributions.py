"""Distribution functions and pointwise tail diagnostics.

A :class:`DistFn` bundles the CDF with its survival function, quantile
function, declared atoms and an optional sampler.  Atoms are always
declared, never inferred numerically: a law without an ``atoms`` rule is
treated as continuous everywhere.

The analyzers in this module answer the questions that matter for
phantom distribution functions: right-tail regularity (no mass at the
right end and left-limit tail ratio tending to one), strict tail
equivalence of two laws, the sup distance between n-th powers, the
atom-ratio conditions used for discontinuous marginals, and the
concentration-function exponent.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateDistributionError,
    InvalidArgumentError,
)
from .grids import (
    HUGE_INDEX,
    LevelGrid,
    LevelSequence,
    ProbePolicy,
    classify_ratio_track,
    converges_to,
    first_index_where,
    last_quarter,
)

__all__ = [
    "AtomRule",
    "DistFn",
    "RegularityReport",
    "TailComparison",
    "DeltaReport",
    "ConcentrationReport",
    "regularity_check",
    "strict_tail_equivalence",
    "sup_power_distance",
    "delta_condition",
    "concentration_exponent",
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
    "powered",
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

    Atom i (1-based) sits at ``locations.value(i)`` and the tail mass
    strictly beyond it is ``tail_after(i)``; ``tail_after(0)`` is 1 by
    convention, so atom i carries mass tail(i-1) - tail(i).
    """

    locations: LevelSequence
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

    def location(self, i: int) -> float:
        return self.locations.value(i)

    def index_leq(self, x: float) -> int:
        i = self.locations.count_leq(x)
        if self.count is not None:
            i = min(i, self.count)
        return i


@dataclass(frozen=True)
class DistFn:
    """A distribution function with explicit tail and atom structure.

    Parameters
    ----------
    cdf, quantile
        Vectorized F and its generalized inverse inf{x : F(x) >= p}.
    right_end
        sup{x : F(x) < 1}; ``inf`` for unbounded laws.
    sf
        Survival function 1 - F, supplied separately wherever a closed
        form avoids cancellation near the right end.
    atoms
        Declared atom rule, or None for a continuous law.
    sampler
        ``sampler(rng, size) -> ndarray`` of i.i.d. draws.
    mean
        Analytic mean when known (``inf`` allowed), else None.
    """

    name: str
    cdf: Callable
    quantile: Callable
    right_end: float
    left_end: float = -math.inf
    sf: Callable | None = None
    pdf: Callable | None = None
    atoms: AtomRule | None = None
    sampler: Callable | None = None
    mean: float | None = None

    def tail(self, x):
        if self.sf is not None:
            return self.sf(x)
        return 1.0 - np.asarray(self.cdf(x), dtype=float)

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

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0)

    def sf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, np.exp(-rate * np.maximum(x, 0.0)), 1.0)

    def quantile(p):
        return -np.log1p(-np.asarray(p, dtype=float)) / rate

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, rate * np.exp(-rate * np.maximum(x, 0.0)), 0.0)

    return DistFn(name=f"exp({rate:g})", cdf=cdf, sf=sf, quantile=quantile,
                  pdf=pdf, right_end=math.inf, left_end=0.0,
                  sampler=lambda rng, size: rng.exponential(1.0 / rate, size),
                  mean=1.0 / rate)


def pareto(alpha: float, scale: float = 1.0) -> DistFn:
    """Pareto-type law on [0, inf) with tail (1 + x/scale)**(-alpha)."""
    if alpha <= 0 or scale <= 0:
        raise InvalidArgumentError("alpha and scale must be positive")

    def sf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, np.exp(-alpha * np.log1p(np.maximum(x, 0.0) / scale)), 1.0)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, -np.expm1(-alpha * np.log1p(np.maximum(x, 0.0) / scale)), 0.0)

    def quantile(p):
        return scale * np.expm1(-np.log1p(-np.asarray(p, dtype=float)) / alpha)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0,
                        (alpha / scale) * np.exp(-(alpha + 1.0) * np.log1p(np.maximum(x, 0.0) / scale)),
                        0.0)

    mean = scale / (alpha - 1.0) if alpha > 1 else math.inf
    return DistFn(name=f"pareto({alpha:g},{scale:g})", cdf=cdf, sf=sf,
                  quantile=quantile, pdf=pdf, right_end=math.inf, left_end=0.0,
                  sampler=lambda rng, size: quantile(rng.random(size)),
                  mean=mean)


def uniform(a: float = 0.0, b: float = 1.0) -> DistFn:
    if not b > a:
        raise InvalidArgumentError("need b > a")
    span = b - a

    def cdf(x):
        return np.clip((np.asarray(x, dtype=float) - a) / span, 0.0, 1.0)

    def quantile(p):
        return a + span * np.asarray(p, dtype=float)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= a) & (x <= b), 1.0 / span, 0.0)

    return DistFn(name=f"uniform({a:g},{b:g})", cdf=cdf,
                  sf=lambda x: 1.0 - cdf(x), quantile=quantile, pdf=pdf,
                  right_end=b, left_end=a,
                  sampler=lambda rng, size: rng.uniform(a, b, size),
                  mean=0.5 * (a + b))


def beta_law(c: float, d: float) -> DistFn:
    if c <= 0 or d <= 0:
        raise InvalidArgumentError("shape parameters must be positive")
    from scipy import stats  # only this law needs scipy; keep it off the import path

    frozen = stats.beta(c, d)
    return DistFn(name=f"beta({c:g},{d:g})", cdf=frozen.cdf, sf=frozen.sf,
                  quantile=frozen.ppf, pdf=frozen.pdf,
                  right_end=1.0, left_end=0.0,
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
             mean: float | None = None,
             left_end: float | None = None) -> DistFn:
    """Build a purely-jump DistFn from an atom rule."""
    if atoms.count is not None and atoms.tail(atoms.count) > 1e-15:
        raise InvalidArgumentError(
            "finite atom list must exhaust the mass (tail after last atom is 0)")

    def cdf_scalar(x: float) -> float:
        return 1.0 - atoms.tail(atoms.index_leq(x))

    def sf_scalar(x: float) -> float:
        return atoms.tail(atoms.index_leq(x))

    cdf = _vectorize(cdf_scalar)
    sf = _vectorize(sf_scalar)
    quantile = _vectorize(lambda p: _jump_quantile(atoms, p))
    if atoms.count is not None:
        right_end = atoms.location(atoms.count)
    else:
        right_end = atoms.locations.sup
    if sampler is None:
        sampler = lambda rng, size: quantile(np.maximum(rng.random(size), 1e-300))
    if left_end is None:
        left_end = atoms.location(1)
    return DistFn(name=name, cdf=cdf, sf=sf, quantile=quantile,
                  right_end=right_end, left_end=left_end, atoms=atoms,
                  sampler=sampler, mean=mean)


def geometric(p: float) -> DistFn:
    """Geometric law on {1, 2, ...} with success probability p."""
    if not (0.0 < p < 1.0):
        raise InvalidArgumentError("p must lie in (0, 1)")
    q = 1.0 - p
    atoms = AtomRule(locations=LevelSequence(rule=float),
                     tail_after=lambda n: q ** n)
    return jump_law(f"geometric({p:g})", atoms,
                    sampler=lambda rng, size: rng.geometric(p, size).astype(float),
                    mean=1.0 / p)


def superheavy() -> DistFn:
    """Law on (1, inf) with survival x**(-1/sqrt(ln x)), natural logarithm.

    The tail simplifies to exp(-sqrt(ln x)), which decays slower than any
    power of x; the mean is infinite and so is every moment.
    """

    def sf(x):
        x = np.asarray(x, dtype=float)
        safe = np.maximum(x, np.nextafter(1.0, 2.0))
        return np.where(x > 1.0, np.exp(-np.sqrt(np.log(safe))), 1.0)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        safe = np.maximum(x, np.nextafter(1.0, 2.0))
        return np.where(x > 1.0, -np.expm1(-np.sqrt(np.log(safe))), 0.0)

    def quantile(p):
        return np.exp(np.log1p(-np.asarray(p, dtype=float)) ** 2)

    def sampler(rng, size):
        u = np.maximum(rng.random(size), 1e-300)
        return np.exp(np.log(u) ** 2)

    return DistFn(name="superheavy", cdf=cdf, sf=sf, quantile=quantile,
                  right_end=math.inf, left_end=1.0, sampler=sampler,
                  mean=math.inf)


def symmetric_pareto(alpha: float, scale: float = 1.0) -> DistFn:
    """Two-sided Pareto-type law: density prop. to (1 + |x|/scale)**-(alpha+1)."""
    if alpha <= 0 or scale <= 0:
        raise InvalidArgumentError("alpha and scale must be positive")

    def sf(x):
        x = np.asarray(x, dtype=float)
        t = 0.5 * np.exp(-alpha * np.log1p(np.abs(x) / scale))
        return np.where(x >= 0, t, 1.0 - t)

    def cdf(x):
        return sf(-np.asarray(x, dtype=float))

    def quantile(p):
        p = np.asarray(p, dtype=float)
        t = np.where(p >= 0.5, 1.0 - p, p)
        mag = scale * np.expm1(-np.log(2.0 * t) / alpha)
        return np.where(p >= 0.5, mag, -mag)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return (alpha / (2.0 * scale)) * np.exp(-(alpha + 1.0) * np.log1p(np.abs(x) / scale))

    return DistFn(name=f"symmetric_pareto({alpha:g},{scale:g})",
                  cdf=cdf, sf=sf, quantile=quantile, pdf=pdf,
                  right_end=math.inf, left_end=-math.inf,
                  sampler=lambda rng, size: quantile(rng.random(size)),
                  mean=0.0 if alpha > 1 else None)


def mixture_component(k: int, vseq: LevelSequence | None = None) -> DistFn:
    """Component law F_k of the exchangeable mixture construction.

    F_k places its first atom at vseq(k*k) and jumps to 1 - 1/n at
    vseq(n) for every n >= k*k, so n * (tail at vseq(n)) is exactly 1.
    """
    k = int(k)
    if k < 1 or k * k > HUGE_INDEX:
        raise InvalidArgumentError("component index must lie in [1, 2**31]")
    if vseq is None:
        vseq = LevelSequence(rule=float)
    elif not isinstance(vseq, LevelSequence):
        raise InvalidArgumentError("atom levels must be a LevelSequence")
    base = k * k

    atoms = AtomRule(
        locations=LevelSequence(rule=lambda j: vseq.value(base + j - 1), sup=vseq.sup),
        tail_after=lambda j: 1.0 / (base + j - 1),
    )

    def sampler(rng, size):
        u = np.maximum(rng.random(size), 1e-300)
        idx = np.minimum(np.ceil(1.0 / u), float(HUGE_INDEX))
        idx = np.maximum(idx, base)
        return np.array([vseq.value(int(i)) for i in idx], dtype=float)

    return jump_law(f"mixture-component(k={k})", atoms, sampler=sampler)


def jump_sequence(levels, tailprobs, count: int | None = None) -> DistFn:
    """Purely-jump law with prescribed atom locations and tail probabilities.

    ``levels`` and ``tailprobs`` may be arrays (finite support; the last
    tail must be 0) or callables indexed from 1 (infinite support).
    """
    if callable(levels):
        loc = LevelSequence(rule=levels)
    elif isinstance(levels, LevelSequence):
        loc = levels
    else:
        arr = np.asarray(levels, dtype=float)
        if arr.ndim != 1:
            raise InvalidArgumentError("atom locations must be a 1-d array")
        if np.any(np.diff(arr) <= 0):
            raise InvalidArgumentError("atom locations must be strictly increasing")
        loc = LevelSequence(prefix=arr)
        count = arr.size if count is None else count
    if callable(tailprobs):
        tail = tailprobs
    else:
        tarr = np.asarray(tailprobs, dtype=float)
        if np.any(tarr < 0) or np.any(tarr > 1) or np.any(np.diff(tarr) > 0):
            raise InvalidArgumentError("tail probabilities must be non-increasing in [0, 1]")
        tail = lambda i: float(tarr[min(int(i), tarr.size) - 1])
        count = tarr.size if count is None else count
    atoms = AtomRule(locations=loc, tail_after=tail, count=count)
    return jump_law("jumpseq", atoms)


def shifted(dist: DistFn, offset: float) -> DistFn:
    """Law of X + offset."""
    offset = float(offset)
    if not math.isfinite(offset):
        raise InvalidArgumentError(f"shift must be finite, got {offset:g}")

    def move(end):
        return end + offset if math.isfinite(end) else end

    atoms = None
    if dist.atoms is not None:
        atoms = AtomRule(locations=dist.atoms.locations.shifted(offset),
                         tail_after=dist.atoms.tail_after,
                         count=dist.atoms.count)
    sampler = None
    if dist.sampler is not None:
        inner = dist.sampler
        sampler = lambda rng, size: np.asarray(inner(rng, size), dtype=float) + offset
    return DistFn(
        name=f"{dist.name}{offset:+g}",
        cdf=lambda x: dist.cdf(np.asarray(x, dtype=float) - offset),
        sf=lambda x: dist.tail(np.asarray(x, dtype=float) - offset),
        quantile=lambda p: np.asarray(dist.quantile(p), dtype=float) + offset,
        pdf=(lambda x: dist.pdf(np.asarray(x, dtype=float) - offset)) if dist.pdf else None,
        right_end=move(dist.right_end), left_end=move(dist.left_end),
        atoms=atoms, sampler=sampler,
        mean=None if dist.mean is None else dist.mean + offset,
    )


def powered(dist: DistFn, theta: float, name: str | None = None) -> DistFn:
    """Continuous law with distribution function F**theta."""
    if theta <= 0:
        raise InvalidArgumentError("theta must be positive")
    if dist.atoms is not None:
        raise InvalidArgumentError("powered() supports continuous laws only")

    def cdf(x):
        with np.errstate(divide="ignore"):
            logf = np.log(np.asarray(dist.cdf(x), dtype=float))
        return np.exp(theta * logf)

    def sf(x):
        return -np.expm1(theta * np.log1p(-np.asarray(dist.tail(x), dtype=float)))

    def quantile(p):
        return dist.quantile(np.asarray(p, dtype=float) ** (1.0 / theta))

    return DistFn(name=name or f"{dist.name}^{theta:g}", cdf=cdf, sf=sf,
                  quantile=quantile, right_end=dist.right_end,
                  left_end=dist.left_end,
                  sampler=lambda rng, size: quantile(np.maximum(rng.random(size), 1e-300)))


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
    "jumpseq": jump_sequence,
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


# ---------------------------------------------------------------------------
# analyzers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    is_regular: bool
    probe_levels: np.ndarray
    ratio_track: np.ndarray
    mass_at_right_end: float


@dataclass(frozen=True)
class TailComparison:
    levels: np.ndarray
    ratio_track: np.ndarray
    verdict: str  # equivalent | ratio->0 | ratio->inf | divergent | mismatched-right-ends


@dataclass(frozen=True)
class DeltaReport:
    xi: float
    holds: bool
    sup_value: float
    levels: np.ndarray
    track: np.ndarray


@dataclass(frozen=True)
class ConcentrationReport:
    b: float
    B_hat: float
    satisfied: bool


def _left_tail_ratio(dist: DistFn, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sfv = np.asarray(dist.tail(xs), dtype=float)
    jumps = np.array([dist.jump_at(x) for x in xs])
    keep = sfv > 0
    return xs[keep], (sfv[keep] + jumps[keep]) / sfv[keep]


def regularity_check(dist: DistFn, probe: ProbePolicy = ProbePolicy()) -> RegularityReport:
    """Right-tail regularity: no mass at the right end, left-limit tail ratio -> 1.

    Continuous laws pass trivially (the ratio track is identically one).
    For atom-listed laws the ratio uses the declared atom masses, so a
    geometric law reports the constant ratio 1/(1-p) and fails.
    """
    if dist.right_end == -math.inf:
        raise DegenerateDistributionError("distribution has no right tail")
    xs = probe.levels(dist)
    if xs.size < 32:
        raise InvalidArgumentError(
            f"regularity probe needs at least 32 ascending levels, got {xs.size}")
    levels, track = _left_tail_ratio(dist, xs)
    if math.isfinite(dist.right_end):
        mass = float(dist.tail(dist.right_end)) + dist.jump_at(dist.right_end)
    else:
        mass = 0.0
    ok = (mass <= 1e-15) and track.size > 0 and converges_to(track, 1.0, probe.ratio_tol)
    return RegularityReport(is_regular=bool(ok), probe_levels=levels,
                            ratio_track=track, mass_at_right_end=mass)


_VERDICT = {"one": "equivalent", "zero": "ratio->0", "inf": "ratio->inf",
            "divergent": "divergent"}


def strict_tail_equivalence(G: DistFn, H: DistFn,
                            probe: ProbePolicy = ProbePolicy()) -> TailComparison:
    """Compare right tails of G and H along G's tail-geometric probe grid.

    The track holds (1-H)/(1-G).  Verdict 'equivalent' means the track
    obeys the convergence rule at 1; a limit other than 0, 1 or infinity
    is reported as 'divergent' (not tail-equivalent, tails comparable).
    """
    if G.right_end != H.right_end:
        return TailComparison(levels=np.array([]), ratio_track=np.array([]),
                              verdict="mismatched-right-ends")
    xs = probe.levels(G)
    gt = np.asarray(G.tail(xs), dtype=float)
    ht = np.asarray(H.tail(xs), dtype=float)
    keep = gt > 0
    track = ht[keep] / gt[keep]
    return TailComparison(levels=xs[keep], ratio_track=track,
                          verdict=_VERDICT[classify_ratio_track(track, probe.ratio_tol)])


def _log_cdf(dist: DistFn, xs: np.ndarray) -> np.ndarray:
    tails = np.asarray(dist.tail(xs), dtype=float)
    with np.errstate(divide="ignore"):
        return np.log1p(-np.minimum(tails, 1.0))


def sup_power_distance(G: DistFn, H: DistFn, n: int, grid: LevelGrid) -> float:
    """max over the grid of |G(x)**n - H(x)**n|, powers taken in log scale."""
    if n < 1:
        raise InvalidArgumentError("power index must be >= 1")
    if len(grid) == 0:
        raise InvalidArgumentError("empty evaluation grid")
    xs = grid.values
    gn = np.exp(n * _log_cdf(G, xs))
    hn = np.exp(n * _log_cdf(H, xs))
    return float(np.max(np.abs(gn - hn)))


def _atom_probe_levels(dist: DistFn, probe: ProbePolicy) -> np.ndarray:
    """Atom locations for sup-type checks: a head run plus tail-geometric picks."""
    atoms = dist.atoms
    assert atoms is not None
    head_n = 64 if atoms.count is None else min(64, atoms.count)
    xs = [atoms.location(i) for i in range(1, head_n + 1)]
    cutoff = probe.truncation_level(dist)
    for j in range(1, probe.depth + 1):
        p = 1.0 - 2.0 ** (-j)
        if 2.0 ** (-j) < probe.tail_cutoff:
            break
        x = _jump_quantile(atoms, p)
        if x <= cutoff:
            xs.append(x)
    xs = np.unique(np.asarray(xs, dtype=float))
    return xs[xs <= cutoff]


def delta_condition(dist: DistFn, xi: float,
                    probe: ProbePolicy = ProbePolicy()) -> DeltaReport:
    """Atom-jump tail conditions for discontinuous marginals.

    xi = 0: does dF(x) / (1-F(x)) -> 0 along atoms ascending to the right
    end?  xi > 0: is sup over atoms of dF(x) / (1-F(x))**(1+xi) finite
    (per the truncation rule)?  Laws without declared atoms hold trivially.
    """
    if xi < 0:
        raise InvalidArgumentError("xi must be >= 0")
    if dist.atoms is None:
        return DeltaReport(xi=xi, holds=True, sup_value=0.0,
                           levels=np.array([]), track=np.array([]))
    xs = _atom_probe_levels(dist, probe)
    sfv = np.asarray(dist.tail(xs), dtype=float)
    masses = np.array([dist.jump_at(x) for x in xs])
    keep = sfv > 0
    xs, sfv, masses = xs[keep], sfv[keep], masses[keep]
    track = masses / sfv ** (1.0 + xi)
    if track.size == 0:
        return DeltaReport(xi=xi, holds=True, sup_value=0.0, levels=xs, track=track)
    sup_value = float(np.max(track))
    if xi == 0:
        holds = bool(np.max(last_quarter(track)) <= probe.ratio_tol)
    else:
        holds = sup_value <= probe.cap
    return DeltaReport(xi=xi, holds=holds, sup_value=sup_value, levels=xs, track=track)


def concentration_exponent(dist: DistFn, b: float,
                           probe: ProbePolicy = ProbePolicy()) -> ConcentrationReport:
    """Estimate B in F(x+u) - F(x) <= B * u**b over probe pairs.

    Any declared atom forces the ratio through the cap as u -> 0, so jump
    laws report satisfied=False for every b.
    """
    if not (0.0 < b <= 1.0):
        raise InvalidArgumentError("b must lie in (0, 1]")
    probs = np.concatenate([np.linspace(0.02, 0.98, 25),
                            1.0 - 2.0 ** (-np.arange(2.0, probe.depth + 1))])
    probs = probs[probs <= 1.0 - probe.tail_cutoff]
    xs = np.asarray(dist.quantile(np.unique(probs)), dtype=float)
    xs = np.unique(xs[np.isfinite(xs)])
    us = 2.0 ** (-np.arange(0.0, 51.0))
    best = 0.0
    for x in xs:
        inc = np.asarray(dist.cdf(x + us), dtype=float) - float(dist.cdf(x))
        best = max(best, float(np.max(inc / us ** b)))
    if dist.atoms is not None:
        # F(a) - F(a - u) >= mass(a) for every u, so any probed atom with
        # positive mass sends the ratio to infinity as u -> 0.
        locs = _atom_probe_levels(dist, probe)
        if any(dist.jump_at(a) > 0 for a in locs):
            best = math.inf
    return ConcentrationReport(b=b, B_hat=best, satisfied=bool(best <= probe.cap))
