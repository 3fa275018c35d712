"""Acceptance suite: ten numbered desk-scale checks with fixed seeds.

Each criterion returns a CriterionResult carrying a pass/fail verdict,
a one-line detail string, and the serialized artifacts (CSV/JSON) used
by the determinism criterion.  Worker counts are plumbed through so
criterion 10 can compare byte streams across different chunkings.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    exponential,
    pareto,
    shifted,
    superheavy,
    symmetric_pareto,
    uniform,
)
from .estimate import (
    VERIFY_RULE,
    block_maxima_table,
    check_BT,
    estimate_driving_sequence,
    estimate_theta_single_sequence,
    fit_phantom,
    regen_phantom,
    verify_by_simulation,
)
from .phantom import DrivingSequence, JumpPhantom, PhantomDistFn
from .processes import (
    IIDSpec,
    MetropolisSpec,
    MixtureSpec,
    MovingMaxSpec,
    exact_max_cdf,
    marginal_sf,
    metropolis_config_check,
    target_tail_condition,
)
from .rates import (
    DeltaEvidence,
    PolynomialMixing,
    alpha_discontinuous_case,
    threshold_beta,
)
from .reporting import (
    bt_csv,
    csv_table,
    driving_csv,
    json_report,
    maxlaw_csv,
    theta_csv,
)

__all__ = ["CriterionResult", "run_criterion", "run_all", "SEED", "GAMMA"]

SEED = 20260814
GAMMA = math.exp(-1.0)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    tolerance: str
    detail: str
    seconds: float = 0.0
    artifacts: dict[str, str] = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number:2d} [{status}] {self.name}: "
                f"{self.detail} (tolerance: {self.tolerance})")


def criterion_1(workers: int = 1) -> CriterionResult:
    """Exponent identity of the continuous and the jump phantom on v_n = n."""
    n = np.arange(1, 10_001)
    v = n.astype(float)
    driving = DrivingSequence(GAMMA, v, n)
    worst = max(float(np.max(np.abs(G.pow(v, n) - GAMMA)))
                for G in (PhantomDistFn(driving), JumpPhantom(driving)))
    return CriterionResult(
        number=1, name="phantom exactness at driving levels",
        passed=worst <= 1e-12, tolerance="1e-12",
        detail=f"max |G(v_n)^n - gamma| = {worst:.3e} over n <= 1e4")


def criterion_2(workers: int = 1) -> CriterionResult:
    """Mixture max law: closed form against e^{-t}, and Monte Carlo
    against the closed form."""
    N = 10_000
    spec = MixtureSpec()
    ts = (0.5, 1.0, 2.0)
    exact_vals = {}
    worst_exact = 0.0
    for t in ts:
        nt = int(N * t)
        exact_vals[t] = exact_max_cdf(spec, nt, float(N))
        worst_exact = max(worst_exact, abs(exact_vals[t] - math.exp(-t)))
    exact_ok = worst_exact <= 1e-3

    R = 10_000
    table = block_maxima_table(spec, [int(N * t) for t in ts], R, SEED,
                               tag="c2", workers=workers)
    rows = []
    worst_z = 0.0
    for t in ts:
        nt = int(N * t)
        p_hat = float(np.mean(table[nt] <= N))
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / R)
        worst_z = max(worst_z, abs(p_hat - exact_vals[t]) / se)
        rows.append((nt, float(N), p_hat, se, R))
    mc_ok = worst_z <= 4.0

    arts = {
        "mixture_maxlaw.csv": csv_table(("n", "level", "p_hat", "se", "replicas"), zip(*rows)),
        "mixture_exact.json": json_report(
            {"N": N, "exact": {str(t): exact_vals[t] for t in ts}}),
    }
    return CriterionResult(
        number=2, name="mixture law closed form and Monte Carlo",
        passed=exact_ok and mc_ok,
        tolerance="1e-3 exact-vs-limit; 4 SE Monte-Carlo",
        detail=(f"max |exact - e^-t| = {worst_exact:.3e} "
                f"({'ok' if exact_ok else 'exceeds 1e-3'}); "
                f"max MC z-score = {worst_z:.2f} "
                f"({'ok' if mc_ok else 'exceeds 4'})"),
        artifacts=arts)


def criterion_3(workers: int = 1) -> CriterionResult:
    """Mixture tail divergence and the resulting zero verdict."""
    spec = MixtureSpec()
    ineq_ok = True
    for n in (10**2, 10**4, 10**6):
        lhs = n * marginal_sf(spec, float(n))
        rhs = n / (math.isqrt(n) + 1)
        if lhs < rhs:
            ineq_ok = False
    est = estimate_theta_single_sequence(spec, GAMMA, [100, 1_000, 10_000],
                                         method="auto", workers=workers)
    verdict_ok = est.verdict == "zero"
    return CriterionResult(
        number=3, name="mixture extremal index zero witness",
        passed=ineq_ok and verdict_ok,
        tolerance="exact inequality; divergence rule factor 2 per decade",
        detail=(f"n*tail >= n/(isqrt(n)+1) {'holds' if ineq_ok else 'FAILS'} "
                f"at n in {{1e2,1e4,1e6}}; theta verdict = {est.verdict!r}"),
        artifacts={"mixture_theta.csv": theta_csv(est)})


def criterion_4(workers: int = 1) -> CriterionResult:
    """Super-heavy marginal: n(1-F(n^{ln n})) = 1 and F^n -> e^{-1}."""
    F = superheavy()
    worst_id = 0.0
    for n in (10**2, 10**3, 10**4):
        v = float(n) ** math.log(n)
        worst_id = max(worst_id, abs(n * float(F.tail(v)) - 1.0))
    n = 10**4
    v = float(n) ** math.log(n)
    fn = math.exp(n * math.log1p(-float(F.tail(v))))
    lim_err = abs(fn - GAMMA)
    return CriterionResult(
        number=4, name="super-heavy tail identity",
        passed=worst_id <= 1e-10 and lim_err <= 1e-2,
        tolerance="1e-10 identity; 1e-2 limit",
        detail=(f"max |n(1-F(v_n)) - 1| = {worst_id:.3e}; "
                f"|F^n(v_n) - e^-1| = {lim_err:.3e} at n = 1e4"))


def criterion_5(workers: int = 1) -> CriterionResult:
    """Moving-maximum extremal index one half, exact and Monte Carlo."""
    spec = MovingMaxSpec(window=2, base=uniform(0.0, 1.0))
    exact = estimate_theta_single_sequence(spec, GAMMA, [100, 1_000, 10_000],
                                           method="exact", workers=workers)
    th_e = exact.rows[-1].theta
    exact_ok = abs(th_e - 0.5) <= 1e-2

    mc = estimate_theta_single_sequence(spec, GAMMA, [10_000], R=10_000,
                                        seed=SEED, method="monte-carlo",
                                        workers=workers)
    th_m, se = mc.theta_hat, mc.se
    mc_ok = th_m is not None and se is not None and abs(th_m - 0.5) <= 3.0 * se
    arts = {
        "movmax_theta_exact.csv": theta_csv(exact),
        "movmax_theta_mc.csv": theta_csv(mc),
        "movmax_theta.json": json_report(
            {"theta_exact": th_e, "theta_mc": th_m, "se_mc": se,
             "verdict_mc": mc.verdict}),
    }
    return CriterionResult(
        number=5, name="moving-max extremal index 1/2",
        passed=exact_ok and mc_ok,
        tolerance="1e-2 exact at n=1e4; 3 SE Monte Carlo",
        detail=(f"exact theta(1e4) = {th_e:.5f}; "
                f"MC theta = {th_m:.5f} +/- {se:.5f}"),
        artifacts=arts)


def criterion_6(workers: int = 1) -> CriterionResult:
    """Factorization: iid noise-level b-values; moving-max decay rate."""
    iid = IIDSpec(marginal=exponential(1.0))
    dse = estimate_driving_sequence(iid, GAMMA, [100, 1_000], R=2_000,
                                    seed=SEED, method="monte-carlo",
                                    workers=workers)
    bt = check_BT(iid, dse, T=2.0, R=2_000, seed=SEED,
                  method="monte-carlo", workers=workers)
    worst_ratio = 0.0
    iid_ok = True
    for row in bt.rows:
        for pair in row.pairs:
            bound = 4.0 * pair.se
            if abs(pair.value) > bound:
                iid_ok = False
            if pair.se > 0:
                worst_ratio = max(worst_ratio, abs(pair.value) / pair.se)

    mm = MovingMaxSpec(window=2, base=uniform(0.0, 1.0))
    dse_mm = estimate_driving_sequence(mm, GAMMA, [100, 1_000, 10_000],
                                       method="exact")
    bt_mm = check_BT(mm, dse_mm, T=2.0, method="exact")
    # closed forms give b = F^{p+q+1}(1-F) for the worst pair, so the
    # ratio to the base tail stays inside [gamma^2/2, 2 gamma]
    rate_ok = True
    ratios = []
    for row in bt_mm.rows:
        base_tail = float(mm.base.tail(row.level))
        ratio = row.b_value / base_tail
        ratios.append(ratio)
        if not (0.5 * GAMMA**2 <= ratio <= 2.0 * GAMMA):
            rate_ok = False
    arts = {"bt_iid.csv": bt_csv(bt), "bt_movmax.csv": bt_csv(bt_mm)}
    return CriterionResult(
        number=6, name="B_T factorization",
        passed=iid_ok and rate_ok,
        tolerance="4 SE per iid pair; decay ratio in [gamma^2/2, 2 gamma]",
        detail=(f"iid max |b|/SE = {worst_ratio:.2f}; "
                f"moving-max b/(1-F) in [{min(ratios):.3f}, {max(ratios):.3f}]"),
        artifacts=arts)


def criterion_7(workers: int = 1) -> CriterionResult:
    """Lindley pipeline: regenerative phantom, cycle tail band,
    stationary-vs-step tail verdict."""
    rg = regen_phantom(shifted(pareto(2.0, 1.0), -2.0), 1_000_000, [1_000, 10_000],
                       R=1_000, seed=SEED, tag="c7", workers=workers)
    rs, ver = rg.stats, rg.verification
    cycles_ok = rs.cycle_count >= 1_000

    arts = {
        "lindley_maxlaw.csv": maxlaw_csv(rg.maxlaw),
        "lindley_regen.json": json_report({
            "cycle_count": rs.cycle_count,
            "mu_hat": rs.mu_hat,
            "mu_se": rs.mu_se,
            "gaps": ver.gaps(),
            "cycle_tail_ratio": rg.band.ratio,
            "tail_verdict": rg.tails.verdict,
        }),
    }
    return CriterionResult(
        number=7, name="regenerative Lindley pipeline",
        passed=cycles_ok and rg.verified and rg.band_ok and rg.tail_ok,
        tolerance=f"{VERIFY_RULE}; band [0.5, 2]; verdict ratio->0",
        detail=(f"{rs.cycle_count} cycles; gaps "
                + ", ".join(f"n={r.n}: {r.gap:.4f}" for r in ver.rows)
                + f"; tail band {rg.band.ratio:.3f}; verdict {rg.tails.verdict!r}"),
        artifacts=arts)


def criterion_8(workers: int = 1) -> CriterionResult:
    """Random-walk sampler pipeline: config check, flat-tail condition,
    zero verdict, fitted continuous phantom."""
    target = symmetric_pareto(2.0, 1.0)
    proposal = uniform(-1.0, 1.0)
    spec = MetropolisSpec(target=target, proposal=proposal)

    chk = metropolis_config_check(target.pdf, proposal.pdf, 0.0, 3.0)
    cfg_ok = chk.ok
    tail_rep = target_tail_condition(target, 1.0)
    shift_ok = tail_rep.holds

    theta = estimate_theta_single_sequence(spec, GAMMA, [1_000, 10_000],
                                           R=1_000, seed=SEED, workers=workers)
    zero_ok = theta.verdict == "zero"

    # the validation maxima are simulated independently of the fit's
    dse, phantom = fit_phantom(spec, GAMMA, [1_000, 10_000], R=1_000, seed=SEED,
                               tag="c8-fit", workers=workers)
    ml, ver, gaps_ok = verify_by_simulation(spec, phantom, [1_000, 10_000],
                                            R=1_000, seed=SEED, tag="c8-val",
                                            workers=workers)

    arts = {
        "metropolis_driving.csv": driving_csv(dse),
        "metropolis_maxlaw.csv": maxlaw_csv(ml),
        "metropolis_theta.csv": theta_csv(theta),
        "metropolis.json": json_report({
            "config_check": {
                "ok": chk.ok,
                "support_connected": chk.support_connected,
                "monotone_on_interval": chk.monotone_on_interval,
                "proposal_floor": chk.proposal_floor,
            },
            "tail_condition_holds": tail_rep.holds,
            "theta_verdict": theta.verdict,
            "gaps": ver.gaps(),
        }),
    }
    return CriterionResult(
        number=8, name="random-walk sampler pipeline",
        passed=cfg_ok and shift_ok and zero_ok and gaps_ok,
        tolerance=f"config checks boolean; {VERIFY_RULE}",
        detail=(f"config ok = {cfg_ok}; flat-tail holds = {shift_ok}; "
                f"theta verdict = {theta.verdict!r}; gaps "
                + ", ".join(f"n={r.n}: {r.gap:.4f}" for r in ver.rows)),
        artifacts=arts)


def criterion_9(workers: int = 1) -> CriterionResult:
    """Rate thresholds reproduce the closed forms; strict boundary."""
    sqrt5 = math.sqrt(5.0)
    checks = [
        threshold_beta("theta", 1.0) == 1.0 + sqrt5,
        threshold_beta("eta", 1.0) == 4.0,
        threshold_beta("kappa", 1.0) == 3.0 * (1.0 + sqrt5),
        threshold_beta("lambda", 1.0) == threshold_beta("kappa", 1.0),
    ]
    boundary = alpha_discontinuous_case(
        PolynomialMixing(beta=4.0), DeltaEvidence(delta_xi={0.25: True}))
    checks.append(boundary.undetermined and not boundary.admits_phantom)
    return CriterionResult(
        number=9, name="rate calculator closed forms",
        passed=all(checks), tolerance="exact equality; strict boundary",
        detail=(f"theta(1) = {threshold_beta('theta', 1.0):.6f}, "
                f"eta(1) = {threshold_beta('eta', 1.0):.1f}, "
                f"kappa(1) = {threshold_beta('kappa', 1.0):.6f}; "
                f"xi = 1/beta boundary undetermined = {boundary.undetermined}"))


def criterion_10(workers: int = 1) -> CriterionResult:
    """Byte-identical artifacts for criteria 2, 5, 7 across worker counts."""
    mismatches = []
    for fn in (criterion_2, criterion_5, criterion_7):
        a = fn(workers=1)
        b = fn(workers=3)
        if a.artifacts != b.artifacts:
            bad = sorted(k for k in a.artifacts
                         if a.artifacts.get(k) != b.artifacts.get(k))
            mismatches.append(f"criterion {a.number}: {bad}")
    return CriterionResult(
        number=10, name="determinism across worker counts",
        passed=not mismatches, tolerance="byte equality",
        detail="all artifacts byte-identical for workers in {1, 3}"
        if not mismatches else "; ".join(mismatches))


_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}


def run_criterion(number: int, workers: int = 1) -> CriterionResult:
    if number not in _CRITERIA:
        raise ValueError(f"no criterion {number}")
    start = time.perf_counter()
    result = _CRITERIA[number](workers=workers)
    result.seconds = time.perf_counter() - start
    return result


def run_all(numbers=None, workers: int = 1) -> list[CriterionResult]:
    if numbers is None:
        numbers = sorted(_CRITERIA)
    return [run_criterion(n, workers=workers) for n in numbers]
