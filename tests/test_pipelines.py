"""The experiment pipelines against the inline sequences they replaced.

The reference functions below are verbatim copies of what the phantom-fit
and regen commands and acceptance criterion 8 computed inline before the
pipelines in ``phantomdf.estimate`` took the work over.  Each pipeline must
reproduce them exactly: the same stream tags, the same grids and the same
level cap give the same floats, bit for bit.  The fit references read the
knots above the largest block off its column by rank, written out here
without the package's driving-level code.
"""

import json
import math

import numpy as np
import pytest

from phantomdf import estimate
from phantomdf.cli import main
from phantomdf.distributions import exponential, pareto, shifted, symmetric_pareto, uniform
from phantomdf.estimate import (
    VERIFY_RULE,
    DrivingSeqEstimate,
    block_maxima_table,
    cycle_tail_ratio,
    decompose_regenerative,
    fit_phantom,
    maxlaw_from_maxima,
    regen_phantom,
    rootzen_phantom,
    verify_by_simulation,
)
from phantomdf.phantom import (DrivingSequence, PhantomDistFn, driving_from_estimates,
                               verify_phantom)
from phantomdf.processes import (
    IIDSpec,
    LindleySpec,
    MetropolisSpec,
    generate,
    lindley_step_tail_vs_stationary,
)
from phantomdf.reporting import driving_csv, maxlaw_csv
from test_estimate import column
from test_reporting import reference_csv_table

GAMMA = math.exp(-1.0)
R = 200
SEED = 20260814
IID = IIDSpec(exponential(1.0))
METROPOLIS = MetropolisSpec(target=symmetric_pareto(2.0, 1.0), proposal=uniform(-1.0, 1.0))
STEP = shifted(pareto(2.0, 1.0), -2.0)


# ---------------------------------------------------------------------------
# references: the former inline sequences, verbatim
# ---------------------------------------------------------------------------

def reference_fit_sizes(block_sizes):
    lo = max(0.0, math.log10(min(block_sizes)) - 1.0)
    hi = math.log10(max(block_sizes)) + 2.0
    grid = 10.0 ** np.arange(lo, hi + 1e-9, 1.0 / 6.0)
    sizes = np.unique(np.round(grid).astype(int))
    return sorted(set(sizes.tolist()) | set(block_sizes))


def reference_far_fit(spec, fit_sizes, n_max, R, seed, tag, gamma=GAMMA, workers=1):
    """Driving levels of a fit table that runs to n_max: each fit size up to
    n_max reads its own column at level gamma, and a size N above it reads
    column n_max at level gamma^(n_max / N), its CI ranks at that level."""
    near = [n for n in fit_sizes if n <= n_max]
    fit = block_maxima_table(spec, near, R, seed, tag=tag, workers=workers)
    raw, ci_lo, ci_hi = [], [], []
    for n in fit_sizes:
        level = gamma if n <= n_max else gamma ** (n_max / n)
        col = column(fit, min(n, n_max))
        raw.append(col[min(max(1, math.ceil(level * R)), R) - 1])
        ci_lo.append(col[max(estimate._binom_quantile(0.025, R, level), 1) - 1])
        ci_hi.append(col[min(estimate._binom_quantile(0.975, R, level) + 1, R) - 1])
    return DrivingSeqEstimate(
        gamma=gamma, n_values=np.asarray(fit_sizes),
        v_hat=np.maximum.accumulate(raw), ci_lo=np.array(ci_lo), ci_hi=np.array(ci_hi),
        method="monte-carlo", replicas=np.full(len(fit_sizes), R),
        raw_violations=int(np.count_nonzero(np.diff(raw) < 0)),
        acceptance_rate=fit.acceptance_rate)


def reference_phantom_fit(spec, blocks, R, seed, gamma=GAMMA, workers=1):
    """The phantom-fit command's fit and validation."""
    dse = reference_far_fit(spec, reference_fit_sizes(blocks), max(blocks), R, seed,
                            "phantom-fit", gamma, workers)
    phantom = PhantomDistFn(driving_from_estimates(gamma, dse.n_values, dse.v_hat))
    val = block_maxima_table(spec, blocks, R, seed, tag="phantom-verify",
                             workers=workers)
    ml = maxlaw_from_maxima(val, level_cap=float(dse.v_hat[-1]))
    ver = verify_phantom(phantom, ml)
    verified = all(r.gap <= 3.0 * r.se_at_gap + 0.05 for r in ver.rows)
    return dse, phantom, (ml, ver, verified)


def reference_criterion_8_fit(spec, R, seed, workers=1):
    """Criterion 8's fit with its own grid for blocks [1000, 10000]."""
    fit_sizes = np.unique(np.round(
        10.0 ** np.arange(2.0, 6.0 + 1e-9, 1.0 / 6.0)).astype(int)).tolist()
    dse = reference_far_fit(spec, fit_sizes, 10_000, R, seed, "c8-fit", workers=workers)
    phantom = PhantomDistFn(driving_from_estimates(GAMMA, dse.n_values, dse.v_hat))
    return dse, phantom


def reference_regen(step, length, blocks, R, seed, workers=1):
    """The regen command's body up to its artifacts."""
    spec = LindleySpec(step=step)
    path = generate(spec, seed, length)
    rs = decompose_regenerative(path)
    G = rootzen_phantom(rs)
    table = block_maxima_table(spec, blocks, R, seed,
                               tag="regen-verify", workers=workers)
    ml = maxlaw_from_maxima(table)
    ver = verify_phantom(G, ml)
    gaps_ok = all(r.gap <= 3.0 * r.se_at_gap + 0.05 for r in ver.rows)
    band = cycle_tail_ratio(rs, step)
    band_ok = 0.5 <= band.ratio <= 2.0
    tail_verdict = lindley_step_tail_vs_stationary(step, path)
    tail_ok = tail_verdict == "ratio->0"

    uniq, counts = np.unique(rs.maxima, return_counts=True)
    cum = np.cumsum(counts) / rs.cycle_count
    return path, rs, (ml, ver, gaps_ok), band, band_ok, tail_verdict, tail_ok, (uniq, cum)


# ---------------------------------------------------------------------------
# exact comparisons
# ---------------------------------------------------------------------------

def assert_same_dse(got, want):
    for name in ("n_values", "v_hat", "ci_lo", "ci_hi", "replicas"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), name)
    assert (got.gamma, got.method, got.raw_violations) == \
        (want.gamma, want.method, want.raw_violations)


def assert_same_maxlaw(ml, ml_ref):
    assert [(r.n, r.replicas) for r in ml.rows] == [(r.n, r.replicas) for r in ml_ref.rows]
    for row, ref in zip(ml.rows, ml_ref.rows):
        for name in ("levels", "p_hat", "se"):
            np.testing.assert_array_equal(getattr(row, name), getattr(ref, name), name)


def maxlaw_row(ml, n):
    """The row of block size n."""
    (row,) = [r for r in ml.rows if r.n == n]
    return row


def assert_same_check(got, want):
    (ml, ver, ok), (ml_ref, ver_ref, ok_ref) = got, want
    assert_same_maxlaw(ml, ml_ref)
    assert ver.rows == ver_ref.rows  # every VerifyRow, float for float
    assert ver.sup_gap == ver_ref.sup_gap
    assert ok is ok_ref


class TestFitAndVerify:
    @pytest.mark.parametrize("spec, blocks, R", [
        (IID, [10, 100], R), (METROPOLIS, [5, 20], R), (METROPOLIS, [5, 20], 400),
    ], ids=["iid", "metropolis", "metropolis-r400"])
    def test_equals_the_phantom_fit_sequence(self, spec, blocks, R):
        dse_ref, phantom_ref, check_ref = reference_phantom_fit(spec, blocks, R, SEED)
        dse, phantom = fit_phantom(spec, GAMMA, blocks, R, SEED, tag="phantom-fit")
        check = verify_by_simulation(spec, phantom, blocks, R, SEED,
                                     tag="phantom-verify")
        assert set(dse.replicas.tolist()) == {R}
        assert_same_dse(dse, dse_ref)
        assert phantom.to_text() == phantom_ref.to_text()
        assert_same_check(check, check_ref)

    def test_equals_criterion_8_fit_and_its_grid(self):
        blocks = [1_000, 10_000]
        grid = np.unique(np.round(
            10.0 ** np.arange(2.0, 6.0 + 1e-9, 1.0 / 6.0)).astype(int)).tolist()
        assert estimate._fit_sizes(blocks) == grid and len(grid) == 25
        dse_ref, phantom_ref = reference_criterion_8_fit(IID, R, SEED)
        dse, phantom = fit_phantom(IID, GAMMA, blocks, R=R, seed=SEED, tag="c8-fit")
        assert_same_dse(dse, dse_ref)
        assert phantom.to_text() == phantom_ref.to_text()

    def test_fitted_cap_is_the_last_driving_level(self):
        dse, phantom = fit_phantom(IID, GAMMA, [10, 100], R, SEED, tag="phantom-fit")
        assert phantom.driving.sup == float(dse.v_hat[-1])

    def test_the_last_knot_caps_the_levels_and_a_plain_law_does_not(self):
        blocks = [10, 100]
        table = block_maxima_table(IID, blocks, R, SEED, tag="cap")
        cap = float(np.median(column(table, 100)))
        short = PhantomDistFn(DrivingSequence(GAMMA, [0.5, 1.0, cap], [1, 2, 3]))
        ml = verify_by_simulation(IID, short, blocks, R, SEED, tag="cap")[0]
        assert_same_maxlaw(ml, maxlaw_from_maxima(table, level_cap=cap))
        assert max(maxlaw_row(ml, 100).levels) <= cap
        assert maxlaw_row(ml, 100).levels.size < \
            maxlaw_row(maxlaw_from_maxima(table), 100).levels.size

        ml = verify_by_simulation(IID, exponential(1.0), blocks, R, SEED, tag="cap")[0]
        assert_same_maxlaw(ml, maxlaw_from_maxima(table))

    def test_verdict_is_the_rule(self):
        assert VERIFY_RULE == "gap <= 3 SE + 0.05"
        _dse, phantom = fit_phantom(IID, GAMMA, [10, 100], R, SEED, tag="phantom-fit")
        _ml, ver, ok = verify_by_simulation(IID, phantom, [10, 100], R, SEED, tag="v")
        assert ok is all(r.gap <= 3.0 * r.se_at_gap + 0.05 for r in ver.rows)


class TestRegen:
    def test_equals_the_regen_sequence(self, monkeypatch):
        blocks = [100, 1_000]
        (path, rs, check_ref, band, band_ok, tail_verdict, tail_ok,
         (uniq, cum)) = reference_regen(STEP, 100_000, blocks, R, SEED)
        drawn = []  # the path regen_phantom draws; its result does not keep it

        def spy(*args):
            drawn.append(generate(*args))
            return drawn[-1]

        monkeypatch.setattr(estimate, "generate", spy)
        rg = regen_phantom(STEP, 100_000, blocks, R, SEED, tag="regen-verify")
        [got] = drawn
        np.testing.assert_array_equal(got, path, strict=True)
        assert (rg.stats.cycle_count, rg.stats.mu_hat, rg.stats.mu_se) == \
            (rs.cycle_count, rs.mu_hat, rs.mu_se)
        got_uniq, got_cum = rg.stats.cycle_cdf()
        np.testing.assert_array_equal(got_uniq, uniq)
        np.testing.assert_array_equal(got_cum, cum)
        assert_same_check((rg.maxlaw, rg.verification, rg.verified), check_ref)
        assert (rg.band, rg.band_ok) == (band, band_ok)
        assert (rg.tail_verdict, rg.tail_ok) == (tail_verdict, tail_ok)

    def test_cycle_cdf_is_built_once(self, monkeypatch):
        path = generate(LindleySpec(step=STEP), SEED, 100_000)
        rs = decompose_regenerative(path)
        monkeypatch.setattr(np, "unique", None)  # the split built the counts
        rootzen_phantom(rs)
        cycle_tail_ratio(rs, STEP)
        uniq, cum = rs.cycle_cdf()
        assert cum[-1] == 1.0 and uniq.size == cum.size


# ---------------------------------------------------------------------------
# the commands write the pipelines' results under their own stream tags
# ---------------------------------------------------------------------------

def run_cli(tmp_path, name, section, keys):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(f"[common]\nseed = {SEED}\nreplicas = {R}\n[{section}]\n"
                   + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    out = tmp_path / name
    main([section, "--config", str(cfg), "--out", str(out)])
    return out


def test_phantom_fit_and_verify_commands_write_the_references(tmp_path):
    iid = {"kind": "iid", "marginal": "exp(1)", "block_sizes": "10,100"}
    fit = run_cli(tmp_path, "fit", "phantom-fit", iid)
    dse, phantom, (ml, ver, ok) = reference_phantom_fit(IID, [10, 100], R, SEED)
    assert (fit / "driving.csv").read_text() == driving_csv(dse)
    assert (fit / "maxlaw.csv").read_text() == maxlaw_csv(ml)
    assert (fit / "phantom.txt").read_text() == phantom.to_text()
    summary = json.loads((fit / "summary.json").read_text())
    assert summary["phantom_verified"] is ok
    assert summary["gaps"] == [{"n": r.n, "gap": r.gap, "se": r.se_at_gap,
                                "level": r.level_at_gap} for r in ver.rows]

    ver_out = run_cli(tmp_path, "ver", "verify",
                      dict(iid, phantom=str(fit / "phantom.txt")))
    table = block_maxima_table(IID, [10, 100], R, SEED, tag="verify")
    ml_ref = maxlaw_from_maxima(table, level_cap=float(dse.v_hat[-1]))
    assert (ver_out / "maxlaw.csv").read_text() == maxlaw_csv(ml_ref)


def test_regen_command_writes_the_reference(tmp_path):
    out = run_cli(tmp_path, "rg", "regen", {"step": "pareto(2,1)-2", "length": "100000",
                                            "verify_blocks": "100,1000"})
    (path, rs, (ml, ver, ok), band, band_ok, tail_verdict, _tail_ok,
     (uniq, cum)) = reference_regen(STEP, 100_000, [100, 1_000], R, SEED)
    assert (out / "cycle_maxima_cdf.csv").read_text() == \
        reference_csv_table(("y", "cycle_cdf"), zip(uniq, cum))
    assert (out / "maxlaw.csv").read_text() == maxlaw_csv(ml)
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["cycle_count"], summary["phantom_verified"],
            summary["cycle_tail_level"], summary["cycle_tail_ratio"],
            summary["cycle_tail_exceedances"], summary["cycle_tail_band_ok"],
            summary["stationary_tail_verdict"]) == \
        (rs.cycle_count, ok, band.level, band.ratio, band.exceedances, band_ok,
         tail_verdict)
    assert summary["gaps"] == [{"n": r.n, "gap": r.gap, "se": r.se_at_gap,
                                "level": r.level_at_gap} for r in ver.rows]
