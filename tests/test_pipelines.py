"""The experiment pipelines against the inline sequences they replaced.

The reference functions below are verbatim copies of what the phantom-fit
and regen commands and acceptance criterion 8 computed inline before the
pipelines in ``phantomdf.estimate`` took the work over.  Each pipeline must
reproduce them exactly: the same stream tags, the same grids and the same
level cap give the same floats, bit for bit.
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
    block_maxima_table,
    cycle_tail_ratio,
    decompose_regenerative,
    driving_from_maxima,
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
from test_reporting import reference_csv_table

GAMMA = math.exp(-1.0)
R = 200
SEED = 20260814
IID = IIDSpec(exponential(1.0))
METROPOLIS = MetropolisSpec(target=symmetric_pareto(2.0, 1.0),
                            proposal=uniform(-1.0, 1.0), burn_in=100)
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


def reference_phantom_fit(spec, blocks, R, seed, gamma=GAMMA, workers=1):
    """The phantom-fit command's fit and validation."""
    fit_sizes = reference_fit_sizes(blocks)
    fit = block_maxima_table(spec, fit_sizes, R, seed, tag="phantom-fit",
                             workers=workers)
    dse = driving_from_maxima(gamma, fit, R)
    phantom = PhantomDistFn(driving_from_estimates(gamma, dse.n_values, dse.v_hat))
    val = block_maxima_table(spec, blocks, R, seed, tag="phantom-verify",
                             workers=workers)
    ml = maxlaw_from_maxima(val, R, level_cap=float(dse.v_hat[-1]))
    ver = verify_phantom(phantom, ml)
    verified = ver.passes(se_multiplier=3.0, tolerance=0.05)
    return dse, phantom, (ml, ver, verified)


def reference_criterion_8_fit(spec, R, seed, workers=1):
    """Criterion 8's fit with its own grid for blocks [1000, 10000]."""
    fit_sizes = np.unique(np.round(
        10.0 ** np.arange(2.0, 6.0 + 1e-9, 1.0 / 6.0)).astype(int)).tolist()
    fit = block_maxima_table(spec, fit_sizes, R=R, seed=seed,
                             tag="c8-fit", workers=workers)
    dse = driving_from_maxima(GAMMA, fit, R=R)
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
    ml = maxlaw_from_maxima(table, R)
    ver = verify_phantom(G, ml)
    gaps_ok = ver.passes(se_multiplier=3.0, tolerance=0.05)
    band = cycle_tail_ratio(rs, step, q=0.99)
    band_ok = 0.5 <= band.ratio <= 2.0
    tails = lindley_step_tail_vs_stationary(step, path.values)
    tail_ok = tails.verdict == "ratio->0"

    uniq, counts = np.unique(rs.maxima, return_counts=True)
    cum = np.cumsum(counts) / rs.cycle_count
    return path, rs, (ml, ver, gaps_ok), band, band_ok, tails, tail_ok, (uniq, cum)


# ---------------------------------------------------------------------------
# exact comparisons
# ---------------------------------------------------------------------------

def assert_same_dse(got, want):
    for name in ("n_values", "v_hat", "ci_lo", "ci_hi"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), name)
    assert (got.gamma, got.method, got.replicas, got.raw_violations) == \
        (want.gamma, want.method, want.replicas, want.raw_violations)


def assert_same_maxlaw(ml, ml_ref):
    assert (ml.method, ml.replicas) == (ml_ref.method, ml_ref.replicas)
    assert [r.n for r in ml.rows] == [r.n for r in ml_ref.rows]
    for row, ref in zip(ml.rows, ml_ref.rows):
        for name in ("levels", "p_hat", "se"):
            np.testing.assert_array_equal(getattr(row, name), getattr(ref, name), name)


def assert_same_check(got, want):
    (ml, ver, ok), (ml_ref, ver_ref, ok_ref) = got, want
    assert_same_maxlaw(ml, ml_ref)
    assert ver.rows == ver_ref.rows  # every VerifyRow, float for float
    assert ver.sup_gap == ver_ref.sup_gap
    assert ok is ok_ref


class TestFitAndVerify:
    @pytest.mark.parametrize("spec, blocks", [(IID, [10, 100]), (METROPOLIS, [5, 20])],
                             ids=["iid", "metropolis"])
    def test_equals_the_phantom_fit_sequence(self, spec, blocks):
        dse_ref, phantom_ref, check_ref = reference_phantom_fit(spec, blocks, R, SEED)
        dse, phantom = fit_phantom(spec, GAMMA, blocks, R, SEED, tag="phantom-fit")
        check = verify_by_simulation(spec, phantom, blocks, R, SEED,
                                     tag="phantom-verify")
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
        cap = float(np.median(table[100]))
        short = PhantomDistFn(DrivingSequence(GAMMA, [0.5, 1.0, cap], [1, 2, 3]))
        ml = verify_by_simulation(IID, short, blocks, R, SEED, tag="cap")[0]
        assert_same_maxlaw(ml, maxlaw_from_maxima(table, R, level_cap=cap))
        assert max(ml.row(100).levels) <= cap
        assert ml.row(100).levels.size < maxlaw_from_maxima(table, R).row(100).levels.size

        ml = verify_by_simulation(IID, exponential(1.0), blocks, R, SEED, tag="cap")[0]
        assert_same_maxlaw(ml, maxlaw_from_maxima(table, R))

    def test_verdict_is_the_rule(self):
        assert VERIFY_RULE == "gap <= 3 SE + 0.05"
        _dse, phantom = fit_phantom(IID, GAMMA, [10, 100], R, SEED, tag="phantom-fit")
        _ml, ver, ok = verify_by_simulation(IID, phantom, [10, 100], R, SEED, tag="v")
        assert ok is all(r.gap <= 3.0 * r.se_at_gap + 0.05 for r in ver.rows)


class TestRegen:
    def test_equals_the_regen_sequence(self):
        blocks = [100, 1_000]
        (path, rs, check_ref, band, band_ok, tails, tail_ok,
         (uniq, cum)) = reference_regen(STEP, 100_000, blocks, R, SEED)
        rg = regen_phantom(STEP, 100_000, blocks, R, SEED, tag="regen-verify")
        np.testing.assert_array_equal(rg.path.values, path.values)
        np.testing.assert_array_equal(rg.path.regeneration_marks, path.regeneration_marks)
        assert (rg.stats.cycle_count, rg.stats.mu_hat, rg.stats.mu_se) == \
            (rs.cycle_count, rs.mu_hat, rs.mu_se)
        got_uniq, got_cum = rg.stats.cycle_cdf
        np.testing.assert_array_equal(got_uniq, uniq)
        np.testing.assert_array_equal(got_cum, cum)
        assert_same_check((rg.maxlaw, rg.verification, rg.verified), check_ref)
        assert (rg.band, rg.band_ok) == (band, band_ok)
        assert (rg.tails.verdict, rg.tail_ok) == (tails.verdict, tail_ok)
        np.testing.assert_array_equal(rg.tails.ratio_track, tails.ratio_track)

    def test_cycle_cdf_is_built_once(self, monkeypatch):
        path = generate(LindleySpec(step=STEP), SEED, 100_000)
        rs = decompose_regenerative(path)
        rootzen_phantom(rs)
        monkeypatch.setattr(np, "unique", None)  # a second build would fail
        uniq, cum = rs.cycle_cdf
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
    assert summary["gaps"] == [{"n": r.n, "gap": r.gap, "se": r.se_at_gap}
                               for r in ver.rows]

    ver_out = run_cli(tmp_path, "ver", "verify",
                      dict(iid, phantom=str(fit / "phantom.txt")))
    table = block_maxima_table(IID, [10, 100], R, SEED, tag="verify")
    ml_ref = maxlaw_from_maxima(table, R, level_cap=float(dse.v_hat[-1]))
    assert (ver_out / "maxlaw.csv").read_text() == maxlaw_csv(ml_ref)


def test_regen_command_writes_the_reference(tmp_path):
    out = run_cli(tmp_path, "rg", "regen", {"step": "pareto(2,1)-2", "length": "100000",
                                            "verify_blocks": "100,1000"})
    (path, rs, (ml, _ver, ok), band, band_ok, tails, _tail_ok,
     (uniq, cum)) = reference_regen(STEP, 100_000, [100, 1_000], R, SEED)
    assert (out / "cycle_maxima_cdf.csv").read_text() == \
        reference_csv_table(("y", "cycle_cdf"), zip(uniq, cum))
    assert (out / "maxlaw.csv").read_text() == maxlaw_csv(ml)
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["cycle_count"], summary["phantom_verified"],
            summary["cycle_tail_ratio"], summary["cycle_tail_band_ok"],
            summary["stationary_tail_verdict"]) == \
        (rs.cycle_count, ok, band.ratio, band_ok, tails.verdict)
