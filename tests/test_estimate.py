"""Monte Carlo estimators: driving levels, factorization checks, cycles.

Monte Carlo assertions run at fixed seeds with wide z-score margins
(4 SE unless noted), so they are regression tests, not flaky coin flips.
"""

import dataclasses
import json
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from phantomdf.distributions import (_CATALOG, DistFn, dkw_epsilon, exponential, geometric,
                                     pareto, shifted, symmetric_pareto, uniform)
from phantomdf.errors import (
    InsufficientDataError,
    InvalidArgumentError,
    NotRegenerativeError,
)
from phantomdf import estimate
from phantomdf.cli import main
from phantomdf.estimate import (
    BT_HORIZON,
    CycleTailBand,
    DrivingSeqEstimate,
    RegenStats,
    _chunk_plan,
    _chunk_rows,
    _map_chunks,
    _window_maxima,
    block_maxima_table,
    check_BT,
    cycle_tail_ratio,
    decompose_regenerative,
    divergence_rule,
    driving_from_maxima,
    estimate_Cn,
    estimate_driving_sequence,
    exact_max_quantile,
    exact_maxlaw,
    fit_phantom,
    maxlaw_from_maxima,
    propbasic_series,
    regen_phantom,
    rootzen_phantom,
    theta_from_driving,
)
from phantomdf.grids import HUGE_INDEX
from phantomdf.phantom import (PhantomDistFn, PhantomVerification, VerifyRow,
                               driving_from_estimates)
from phantomdf.processes import (
    FILL_ROWS,
    IIDSpec,
    LindleySpec,
    MetropolisSpec,
    MixtureSpec,
    MovingMaxSpec,
    SLAB,
    _mixture_draw_component,
    _path_slabs,
    default_burn_in,
    exact_max_cdf,
    generate,
    marginal_sf,
)
from phantomdf.reporting import theta_csv
from phantomdf.seeding import rng_for
from test_distributions import CATALOG_ARGS
from test_processes import lindley_with_burn_in

GAMMA = math.exp(-1.0)
IID_EXP = IIDSpec(exponential(1.0))
MOVMAX2 = MovingMaxSpec(window=2, base=uniform(0.0, 1.0))
LINDLEY = LindleySpec(step=shifted(pareto(2.0, 1.0), -2.0))
METROPOLIS = MetropolisSpec(target=symmetric_pareto(2.0, 1.0), proposal=uniform(-1.0, 1.0))


class TestValidation:
    def test_replica_floor(self):
        with pytest.raises(InvalidArgumentError):
            estimate_driving_sequence(IID_EXP, GAMMA, [100], R=100,
                                      method="monte-carlo")
        with pytest.raises(InvalidArgumentError):
            check_BT(MOVMAX2, _exact_dse([100]), R=50, method="monte-carlo")

    @pytest.mark.parametrize("method", ["exactt", "Exact", "", "monte carlo"])
    def test_unknown_method_is_rejected_before_simulation(self, monkeypatch, method):
        def called(*args, **kwargs):
            raise AssertionError("simulated before the method was checked")

        monkeypatch.setattr(estimate, "block_maxima_table", called)
        monkeypatch.setattr(estimate, "_window_maxima", called)
        with pytest.raises(InvalidArgumentError, match="method must be 'auto', 'exact' or"):
            estimate_driving_sequence(LINDLEY, GAMMA, [100], R=200, method=method)
        with pytest.raises(InvalidArgumentError, match="method must be 'auto', 'exact' or"):
            check_BT(LINDLEY, _exact_dse([100]), R=200, method=method)

    def test_block_sizes_strictly_increasing(self):
        for bad in ([100, 100], [1000, 100], [0, 10]):
            with pytest.raises(InvalidArgumentError):
                estimate_driving_sequence(IID_EXP, GAMMA, bad, method="exact")

    def test_cn_geometry(self):
        with pytest.raises(InvalidArgumentError):
            estimate_Cn(IID_EXP, 1.0, n=50, m=10, k=6, gamma=GAMMA, R=300)  # k*m > n
        with pytest.raises(InvalidArgumentError):
            estimate_Cn(IID_EXP, 1.0, n=50, m=5, k=1, gamma=GAMMA, R=300)


def _exact_dse(n_list):
    return estimate_driving_sequence(MOVMAX2, GAMMA, n_list, method="exact")


def column(table, n):
    """Column n of a block-maxima table, every rank read unchecked (the
    estimators read only the ranks they need); KeyError for a block size
    the table does not hold."""
    if n not in table.n_list:
        raise KeyError(n)
    return table._values(n, np.arange(1, table.R + 1))


class TestDrivingSequence:
    def test_exact_iid_matches_closed_form(self):
        F = exponential(1.0)
        dse = estimate_driving_sequence(IID_EXP, GAMMA, [10, 100, 1000], method="exact")
        want = F.quantile(GAMMA ** (1.0 / np.array([10.0, 100.0, 1000.0])))
        np.testing.assert_allclose(dse.v_hat, want, rtol=1e-10)
        assert dse.method == "exact"

    def test_monte_carlo_brackets_exact(self):
        R = 2000
        mc = estimate_driving_sequence(MOVMAX2, GAMMA, [20, 80, 320], R=R,
                                       seed=314, method="monte-carlo")
        exact = estimate_driving_sequence(MOVMAX2, GAMMA, [20, 80, 320], method="exact")
        assert np.all(np.diff(mc.v_hat) >= 0)
        assert mc.n_values.tolist() == [20, 80, 320]
        for i, n in enumerate(mc.n_values):
            lo, hi = mc.ci_lo[i], mc.ci_hi[i]
            assert lo <= mc.level_for(n) <= hi
            assert lo <= exact.level_for(n) <= hi

    def test_type1_quantile_on_table(self):
        """v_hat is the ceil(gamma R)-th order statistic of the block maxima."""
        R = 500
        table = block_maxima_table(MOVMAX2, [50], R, seed=7, tag="t1")
        dse = driving_from_maxima(GAMMA, table)
        s = np.sort(column(table, 50))
        assert dse.level_for(50) == s[math.ceil(GAMMA * R) - 1]
        # coverage on the sample itself cannot fall below gamma
        assert np.mean(column(table, 50) <= dse.level_for(50)) >= GAMMA
        # the one rank rule of the driving level, the max-law grid and the
        # cycle tail band, clamped to [1, R]
        assert estimate._type1_rank(GAMMA, R) == math.ceil(GAMMA * R)
        assert estimate._type1_rank(1e-9, R) == 1 and estimate._type1_rank(1.0, R) == R

    def test_binom_quantile_matches_scipy(self):
        """The CI ranks equal scipy's binom.ppf on a grid of R, gamma and q,
        on every (R, gamma) a workload, criterion or test fits, at the
        levels gamma^(n_max / N) of the fit knots above the largest block,
        and where the summation window clips at 0 or at R; both levels read
        off one pmf give the ranks of two calls."""
        from scipy import stats

        grid = [200, 256, 300, 400, 500, 512, 1000, 2000, 5000, 10**4, 2 * 10**4,
                5 * 10**4, 10**5, 10**6, *range(200, 1194, 7)]
        cases = [(R, g) for R in grid
                 for g in (GAMMA, 0.05, 0.1, 0.25, 0.5, 0.9)]
        cases += [(R, GAMMA) for R in (*range(200, 401), 512, 1000, 10**6)]
        cases += [(R, g) for R in (1, 2, 5, 20, 200) for g in (0.001, 0.05, 0.9, 0.999)]
        cases += [(R, GAMMA ** 10.0 ** (-k / 6)) for R in (200, 256, 512, 1000, 10**6)
                  for k in range(1, 13)]
        triples = [(q, R, g) for R, g in cases for q in (0.025, 0.975)]
        # q equal to a cdf value: the rank is the smallest k that reaches q
        triples += [(0.5, 1, 0.5), (0.25, 2, 0.5), (0.75, 2, 0.5)]
        mismatches = [(q, R, g) for q, R, g in triples
                      if estimate._binom_quantile(q, R, g) != int(stats.binom.ppf(q, R, g))]
        assert mismatches == []
        for R, g in cases:
            assert estimate._binom_quantile((0.025, 0.975), R, g).tolist() == [
                estimate._binom_quantile(0.025, R, g), estimate._binom_quantile(0.975, R, g)]

    def test_driving_from_estimates_knots(self):
        dse = _exact_dse([10, 100])
        xs, es = driving_from_estimates(dse.gamma, dse.n_values, dse.v_hat).knots()
        np.testing.assert_array_equal(xs, [dse.level_for(10), dse.level_for(100)])
        np.testing.assert_array_equal(es, [1.0 / 10, 1.0 / 100])


class TestBlockMaximaTable:
    def test_worker_chunking_invariance(self):
        # replica by replica on the scan the table sorts
        windows = [(0, 50), (0, 200)]
        a, moves_a = _window_maxima(LINDLEY, windows, 240, seed=9, tag="w")
        b, moves_b = _window_maxima(LINDLEY, windows, 240, seed=9, tag="w",
                                    workers=3)
        np.testing.assert_array_equal(a, b)
        assert moves_a == moves_b == 0  # only Metropolis chains count moves

    def test_tag_separates_streams(self):
        a = block_maxima_table(IID_EXP, [50], 300, seed=9, tag="x")
        b = block_maxima_table(IID_EXP, [50], 300, seed=9, tag="y")
        assert not np.array_equal(column(a, 50), column(b, 50))

    def test_markov_and_transform_maxima_nondecreasing_in_n(self):
        # transform columns share one sorted array of uniforms, so a rank is
        # a replica; Markov maxima are compared replica by replica
        t = block_maxima_table(MOVMAX2, [25, 100], 210, seed=4, tag="mono")
        assert np.all(column(t, 100) >= column(t, 25) - 1e-12)
        (m25, m100), _ = _window_maxima(LINDLEY, [(0, 25), (0, 100)], 210, seed=4,
                                        tag="mono")
        assert np.all(m100 >= m25)


def replica_order_transform_maxima(spec, n_list, R, seed, tag):
    """The IID and moving-max branches of the transform sampler as they were
    before it sorted the uniforms, verbatim: every column in replica order."""
    rng = rng_for(seed, tag, "maxima")
    u = np.maximum(rng.random(R), 1e-300)
    logu = np.log(u)
    out = {}
    if isinstance(spec, IIDSpec):
        for n in n_list:
            out[n] = np.asarray(spec.marginal.quantile(np.exp(logu / n)), dtype=float)
        return out
    if isinstance(spec, MovingMaxSpec):
        for n in n_list:
            e = n + spec.window - 1
            out[n] = np.asarray(spec.base.quantile(np.exp(logu / e)), dtype=float)
        return out
    raise InvalidArgumentError("no transform sampler for this kind")


def replica_order_mixture_maxima(n_list, R, seed, tag):
    """The mixture branch of the transform sampler as it was before the
    table sorted it, verbatim: every column in replica order."""
    rng = rng_for(seed, tag, "maxima")
    u = np.maximum(rng.random(R), 1e-300)
    logu = np.log(u)
    out = {}
    krng = rng_for(seed, tag, "component")
    ks = np.array([_mixture_draw_component(krng) for _ in range(R)], dtype=np.int64)
    bases = ks.astype(float) ** 2
    for n in n_list:
        t = -np.expm1(logu / n)  # tail level of the per-component quantile
        idx = np.maximum(np.ceil(1.0 / np.maximum(t, 1e-300)), bases)
        out[n] = np.minimum(idx, float(HUGE_INDEX))  # the level v_idx = idx
    return out


# a quantile that is not monotone, so its columns come out unsorted
WOBBLE = IIDSpec(DistFn(name="wobble", tail=lambda x: 1.0 - np.clip(x, -1.0, 1.0),
                        quantile=lambda p: np.sin(40.0 * np.asarray(p)), right_end=1.0))


class TestSortedTransformColumns:
    SIZES = [1, 2, 7, 50, 1000, 10**5]

    @pytest.mark.parametrize("spec, R", [
        (MOVMAX2, 20_000),
        (IIDSpec(pareto(2.0, 1.0)), 20_000),
        (IID_EXP, 20_000),
        (IIDSpec(symmetric_pareto(2.0, 1.0)), 20_000),
        (IIDSpec(geometric(0.3)), 2_000),  # flat quantile steps: many ties
    ], ids=["moving-max", "pareto", "exp", "symmetric-pareto", "geometric"])
    def test_columns_are_the_sorted_replica_order_columns(self, spec, R):
        table = block_maxima_table(spec, self.SIZES, R, seed=21, tag="sorted")
        old = replica_order_transform_maxima(spec, self.SIZES, R, 21, "sorted")
        assert table.n_list == tuple(self.SIZES)
        for n in self.SIZES:
            np.testing.assert_array_equal(column(table, n), np.sort(old[n]))
        assert 3 not in table.n_list
        with pytest.raises(KeyError):
            column(table, 3)

    def test_estimators_reject_a_column_that_is_not_ascending(self):
        R = 1000
        table = block_maxima_table(WOBBLE, self.SIZES, R, seed=22, tag="guard")
        for n in self.SIZES:
            assert not np.all(np.diff(column(table, n)) >= 0)  # the guard has work to do
        with pytest.raises(InvalidArgumentError, match="decrease across the ranks read"):
            driving_from_maxima(GAMMA, table)
        with pytest.raises(InvalidArgumentError, match="decrease across the ranks read"):
            maxlaw_from_maxima(table)

    @staticmethod
    def fit_peak(blocks, R):
        tracemalloc.start()
        try:
            fit_phantom(MOVMAX2, GAMMA, blocks, R, seed=23, tag="memory")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_an_iid_table_peaks_at_one_replica_array(self):
        # the uniforms become log-uniforms and are sorted in place, so the
        # table is built in the one array of R doubles that it keeps
        R = 10**6
        tracemalloc.start()
        try:
            table = block_maxima_table(IID_EXP, self.SIZES, R, seed=24, tag="memory")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.R == R
        assert peak <= 1.25 * 8 * R, peak / (8 * R)

    def test_fit_memory_does_not_grow_with_the_fit_sizes(self):
        # 19 fit sizes for [10000], 31 for [100, 1000, 10000], both up to
        # 10**6; the table holds one array of R log-uniforms and builds one
        # column at a time
        assert len(estimate._fit_sizes([10000])) == 19
        assert len(estimate._fit_sizes([100, 1000, 10000])) == 31
        few, many = self.fit_peak([10000], 200_000), self.fit_peak([100, 1000, 10000], 200_000)
        assert many <= 1.25 * few, many / few

    def test_fit_memory_does_not_grow_with_the_largest_block(self):
        # 19 fit sizes each, up to 10**5 and 10**7: the phantom stores one
        # knot per fit size, not one level per index up to the largest
        assert len(estimate._fit_sizes([1000])) == len(estimate._fit_sizes([100_000])) == 19
        self.fit_peak([1000], 2000)  # the first fit in a process allocates once more
        small, large = self.fit_peak([1000], 2000), self.fit_peak([100_000], 2000)
        assert large <= 1.25 * small, large / small


def _ascending(col):
    """The column itself when already ascending, else a sorted copy."""
    return col if np.all(col[1:] >= col[:-1]) else np.sort(col)


def _type1_quantile(sorted_vals, p):
    k = max(1, math.ceil(p * sorted_vals.size))
    return float(sorted_vals[min(k, sorted_vals.size) - 1])


def full_column_driving(gamma, columns, R):
    """driving_from_maxima as it was before rank reads, verbatim: every
    column built whole, sorted unless already ascending."""
    n_list = sorted(int(n) for n in columns)
    k_lo = max(estimate._binom_quantile(0.025, R, gamma), 1)
    k_hi = min(estimate._binom_quantile(0.975, R, gamma) + 1, R)
    v_hat = np.empty(len(n_list))
    ci_lo = np.empty(len(n_list))
    ci_hi = np.empty(len(n_list))
    for i, n in enumerate(n_list):
        s = _ascending(columns[n])
        v_hat[i] = _type1_quantile(s, gamma)
        ci_lo[i] = s[k_lo - 1]
        ci_hi[i] = s[k_hi - 1]
    violations = int(np.count_nonzero(np.diff(v_hat) < 0))
    return DrivingSeqEstimate(gamma=gamma, n_values=np.asarray(n_list),
                              v_hat=np.maximum.accumulate(v_hat),
                              ci_lo=ci_lo, ci_hi=ci_hi, method="monte-carlo",
                              replicas=np.full(len(n_list), R), raw_violations=violations)


def full_column_maxlaw(columns, R, probs=None, level_cap=None):
    """maxlaw_from_maxima as it was before rank reads, verbatim."""
    if probs is None:
        probs = np.linspace(0.01, 0.99, 33)
    rows = []
    for n in sorted(int(n) for n in columns):
        s = _ascending(columns[n])
        xs = np.unique([_type1_quantile(s, float(p)) for p in probs])
        if level_cap is not None:
            xs = xs[xs <= level_cap]
        p = np.searchsorted(s, xs, side="right") / R
        se = np.sqrt(p * (1.0 - p) / R)
        rows.append(estimate.MaxLawRow(n=n, levels=xs, p_hat=p, se=se, replicas=R))
    return estimate.MaxLawEstimate(rows=tuple(rows))


def counting_quantile(dist):
    """``dist`` whose quantile counts the values it is evaluated at."""
    calls = [0]

    def quantile(p):
        calls[0] += np.size(p)
        return dist.quantile(p)

    return dataclasses.replace(dist, quantile=quantile), calls


class TestRankReads:
    """The estimators read a table by rank; they must give the bytes of the
    full-column estimators they replaced."""
    SIZES = [1, 2, 7, 50, 1000, 10**5]

    @staticmethod
    def assert_same(table, reference=None):
        """Rank reads of ``table`` against the full-column estimators on
        ``reference``, the same maxima in any order (default: ``table``)."""
        if reference is None:
            reference = {n: column(table, n) for n in table.n_list}
        R = table.R
        got, want = driving_from_maxima(GAMMA, table), full_column_driving(GAMMA, reference, R)
        for field in ("n_values", "v_hat", "ci_lo", "ci_hi", "replicas"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert got.raw_violations == want.raw_violations
        # no cap, a cap that clips some columns and empties others, and a
        # cap below every level
        middle = np.sort(column(table, table.n_list[len(table.n_list) // 2]))
        for cap in (None, float(middle[len(middle) // 2]), -np.inf):
            got, want = maxlaw_from_maxima(table, level_cap=cap), \
                full_column_maxlaw(reference, R, level_cap=cap)
            for a, b in zip(got.rows, want.rows, strict=True):
                assert (a.n, a.replicas) == (b.n, b.replicas)
                for field in ("levels", "p_hat", "se"):
                    np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    @pytest.mark.parametrize("spec, R", [
        (MOVMAX2, 20_000),
        (IIDSpec(pareto(2.0, 1.0)), 20_000),
        (IID_EXP, 20_000),
        (IIDSpec(symmetric_pareto(2.0, 1.0)), 20_000),
        (IIDSpec(geometric(0.3)), 5_000),  # flat quantile steps: runs of ties
    ], ids=["moving-max", "pareto", "exp", "symmetric-pareto", "geometric"])
    def test_transform_table_matches_full_columns(self, spec, R):
        self.assert_same(block_maxima_table(spec, self.SIZES, R, seed=25, tag="ranks"))

    @pytest.mark.parametrize("spec, sizes, R", [
        (LINDLEY, [10, 50, 200], 400),
        (MixtureSpec(), [100, 1000, 10_000], 2000),  # integer levels: many ties
    ], ids=["lindley", "mixture"])
    def test_replica_order_table_matches_full_columns(self, spec, sizes, R):
        table = block_maxima_table(spec, sizes, R, seed=26, tag="ranks")
        if isinstance(spec, MixtureSpec):
            source = replica_order_mixture_maxima(sizes, R, 26, "ranks")
        else:
            source = dict(zip(sizes, _window_maxima(spec, [(0, n) for n in sizes], R,
                                                    seed=26, tag="ranks")[0]))
        assert not all(np.all(np.diff(source[n]) >= 0) for n in sizes)  # needs a sort
        for n in sizes:
            np.testing.assert_array_equal(column(table, n), np.sort(source[n]))
        self.assert_same(table, source)

    @pytest.mark.parametrize("spec, sizes, R", [
        (IIDSpec(geometric(0.3)), [1, 50], 2000),  # flat quantile steps: runs of ties
        (MOVMAX2, [1, 50], 2000),
        # a drift of -1: the chain sits at its atom 0 a third of the time
        (LindleySpec(step=shifted(exponential(1.0), -2.0)), [1, 50], 400),
        (MixtureSpec(), [100, 1000], 2000),  # integer levels
    ], ids=["iid", "moving-max", "lindley", "mixture"])
    def test_count_leq_matches_searchsorted(self, spec, sizes, R):
        """count_leq is exact at tied values, below the first value, at the
        last and above it, from start = 1 and start = R where that rank is
        at or below x, and from start = 0."""
        table = block_maxima_table(spec, sizes, R, seed=28, tag="count")
        assert table.R == R
        ties = 0
        for n in sizes:
            s = column(table, n)
            assert np.all(np.diff(s) >= 0)
            uniq, counts = np.unique(s, return_counts=True)
            tied = uniq[counts > 1]
            ties += tied.size
            xs = [*tied, *s[[0, R // 3, R // 2]], np.nextafter(s[0], -np.inf),
                  s[-1], np.nextafter(s[-1], np.inf)]
            for x in xs:
                want = int(np.searchsorted(s, x, side="right"))
                for start in (0, 1, R):
                    if start == 0 or s[start - 1] <= x:
                        assert table.count_leq(n, float(x), start) == want, (n, x, start)
        assert (ties > 0) is (spec is not MOVMAX2)  # a continuous law has no ties

    def test_jump_law_fit_table_reads_only_the_ranks_used(self):
        """A geometric fit table at R = 10**6 evaluates its quantile at
        three ranks per column for the driving levels, and at the 33 grid
        ranks plus one search per level for the max law (the full columns
        took minutes)."""
        marginal, calls = counting_quantile(geometric(0.3))
        sizes, R = estimate._fit_sizes([100, 1000]), 10**6
        start = time.perf_counter()
        table = block_maxima_table(IIDSpec(marginal), sizes, R, seed=27, tag="fit")
        dse = driving_from_maxima(GAMMA, table)
        assert calls[0] == 3 * len(sizes)
        assert np.all(np.diff(dse.v_hat) >= 0) and dse.v_hat[0] >= 1.0
        calls[0] = 0
        ml = maxlaw_from_maxima(table)
        levels = sum(row.levels.size for row in ml.rows)
        assert calls[0] <= 33 * len(sizes) + (2 * math.ceil(math.log2(R)) + 2) * levels
        assert time.perf_counter() - start < 30.0


class TestMaxLaw:
    def test_monte_carlo_within_4se_of_exact(self):
        R = 1000
        table = block_maxima_table(MOVMAX2, [20, 80], R, seed=11, tag="maxlaw")
        est = maxlaw_from_maxima(table)
        for row in est.rows:
            exact = np.array([exact_max_cdf(MOVMAX2, row.n, float(x))
                              for x in row.levels])
            se = np.maximum(row.se, 1.0 / R)
            assert np.max(np.abs(row.p_hat - exact) / se) <= 4.0

    def test_exact_grid(self):
        probs = np.linspace(0.002, 0.998, 41)
        est = exact_maxlaw(MOVMAX2, [20, 80], probs=probs)
        assert {row.replicas for row in est.rows} == {0}  # a closed form
        for row in est.rows:
            assert row.levels.size == probs.size
            np.testing.assert_array_equal(
                row.p_hat, [exact_max_cdf(MOVMAX2, row.n, float(x)) for x in row.levels])
            # levels are the exact quantiles, so the law there meets probs
            np.testing.assert_allclose(row.p_hat, probs, rtol=1e-9)
            assert not row.se.any()
        with pytest.raises(InvalidArgumentError):
            exact_maxlaw(MOVMAX2, [80, 20], probs)

    def test_level_cap_clips_grid(self):
        R = 400
        table = block_maxima_table(MOVMAX2, [50], R, seed=13, tag="cap")
        cap = float(np.median(column(table, 50)))
        (row,) = maxlaw_from_maxima(table, level_cap=cap).rows
        assert row.n == 50
        assert row.levels.max() <= cap
        assert row.levels.size >= 10


@pytest.mark.parametrize("name", sorted(CATALOG_ARGS))
def test_iid_is_a_moving_max_of_window_1(name):
    """Every closed form reads an IID spec as the moving maximum of window 1,
    to the bit: its max law and quantile, its block-maxima columns and its
    B_T covariance, which is f**t - f**t = 0 for a window of 1."""
    law = _CATALOG[name](*CATALOG_ARGS[name])
    iid, mm1 = IIDSpec(law), MovingMaxSpec(window=1, base=law)
    sizes = [1, 7, 1000]
    levels = [-1e300] + [float(law.quantile(u)) for u in (0.01, 0.3, 0.5, 0.9, 0.999)]
    for n in sizes:
        for x in levels:
            assert exact_max_cdf(iid, n, x) == exact_max_cdf(mm1, n, x)
            for p, q, r in ((1, 1, 1), (5, 5, 1), (10, 5, 3), (n, n, 1)):
                assert estimate._bt_exact_cov(iid, x, p, q, r) == \
                    estimate._bt_exact_cov(mm1, x, p, q, r) == 0.0
        for prob in (0.01, 0.5, 0.99):
            assert exact_max_quantile(iid, n, prob) == exact_max_quantile(mm1, n, prob)
    a = block_maxima_table(iid, sizes, 500, seed=25, tag="window-1")
    b = block_maxima_table(mm1, sizes, 500, seed=25, tag="window-1")
    for n in sizes:
        np.testing.assert_array_equal(column(a, n), column(b, n), strict=True)


class TestBT:
    def test_iid_exact_factorizes(self):
        dse = estimate_driving_sequence(IID_EXP, GAMMA, [64, 256], method="exact")
        rep = check_BT(IID_EXP, dse, method="exact")
        assert rep.max_b() <= 1e-15  # roundoff of F**(p+q) - F**p F**q
        assert all(p.se == 0.0 for row in rep.rows for p in row.pairs)

    def test_moving_max_exact_value(self):
        """b(p, q) = F**(p+q+1) (1 - F) for a window-2 moving maximum."""
        dse = _exact_dse([64])
        rep = check_BT(MOVMAX2, dse, method="exact")
        v = dse.level_for(64)
        f = 0.0 if v >= 1.0 else v  # uniform base cdf
        for pair in rep.rows[0].pairs:
            want = f ** (pair.p + pair.q + 1) * (1.0 - f)
            assert pair.value == pytest.approx(want, rel=1e-12)

    def test_iid_monte_carlo_within_4se(self):
        dse = estimate_driving_sequence(IID_EXP, GAMMA, [50, 200], R=800,
                                        seed=21, method="monte-carlo")
        rep = check_BT(IID_EXP, dse, R=800, seed=22, method="monte-carlo")
        for row in rep.rows:
            for pair in row.pairs:
                assert abs(pair.value) <= 4.0 * max(pair.se, 1e-4)

    def test_pair_budget_enforced(self):
        """The default pairs reach p + q = BT_HORIZON n and no further, at odd
        and at tiny n too, where the fractions round."""
        assert BT_HORIZON == 2.0
        rep = check_BT(MOVMAX2, _exact_dse([1, 3, 101, 1000]), method="exact")
        for row in rep.rows:
            reach = [pair.p + pair.q for pair in row.pairs]
            assert max(reach) == BT_HORIZON * row.n, (row.n, reach)

    def test_r_product_decays_for_iid(self):
        dse = estimate_driving_sequence(IID_EXP, GAMMA, [100, 1000], method="exact")
        rep = check_BT(IID_EXP, dse, method="exact")
        prods = [math.floor(n ** rep.r_exponent) * marginal_sf(IID_EXP, dse.level_for(n))
                 for n in (100, 1000)]
        assert prods[1] <= prods[0] * 1.05
        assert not rep.r_adjusted


class TestSlabScansMatchDenseReference:
    """Block maxima, check_BT and estimate_Cn scan paths slab by slab; the
    references here rebuild each path densely from the concatenated slabs."""
    R = 200
    # burn-in that leaves 6 values in the first slab, so the window (5, 10]
    # straddles a slab boundary
    EARLY_CUT = lindley_with_burn_in(SLAB - 6)

    def dense(self, seed, tag, length, spec=LINDLEY):
        rngs = [rng_for(seed, tag, r) for r in range(self.R)]
        return np.concatenate([s.copy() for s in _path_slabs(spec, rngs, length)], axis=1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec", [LINDLEY, METROPOLIS], ids=["lindley", "metropolis"])
    def test_window_maxima_match_dense_reference(self, monkeypatch, pool_spy, spec,
                                                 workers):
        monkeypatch.setattr(estimate.os, "cpu_count", lambda: 2)  # workers=2 forks
        # chunks of at most R / 2 rows, so the one-chunk Metropolis set forks too
        monkeypatch.setattr(estimate, "_chunk_rows",
                            lambda spec: min(_chunk_rows(spec), self.R // 2))
        first = SLAB - default_burn_in(spec)  # values in the first slab
        length = 17_000
        windows = [(7, 7), (0, 1), (0, 1), (100, 5_000), (2_000, 9_000),
                   (first - 1, first), (first, first + 1), (first - 10, length),
                   (0, length), (0, 3), (2, 3), (3, 5)]
        got, _ = _window_maxima(spec, windows, self.R, seed=44, tag="win",
                                workers=workers)
        assert pool_spy == [2] * (workers - 1)
        seg = self.dense(44, "win", length, spec)
        want = [seg[:, a:b].max(axis=1) if a < b else np.full(self.R, -np.inf)
                for a, b in windows]
        np.testing.assert_array_equal(got, want)

    def test_block_maxima_match_dense_reference(self):
        first = SLAB - default_burn_in(LINDLEY)  # values in the first slab
        sizes = [1, 2, 5_000, first, first + 1, 17_000]
        table = block_maxima_table(LINDLEY, sizes, self.R, seed=40, tag="dense")
        seg = self.dense(40, "dense", sizes[-1])
        for n in sizes:
            np.testing.assert_array_equal(column(table, n), np.sort(seg[:, :n].max(axis=1)))

    @staticmethod
    def assert_report_matches(report, seg):
        """check_BT's rows and r exponent against the dense paths ``seg``, at
        each row's level."""
        for row in report.rows:
            exceed = seg > row.level
            fi = np.where(exceed.any(axis=1), exceed.argmax(axis=1) + 1, seg.shape[1] + 1)
            for pair in row.pairs:
                p, q = pair.p, pair.q
                assert pair.value == np.mean(fi > p + q) - np.mean(fi > p) * np.mean(fi > q)
            worst = max(row.pairs, key=lambda pair: abs(pair.value))
            assert row.b_value == abs(worst.value)
            p, q = worst.p, worst.q
            r_n = max(1, math.floor(row.n ** report.r_exponent))
            a = (fi > max(p - r_n, 0)).astype(float)
            b = (~exceed[:, p:p + q].any(axis=1)).astype(float)
            assert 0.0 < a.mean() < 1.0 and 0.0 < b.mean() < 1.0
            assert row.cov_diag == np.mean(a * b) - a.mean() * b.mean()
        # the exponent is the first whose floor(n**e) * P(X_1 > v_n) decays,
        # with the tail read off the first value of each path
        tails = [np.mean(seg[:, 0] > row.level) for row in report.rows]
        for e in (1 / 3, 1 / 4, 1 / 5):
            prods = [math.floor(row.n ** e) * t for row, t in zip(report.rows, tails)]
            if all(b <= a * 1.05 for a, b in zip(prods, prods[1:])):
                break
        assert report.r_exponent == e

    def monte_carlo_dse(self, levels):
        n, v = np.array(list(levels)), np.array(list(levels.values()))
        return DrivingSeqEstimate(gamma=GAMMA, n_values=n, v_hat=v, ci_lo=v, ci_hi=v,
                                  method="monte-carlo", replicas=np.full(n.size, self.R))

    @pytest.mark.parametrize("spec, n", [
        (LINDLEY, 8_200),
        (EARLY_CUT, 10),  # pairs (5, 5), (10, 5), (5, 10), (10, 10); r_n = 2
    ], ids=["long-pairs", "straddling-window"])
    def test_check_bt_matches_dense_reference(self, spec, n):
        seed = 41
        assert default_burn_in(spec) + 2 * n > SLAB
        seg = self.dense(seed, f"bt-{n}", 2 * n, spec)
        v = float(np.median(seg[:, :n].max(axis=1)))
        report = check_BT(spec, self.monte_carlo_dse({n: v}), R=self.R, seed=seed,
                          method="monte-carlo")
        self.assert_report_matches(report, seg)

    def test_check_bt_two_blocks_match_dense_reference(self):
        """Every block size reads the one replica set of the largest, whose
        paths run to twice the largest block; that block's pairs are the
        ones a check of it alone gives."""
        seed, sizes = 42, (1_000, 8_200)
        assert default_burn_in(LINDLEY) + 2 * sizes[-1] > SLAB
        seg = self.dense(seed, f"bt-{sizes[-1]}", 2 * sizes[-1])
        levels = {n: float(np.median(seg[:, :n].max(axis=1))) for n in sizes}
        report = check_BT(LINDLEY, self.monte_carlo_dse(levels), R=self.R, seed=seed,
                          method="monte-carlo")
        assert [row.n for row in report.rows] == list(sizes)
        self.assert_report_matches(report, seg)
        alone = check_BT(LINDLEY, self.monte_carlo_dse({sizes[-1]: levels[sizes[-1]]}),
                         R=self.R, seed=seed, method="monte-carlo").rows[0]
        assert alone.pairs == report.rows[-1].pairs

    @pytest.mark.parametrize("spec, n, m, k", [
        (LINDLEY, 17_000, 1_000, 17),
        (EARLY_CUT, 12, 2, 6),
    ], ids=["long-path", "early-cut"])
    def test_estimate_cn_matches_dense_reference(self, spec, n, m, k):
        seed = 43
        assert default_burn_in(spec) + n > SLAB
        seg = self.dense(seed, f"cn-{n}-{m}-{k}", n, spec)
        skel = seg[:, m - 1::m][:, :k]
        v = float(np.median(skel.max(axis=1)))
        diag = estimate_Cn(spec, v, n=n, m=m, k=k, gamma=GAMMA, R=self.R, seed=seed)
        z_le = np.minimum.accumulate(skel <= v, axis=1)  # Z_j <= v, j = 1..k
        pz = z_le.mean(axis=0)
        assert 0.0 < pz[-1] < pz[0] < 1.0
        x1_le = seg[:, 0] <= v
        p1 = np.mean(x1_le)
        diffs = np.abs(pz[1:] - p1 * pz[:-1])
        j = int(np.argmax(diffs))
        # the delta-method SE of P(Z_{j+2} <= v) - P(X_1 <= v) P(Z_{j+1} <= v)
        rows = np.vstack([z_le[:, j + 1], x1_le, z_le[:, j]]).astype(float)
        grad = np.array([1.0, -pz[j], -p1])
        c_se = np.sqrt(max(grad @ (np.cov(rows, ddof=1) / self.R) @ grad, 0.0))
        pmn = np.mean(seg.max(axis=1) <= v)
        se_mn = math.sqrt(pmn * (1.0 - pmn) / self.R)
        se_bound = (k * p1 ** (k - 1) * math.sqrt(p1 * (1.0 - p1) / self.R)
                    + 2.0 * k * math.sqrt(0.25 / self.R))
        sandwich = (pmn >= GAMMA - 3.0 * se_mn
                    and pmn <= p1 ** k + k * diffs[j] + 3.0 * (se_mn + se_bound))
        assert (diag.c_hat, diag.c_se, diag.p_single, diag.sandwich_ok) == \
            (diffs[j], c_se, p1, sandwich)
        assert c_se > 0.0


class TestWorkerPool:
    """Replica chunks run in forked worker processes; every replica owns its
    substream, so one worker and two give equal arrays."""
    R = 256

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        # two processes even on a one-core machine, so the pool path runs
        monkeypatch.setattr(estimate.os, "cpu_count", lambda: 2)

    STEP, ROWS = _chunk_rows(METROPOLIS), _chunk_rows(LINDLEY)

    def test_chunk_rows_follow_the_kernel_shape(self):
        # the time-stepped Metropolis kernel takes up to 512 rows; the
        # row-looping kernels take FILL_ROWS, whatever the worker count
        assert (self.STEP, self.ROWS) == (512, FILL_ROWS)
        assert {_chunk_rows(spec) for spec in (IID_EXP, MOVMAX2, MixtureSpec())} == \
            {FILL_ROWS}

    def test_chunk_plan_cuts_by_the_cap_alone(self, monkeypatch):
        # the chunks are the cap's, at any worker count; the workers only
        # choose the processes: min(workers, cores, chunks)
        monkeypatch.setattr(estimate.os, "cpu_count", lambda: 4)
        plans = {
            (1000, self.STEP): [(0, 512), (512, 1000)],
            (512, self.STEP): [(0, 512)],
            (3, self.STEP): [(0, 3)],
            (0, self.STEP): [],
            (100, self.ROWS): [(0, 32), (32, 64), (64, 96), (96, 100)],
            (200, self.ROWS): [(lo, min(lo + 32, 200)) for lo in range(0, 200, 32)],
        }
        for (R, cap), chunks in plans.items():
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
            for workers in (1, 2, 10**6):
                assert _chunk_plan(R, workers, cap) == (
                    chunks, min(workers, 4, len(chunks))), (R, cap, workers)
        assert _chunk_plan(1000, 10**6, self.STEP)[1] == 2
        assert _chunk_plan(512, 10**6, self.STEP)[1] == 1
        assert _chunk_plan(200, 10**6, self.ROWS)[1] == 4
        assert _chunk_plan(200, 3, self.ROWS)[1] == 3
        monkeypatch.setattr(estimate.os, "cpu_count", lambda: None)
        assert _chunk_plan(1000, 10**6, self.STEP) == ([(0, 512), (512, 1000)], 1)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_chunk_plan_rejects_nonpositive_workers(self, workers):
        with pytest.raises(InvalidArgumentError):
            _chunk_plan(self.R, workers, self.STEP)

    def test_map_chunks_forks_only_for_more_than_one_worker(self):
        def where(lo, hi):  # a closure: it reaches the workers by fork, not pickle
            return os.getpid()

        R = 2 * self.STEP - 24
        serial = _map_chunks(where, R, 1, self.STEP)
        assert [b for b, _ in serial] == [(0, 512), (512, R)]
        assert {pid for _, pid in serial} == {os.getpid()}
        pooled = _map_chunks(where, R, 2, self.STEP)
        assert [b for b, _ in pooled] == [(0, 512), (512, R)]
        assert os.getpid() not in {pid for _, pid in pooled}
        # one chunk runs in the parent whatever the worker count
        alone = _map_chunks(where, self.R, 2, self.STEP)
        assert alone == [((0, self.R), os.getpid())]
        rows = _map_chunks(where, self.R, 2, self.ROWS)
        assert [b for b, _ in rows] == [(lo, lo + 32) for lo in range(0, 256, 32)]
        assert os.getpid() not in {pid for _, pid in rows}

    def test_worker_error_reaches_caller_as_invalid_argument(self, pool_spy):
        def chunk(lo, hi):
            if lo > 0:
                raise InvalidArgumentError(f"bad chunk {lo}")
            return os.getpid()

        with pytest.raises(InvalidArgumentError, match="bad chunk 512"):
            _map_chunks(chunk, 1000, 2, self.STEP)
        assert pool_spy == [2]  # raised in a forked child

    def test_metropolis_set_of_one_chunk_forks_nothing(self, pool_spy):
        """Up to 512 Metropolis replicas are one chunk, which the parent
        runs at two workers; one replica more forks two processes."""
        windows = [(0, 30), (10, 40)]
        for R in (self.R, self.STEP):
            pair = [_window_maxima(METROPOLIS, windows, R, 9, "one", workers)
                    for workers in (1, 2)]
            np.testing.assert_array_equal(pair[0][0], pair[1][0])
            assert pair[0][1] == pair[1][1] > 0
        assert pool_spy == []
        _window_maxima(METROPOLIS, windows, self.STEP + 1, 9, "one", 2)
        assert pool_spy == [2]

    @pytest.mark.parametrize("spec, workers, bounds", [
        (METROPOLIS, 2, [(0, 512), (512, 1000)]),
        (LINDLEY, 1, [(lo, min(lo + 32, 1000)) for lo in range(0, 1000, 32)]),
    ])
    def test_window_maxima_chunks_by_kernel_shape(self, monkeypatch, spec,
                                                  workers, bounds):
        """Metropolis R = 1000 at two workers runs a 512-row and a 488-row
        chunk, one per worker; Lindley at one worker runs 32-row chunks.
        Both equal one chunk of all 1000 rows."""
        seen = []

        def spy(fn, R, workers, cap):
            result = _map_chunks(fn, R, workers, cap)
            seen.append([b for b, _ in result])
            return result

        windows = [(0, 1), (0, 40), (25, 90)]
        monkeypatch.setattr(estimate, "_map_chunks", spy)
        chunked, chunked_moves = _window_maxima(spec, windows, 1000, 8, "shape", workers)
        monkeypatch.setattr(estimate, "_chunk_rows", lambda spec: 1000)
        whole, whole_moves = _window_maxima(spec, windows, 1000, 8, "shape", 1)
        assert seen == [bounds, [(0, 1000)]]
        assert np.isfinite(chunked).all() and np.unique(chunked[2]).size > 2
        np.testing.assert_array_equal(chunked, whole)
        assert chunked_moves == whole_moves

    @pytest.fixture
    def split(self, monkeypatch):
        """Cut the Metropolis replicas into 128-row chunks from here on, so
        that two workers fork where the R = 256 rows are otherwise one
        chunk in the parent."""
        def _split():
            monkeypatch.setattr(estimate, "_chunk_rows", lambda spec: self.R // 2)
        return _split

    def test_metropolis_block_maxima_pool_invariant(self, split, pool_spy):
        sizes = [1, 10, 50, 300]
        a = block_maxima_table(METROPOLIS, sizes, self.R, seed=3, tag="pool")
        split()
        b = block_maxima_table(METROPOLIS, sizes, self.R, seed=3, tag="pool",
                               workers=2)
        assert pool_spy == [2]
        for n in sizes:
            np.testing.assert_array_equal(column(a, n), column(b, n))

    def test_monte_carlo_check_bt_pool_invariant(self, monkeypatch, split, pool_spy):
        seen = []

        def spy(fn, R, workers, cap):
            result = _map_chunks(fn, R, workers, cap)
            seen.append(result)
            return result

        monkeypatch.setattr(estimate, "_map_chunks", spy)
        dse = estimate_driving_sequence(METROPOLIS, GAMMA, [20, 80], R=self.R,
                                        seed=4)
        reports, scans = [], []
        for workers in (1, 2):
            if workers == 2:
                split()
            seen.clear()
            reports.append(check_BT(METROPOLIS, dse, R=self.R, seed=4,
                                    method="monte-carlo", workers=workers))
            scans.append(list(seen))
        assert pool_spy == [2]  # the two-worker scan forked
        assert len(scans[0]) == len(scans[1]) == 1  # one scan for every block size
        assert [b for b, _ in scans[1][0]] == [(0, 128), (128, 256)]
        maxima = [np.concatenate([m for _, (m, _moves) in s[0]], axis=1) for s in scans]
        np.testing.assert_array_equal(*maxima)  # every window, one row each
        moves = [sum(k for _, (_m, k) in s[0]) for s in scans]
        assert moves[0] == moves[1] > 0
        assert maxima[0].shape[1] == self.R and np.isfinite(maxima[0]).all()
        # not degenerate: replicas differ, and each window exceeds v somewhere
        assert all(np.unique(row).size > 2 for row in maxima[0])
        for n in (20, 80):
            below = maxima[0] <= dse.level_for(n)
            assert 0 < below.mean() < 1 and not below.all(axis=1).any()
        for r1, r2 in zip(reports[0].rows, reports[1].rows):
            assert r1.b_value == r2.b_value and r1.cov_diag == r2.cov_diag
            assert [(p.value, p.se) for p in r1.pairs] == [(p.value, p.se) for p in r2.pairs]

    def test_estimate_cn_pool_invariant(self, split, pool_spy):
        # the 0.9 quantile, so that some of the R first values lie above the
        # level: all 256 lie below the 0.99 quantile with probability
        # 0.99**256 = 0.08, whatever the seed
        v = float(symmetric_pareto(2.0, 1.0).quantile(0.9))
        a = estimate_Cn(METROPOLIS, v, n=400, m=20, k=10, gamma=GAMMA, R=self.R, seed=5)
        split()
        b = estimate_Cn(METROPOLIS, v, n=400, m=20, k=10, gamma=GAMMA, R=self.R, seed=5,
                        workers=2)
        assert pool_spy == [2]
        assert 0.0 < a.p_single < 1.0 and a.c_se > 0.0
        assert (a.c_hat, a.c_se, a.p_single, a.sandwich_ok) == \
            (b.c_hat, b.c_se, b.p_single, b.sandwich_ok)


class TestCn:
    def test_iid_skeleton_factorizes(self):
        v = float(exponential(1.0).quantile(GAMMA ** (1.0 / 60.0)))
        diag = estimate_Cn(IID_EXP, v, n=60, m=3, k=10, gamma=GAMMA, R=600, seed=17)
        assert diag.c_hat < 0.08
        assert diag.sandwich_ok
        assert diag.c_hat <= 4.0 * diag.c_se

    def test_propbasic_bounded_for_iid(self):
        dse = estimate_driving_sequence(IID_EXP, GAMMA, [100, 400], method="exact")
        series = propbasic_series(IID_EXP, dse, R=400, seed=23)
        assert [(r.n, r.k, r.m) for r in series.rows] == [(100, 10, 10), (400, 20, 20)]
        assert not series.diverging
        # k_n P(X_1 > v_n) ~ 1/sqrt(n) stays below 1 for the exp marginal
        assert series.max_k_tail < 1.0
        # gamma <= P(M_n <= v_n) <= P(X_1 <= v_n)**k + k C_hat within 3 SE
        assert all(r.sandwich_ok for r in series.rows)

    def test_k_c_is_sampling_noise_for_iid(self):
        """C_n = 0 exactly for i.i.d. values, so k_n C_hat is noise: it
        stays within 4 of its standard errors."""
        dse = estimate_driving_sequence(IID_EXP, GAMMA, [100, 1000], method="exact")
        series = propbasic_series(IID_EXP, dse, R=1000, seed=1)
        got = [x for r in series.rows for x in (r.k_c, r.k_c_se)]
        assert got == pytest.approx([0.1095, 0.0373, 0.0930, 0.0536], abs=1e-4)
        assert all(0.0 < r.k_c <= 4.0 * r.k_c_se for r in series.rows)

    def test_propbasic_skips_a_block_without_skeleton(self):
        # a block of one value holds no two skeleton points
        dse = estimate_driving_sequence(IID_EXP, GAMMA, [1, 2], method="exact")
        series = propbasic_series(IID_EXP, dse, R=200, seed=23)
        assert [(r.n, r.k, r.m) for r in series.rows] == [(2, 2, 1)]
        only = estimate_driving_sequence(IID_EXP, GAMMA, [1], method="exact")
        empty = propbasic_series(IID_EXP, only, R=200, seed=23)
        assert (empty.rows, empty.max_k_tail, empty.diverging) == ((), None, False)


@pytest.mark.parametrize("spec", [IIDSpec(exponential(1.0)),
                                  MovingMaxSpec(window=2, base=uniform(0.0, 1.0))],
                         ids=["iid-exp", "moving-max-uniform"])
def test_window_maxima_within_dkw_band(spec):
    """Block maxima from the path scan (not the transform sampler) against
    the closed-form max law: the ECDF stays inside the 99.9% DKW band."""
    R, sizes = 2000, (1, 50, 1000)
    maxima, _ = _window_maxima(spec, [(0, n) for n in sizes], R, seed=1, tag="dkw")
    i = np.arange(1, R + 1)
    for n, col in zip(sizes, maxima):
        F = np.array([exact_max_cdf(spec, n, float(x)) for x in np.sort(col)])
        sup = max(np.max(i / R - F), np.max(F - (i - 1) / R))
        assert sup <= dkw_epsilon(R, 0.999), (n, sup)


def intervals_fit(values: np.ndarray, level: float, batches: int = 20):
    """Ferro & Segers' (JRSS-B 2003) intervals estimator of theta from the
    exceedances of ``level``, and its delete-one-batch estimates.

    With T the N - 1 gaps between successive exceedance times,
    theta = 2 (sum T)**2 / ((N - 1) sum T**2) when max T <= 2, else
    theta = 2 (sum (T - 1))**2 / ((N - 1) sum (T - 1)(T - 2)), untruncated.
    The path is cut into ``batches`` contiguous stretches, each giving its
    own gaps; the estimate pools them, and theta_(-b) is the pooled
    estimate without batch b.
    """
    gaps = [np.diff(np.flatnonzero(part > level))
            for part in np.array_split(values, batches)]
    shift = 0 if max(g.max(initial=0) for g in gaps) <= 2 else 1
    # per batch: number of gaps, sum of T - shift, sum of (T - shift)(T - 2 shift)
    parts = np.array([(g.size, np.sum(g - shift), np.sum((g - shift) * (g - 2 * shift)))
                      for g in gaps], dtype=float)
    total = parts.sum(axis=0)

    def theta(count, s1, s2):
        return 2.0 * s1 ** 2 / (count * s2)

    return theta(*total), np.array([theta(*(total - part)) for part in parts])


def jackknife_se(left_out: np.ndarray) -> float:
    """sqrt((B - 1) / B * sum_b (t_(-b) - mean t_(-b))**2) over B left-out batches."""
    b = left_out.size
    return math.sqrt((b - 1) / b * np.sum((left_out - left_out.mean()) ** 2))


def intervals_theta(values: np.ndarray, level: float, batches: int = 20):
    """The intervals estimate of theta at ``level`` and its jackknife SE."""
    theta, left_out = intervals_fit(values, level, batches)
    return theta, jackknife_se(left_out)


@pytest.mark.parametrize("spec, theta", [(MOVMAX2, 0.5), (IID_EXP, 1.0)],
                         ids=["moving-max-uniform", "iid-exp"])
def test_intervals_estimator_agrees_with_theta_estimate(spec, theta):
    """A second estimator of theta on paths from the same spec and seed: the
    intervals estimator at the driving level v_n agrees with
    theta_from_driving within 3 SE, the SE of the difference
    being the root sum of squares of the jackknife SE above and the
    estimate's own SE (its order-statistic CI half-width / 1.96)."""
    seed, n = 7, 1000
    dse = estimate_driving_sequence(spec, GAMMA, [100, n], R=4000, seed=seed,
                                    method="monte-carlo")
    est = theta_from_driving(spec, dse, [100, n], seed)
    fs, fs_se = intervals_theta(generate(spec, seed, 2_000_000), est.rows[-1].level)
    assert est.verdict == "positive" and est.se > 0 and fs_se > 0
    assert abs(fs - est.theta_hat) <= 3.0 * math.hypot(fs_se, est.se), (fs, fs_se, est)
    # and both find the known theta
    assert abs(fs - theta) <= 3.0 * fs_se and abs(est.theta_hat - theta) <= 3.0 * est.se


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_intervals_estimator_falls_toward_zero_on_lindley(seed):
    """A theta = 0 witness (Asmussen 1998): on a Lindley path with
    subexponential steps, the intervals estimate at the 0.90, 0.95, 0.99 and
    0.995 path quantiles falls at every step by more than 3 jackknife SEs of
    that step (the delete-one-batch differences of the two estimates)."""
    values = generate(LindleySpec(step=LINDLEY.step), seed, 2_000_000)
    fits = [intervals_fit(values, float(np.quantile(values, q)))
            for q in (0.90, 0.95, 0.99, 0.995)]
    for (low, low_out), (high, high_out) in zip(fits, fits[1:]):
        assert low - high > 3.0 * jackknife_se(low_out - high_out), (low, high)
    assert fits[-1][0] < 0.02



def test_intervals_estimator_falls_toward_zero_on_metropolis():
    """A theta = 0 witness (Roberts, Rosenthal, Segers & Sousa 2006): on the
    random-walk Metropolis chain of a heavy-tailed target with a bounded
    proposal, the intervals estimate at the 0.90, 0.95, 0.99 and 0.995
    quantiles of 64 independent rows of 1e5 steps, one batch per row,
    falls at every step by more than 3 jackknife SEs of that step."""
    rows, steps = 64, 100_000
    rngs = [rng_for(1, "witness", str(i)) for i in range(rows)]
    values = np.concatenate([s.copy() for s in _path_slabs(METROPOLIS, rngs, steps)],
                            axis=1).ravel()  # row after row: batch b is row b
    fits = [intervals_fit(values, float(np.quantile(values, q)), batches=rows)
            for q in (0.90, 0.95, 0.99, 0.995)]
    for (low, low_out), (high, high_out) in zip(fits, fits[1:]):
        assert low - high > 3.0 * jackknife_se(low_out - high_out), (low, high)
    assert fits[-1][0] < 0.02


class TestRegenerative:
    # the values of 12 cycles after the 0 that starts each, maximum first:
    # the fewest cycles with a window-10 zero-cycle diagnostic
    CYCLES = [[9.0], [8.0, 1.0], [1.0], [2.0, 0.5], [3.0], [4.0, 1.0], [5.0],
              [6.0, 2.0], [7.0], [2.0], [3.0, 3.0], [9.0]]

    def synthetic(self):
        # a head before the first zero, the cycles, and a last cycle that
        # the path does not finish
        values = [2.0]
        for cycle in self.CYCLES:
            values += [0.0, *cycle]
        return np.array(values + [0.0, 2.0])

    def test_cycle_decomposition_by_hand(self):
        rs = decompose_regenerative(self.synthetic())
        assert rs.cycle_count == 12
        # the head before the first zero, and the values from the last zero
        # on, belong to no cycle
        np.testing.assert_array_equal(rs.maxima, [c[0] for c in self.CYCLES])
        # lengths: seven cycles of 2 and five of 3
        assert rs.mu_hat == pytest.approx(29.0 / 12.0)
        assert rs.mu_se == pytest.approx(math.sqrt(420.0 / 144.0 / 11.0 / 12.0))
        # windows of ten, the only ones 12 cycles hold: the first 9 beats
        # the next ten cycles, the 8 loses to the last 9
        assert rs.zero_cycle_diag == {10: 0.5}

    def test_not_regenerative(self):
        path = generate(IID_EXP, length=50, seed=1)
        with pytest.raises(NotRegenerativeError):
            decompose_regenerative(path)
        with pytest.raises(NotRegenerativeError):
            decompose_regenerative(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))  # one zero

    def test_cycle_floor_needed(self):
        path = generate(LINDLEY, length=400, seed=2)
        rs = decompose_regenerative(path)
        with pytest.raises(InsufficientDataError):
            rootzen_phantom(rs)

    def unit_cycles(self, n=4000):
        # n - 1 cycles of one value each: mu = 1 and the phantom is the
        # marginal itself (no path has them, since a cycle starts at a 0)
        return self.hand_stats(rng_for(31, "unit-cycles").random(n)[:-1], mu_hat=1.0)

    def test_unit_cycle_phantom_recovers_marginal(self):
        rs = self.unit_cycles()
        assert rs.mu_hat == 1.0
        G = rootzen_phantom(rs)
        for p in (0.2, 0.5, 0.9):
            assert 1.0 - float(G.tail(p)) == pytest.approx(p, abs=0.03)

    def test_cycle_tail_ratio_unit_cycles(self):
        # 1% of 40,000 cycles lie above the 0.99-quantile
        band = cycle_tail_ratio(self.unit_cycles(40_000), uniform(0.0, 1.0))
        assert 0.7 < band.ratio < 1.3
        assert band.exceedances > 200

    @staticmethod
    def sorted_cycle_tail(rs, step, q):
        """cycle_tail_ratio as it was: the type-1 q-quantile of a sorted copy
        of the cycle maxima, and a count of the maxima above it."""
        s = np.sort(rs.maxima)
        y = float(s[min(max(1, math.ceil(q * s.size)), s.size) - 1])
        exc = int(np.count_nonzero(rs.maxima > y))
        denom = rs.mu_hat * float(step.tail(y))
        ratio = math.inf if denom == 0.0 else exc / rs.cycle_count / denom
        return CycleTailBand(level=y, ratio=float(ratio), exceedances=exc)

    @staticmethod
    def hand_stats(maxima, mu_hat=2.5):
        maxima = np.asarray(maxima, dtype=float)
        distinct, counts = np.unique(maxima, return_counts=True)
        return RegenStats(cycle_count=maxima.size, maxima=maxima, distinct=distinct,
                          below=np.cumsum(counts), mu_hat=mu_hat, mu_se=0.0,
                          zero_cycle_diag={})

    def test_cycle_tail_ratio_equals_the_sorted_copy_on_a_path(self):
        rs = decompose_regenerative(generate(LINDLEY, length=200_000, seed=7))
        assert rs.cycle_count > 10_000
        assert cycle_tail_ratio(rs, LINDLEY.step) == \
            self.sorted_cycle_tail(rs, LINDLEY.step, 0.99)

    # the type-1 0.99-quantile is rank ceil(0.99 C): of 12 maxima, rank 12
    # leaves nothing above; of 200, rank 198 starts a run of ties, sits
    # inside one, ends one, or meets none
    @pytest.mark.parametrize("maxima, level, exceedances", [
        ([3, 1, 2, 5, 2, 7, 2, 4, 1, 3, 5, 2], 7.0, 0),
        ([1] * 197 + [5, 5, 7], 5.0, 1),
        ([1] * 196 + [5, 5, 5, 7], 5.0, 1),
        ([1] * 196 + [5, 5, 6, 7], 5.0, 2),
        (list(range(200)), 197.0, 2),
    ], ids=["rank-is-last", "run-starts", "inside-run", "run-ends", "no-ties"])
    def test_cycle_tail_ratio_equals_the_sorted_copy_at_ties(self, maxima, level,
                                                             exceedances):
        rs, step = self.hand_stats(maxima[::-1]), uniform(0.0, 300.0)
        band = cycle_tail_ratio(rs, step)
        assert band == self.sorted_cycle_tail(rs, step, 0.99)
        assert (band.level, band.exceedances) == (level, exceedances)
        one_value = self.hand_stats([4.0] * len(maxima))
        assert cycle_tail_ratio(one_value, step) == \
            self.sorted_cycle_tail(one_value, step, 0.99) == \
            CycleTailBand(level=4.0, ratio=0.0, exceedances=0)

    def test_cycle_tail_ratio_allocates_no_cycle_sized_array(self):
        C = 10**6
        rs = self.hand_stats(rng_for(32, "cycle-maxima").random(C))
        step = uniform(0.0, 1.0)
        tracemalloc.start()
        try:
            band = cycle_tail_ratio(rs, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < C, peak  # less than one byte per cycle
        assert band == self.sorted_cycle_tail(rs, step, 0.99)

    # regen holds its path, 8 bytes a step, from start to end.  At about
    # 0.69 cycles a step, the split then peaks at three more cycle-sized
    # arrays: the cycle starts (the path's zeros), the cycle lengths and the
    # lengths' deviations from their mean inside std.  That reads 24.7
    # bytes a step on this path, and 30.2 when the cycle starts were kept
    # beside the path for the whole run.
    REGEN_BYTES_PER_STEP = 27.5

    @pytest.mark.parametrize("length", [400_000, 800_000])
    def test_regen_memory_per_path_step(self, length):
        # small blocks and R: the validation table's slabs stay below the
        # path's own arrays
        tracemalloc.start()
        try:
            rg = regen_phantom(LINDLEY.step, length, [10, 100], 200, seed=3, tag="memory")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rg.stats.cycle_count > 0.6 * length
        assert peak < self.REGEN_BYTES_PER_STEP * length, peak / length


class TestDivergenceRule:
    def test_factor_two_per_decade(self):
        assert divergence_rule([100, 1000], [1.0, 2.0])
        assert not divergence_rule([100, 1000], [1.0, 1.9])

    def test_prorated_partial_decade(self):
        # half decade needs sqrt(2) = 1.4142...
        assert divergence_rule([100, 316], [1.0, 1.42])
        assert not divergence_rule([100, 316], [1.0, 1.41])

    def test_edge_cases(self):
        assert not divergence_rule([100], [1.0])
        assert not divergence_rule([100, 1000], [0.0, 5.0])


class TestThetaFromDriving:
    """theta_from_driving reads the levels it is given; the whole estimate,
    extremal-index's theta.csv, is it on the command's own driving levels."""

    @pytest.mark.parametrize("spec, keys, method", [
        (MOVMAX2, "kind = moving_max\nwindow = 2\nbase = uniform(0,1)", "exact"),
        (MOVMAX2, "kind = moving_max\nwindow = 2\nbase = uniform(0,1)", "monte-carlo"),
        # no closed-form marginal: an auxiliary path
        (LindleySpec(step=shifted(pareto(2.0, 1.0), -2.0)),
         "kind = lindley\nstep = pareto(2,1)-2", "monte-carlo"),
    ], ids=["exact", "monte-carlo", "auxiliary-path"])
    def test_whole_estimate_is_theta_from_its_driving_levels(self, tmp_path, capsys,
                                                             spec, keys, method):
        sizes = [100, 1000]
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[common]\nseed = 31\nreplicas = 400\n[extremal-index]\n{keys}\n"
                       f"block_sizes = 100,1000\nmethod = {method}\n")
        out = tmp_path / "ei"
        assert main(["extremal-index", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        dse = estimate_driving_sequence(spec, GAMMA, sizes, R=400, seed=31, method=method)
        est = theta_from_driving(spec, dse, sizes, 31)
        assert (out / "theta.csv").read_text(encoding="utf-8") == theta_csv(est)
        assert json.loads((out / "summary.json").read_text())["theta_hat"] == est.theta_hat

    def test_reads_the_fit_levels_at_the_requested_sizes(self):
        sizes = [20, 80]
        dse, _ = fit_phantom(METROPOLIS, GAMMA, sizes, 256, seed=32, tag="fit")
        assert len(dse.n_values) > len(sizes)
        est = theta_from_driving(METROPOLIS, dse, sizes, 32)
        rows = [dse.row(n) for n in sizes]
        # every knot rests on R maxima
        counts = dict(zip(dse.n_values.tolist(), dse.replicas.tolist()))
        assert set(counts.values()) == {256}
        only = DrivingSeqEstimate(gamma=GAMMA, n_values=np.array(sizes),
                                  v_hat=np.array([r[0] for r in rows]),
                                  ci_lo=np.array([r[1] for r in rows]),
                                  ci_hi=np.array([r[2] for r in rows]),
                                  method="monte-carlo",
                                  replicas=np.array([counts[n] for n in sizes]))
        assert theta_from_driving(METROPOLIS, only, sizes, 32) == est
        assert [row.level for row in est.rows] == [dse.level_for(n) for n in sizes]
        assert [row.tail for row in est.rows] == [
            float(METROPOLIS.target.tail(row.level)) for row in est.rows]
        with pytest.raises(InvalidArgumentError, match="no driving level stored for n=30"):
            theta_from_driving(METROPOLIS, dse, [20, 30], 32)


class TestFarKnots:
    """fit_phantom's table runs to the largest block n_max; a fit size N
    above it is read off column n_max at level gamma^(n_max / N)."""

    # one rule for every process kind: transform-sampled (IID, moving-max),
    # path-scanned (Lindley, Metropolis) and the mixture's index columns
    @pytest.mark.parametrize("spec, blocks, R", [(IID_EXP, [10, 100], 1000),
                                                 (METROPOLIS, [20, 80], 256),
                                                 (LINDLEY, [20, 80], 256),
                                                 (MOVMAX2, [10, 100], 1000),
                                                 (MixtureSpec(), [10, 100], 1000)],
                             ids=["iid", "metropolis", "lindley", "moving-max", "mixture"])
    def test_far_knots_are_ranks_of_the_largest_block_column(self, spec, blocks, R):
        sizes, n_max = estimate._fit_sizes(blocks), blocks[-1]
        near = [n for n in sizes if n <= n_max]
        far = sizes[len(near):]
        assert len(far) == 12  # two decades at a sixth of a decade
        dse, phantom = fit_phantom(spec, GAMMA, blocks, R, seed=47, tag="far")
        col = column(block_maxima_table(spec, near, R, seed=47, tag="far"), n_max)
        np.testing.assert_array_equal(dse.n_values, sizes)
        np.testing.assert_array_equal(dse.replicas, np.full(len(sizes), R))
        levels = [GAMMA ** (n_max / n) for n in far]
        reads = [col[math.ceil(p * R) - 1] for p in levels]
        # the running maximum carries on from the level at n_max
        carried = np.maximum.accumulate([dse.v_hat[len(near) - 1], *reads])[1:]
        np.testing.assert_array_equal(dse.v_hat[len(near):], carried)
        for i, p in enumerate(levels, start=len(near)):
            k_lo = max(estimate._binom_quantile(0.025, R, p), 1)
            k_hi = min(estimate._binom_quantile(0.975, R, p) + 1, R)
            assert (dse.ci_lo[i], dse.ci_hi[i]) == (col[k_lo - 1], col[k_hi - 1])
        assert phantom.driving.sup == dse.v_hat[-1] == reads[-1]

    @pytest.mark.parametrize("spec", [METROPOLIS, LINDLEY], ids=["metropolis", "lindley"])
    def test_no_fit_path_runs_past_the_largest_block(self, monkeypatch, spec):
        lengths = []
        path_slabs = estimate._path_slabs

        def spy(spec, rngs, length):
            lengths.append(length)
            return path_slabs(spec, rngs, length)

        monkeypatch.setattr(estimate, "_path_slabs", spy)
        dse, _ = fit_phantom(spec, GAMMA, [20, 80], 256, seed=48, tag="far")
        # one call per chunk: one of 256 Metropolis rows, eight of FILL_ROWS
        # Lindley rows
        assert dse.n_values[-1] == 6_325
        assert lengths == [80] * math.ceil(256 / _chunk_rows(spec))

    def test_two_sided_gap_reads_one_order_statistic_above_the_largest_block(self):
        """At or below v_{n_max} the knot formula at R; above it the delta
        method on q = G^{n_max}, an order statistic of R maxima, which
        never exceeds the max law's own SE at G^n for n <= n_max."""
        R, blocks, n_max = 512, [100, 1_000], 1_000
        sizes = estimate._fit_sizes(blocks)
        exact = estimate_driving_sequence(IID_EXP, GAMMA, sizes, method="exact")
        dse = exact._replace(replicas=np.full(len(sizes), R))
        phantom = PhantomDistFn(driving_from_estimates(GAMMA, dse.n_values, dse.v_hat))
        v = dict(zip(sizes, dse.v_hat.tolist()))
        levels = [v[10] - 0.5, v[100], (v[100] + v[1_000]) / 2, v[1_000],
                  np.nextafter(v[1_000], np.inf), (v[1_000] + v[1_468]) / 2, v[10_000],
                  v[100_000]]
        # n_max is the largest block that ver holds a row of
        cases = [(n, x) for n in blocks for x in levels]
        ver = PhantomVerification(rows=tuple(
            VerifyRow(n=n, gap=0.02, se_at_gap=0.01, level_at_gap=x) for n, x in cases),
            sup_gap=0.02)
        rows = estimate.two_sided_gaps(dse, phantom, ver)
        for (n, x), row in zip(cases, rows, strict=True):
            p = math.exp(n * float(phantom.log_cdf(x)))
            if x <= v[n_max]:
                want = p * -math.log(p) * math.sqrt((1 - GAMMA) / (GAMMA * R))
            else:
                q = p ** (n_max / n)
                want = n / n_max * p * math.sqrt((1 - q) / (q * R))
                assert row["phantom_se"] <= math.sqrt(p * (1 - p) / R) * (1 + 1e-12)
            assert row["phantom_se"] == pytest.approx(want, rel=1e-9), (n, x)
            assert row["phantom_replicas"] == R
            assert row["z"] == 0.02 / math.hypot(0.01, row["phantom_se"])
        # the two rules meet at v_{n_max}
        for i in (3, len(levels) + 3):
            assert rows[i]["phantom_se"] == pytest.approx(rows[i + 1]["phantom_se"],
                                                          rel=1e-9)


class TestTheta:
    def test_moving_max_half(self):
        dse = estimate_driving_sequence(MOVMAX2, GAMMA, [10_000], method="exact")
        est = theta_from_driving(MOVMAX2, dse, [10_000], 0)
        assert est.verdict == "positive"
        assert est.theta_hat == pytest.approx(0.5, abs=0.01)

    def test_iid_is_one(self):
        dse = estimate_driving_sequence(IID_EXP, GAMMA, [1000], method="exact")
        est = theta_from_driving(IID_EXP, dse, [1000], 0)
        assert est.verdict == "positive"
        assert est.theta_hat == pytest.approx(1.0, abs=0.01)

    def test_mixture_verdict_zero(self):
        dse = estimate_driving_sequence(MixtureSpec(), GAMMA, [100, 10_000], method="exact")
        est = theta_from_driving(MixtureSpec(), dse, [100, 10_000], 0)
        assert est.verdict == "zero"
        assert est.theta_hat is None

    def test_monte_carlo_tracks_exact(self):
        dse = estimate_driving_sequence(MOVMAX2, GAMMA, [2000], R=2000, seed=29,
                                        method="monte-carlo")
        mc = theta_from_driving(MOVMAX2, dse, [2000], 29)
        row = mc.rows[0]
        assert row.theta_lo <= 0.5 <= row.theta_hi
