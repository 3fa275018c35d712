"""Monte Carlo estimators: driving levels, factorization checks, cycles.

Monte Carlo assertions run at fixed seeds with wide z-score margins
(4 SE unless noted), so they are regression tests, not flaky coin flips.
"""

import dataclasses
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from phantomdf.distributions import (DistFn, dkw_epsilon, exponential, geometric, pareto,
                                     shifted, symmetric_pareto, uniform)
from phantomdf.errors import (
    InsufficientDataError,
    InvalidArgumentError,
    NotRegenerativeError,
)
from phantomdf import estimate
from phantomdf.estimate import (
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
    estimate_theta_single_sequence,
    exact_maxlaw,
    fit_phantom,
    maxlaw_from_maxima,
    propbasic_series,
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
    SamplePath,
    _mixture_draw_component,
    _path_slabs,
    default_burn_in,
    exact_max_cdf,
    generate,
    marginal_sf,
)
from phantomdf.seeding import rng_for

GAMMA = math.exp(-1.0)
IID_EXP = IIDSpec(exponential(1.0))
MOVMAX2 = MovingMaxSpec(window=2, base=uniform(0.0, 1.0))
LINDLEY = LindleySpec(step=shifted(pareto(2.0, 1.0), -2.0), burn_in=300)
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
            estimate_theta_single_sequence(LINDLEY, GAMMA, [100], R=200, method=method)
        with pytest.raises(InvalidArgumentError, match="method must be 'auto', 'exact' or"):
            check_BT(LINDLEY, _exact_dse([100]), R=200, method=method)

    def test_block_sizes_strictly_increasing(self):
        for bad in ([100, 100], [1000, 100], [0, 10]):
            with pytest.raises(InvalidArgumentError):
                estimate_driving_sequence(IID_EXP, GAMMA, bad, method="exact")

    def test_cn_geometry(self):
        with pytest.raises(InvalidArgumentError):
            estimate_Cn(IID_EXP, 1.0, n=50, m=10, k=6, R=300)  # k*m > n
        with pytest.raises(InvalidArgumentError):
            estimate_Cn(IID_EXP, 1.0, n=50, m=5, k=1, R=300)


def _exact_dse(n_list):
    return estimate_driving_sequence(MOVMAX2, GAMMA, n_list, method="exact")


def column(table, n):
    """Column n of a block-maxima table, every rank read unchecked (the
    estimators read only the ranks they need); KeyError for a block size
    the table does not hold."""
    if n not in table.n_list:
        raise KeyError(n)
    return table._values(n, np.arange(1, table.replicas[n] + 1))


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
        on every (R, gamma) a workload, criterion or test fits, and where
        the summation window clips at 0 or at R."""
        from scipy import stats

        grid = [200, 256, 300, 400, 500, 512, 1000, 2000, 5000, 10**4, 2 * 10**4,
                5 * 10**4, 10**5, 10**6, *range(200, 1194, 7)]
        cases = [(R, g) for R in grid
                 for g in (GAMMA, 0.05, 0.1, 0.25, 0.5, 0.9)]
        cases += [(R, GAMMA) for R in (*range(200, 401), 512, 1000, 10**6)]
        cases += [(R, g) for R in (1, 2, 5, 20, 200) for g in (0.001, 0.05, 0.9, 0.999)]
        triples = [(q, R, g) for R, g in cases for q in (0.025, 0.975)]
        # q equal to a cdf value: the rank is the smallest k that reaches q
        triples += [(0.5, 1, 0.5), (0.25, 2, 0.5), (0.75, 2, 0.5)]
        mismatches = [(q, R, g) for q, R, g in triples
                      if estimate._binom_quantile(q, R, g) != int(stats.binom.ppf(q, R, g))]
        assert mismatches == []

    def test_driving_from_estimates_knots(self):
        dse = _exact_dse([10, 100])
        xs, es = driving_from_estimates(dse.gamma, dse.n_values, dse.v_hat).knots()
        np.testing.assert_array_equal(xs, [dse.level_for(10), dse.level_for(100)])
        np.testing.assert_array_equal(es, [1.0 / 10, 1.0 / 100])


class TestBlockMaximaTable:
    def test_worker_chunking_invariance(self):
        # replica by replica on the scan the table sorts
        windows = [(0, 50), (0, 200)]
        a, moves_a = _window_maxima(LINDLEY, windows, np.full(240, 200), seed=9, tag="w")
        b, moves_b = _window_maxima(LINDLEY, windows, np.full(240, 200), seed=9, tag="w",
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
        (m25, m100), _ = _window_maxima(LINDLEY, [(0, 25), (0, 100)], np.full(210, 100),
                                        seed=4, tag="mono")
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
        assert table.replicas == dict.fromkeys(self.SIZES, R)
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
        (R,) = set(table.replicas.values())
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
            source = dict(zip(sizes, _window_maxima(spec, [(0, n) for n in sizes],
                                                    np.full(R, sizes[-1]), seed=26,
                                                    tag="ranks")[0]))
        assert not all(np.all(np.diff(source[n]) >= 0) for n in sizes)  # needs a sort
        for n in sizes:
            np.testing.assert_array_equal(column(table, n), np.sort(source[n]))
        self.assert_same(table, source)

    @pytest.mark.parametrize("spec, sizes, R", [
        (IIDSpec(geometric(0.3)), [1, 50], 2000),  # flat quantile steps: runs of ties
        (MOVMAX2, [1, 50], 2000),
        # a drift of -1: the chain sits at its atom 0 a third of the time
        (LindleySpec(step=shifted(exponential(1.0), -2.0), burn_in=300), [1, 50], 400),
        (MixtureSpec(), [100, 1000], 2000),  # integer levels
    ], ids=["iid", "moving-max", "lindley", "mixture"])
    def test_count_leq_matches_searchsorted(self, spec, sizes, R):
        """count_leq is exact at tied values, below the first value, at the
        last and above it, from start = 1 and start = R where that rank is
        at or below x, and from start = 0."""
        table = block_maxima_table(spec, sizes, R, seed=28, tag="count")
        assert table.replicas == dict.fromkeys(sizes, R)
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
        est = maxlaw_from_maxima(table, probs=np.linspace(0.002, 0.998, 41))
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


class TestBT:
    def test_iid_exact_factorizes(self):
        dse = estimate_driving_sequence(IID_EXP, GAMMA, [64, 256], method="exact")
        rep = check_BT(IID_EXP, dse, T=2.0, method="exact")
        assert rep.max_b() <= 1e-15  # roundoff of F**(p+q) - F**p F**q
        assert all(p.se == 0.0 for row in rep.rows for p in row.pairs)

    def test_moving_max_exact_value(self):
        """b(p, q) = F**(p+q+1) (1 - F) for a window-2 moving maximum."""
        dse = _exact_dse([64])
        rep = check_BT(MOVMAX2, dse, T=2.0, method="exact")
        v = dse.level_for(64)
        f = 0.0 if v >= 1.0 else v  # uniform base cdf
        for pair in rep.rows[0].pairs:
            want = f ** (pair.p + pair.q + 1) * (1.0 - f)
            assert pair.value == pytest.approx(want, rel=1e-12)

    def test_iid_monte_carlo_within_4se(self):
        dse = estimate_driving_sequence(IID_EXP, GAMMA, [50, 200], R=800,
                                        seed=21, method="monte-carlo")
        rep = check_BT(IID_EXP, dse, T=2.0, R=800, seed=22, method="monte-carlo")
        for row in rep.rows:
            for pair in row.pairs:
                assert abs(pair.value) <= 4.0 * max(pair.se, 1e-4)

    def test_pair_budget_enforced(self):
        with pytest.raises(InvalidArgumentError):
            check_BT(IID_EXP, _exact_dse([100]), T=1.5, method="exact")  # (1,1) pair needs T >= 2

    @pytest.mark.parametrize("T", [math.nan, math.inf, -1.0, 0.0])
    def test_horizon_must_be_finite_and_positive(self, T):
        with pytest.raises(InvalidArgumentError, match="T must be finite and positive"):
            check_BT(IID_EXP, _exact_dse([100]), T=T, method="exact")

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
    # burn-in that leaves 6 values in the first slab, so the window (5, 7]
    # straddles a slab boundary while M_1 carries the covariance diagnostic
    EARLY_CUT = LindleySpec(step=LINDLEY.step, burn_in=SLAB - 6)

    def dense(self, seed, tag, length, spec=LINDLEY):
        rngs = [rng_for(seed, tag, r) for r in range(self.R)]
        return np.concatenate([s.copy() for s in _path_slabs(spec, rngs, length)], axis=1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec", [LINDLEY, METROPOLIS], ids=["lindley", "metropolis"])
    def test_window_maxima_match_dense_reference(self, monkeypatch, spec, workers):
        monkeypatch.setattr(estimate.os, "cpu_count", lambda: 2)  # workers=2 forks
        first = SLAB - default_burn_in(spec)  # values in the first slab
        length = 17_000
        windows = [(7, 7), (0, 1), (0, 1), (100, 5_000), (2_000, 9_000),
                   (first - 1, first), (first, first + 1), (first - 10, length),
                   (0, length), (0, 3), (2, 3), (3, 5)]
        got, _ = _window_maxima(spec, windows, np.full(self.R, length), seed=44,
                                tag="win", workers=workers)
        seg = self.dense(44, "win", length, spec)
        want = [seg[:, a:b].max(axis=1) if a < b else np.full(self.R, -np.inf)
                for a, b in windows]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec", [LINDLEY, METROPOLIS], ids=["lindley", "metropolis"])
    def test_window_maxima_with_mixed_lengths_equal_one_row_runs(self, monkeypatch, spec,
                                                                 workers):
        """Each replica's maxima, when replicas run to different lengths,
        equal those of the first values of a one-row run of its own stream
        to the longest length; a window past a replica's length gives nan."""
        monkeypatch.setattr(estimate.os, "cpu_count", lambda: 2)  # workers=2 forks
        long = SLAB + 300
        lengths = np.array([long] * 3 + [5_000] * 4 + [40] * 2 + [1])
        windows = [(0, 1), (0, 40), (30, 4_000), (0, 5_000), (0, long), (5_000, 5_000),
                   (2_000, long)]
        got, _ = _window_maxima(spec, windows, lengths, seed=45, tag="mixed",
                                workers=workers)
        for r, length in enumerate(lengths.tolist()):
            path = np.concatenate([s[0].copy() for s in _path_slabs(
                spec, [rng_for(45, "mixed", r)], long)])[:length]
            want = [np.nan if b > length else path[a:b].max(initial=-np.inf)
                    for a, b in windows]
            np.testing.assert_array_equal(got[:, r], want)
        assert np.isnan(got[:, -1]).sum() == len(windows) - 1

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

    @pytest.mark.parametrize("spec, n, fractions", [
        (LINDLEY, 8_200, ((0.5, 0.5), (1.0, 0.5), (0.5, 1.0), (1.0, 1.0))),
        (EARLY_CUT, 100, ((0.05, 0.02),)),  # r_n = 4, pair (5, 2), level 0
    ], ids=["long-pairs", "straddling-window"])
    def test_check_bt_matches_dense_reference(self, spec, n, fractions):
        seed = 41
        assert default_burn_in(spec) + 2 * n > SLAB
        seg = self.dense(seed, f"bt-{n}", 2 * n, spec)
        v = float(np.median(seg[:, :n].max(axis=1))) if n > 100 else 0.0
        report = check_BT(spec, self.monte_carlo_dse({n: v}), pair_fractions=fractions,
                          R=self.R, seed=seed, method="monte-carlo")
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
        (EARLY_CUT, 12, 2, 6),  # level 0: each dropped or shifted value shows
    ], ids=["long-path", "early-cut"])
    def test_estimate_cn_matches_dense_reference(self, spec, n, m, k):
        seed = 43
        assert default_burn_in(spec) + n > SLAB
        seg = self.dense(seed, f"cn-{n}-{m}-{k}", n, spec)
        skel = seg[:, m - 1::m][:, :k]
        v = float(np.median(skel.max(axis=1))) if n > 12 else 0.0
        diag = estimate_Cn(spec, v, n=n, m=m, k=k, R=self.R, seed=seed, gamma=GAMMA)
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


def flat(R, length=5):
    """R replicas of one path length."""
    return np.full(R, length)


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

    def test_chunk_plan_clamps_workers_to_cores(self, monkeypatch):
        monkeypatch.setattr(estimate.os, "cpu_count", lambda: 4)
        chunks, procs = _chunk_plan(flat(1000), 10**6, self.STEP)
        assert procs == 4
        assert chunks == [(0, 250), (250, 500), (500, 750), (750, 1000)]
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert _chunk_plan(flat(3), 10**6, self.STEP) == ([(0, 1), (1, 2), (2, 3)], 3)
        assert _chunk_plan(flat(100), 3, self.STEP) == ([(0, 34), (34, 68), (68, 100)], 3)
        # one worker: chunks stop at the cap of the kernel's shape
        assert _chunk_plan(flat(1000), 1, self.STEP) == ([(0, 512), (512, 1000)], 1)
        assert _chunk_plan(flat(100), 1, self.ROWS) == (
            [(0, 32), (32, 64), (64, 96), (96, 100)], 1)
        # the row cap cuts R finer than the workers, who still number 4
        assert _chunk_plan(flat(100), 10**6, self.ROWS) == (
            [(0, 25), (25, 50), (50, 75), (75, 100)], 4)
        assert _chunk_plan(flat(200), 10**6, self.ROWS)[1] == 4
        assert len(_chunk_plan(flat(200), 10**6, self.ROWS)[0]) == 7
        monkeypatch.setattr(estimate.os, "cpu_count", lambda: None)
        assert _chunk_plan(flat(1000), 10**6, self.STEP)[1] == 1

    def test_chunk_plan_cuts_each_run_of_lengths_longest_first(self):
        # runs of 5, 2 and 4 rows at lengths 9, 3 and 7: each run is cut in
        # ceil(rows / workers)-row chunks, the longest run first, and no chunk
        # mixes lengths
        lengths = np.array([9] * 5 + [3] * 2 + [7] * 4)
        assert _chunk_plan(lengths, 2, self.STEP) == (
            [(0, 3), (3, 5), (7, 9), (9, 11), (5, 6), (6, 7)], 2)
        assert _chunk_plan(lengths, 1, 3) == (
            [(0, 3), (3, 5), (7, 10), (10, 11), (5, 7)], 1)
        assert _chunk_plan(np.array([], dtype=int), 2, self.STEP) == ([], 0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_chunk_plan_rejects_nonpositive_workers(self, workers):
        with pytest.raises(InvalidArgumentError):
            _chunk_plan(flat(self.R), workers, self.STEP)

    def test_map_chunks_forks_only_for_more_than_one_worker(self):
        def where(lo, hi):  # a closure: it reaches the workers by fork, not pickle
            return os.getpid()

        serial = _map_chunks(where, flat(self.R), 1, self.STEP)
        assert [b for b, _ in serial] == [(0, 256)]
        assert {pid for _, pid in serial} == {os.getpid()}
        pooled = _map_chunks(where, flat(self.R), 2, self.STEP)
        assert [b for b, _ in pooled] == [(0, 128), (128, 256)]
        assert os.getpid() not in {pid for _, pid in pooled}
        rows = _map_chunks(where, flat(self.R), 2, self.ROWS)
        assert [b for b, _ in rows] == [(lo, lo + 32) for lo in range(0, 256, 32)]
        assert os.getpid() not in {pid for _, pid in rows}

    def test_worker_error_reaches_caller_as_invalid_argument(self):
        def chunk(lo, hi):
            if lo > 0:
                raise InvalidArgumentError(f"bad chunk {lo}")
            return os.getpid()

        with pytest.raises(InvalidArgumentError, match="bad chunk 128"):
            _map_chunks(chunk, flat(self.R), 2, self.STEP)

    @pytest.mark.parametrize("spec, workers, bounds", [
        (METROPOLIS, 2, [(0, 500), (500, 1000)]),
        (LINDLEY, 1, [(lo, min(lo + 32, 1000)) for lo in range(0, 1000, 32)]),
    ])
    def test_window_maxima_chunks_by_kernel_shape(self, monkeypatch, spec,
                                                  workers, bounds):
        """Metropolis R = 1000 at two workers runs one 500-row chunk each;
        Lindley at one worker runs 32-row chunks.  Both equal one chunk of
        all 1000 rows."""
        seen = []

        def spy(fn, lengths, workers, cap):
            result = _map_chunks(fn, lengths, workers, cap)
            seen.append([b for b, _ in result])
            return result

        windows = [(0, 1), (0, 40), (25, 90)]
        monkeypatch.setattr(estimate, "_map_chunks", spy)
        chunked, chunked_moves = _window_maxima(spec, windows, flat(1000, 90), 8, "shape",
                                                workers)
        monkeypatch.setattr(estimate, "_chunk_rows", lambda spec: 1000)
        whole, whole_moves = _window_maxima(spec, windows, flat(1000, 90), 8, "shape", 1)
        assert seen == [bounds, [(0, 1000)]]
        assert np.isfinite(chunked).all() and np.unique(chunked[2]).size > 2
        np.testing.assert_array_equal(chunked, whole)
        assert chunked_moves == whole_moves

    def test_metropolis_block_maxima_pool_invariant(self):
        sizes = [1, 10, 50, 300]
        a = block_maxima_table(METROPOLIS, sizes, self.R, seed=3, tag="pool")
        b = block_maxima_table(METROPOLIS, sizes, self.R, seed=3, tag="pool",
                               workers=2)
        for n in sizes:
            np.testing.assert_array_equal(column(a, n), column(b, n))

    def test_monte_carlo_check_bt_pool_invariant(self, monkeypatch):
        seen = []

        def spy(fn, lengths, workers, cap):
            result = _map_chunks(fn, lengths, workers, cap)
            seen.append(result)
            return result

        monkeypatch.setattr(estimate, "_map_chunks", spy)
        dse = estimate_driving_sequence(METROPOLIS, GAMMA, [20, 80], R=self.R,
                                        seed=4)
        reports, scans = [], []
        for workers in (1, 2):
            seen.clear()
            reports.append(check_BT(METROPOLIS, dse, R=self.R, seed=4,
                                    method="monte-carlo", workers=workers))
            scans.append(list(seen))
        assert len(scans[0]) == len(scans[1]) == 1  # one scan for every block size
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

    def test_estimate_cn_pool_invariant(self):
        # the 0.9 quantile, so that some of the R first values lie above the
        # level: all 256 lie below the 0.99 quantile with probability
        # 0.99**256 = 0.08, whatever the seed
        v = float(symmetric_pareto(2.0, 1.0).quantile(0.9))
        a, b = (estimate_Cn(METROPOLIS, v, n=400, m=20, k=10, R=self.R,
                            seed=5, workers=w) for w in (1, 2))
        assert 0.0 < a.p_single < 1.0 and a.c_se > 0.0
        assert (a.c_hat, a.c_se, a.p_single, a.sandwich_ok) == \
            (b.c_hat, b.c_se, b.p_single, b.sandwich_ok)


class TestCn:
    def test_iid_skeleton_factorizes(self):
        v = float(exponential(1.0).quantile(GAMMA ** (1.0 / 60.0)))
        diag = estimate_Cn(IID_EXP, v, n=60, m=3, k=10, R=600, seed=17, gamma=GAMMA)
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
    maxima, _ = _window_maxima(spec, [(0, n) for n in sizes], np.full(R, sizes[-1]),
                               seed=1, tag="dkw")
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
    estimate_theta_single_sequence within 3 SE, the SE of the difference
    being the root sum of squares of the jackknife SE above and the
    estimate's own SE (its order-statistic CI half-width / 1.96)."""
    seed, n = 7, 1000
    est = estimate_theta_single_sequence(spec, GAMMA, [100, n], R=4000, seed=seed,
                                         method="monte-carlo")
    fs, fs_se = intervals_theta(generate(spec, seed, 2_000_000).values, est.rows[-1].level)
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
    values = generate(LindleySpec(step=LINDLEY.step), seed, 2_000_000).values
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
    def synthetic(self):
        values = np.array([2.0, 0.0, 5.0, 1.0, 0.0, 3.0, 0.0, 9.0, 0.0, 2.0])
        marks = np.array([1, 4, 6, 8])
        return SamplePath(spec=LINDLEY, seed=0, values=values,
                          regeneration_marks=marks)

    def test_cycle_decomposition_by_hand(self):
        rs = decompose_regenerative(self.synthetic(), diag_windows=(1,))
        assert rs.cycle_count == 3
        # cycles [1, 4), [4, 6) and [6, 8); the head before the first mark,
        # and the values from the last mark on, belong to no cycle
        np.testing.assert_array_equal(rs.maxima, [5.0, 3.0, 9.0])
        assert rs.mu_hat == pytest.approx(7.0 / 3.0)  # lengths 3, 2, 2
        assert rs.mu_se == pytest.approx(1.0 / 3.0)   # sqrt((1/3) / 3)
        # windows of one: 5 beats 3, 3 loses to 9
        assert rs.zero_cycle_diag == {1: 0.5}

    def test_not_regenerative(self):
        path = generate(IID_EXP, length=50, seed=1)
        with pytest.raises(NotRegenerativeError):
            decompose_regenerative(path)
        one_mark = SamplePath(spec=LINDLEY, seed=0,
                              values=np.zeros(5), regeneration_marks=np.array([0]))
        with pytest.raises(NotRegenerativeError):
            decompose_regenerative(one_mark)

    def test_cycle_floor_needed(self):
        path = generate(LINDLEY, length=400, seed=2)
        rs = decompose_regenerative(path)
        with pytest.raises(InsufficientDataError):
            rootzen_phantom(rs)

    def unit_cycles(self, n=4000):
        # every index regenerates: mu = 1 and the phantom is the marginal itself
        values = rng_for(31, "unit-cycles").random(n)
        return decompose_regenerative(
            SamplePath(spec=LINDLEY, seed=31, values=values,
                       regeneration_marks=np.arange(n)))

    def test_unit_cycle_phantom_recovers_marginal(self):
        rs = self.unit_cycles()
        assert rs.mu_hat == 1.0
        G = rootzen_phantom(rs)
        for p in (0.2, 0.5, 0.9):
            assert float(G.quantile(p)) == pytest.approx(p, abs=0.03)

    def test_cycle_tail_ratio_unit_cycles(self):
        band = cycle_tail_ratio(self.unit_cycles(), uniform(0.0, 1.0), q=0.9)
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
    def hand_stats(maxima):
        maxima = np.asarray(maxima, dtype=float)
        return RegenStats(cycle_count=maxima.size, maxima=maxima, mu_hat=2.5,
                          mu_se=0.0, zero_cycle_diag={})

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
    def test_cycle_tail_ratio_equals_the_sorted_copy_on_a_path(self, q):
        rs = decompose_regenerative(generate(LINDLEY, length=200_000, seed=7))
        assert rs.cycle_count > 10_000
        assert cycle_tail_ratio(rs, LINDLEY.step, q) == \
            self.sorted_cycle_tail(rs, LINDLEY.step, q)

    # 12 maxima, sorted 1 1 2 2 2 2 3 3 4 5 5 7: q C is integral at 0.25, 0.5
    # and 0.75; rank 3 starts the run of 2s, rank 6 ends it, rank 5 (q = 0.4)
    # sits inside it, and rank 12 leaves nothing above
    HAND = [3, 1, 2, 5, 2, 7, 2, 4, 1, 3, 5, 2]

    @pytest.mark.parametrize("q, level, exceedances", [
        (0.05, 1.0, 10), (0.25, 2.0, 6), (0.4, 2.0, 6), (0.5, 2.0, 6),
        (0.75, 4.0, 3), (0.9, 5.0, 1), (0.99, 7.0, 0),
    ])
    def test_cycle_tail_ratio_equals_the_sorted_copy_at_ties(self, q, level,
                                                             exceedances):
        rs, step = self.hand_stats(self.HAND), uniform(0.0, 10.0)
        band = cycle_tail_ratio(rs, step, q)
        assert band == self.sorted_cycle_tail(rs, step, q)
        assert (band.level, band.exceedances) == (level, exceedances)
        one_value = self.hand_stats([4.0] * 12)
        assert cycle_tail_ratio(one_value, step, q) == \
            self.sorted_cycle_tail(one_value, step, q) == \
            CycleTailBand(level=4.0, ratio=0.0, exceedances=0)

    def test_cycle_tail_ratio_allocates_no_cycle_sized_array(self):
        C = 10**6
        rs = self.hand_stats(rng_for(32, "cycle-maxima").random(C))
        rs.cycle_counts  # built before, as the phantom and the CDF file build it
        step = uniform(0.0, 1.0)
        tracemalloc.start()
        try:
            band = cycle_tail_ratio(rs, step, q=0.99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < C, peak  # less than one byte per cycle
        assert band == self.sorted_cycle_tail(rs, step, 0.99)


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
    """theta_from_driving reads the levels it is given; the whole estimate is
    it on the estimate's own driving levels."""

    @pytest.mark.parametrize("spec, method", [
        (MOVMAX2, "exact"),
        (MOVMAX2, "monte-carlo"),
        (LINDLEY, "monte-carlo"),  # no closed-form marginal: an auxiliary path
    ], ids=["exact", "monte-carlo", "auxiliary-path"])
    def test_whole_estimate_is_theta_from_its_driving_levels(self, spec, method):
        sizes = [100, 1000]
        est = estimate_theta_single_sequence(spec, GAMMA, sizes, R=400, seed=31,
                                             method=method)
        dse = estimate_driving_sequence(spec, GAMMA, sizes, R=400, seed=31, method=method)
        assert theta_from_driving(spec, dse, sizes, 31) == est

    def test_reads_the_fit_levels_at_the_requested_sizes(self):
        sizes = [20, 80]
        dse, _ = fit_phantom(METROPOLIS, GAMMA, sizes, 256, seed=32, tag="fit")
        assert len(dse.n_values) > len(sizes)
        est = theta_from_driving(METROPOLIS, dse, sizes, 32)
        rows = [dse.row(n) for n in sizes]
        # the fit's budget: R at the requested sizes, fewer above the largest
        counts = dict(zip(dse.n_values.tolist(), dse.replicas.tolist()))
        assert [counts[n] for n in sizes] == [256, 256]
        assert counts[int(dse.n_values[-1])] == estimate.MIN_REPLICAS
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


class TestFitBudget:
    """fit_phantom's replica budget: R up to the largest block, fewer above."""

    @pytest.mark.parametrize("blocks, R", [([100, 1_000], 512), ([1_000, 10_000], 1_000)],
                             ids=["metropolis-fit", "criterion-8"])
    def test_phantom_se_within_maxlaw_se_at_the_budgeted_knots(self, blocks, R):
        """At the level where a verified block reads a knot above the
        largest block, G^n = gamma^(n/N), the phantom's delta-method SE from
        that knot's replicas stays within the max law's SE from R."""
        sizes = estimate._fit_sizes(blocks)
        counts = estimate._knot_replicas(sizes, R, blocks[-1])
        assert counts[sizes.index(blocks[-1])] == R and counts[-1] == estimate.MIN_REPLICAS
        assert np.all(np.diff(counts) <= 0)
        exact = estimate_driving_sequence(IID_EXP, GAMMA, sizes, method="exact")
        dse = dataclasses.replace(exact, replicas=counts)
        phantom = PhantomDistFn(driving_from_estimates(GAMMA, dse.n_values, dse.v_hat))
        budgeted = [(N, v) for N, v in zip(sizes, dse.v_hat.tolist()) if N > blocks[-1]]
        for n in blocks:
            ver = PhantomVerification(rows=tuple(
                VerifyRow(n=n, gap=0.01, se_at_gap=1.0, level_at_gap=v)
                for _, v in budgeted), sup_gap=0.01)
            for (N, _), row in zip(budgeted, estimate.two_sided_gaps(dse, phantom, ver)):
                p = GAMMA ** (n / N)
                assert row["phantom_replicas"] == counts[sizes.index(N)]
                assert row["phantom_se"] == pytest.approx(
                    p * -math.log(p) * math.sqrt((1 - GAMMA) / (GAMMA * row["phantom_replicas"])),
                    rel=1e-9)
                assert row["phantom_se"] <= math.sqrt(p * (1.0 - p) / R), (n, N)

    @pytest.mark.parametrize("spec", [LINDLEY, METROPOLIS], ids=["lindley", "metropolis"])
    def test_budgeted_table_is_the_full_table_read_at_fewer_replicas(self, spec):
        """Every column up to the budget's block equals the full table's, and
        a column above it holds the first replicas of the full table's scan:
        the budget only drops replicas, it draws nothing new."""
        sizes, R, m = [10, 100, 300, 3_000, SLAB + 100], 600, 100
        budgeted = block_maxima_table(spec, sizes, R, seed=46, tag="budget",
                                      budget_above=m)
        full = block_maxima_table(spec, sizes, R, seed=46, tag="budget")
        scan, _ = _window_maxima(spec, [(0, n) for n in sizes], np.full(R, sizes[-1]),
                                 seed=46, tag="budget")
        counts = [budgeted.replicas[n] for n in sizes]
        assert counts == [600, 600, 290, 200, 200]
        for n, k, col in zip(sizes, counts, scan):
            if n <= m:
                np.testing.assert_array_equal(column(budgeted, n), column(full, n))
            np.testing.assert_array_equal(column(budgeted, n), np.sort(col[:k]))

    def test_two_sided_gap_reads_the_bracketing_knots(self):
        """Between two knots the smaller count; at a knot, or below the
        first, the count of the one knot G reads there."""
        dse = dataclasses.replace(
            estimate_driving_sequence(IID_EXP, GAMMA, [10, 20, 40], method="exact"),
            replicas=np.array([900, 400, 200]))
        phantom = PhantomDistFn(driving_from_estimates(GAMMA, dse.n_values, dse.v_hat))
        v10, v20, v40 = dse.v_hat.tolist()
        levels = [v10 - 0.1, v10, (v10 + v20) / 2, v20, (v20 + v40) / 2, v40]
        ver = PhantomVerification(rows=tuple(
            VerifyRow(n=10, gap=0.02, se_at_gap=0.01, level_at_gap=x) for x in levels),
            sup_gap=0.02)
        rows = estimate.two_sided_gaps(dse, phantom, ver)
        assert [r["phantom_replicas"] for r in rows] == [900, 900, 400, 400, 200, 200]
        for r in rows:
            assert r["z"] == 0.02 / math.hypot(0.01, r["phantom_se"])


class TestTheta:
    def test_moving_max_half(self):
        est = estimate_theta_single_sequence(MOVMAX2, GAMMA, [10_000], method="exact")
        assert est.verdict == "positive"
        assert est.theta_hat == pytest.approx(0.5, abs=0.01)

    def test_iid_is_one(self):
        est = estimate_theta_single_sequence(IID_EXP, GAMMA, [1000], method="exact")
        assert est.verdict == "positive"
        assert est.theta_hat == pytest.approx(1.0, abs=0.01)

    def test_mixture_verdict_zero(self):
        est = estimate_theta_single_sequence(MixtureSpec(), GAMMA, [100, 10_000],
                                             method="exact")
        assert est.verdict == "zero"
        assert est.theta_hat is None

    def test_monte_carlo_tracks_exact(self):
        mc = estimate_theta_single_sequence(MOVMAX2, GAMMA, [2000], R=2000,
                                            seed=29, method="monte-carlo")
        row = mc.rows[0]
        assert row.theta_lo <= 0.5 <= row.theta_hi
