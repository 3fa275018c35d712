"""Monte Carlo estimators: driving levels, factorization checks, cycles.

Monte Carlo assertions run at fixed seeds with wide z-score margins
(4 SE unless noted), so they are regression tests, not flaky coin flips.
"""

import math
import os
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
    DrivingSeqEstimate,
    _chunk_plan,
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
)
from phantomdf.phantom import driving_from_estimates
from phantomdf.processes import (
    IIDSpec,
    LindleySpec,
    MetropolisSpec,
    MixtureSpec,
    MovingMaxSpec,
    SLAB,
    SamplePath,
    _path_slabs,
    default_burn_in,
    exact_max_cdf,
    generate,
)
from phantomdf.seeding import rng_for

GAMMA = math.exp(-1.0)
IID_EXP = IIDSpec(exponential(1.0))
MOVMAX2 = MovingMaxSpec(window=2, base=uniform(0.0, 1.0))
LINDLEY = LindleySpec(step=shifted(pareto(2.0, 1.0), -2.0), burn_in=300)
METROPOLIS = MetropolisSpec(target=symmetric_pareto(2.0, 1.0),
                            proposal=uniform(-1.0, 1.0), burn_in=200)


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
        dse = driving_from_maxima(GAMMA, table, R)
        s = np.sort(table[50])
        assert dse.level_for(50) == s[math.ceil(GAMMA * R) - 1]
        # coverage on the sample itself cannot fall below gamma
        assert np.mean(table[50] <= dse.level_for(50)) >= GAMMA

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
        a = block_maxima_table(LINDLEY, [50, 200], 240, seed=9, tag="w")
        b = block_maxima_table(LINDLEY, [50, 200], 240, seed=9, tag="w", workers=3)
        for n in (50, 200):
            np.testing.assert_array_equal(a[n], b[n])

    def test_tag_separates_streams(self):
        a = block_maxima_table(IID_EXP, [50], 300, seed=9, tag="x")
        b = block_maxima_table(IID_EXP, [50], 300, seed=9, tag="y")
        assert not np.array_equal(a[50], b[50])

    def test_markov_and_transform_maxima_nondecreasing_in_n(self):
        for spec in (MOVMAX2, LINDLEY):
            t = block_maxima_table(spec, [25, 100], 210, seed=4, tag="mono")
            assert np.all(t[100] >= t[25] - 1e-12)


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


# a quantile that is not monotone, so its columns come out unsorted
WOBBLE = IIDSpec(DistFn(name="wobble", cdf=lambda x: np.clip(x, -1.0, 1.0),
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
        assert list(table) == self.SIZES and len(table) == len(self.SIZES)
        for n in self.SIZES:
            np.testing.assert_array_equal(table[n], np.sort(old[n]))
        assert 3 not in table
        with pytest.raises(KeyError):
            table[3]

    def test_estimators_sort_a_column_that_is_not_ascending(self):
        R = 1000
        table = block_maxima_table(WOBBLE, self.SIZES, R, seed=22, tag="guard")
        old = replica_order_transform_maxima(WOBBLE, self.SIZES, R, 22, "guard")
        ref = {n: np.sort(old[n]) for n in self.SIZES}
        for n in self.SIZES:
            assert not np.all(np.diff(table[n]) >= 0)  # the guard has work to do
            np.testing.assert_array_equal(estimate._ascending(table[n]), ref[n])
        got, want = driving_from_maxima(GAMMA, table, R), driving_from_maxima(GAMMA, ref, R)
        for field in ("v_hat", "ci_lo", "ci_hi"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert got.raw_violations == want.raw_violations
        got, want = maxlaw_from_maxima(table, R), maxlaw_from_maxima(ref, R)
        for a, b in zip(got.rows, want.rows, strict=True):
            assert a.n == b.n
            for field in ("levels", "p_hat", "se"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    @staticmethod
    def fit_peak(blocks, R):
        tracemalloc.start()
        try:
            fit_phantom(MOVMAX2, GAMMA, blocks, R, seed=23, tag="memory")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

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


class TestMaxLaw:
    def test_monte_carlo_within_4se_of_exact(self):
        R = 1000
        table = block_maxima_table(MOVMAX2, [20, 80], R, seed=11, tag="maxlaw")
        est = maxlaw_from_maxima(table, R, probs=np.linspace(0.002, 0.998, 41))
        for row in est.rows:
            exact = np.array([exact_max_cdf(MOVMAX2, row.n, float(x))
                              for x in row.levels])
            se = np.maximum(row.se, 1.0 / R)
            assert np.max(np.abs(row.p_hat - exact) / se) <= 4.0

    def test_exact_grid(self):
        probs = np.linspace(0.002, 0.998, 41)
        est = exact_maxlaw(MOVMAX2, [20, 80], probs=probs)
        assert est.method == "exact" and est.replicas == 0
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
        cap = float(np.median(table[50]))
        est = maxlaw_from_maxima(table, R, level_cap=cap)
        assert est.row(50).levels.max() <= cap
        assert est.row(50).levels.size >= 10


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
        rep = check_BT(IID_EXP,
                       estimate_driving_sequence(IID_EXP, GAMMA, [100, 1000], method="exact"),
                       method="exact")
        prods = [row.r_tail_product for row in rep.rows]
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
        got = _window_maxima(spec, windows, self.R, seed=44, tag="win", workers=workers)
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
            np.testing.assert_array_equal(table[n], seg[:, :n].max(axis=1))

    @pytest.mark.parametrize("spec, n, fractions", [
        (LINDLEY, 8_200, ((0.5, 0.5), (1.0, 0.5), (0.5, 1.0), (1.0, 1.0))),
        (EARLY_CUT, 100, ((0.05, 0.02),)),  # r_n = 4, pair (5, 2), level 0
    ], ids=["long-pairs", "straddling-window"])
    def test_check_bt_matches_dense_reference(self, spec, n, fractions):
        seed = 41
        assert default_burn_in(spec) + 2 * n > SLAB
        seg = self.dense(seed, f"bt-{n}", 2 * n, spec)
        v = float(np.median(seg[:, :n].max(axis=1))) if n > 100 else 0.0
        dse = DrivingSeqEstimate(gamma=GAMMA, n_values=np.array([n]), v_hat=np.array([v]),
                                 ci_lo=np.array([v]), ci_hi=np.array([v]),
                                 method="monte-carlo", replicas=self.R)
        row = check_BT(spec, dse, pair_fractions=fractions, R=self.R, seed=seed,
                       method="monte-carlo").rows[0]
        exceed = seg > v
        fi = np.where(exceed.any(axis=1), exceed.argmax(axis=1) + 1, 2 * n + 1)
        for pair in row.pairs:
            p, q = pair.p, pair.q
            assert pair.value == np.mean(fi > p + q) - np.mean(fi > p) * np.mean(fi > q)
        assert row.b_value == max(abs(pair.value) for pair in row.pairs)
        p, q = row.worst_pair
        a = (fi > max(p - row.r_n, 0)).astype(float)
        b = (~exceed[:, p:p + q].any(axis=1)).astype(float)
        assert 0.0 < a.mean() < 1.0 and 0.0 < b.mean() < 1.0
        assert row.cov_diag == np.mean(a * b) - a.mean() * b.mean()
        assert row.r_tail_product == row.r_n * np.mean(exceed[:, 0])

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
        diag = estimate_Cn(spec, v, n=n, m=m, k=k, R=self.R, seed=seed)
        want = np.minimum.accumulate(skel <= v, axis=1).mean(axis=0)
        assert 0.0 < want[-1] < want[0] < 1.0
        np.testing.assert_array_equal(diag.skeleton_probs, want)
        assert diag.p_single == np.mean(seg[:, 0] <= v)
        assert diag.p_max_n == np.mean(seg.max(axis=1) <= v)


class TestWorkerPool:
    """Replica chunks run in forked worker processes; every replica owns its
    substream, so one worker and two give equal arrays."""
    R = 256

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        # two processes even on a one-core machine, so the pool path runs
        monkeypatch.setattr(estimate.os, "cpu_count", lambda: 2)

    def test_chunk_plan_clamps_workers_to_cores(self, monkeypatch):
        monkeypatch.setattr(estimate.os, "cpu_count", lambda: 4)
        chunks, procs = _chunk_plan(1000, 10**6)
        assert procs == 4
        assert chunks == [(0, 250), (250, 500), (500, 750), (750, 1000)]
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert _chunk_plan(3, 10**6) == ([(0, 1), (1, 2), (2, 3)], 3)
        assert _chunk_plan(100, 3) == ([(0, 34), (34, 68), (68, 100)], 3)
        # one worker: chunks stop at the 256-replica cap
        assert _chunk_plan(1000, 1) == (
            [(0, 256), (256, 512), (512, 768), (768, 1000)], 1)
        monkeypatch.setattr(estimate.os, "cpu_count", lambda: None)
        assert _chunk_plan(1000, 10**6)[1] == 1

    @pytest.mark.parametrize("workers", [0, -1])
    def test_chunk_plan_rejects_nonpositive_workers(self, workers):
        with pytest.raises(InvalidArgumentError):
            _chunk_plan(self.R, workers)

    def test_map_chunks_forks_only_for_more_than_one_worker(self):
        def where(lo, hi):  # a closure: it reaches the workers by fork, not pickle
            return os.getpid()

        serial = _map_chunks(where, self.R, 1)
        assert [b for b, _ in serial] == [(0, 256)]
        assert {pid for _, pid in serial} == {os.getpid()}
        pooled = _map_chunks(where, self.R, 2)
        assert [b for b, _ in pooled] == [(0, 128), (128, 256)]
        assert os.getpid() not in {pid for _, pid in pooled}

    def test_worker_error_reaches_caller_as_invalid_argument(self):
        def chunk(lo, hi):
            if lo > 0:
                raise InvalidArgumentError(f"bad chunk {lo}")
            return os.getpid()

        with pytest.raises(InvalidArgumentError, match="bad chunk 128"):
            _map_chunks(chunk, self.R, 2)

    def test_metropolis_block_maxima_pool_invariant(self):
        sizes = [1, 10, 50, 300]
        a = block_maxima_table(METROPOLIS, sizes, self.R, seed=3, tag="pool")
        b = block_maxima_table(METROPOLIS, sizes, self.R, seed=3, tag="pool",
                               workers=2)
        for n in sizes:
            np.testing.assert_array_equal(a[n], b[n])

    def test_monte_carlo_check_bt_pool_invariant(self, monkeypatch):
        seen = []

        def spy(fn, R, workers):
            result = _map_chunks(fn, R, workers)
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
        assert len(scans[0]) == len(scans[1]) == 2  # one scan per block size
        for n, one, two in zip([20, 80], *scans):
            maxima = [np.concatenate([m for _, m in s], axis=1) for s in (one, two)]
            np.testing.assert_array_equal(*maxima)  # every window, one row each
            below = maxima[0] <= dse.level_for(n)
            assert maxima[0].shape[1] == self.R and np.isfinite(maxima[0]).all()
            # not degenerate: replicas differ, and each window exceeds v somewhere
            assert all(np.unique(row).size > 2 for row in maxima[0])
            assert 0 < below.mean() < 1 and not below.all(axis=1).any()
        for r1, r2 in zip(reports[0].rows, reports[1].rows):
            assert r1.b_value == r2.b_value and r1.cov_diag == r2.cov_diag
            assert [(p.value, p.se) for p in r1.pairs] == [(p.value, p.se) for p in r2.pairs]

    def test_estimate_cn_pool_invariant(self):
        v = float(symmetric_pareto(2.0, 1.0).quantile(0.99))
        a, b = (estimate_Cn(METROPOLIS, v, n=400, m=20, k=10, R=self.R,
                            seed=5, workers=w) for w in (1, 2))
        assert 0.0 < a.p_max_n < 1.0
        np.testing.assert_array_equal(a.skeleton_probs, b.skeleton_probs)
        assert (a.c_hat, a.p_single, a.p_max_n) == (b.c_hat, b.p_single, b.p_max_n)


class TestCn:
    def test_iid_skeleton_factorizes(self):
        v = float(exponential(1.0).quantile(GAMMA ** (1.0 / 60.0)))
        diag = estimate_Cn(IID_EXP, v, n=60, m=3, k=10, R=600, seed=17, gamma=GAMMA)
        assert diag.c_hat < 0.08
        assert diag.sandwich_lower_ok and diag.sandwich_upper_ok
        assert 2 <= diag.worst_j <= 10

    def test_propbasic_bounded_for_iid(self):
        dse = estimate_driving_sequence(IID_EXP, GAMMA, [100, 400], method="exact")
        series = propbasic_series(IID_EXP, dse, R=400, seed=23)
        assert [(r.n, r.k, r.m) for r in series.rows] == [(100, 10, 10), (400, 20, 20)]
        assert not series.diverging
        # k_n P(X_1 > v_n) ~ 1/sqrt(n) stays below 1 for the exp marginal
        assert series.max_k_tail < 1.0
        # gamma <= P(M_n <= v_n) <= P(X_1 <= v_n)**k + k C_hat within 3 SE
        assert all(r.sandwich_ok for r in series.rows)

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
    maxima = _window_maxima(spec, [(0, n) for n in sizes], R, seed=1, tag="dkw")
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
        np.testing.assert_array_equal(rs.waits, [3, 2, 2])
        np.testing.assert_array_equal(rs.maxima, [5.0, 3.0, 9.0])
        assert rs.mu_hat == pytest.approx(7.0 / 3.0)
        assert rs.head_wait == 1 and rs.head_max == 2.0
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
