"""Process specs, samplers, closed-form max laws, and chain diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from phantomdf.distributions import (
    exponential,
    mixture_component,
    pareto,
    shifted,
    symmetric_pareto,
    uniform,
)
from phantomdf.errors import InvalidSpecError, NotExactlyComputableError
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
    describe_spec,
    exact_max_cdf,
    generate,
    lindley_step_tail_vs_stationary,
    marginal_sf,
    metropolis_config_check,
    target_tail_condition,
)
from phantomdf.seeding import rng_for

LINDLEY_STEP = shifted(pareto(2.0, 1.0), -2.0)  # mean 1 - 2 = -1


def test_describe_spec_stable():
    assert describe_spec(IIDSpec(exponential(1.0))) == "iid[exp(1)]"
    assert "lindley" in describe_spec(LindleySpec(step=LINDLEY_STEP))


class TestSpecValidation:
    def test_lindley_needs_negative_drift(self):
        with pytest.raises(InvalidSpecError):
            LindleySpec(step=shifted(pareto(2.0, 1.0), -0.5))  # mean +0.5
        with pytest.raises(InvalidSpecError):
            LindleySpec(step=symmetric_pareto(2.0, 1.0))       # mean 0

    def test_metropolis_needs_densities(self):
        with pytest.raises(InvalidSpecError):
            MetropolisSpec(target=symmetric_pareto(2.0, 1.0),
                           proposal=shifted(uniform(0.0, 1.0), 0.25))

    def test_moving_max_window(self):
        with pytest.raises(InvalidSpecError):
            MovingMaxSpec(window=0, base=uniform(0.0, 1.0))


class TestDeterminism:
    @pytest.mark.parametrize("spec", [
        IIDSpec(exponential(1.0)),
        LindleySpec(step=LINDLEY_STEP, burn_in=100),
        MetropolisSpec(target=symmetric_pareto(2.0, 1.0),
                       proposal=uniform(-1.0, 1.0), burn_in=100),
        MixtureSpec(),
        MovingMaxSpec(window=3, base=uniform(0.0, 1.0)),
    ], ids=describe_spec)
    def test_same_seed_same_path(self, spec):
        a = generate(spec, length=300, seed=42)
        b = generate(spec, length=300, seed=42)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values.shape == (300,)
        c = generate(spec, length=300, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_lindley_marks_point_at_zeros(self):
        path = generate(LindleySpec(step=LINDLEY_STEP, burn_in=50), length=5000, seed=7)
        marks = path.regeneration_marks
        assert marks is not None and marks.size > 10
        np.testing.assert_array_equal(path.values[marks], 0.0)
        # every zero inside the kept window is marked
        np.testing.assert_array_equal(np.nonzero(path.values == 0.0)[0], marks)

    def test_mixture_component_recorded(self):
        comps = [generate(MixtureSpec(), length=10, seed=s).mixture_component
                 for s in range(400)]
        comps = np.asarray(comps)
        assert np.all(comps >= 1)
        # P(K = 1) = 1/2; 400 draws keep the frequency within 5 sigma
        f1 = np.mean(comps == 1)
        assert abs(f1 - 0.5) < 5 * math.sqrt(0.25 / 400)


class TestPathSlabs:
    """The one path engine: slab layout, burn-in and per-replica streams."""
    SPECS = [
        IIDSpec(exponential(1.0)),
        LindleySpec(step=LINDLEY_STEP, burn_in=50),
        MetropolisSpec(target=symmetric_pareto(2.0, 1.0),
                       proposal=uniform(-1.0, 1.0), burn_in=50),
        MixtureSpec(),
        MovingMaxSpec(window=3, base=uniform(0.0, 1.0)),
    ]
    LENGTH = 2 * SLAB + 100  # burn-in + LENGTH crosses two slab boundaries

    @staticmethod
    def paths(spec, rngs, length):
        slabs = [s.copy() for s in _path_slabs(spec, rngs, length)]
        burn = default_burn_in(spec)
        # slabs cut burn-in + length at multiples of SLAB; burn-in is dropped
        assert [s.shape[1] for s in slabs] == [SLAB - burn, SLAB, length - 2 * SLAB + burn]
        assert all(s.shape[0] == len(rngs) for s in slabs)
        return np.concatenate(slabs, axis=1)

    @pytest.mark.parametrize("spec", SPECS, ids=describe_spec)
    def test_replica_path_independent_of_chunk(self, spec):
        chunk = self.paths(spec, [rng_for(1, "engine", r) for r in (4, 5, 6)], self.LENGTH)
        alone = self.paths(spec, [rng_for(1, "engine", 5)], self.LENGTH)
        assert chunk.shape == (3, self.LENGTH)
        np.testing.assert_array_equal(chunk[1], alone[0])
        assert not np.array_equal(chunk[0], chunk[1])

    @pytest.mark.parametrize("spec", [SPECS[0], SPECS[3], SPECS[4]], ids=describe_spec)
    def test_stream_continues_across_slabs(self, spec):
        # without a chain state, the values are those of one long draw
        path = generate(spec, length=self.LENGTH, seed=9)
        rng = rng_for(9, "path", describe_spec(spec))
        if isinstance(spec, MovingMaxSpec):
            raw = spec.base.draw(rng, self.LENGTH + spec.window - 1)
            want = np.lib.stride_tricks.sliding_window_view(raw, spec.window).max(axis=1)
        elif isinstance(spec, MixtureSpec):
            k = _mixture_draw_component(rng)
            assert path.mixture_component == k
            want = mixture_component(k).draw(rng, self.LENGTH)
        else:
            want = spec.marginal.draw(rng, self.LENGTH)
        np.testing.assert_array_equal(path.values, want)

    @pytest.mark.parametrize("spec", SPECS, ids=describe_spec)
    def test_generate_is_one_engine_row(self, spec):
        path = generate(spec, length=self.LENGTH, seed=9)
        rng = rng_for(9, "path", describe_spec(spec))
        np.testing.assert_array_equal(path.values, self.paths(spec, [rng], self.LENGTH)[0])
        assert path.burn_in == default_burn_in(spec)


def metropolis_row_major(spec, rngs, length):
    """Reference Metropolis chains: the row-major loop, one column per step."""
    rows, burn = len(rngs), default_burn_in(spec)
    total = burn + length
    x = np.full(rows, spec.init if spec.init is not None
                else float(spec.target.quantile(0.5)))
    fx = np.asarray(spec.target.pdf(x), dtype=float)
    slabs = []
    for pos in range(0, total, SLAB):
        s_len = min(SLAB, total - pos)
        z = np.empty((rows, s_len))
        u = np.empty((rows, s_len))
        for i, rng in enumerate(rngs):
            z[i] = spec.proposal.draw(rng, s_len)
            u[i] = rng.random(s_len)
        xs = np.empty((rows, s_len))
        for t in range(s_len):
            y = x + z[:, t]
            fy = np.asarray(spec.target.pdf(y), dtype=float)
            acc = u[:, t] * fx <= fy
            x = np.where(acc, y, x)
            fx = np.where(acc, fy, fx)
            xs[:, t] = x
        slabs.append(xs)
    return np.concatenate(slabs, axis=1)[:, burn:]


def moving_max_concatenated(spec, rngs, length):
    """Reference moving-max slabs: each slab's draws joined to the carry."""
    rows, m = len(rngs), spec.window
    carry = np.empty((rows, m - 1))
    for i, rng in enumerate(rngs):
        carry[i] = spec.base.draw(rng, m - 1)
    slabs = []
    for pos in range(0, length, SLAB):
        s_len = min(SLAB, length - pos)
        fresh = np.empty((rows, s_len))
        for i, rng in enumerate(rngs):
            fresh[i] = spec.base.draw(rng, s_len)
        raw = np.concatenate([carry, fresh], axis=1)
        slabs.append(np.lib.stride_tricks.sliding_window_view(raw, m, axis=1).max(axis=2))
        carry = raw[:, s_len:]
    return np.concatenate(slabs, axis=1)


class TestSlabKernels:
    """The slab kernels against references, and their memory."""
    METROPOLIS = MetropolisSpec(target=symmetric_pareto(2.0, 1.0),
                                proposal=uniform(-1.0, 1.0), burn_in=100)
    LINDLEY = LindleySpec(step=LINDLEY_STEP, burn_in=100)
    MOVING_MAX = MovingMaxSpec(window=5, base=exponential(1.0))
    BUDGETS = {"metropolis": (METROPOLIS, 2.25), "lindley": (LINDLEY, 1.25),
               "moving-max": (MOVING_MAX, 2.25)}
    ROWS = 256  # the replica chunk cap
    SLAB_BYTES = ROWS * SLAB * 8  # one float64 slab array of a full chunk

    @staticmethod
    def metropolis_pair(spec, rows, length):
        """The slab kernel's paths and the reference loop's, same streams."""
        got = np.concatenate([s.copy() for s in _path_slabs(
            spec, [rng_for(4, "kernel", r) for r in range(rows)], length)], axis=1)
        want = metropolis_row_major(
            spec, [rng_for(4, "kernel", r) for r in range(rows)], length)
        assert got.shape == (rows, length)
        return got, want

    # row counts below, at and across multiples of the fill group FILL_ROWS
    @pytest.mark.parametrize("rows", [1, 3, FILL_ROWS + 1, ROWS, ROWS + 1])
    def test_metropolis_equals_row_major_loop(self, rows):
        length = SLAB + 200  # burn-in + length crosses a slab boundary
        np.testing.assert_array_equal(*self.metropolis_pair(self.METROPOLIS, rows, length))

    def test_metropolis_zero_density_state_always_moves(self):
        # started at -5, outside the support of uniform(0, 1): while a state
        # has density 0, u * 0 <= f(y) accepts every proposal, so the chain
        # moves by its increment at every such step; the kernel keeps this
        # rule row for row
        spec = MetropolisSpec(target=uniform(0.0, 1.0), proposal=uniform(-1.0, 1.0),
                              burn_in=0, init=-5.0)
        rows, length = FILL_ROWS + 1, SLAB + 200
        got, want = self.metropolis_pair(spec, rows, length)
        np.testing.assert_array_equal(got, want)
        prev = np.concatenate([np.full((rows, 1), -5.0), got[:, :-1]], axis=1)
        outside = np.asarray(spec.target.pdf(prev)) == 0.0
        # a walk from -5 takes at least 5 steps of length <= 1 into [0, 1],
        # and some rows get there within the path
        assert np.all(outside[:, :5]) and not outside.all()
        # the first slab's increments are each row's first SLAB draws
        z = np.array([spec.proposal.draw(rng_for(4, "kernel", r), SLAB)
                      for r in range(rows)])
        head = outside[:, :SLAB]
        np.testing.assert_array_equal(got[:, :SLAB][head], (prev[:, :SLAB] + z)[head])
        assert np.all(got[outside] != prev[outside])

    @pytest.mark.parametrize("window", [1, 2, 5])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_moving_max_equals_concatenated_windows(self, window, rows):
        spec = MovingMaxSpec(window=window, base=exponential(1.0))
        length = 2 * SLAB + 300
        got = np.concatenate([s.copy() for s in _path_slabs(
            spec, [rng_for(5, "kernel", r) for r in range(rows)], length)], axis=1)
        want = moving_max_concatenated(
            spec, [rng_for(5, "kernel", r) for r in range(rows)], length)
        assert got.shape == (rows, length)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kind", ["metropolis", "lindley", "moving-max"])
    def test_one_full_chunk_slab_fits_its_budget(self, kind):
        # Metropolis: increments and uniforms, the chain state written over the
        # increments, and a FILL_ROWS-row fill scratch (an eighth of a slab
        # array at 256 rows; 2.13 slab arrays in all); Lindley: the steps, cumsum and reflection in place;
        # moving-max: the draws after the carry, folded into window maxima in
        # place (each fold may copy its shifted input).  The quarter slab
        # array left over covers per-row draws and per-step temps.
        spec, budget = self.BUDGETS[kind]
        rngs = [rng_for(6, "memory", r) for r in range(self.ROWS)]
        length = SLAB - default_burn_in(spec)  # burn-in + length is one slab
        slabs = _path_slabs(spec, rngs, length)
        tracemalloc.start()
        try:
            slab = next(slabs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert slab.shape == (self.ROWS, length)
        assert peak <= budget * self.SLAB_BYTES, peak / self.SLAB_BYTES

    @pytest.mark.parametrize("kind", ["metropolis", "lindley", "moving-max"])
    def test_three_full_slabs_fit_the_same_budget(self, kind):
        # every slab reuses the buffers of the one before, so a caller that
        # holds the previous slab while it asks for the next costs nothing
        spec, budget = self.BUDGETS[kind]
        rngs = [rng_for(7, "memory", r) for r in range(self.ROWS)]
        length = 3 * SLAB - default_burn_in(spec)
        slabs = _path_slabs(spec, rngs, length)
        widths = []
        tracemalloc.start()
        try:
            for slab in slabs:
                widths.append(slab.shape[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert widths == [SLAB - default_burn_in(spec), SLAB, SLAB]
        assert peak <= budget * self.SLAB_BYTES, peak / self.SLAB_BYTES


class TestExactMaxLaws:
    def test_iid_power(self):
        F = exponential(1.0)
        spec = IIDSpec(F)
        assert exact_max_cdf(spec, 10, 1.3) == pytest.approx(float(F.cdf(1.3)) ** 10, rel=1e-12)

    def test_moving_max_power(self):
        # window m: P(M_n <= x) = F_base(x)**(n + m - 1)
        spec = MovingMaxSpec(window=2, base=uniform(0.0, 1.0))
        assert exact_max_cdf(spec, 10, 0.9) == pytest.approx(0.9 ** 11, rel=1e-12)

    def test_mixture_product_form(self):
        # P(M_n <= v_j) = (1 - 1/j)**n * (1 - 1/(isqrt(j) + 1))
        spec = MixtureSpec()
        got = exact_max_cdf(spec, 100, 100.0)
        assert got == pytest.approx(0.99 ** 100 * (10.0 / 11.0), rel=1e-12)
        assert exact_max_cdf(spec, 5, 0.5) == 0.0

    def test_simulated_kinds_have_no_closed_form(self):
        for spec in (LindleySpec(step=LINDLEY_STEP),
                     MetropolisSpec(target=symmetric_pareto(2.0, 1.0),
                                    proposal=uniform(-1.0, 1.0))):
            with pytest.raises(NotExactlyComputableError):
                exact_max_cdf(spec, 10, 1.0)

    def test_mixture_marginal_sf(self):
        # 1/(K+1) + (1/j)(1 - 1/(K+1)) with K = isqrt(j); j = 100 gives 1/10
        assert marginal_sf(MixtureSpec(), 100.0) == pytest.approx(0.1, rel=1e-12)
        assert marginal_sf(MixtureSpec(), 0.5) == 1.0

    def test_monte_carlo_agrees_with_mixture_law(self):
        """Empirical max-law frequencies stay within 4 binomial SE of the formula."""
        spec = MixtureSpec()
        n, R = 50, 2000
        maxima = np.array([generate(spec, length=n, seed=s).values.max()
                           for s in range(R)])
        for x in (25.0, 100.0, 400.0):
            p = exact_max_cdf(spec, n, x)
            se = math.sqrt(p * (1.0 - p) / R)
            assert abs(np.mean(maxima <= x) - p) <= 4.0 * se


class TestLindley:
    def test_reflection_matches_direct_recursion(self):
        burn, length = 200, 2 * SLAB  # the kept window crosses two slab boundaries
        # drift -0.1 keeps the chain away from 0 at the slab boundaries
        for drift in (-1.0, -0.1):
            step = shifted(pareto(2.0, 1.0), drift - 1.0)
            spec = LindleySpec(step=step, burn_in=burn)
            path = generate(spec, length=length, seed=11)
            # replay the path's step draws and run X_{j+1} = max(X_j + Z_j, 0)
            # from X_0 = 0 one step at a time
            z = step.draw(rng_for(11, "path", describe_spec(spec)), burn + length)
            direct = np.empty(z.size)
            x = 0.0
            for j, dz in enumerate(z):
                x = max(x + dz, 0.0)
                direct[j] = x
            np.testing.assert_allclose(path.values, direct[burn:], rtol=0.0, atol=1e-6)
            resets = path.values == 0
            np.testing.assert_array_equal(resets, direct[burn:] == 0.0)
            assert resets.any() and not resets.all()

    def test_default_burn_in_scales_with_drift(self):
        assert default_burn_in(LindleySpec(step=LINDLEY_STEP)) >= 10_000

    def test_step_tail_dominates_stationary(self):
        path = generate(LindleySpec(step=LINDLEY_STEP), length=200_000, seed=3)
        rep = lindley_step_tail_vs_stationary(LINDLEY_STEP, path)
        assert rep.verdict == "ratio->0"


class TestMetropolis:
    spec = MetropolisSpec(target=symmetric_pareto(2.0, 1.0),
                          proposal=uniform(-1.0, 1.0), burn_in=2000)

    def test_config_check_passes_on_interval(self):
        chk = metropolis_config_check(self.spec.target.pdf, self.spec.proposal.pdf,
                                      0.0, 3.0)
        assert chk.ok
        assert chk.proposal_floor == pytest.approx(0.5)
        assert chk.max_constancy_run == 0.0

    def test_config_check_flags_flat_target(self):
        flat = uniform(-5.0, 5.0)
        chk = metropolis_config_check(flat.pdf, self.spec.proposal.pdf, 0.0, 3.0)
        assert not chk.ok
        assert chk.max_constancy_run > 0.0

    def test_tail_condition_prefers_flat_tails(self):
        assert target_tail_condition(symmetric_pareto(2.0, 1.0), 1.0).holds
        # exponential tails: P(x < X <= x+1)/P(X > x) = 1 - e**-1, never small
        assert not target_tail_condition(exponential(1.0), 1.0).holds

    def test_marginal_matches_target(self):
        """Long chain, invariant law: empirical cdf near the target cdf."""
        path = generate(self.spec, length=60_000, seed=5)
        x = np.sort(path.values)
        target_cdf = np.asarray(self.spec.target.cdf(x))
        ecdf = np.arange(1, x.size + 1) / x.size
        # dependent draws, so allow a few times the iid band
        assert np.max(np.abs(ecdf - target_cdf)) < 0.03

    def test_zero_density_state_always_accepts(self):
        # started at -5, outside the support of uniform(0, 1): the current and
        # every proposed density is 0, and 0 <= 0 accepts, so the chain moves
        # by its proposal increment on every step, the first one included
        proposal = uniform(-1.0, 1.0)
        spec = MetropolisSpec(target=uniform(0.0, 1.0), proposal=proposal,
                              burn_in=0, init=-5.0)
        path = generate(spec, length=3, seed=13)
        z = proposal.draw(rng_for(13, "path", describe_spec(spec)), 3)
        np.testing.assert_array_equal(path.values, np.add.accumulate([-5.0, *z])[1:])
        assert path.values[0] != -5.0

    def test_default_burn_in(self):
        assert default_burn_in(self.spec) == 2000
        assert default_burn_in(MetropolisSpec(target=symmetric_pareto(2.0, 1.0),
                                              proposal=uniform(-1.0, 1.0))) == 10_000
