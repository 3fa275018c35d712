"""Process specs, samplers, closed-form max laws, and chain diagnostics."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from phantomdf.distributions import (
    beta_law,
    dkw_epsilon,
    exponential,
    mixture_component,
    pareto,
    shifted,
    symmetric_pareto,
    uniform,
)
from phantomdf.errors import InvalidArgumentError, InvalidSpecError, NotExactlyComputableError
from phantomdf import estimate
from phantomdf.estimate import _chunk_rows, _window_maxima, block_maxima_table
from phantomdf.grids import PROBE_TAILS, ascending_distinct, classify_ratio_track
from phantomdf.processes import (
    EMPIRICAL_RATIO_TOL,
    FILL_ROWS,
    IIDSpec,
    LindleySpec,
    MAX_BURN_IN,
    MetropolisSpec,
    MixtureSpec,
    MovingMaxSpec,
    SLAB,
    U_STEPS,
    _VERDICT,
    _empirical_tail,
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
from phantomdf.reporting import path_file_text
from phantomdf.seeding import rng_for

LINDLEY_STEP = shifted(pareto(2.0, 1.0), -2.0)  # mean 1 - 2 = -1; burn-in 10,000


def lindley_with_burn_in(burn: int) -> LindleySpec:
    """A Lindley spec whose burn-in is ``burn`` >= DEFAULT_BURN_IN steps:
    a uniform(-1, 1) step shifted to the mean -20 / (burn - 0.5), so that
    ceil(20 / |mean|) is ``burn``."""
    spec = LindleySpec(step=shifted(uniform(-1.0, 1.0), -20.0 / (burn - 0.5)))
    assert default_burn_in(spec) == burn
    return spec


def path_header(spec, seed, values) -> dict[str, str]:
    """The ``# key: value`` lines that head the path file of ``values``."""
    head = next(path_file_text(spec, seed, values)).split("\n")
    return dict(line[2:].split(": ", 1) for line in head
                if line.startswith("# ") and ": " in line)


# uniform(0, 1) with a sampler that draws -5, where its density is 0, and
# draws nothing from its generator
ZERO_DENSITY_START = dataclasses.replace(
    uniform(0.0, 1.0), sampler=lambda rng, size: np.full(size, -5.0))


def test_describe_spec_stable():
    assert describe_spec(IIDSpec(exponential(1.0))) == "iid[exp(1)]"
    assert "lindley" in describe_spec(LindleySpec(step=LINDLEY_STEP))
    assert describe_spec(MetropolisSpec(target=uniform(0.0, 1.0),
                                        proposal=uniform(-1.0, 1.0))) == \
        "metropolis[target=uniform(0,1),proposal=uniform(-1,1)]"


class TestSpecValidation:
    @pytest.mark.parametrize("offset, burn", [(-1e-12, "2e+13"), (-5e-324, "inf")])
    def test_lindley_step_mean_near_0_is_refused(self, offset, burn):
        # 20 / |mean| steps of burn-in; the division overflows at -5e-324
        with pytest.raises(InvalidSpecError, match=f"step mean {offset!r} needs a "
                           f"burn-in of {re.escape(burn)} steps"):
            LindleySpec(step=shifted(uniform(-1.0, 1.0), offset))

    def test_lindley_burn_in_is_capped(self):
        assert default_burn_in(lindley_with_burn_in(MAX_BURN_IN)) == MAX_BURN_IN
        with pytest.raises(InvalidSpecError, match=f"at most {MAX_BURN_IN} are allowed"):
            lindley_with_burn_in(MAX_BURN_IN + 1)

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

    @pytest.mark.parametrize("build", [
        lambda law: IIDSpec(law),
        lambda law: MovingMaxSpec(window=2, base=law),
        lambda law: MetropolisSpec(target=symmetric_pareto(2.0, 1.0), proposal=law),
    ], ids=["iid-marginal", "moving-max-base", "metropolis-proposal"])
    def test_a_law_read_through_its_quantile_needs_one(self, build):
        law = dataclasses.replace(uniform(-1.0, 1.0), quantile=None)
        with pytest.raises(InvalidSpecError, match="law 'uniform\\(-1,1\\)' needs a quantile"):
            build(law)


class TestDeterminism:
    @pytest.mark.parametrize("spec", [
        IIDSpec(exponential(1.0)),
        LindleySpec(step=LINDLEY_STEP),
        MetropolisSpec(target=symmetric_pareto(2.0, 1.0), proposal=uniform(-1.0, 1.0)),
        MixtureSpec(),
        MovingMaxSpec(window=3, base=uniform(0.0, 1.0)),
    ], ids=describe_spec)
    def test_same_seed_same_path(self, spec):
        a = generate(spec, length=300, seed=42)
        b = generate(spec, length=300, seed=42)
        np.testing.assert_array_equal(a, b)
        assert type(a) is np.ndarray and a.shape == (300,)
        c = generate(spec, length=300, seed=43)
        assert not np.array_equal(a, c)

    def test_mixture_component_recorded(self):
        spec = MixtureSpec()
        comps = [int(path_header(spec, s, generate(spec, length=10, seed=s))["component"])
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
        LindleySpec(step=LINDLEY_STEP),
        MetropolisSpec(target=symmetric_pareto(2.0, 1.0), proposal=uniform(-1.0, 1.0)),
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

    # one value, less than a slab, and just across one and two slab
    # boundaries: buffers are sized to burn-in + length, not to a full slab
    @pytest.mark.parametrize("length", [1, SLAB - 150, SLAB + 10, 2 * SLAB + 5])
    @pytest.mark.parametrize("spec", SPECS, ids=describe_spec)
    def test_slabs_cut_any_length_at_multiples_of_slab(self, spec, length):
        burn = default_burn_in(spec)
        total = burn + length
        cuts = [min(pos + SLAB, total) - max(pos, burn) for pos in range(0, total, SLAB)
                if pos + SLAB > burn]

        def run(rows):
            slabs = [s.copy() for s in _path_slabs(
                spec, [rng_for(2, "cut", r) for r in rows], length)]
            assert [s.shape for s in slabs] == [(len(rows), w) for w in cuts]
            return np.concatenate(slabs, axis=1)

        chunk = run((4, 5, 6))
        np.testing.assert_array_equal(chunk[1], run((5,))[0])
        if not isinstance(spec, MetropolisSpec):
            # one draw per step from one stream: a shorter path is the start
            # of the longer one (a Metropolis slab draws all its increments
            # before its uniforms, so its values depend on where it stops)
            longer = self.paths(spec, [rng_for(2, "cut", r) for r in (4, 5, 6)],
                                self.LENGTH)
            np.testing.assert_array_equal(chunk, longer[:, :length])

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
            assert path_header(spec, 9, path)["component"] == str(k)
            want = mixture_component(k).draw(rng, self.LENGTH)
        else:
            want = spec.marginal.draw(rng, self.LENGTH)
        np.testing.assert_array_equal(path, want)

    @pytest.mark.parametrize("spec", SPECS, ids=describe_spec)
    def test_generate_is_one_engine_row(self, spec):
        path = generate(spec, length=self.LENGTH, seed=9)
        rng = rng_for(9, "path", describe_spec(spec))
        np.testing.assert_array_equal(path, self.paths(spec, [rng], self.LENGTH)[0])
        assert path_header(spec, 9, path)["burn_in"] == str(default_burn_in(spec))


def metropolis_row_major(spec, rngs, length):
    """Reference Metropolis chains: the row-major loop, one column per step.

    A chain starts at its row's first draw of the target, taken before its
    increments.  It accepts by the ratio rule u f(x) <= f(y) on the
    target's density f = exp(logpdf), where the kernel compares logarithms.
    """
    rows = len(rngs)
    x = np.array([spec.target.draw(rng, 1)[0] for rng in rngs])
    fx = np.exp(spec.target.logpdf(x))
    slabs = []
    for pos in range(0, length, SLAB):
        s_len = min(SLAB, length - pos)
        z = np.empty((rows, s_len))
        u = np.empty((rows, s_len))
        for i, rng in enumerate(rngs):
            z[i] = spec.proposal.draw(rng, s_len)
            u[i] = rng.random(s_len)
        xs = np.empty((rows, s_len))
        for t in range(s_len):
            y = x + z[:, t]
            fy = np.exp(spec.target.logpdf(y))
            acc = u[:, t] * fx <= fy
            x = np.where(acc, y, x)
            fx = np.where(acc, fy, fx)
            xs[:, t] = x
        slabs.append(xs)
    return np.concatenate(slabs, axis=1)


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
                                proposal=uniform(-1.0, 1.0))
    LINDLEY = LindleySpec(step=LINDLEY_STEP)
    MOVING_MAX = MovingMaxSpec(window=5, base=exponential(1.0))
    BUDGETS = {"metropolis": (METROPOLIS, 1.25), "lindley": (LINDLEY, 1.25),
               "moving-max": (MOVING_MAX, 2.25)}
    ROWS = 256  # eight fill groups

    @staticmethod
    def metropolis_pair(spec, rows, length):
        """The slab kernel's paths and the reference loop's, same streams."""
        got = np.concatenate([s.copy() for s in _path_slabs(
            spec, [rng_for(4, "kernel", r) for r in range(rows)], length)], axis=1)
        want = metropolis_row_major(
            spec, [rng_for(4, "kernel", r) for r in range(rows)], length)
        assert got.shape == (rows, length)
        return got, want

    # row counts below, at and across multiples of the fill group FILL_ROWS,
    # and the 100 and 200 rows of a 200-replica table's chunks at two
    # workers and at one; lengths below, at and across one block of U_STEPS
    # uniforms, and across a slab boundary into a partial block and into a
    # full block and one step more
    @pytest.mark.parametrize("length", [U_STEPS - 1, U_STEPS, U_STEPS + 1, SLAB + 200,
                                        SLAB + U_STEPS + 1])
    @pytest.mark.parametrize("rows", [1, 3, FILL_ROWS + 1, 100, 200, ROWS, ROWS + 1])
    def test_metropolis_equals_row_major_loop(self, rows, length):
        np.testing.assert_array_equal(*self.metropolis_pair(self.METROPOLIS, rows, length))

    # burn-ins that end inside the first slab, exactly at its end, and 7
    # steps into the second; the kept window crosses slab boundaries, so
    # every slab skips some, all or none of its steps
    @pytest.mark.parametrize("burn", [10_000, SLAB, SLAB + 7])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_lindley_equals_one_array_reflection(self, rows, burn):
        # the burn-in steps fold only their minimum into the reflection;
        # min is exact, so the kept values are the one-array formula's bits.
        # A drift near -0.002 leaves a chain far from 0 where its burn-in
        # ends, so a burn-in minimum that went astray would show in the kept
        # values; at that drift a chain can take 1e5 steps to come back to 0,
        # so the kept window runs eight slabs
        spec = lindley_with_burn_in(burn)
        length = 8 * SLAB + 50
        got = np.concatenate([s.copy() for s in _path_slabs(
            spec, [rng_for(4, "lindley", r) for r in range(rows)], length)], axis=1)
        assert got.shape == (rows, length)
        for r in range(rows):
            c = np.cumsum(spec.step.draw(rng_for(4, "lindley", r), burn + length))
            want = c - np.minimum(0.0, np.minimum.accumulate(c))
            np.testing.assert_array_equal(got[r], want[burn:])
        assert (got == 0.0).any() and not (got == 0.0).all()

    def test_metropolis_state_survives_a_full_refill(self):
        # the second slab is full, so its fill rewrites the buffer row that
        # held the first slab's last state
        np.testing.assert_array_equal(*self.metropolis_pair(self.METROPOLIS, 3, 2 * SLAB + 200))

    def test_metropolis_target_with_zero_density_below_0_equals_row_major_loop(self):
        # exp(1) has density 0 below 0: a proposal there has log density
        # -inf and is rejected, as u f(x) <= 0 rejects it
        spec = MetropolisSpec(target=exponential(1.0), proposal=uniform(-1.0, 1.0))
        rows, length = FILL_ROWS + 1, SLAB + 200
        got, want = self.metropolis_pair(spec, rows, length)
        np.testing.assert_array_equal(got, want)
        assert got.min() >= 0.0
        # some proposals fell below 0 and were refused: the chain stayed put
        steps = got[:, 1:] - got[:, :-1]
        assert np.count_nonzero(steps == 0.0) > 0.1 * steps.size

    def test_metropolis_target_with_infinite_density_at_its_ends_equals_row_major_loop(self):
        # beta(0.5, 0.5) has infinite density at 0 and 1 and density 0
        # outside [0, 1]
        spec = MetropolisSpec(target=beta_law(0.5, 0.5), proposal=uniform(-0.25, 0.25))
        rows, length = FILL_ROWS + 1, SLAB + 200
        got, want = self.metropolis_pair(spec, rows, length)
        np.testing.assert_array_equal(got, want)
        assert 0.0 < got.min() and got.max() < 1.0
        # a chain near an end refuses most proposals: it moved on fewer than
        # nine steps in ten
        moved = np.count_nonzero(got[:, 1:] != got[:, :-1]) / got[:, 1:].size
        assert 0.3 < moved < 0.9

    def test_metropolis_state_of_infinite_density_never_moves(self):
        # a chain started at 0, where beta(0.5, 0.5) has infinite density,
        # stays there: log u + inf <= log f(y) holds for no finite log f(y),
        # and at u = 0 the sum is nan, which is refused, as u * inf <= f(y)
        # refuses every proposal (0 * inf is nan)
        target = dataclasses.replace(beta_law(0.5, 0.5),
                                     sampler=lambda rng, size: np.zeros(size))
        spec = MetropolisSpec(target=target, proposal=uniform(-0.25, 0.25))
        got, want = self.metropolis_pair(spec, 3, 500)
        np.testing.assert_array_equal(got, want)
        assert np.all(got == 0.0)

    def test_metropolis_starts_stationary(self):
        # no burn-in, and row r starts from the first draw of its own
        # generator, so its first value is that draw or that draw plus the
        # first increment, drawn next from the same generator
        spec = self.METROPOLIS
        assert default_burn_in(spec) == 0
        rows, length = FILL_ROWS + 1, SLAB + 200
        got, want = self.metropolis_pair(spec, rows, length)
        np.testing.assert_array_equal(got, want)
        for r in range(rows):
            rng = rng_for(4, "kernel", r)
            x0 = spec.target.draw(rng, 1)[0]
            z0 = spec.proposal.draw(rng, SLAB)[0]
            assert got[r, 0] in (x0, x0 + z0)

    def test_metropolis_start_lies_in_the_target_law(self):
        # over 2000 independent rows, the start x_0 and the chain at its
        # first and last step stay inside the 99.9% DKW band of the target
        spec = MetropolisSpec(target=symmetric_pareto(2.0, 1.0),
                              proposal=uniform(-1.0, 1.0))
        rows, length = 2000, 200
        x0 = np.array([spec.target.draw(rng_for(8, "start", r), 1)[0]
                       for r in range(rows)])
        path = np.concatenate([s.copy() for s in _path_slabs(
            spec, [rng_for(8, "start", r) for r in range(rows)], length)], axis=1)
        i = np.arange(1, rows + 1)
        for col in (x0, path[:, 0], path[:, -1]):
            F = 1.0 - np.asarray(spec.target.tail(np.sort(col)))
            sup = max(np.max(i / rows - F), np.max(F - (i - 1) / rows))
            assert sup <= dkw_epsilon(rows, 0.999), sup

    @pytest.mark.parametrize("workers", [1, 2])
    def test_window_maxima_counts_the_row_major_moves(self, monkeypatch, pool_spy,
                                                      workers):
        # a move is a step with x_t != x_{t-1}, counted within the scanned
        # paths, in blocks of U_STEPS and across their slab boundary; the
        # table's acceptance rate is the moves per such step
        monkeypatch.setattr(estimate.os, "cpu_count", lambda: 2)  # workers=2 forks
        monkeypatch.setattr(estimate, "_chunk_rows", lambda spec: 20)  # two chunks
        spec = MetropolisSpec(target=symmetric_pareto(2.0, 1.0),
                              proposal=uniform(-1.0, 1.0))
        R, length = 40, SLAB + 200
        ref = metropolis_row_major(spec, [rng_for(3, "moves", r) for r in range(R)], length)
        want = np.count_nonzero(ref[:, 1:] != ref[:, :-1])
        _, moves = _window_maxima(spec, [(0, length)], R, 3, "moves", workers)
        assert moves == want
        table = block_maxima_table(spec, [length], R, 3, "moves", workers)
        assert table.acceptance_rate == want / (R * (length - 1))
        assert 0.5 < table.acceptance_rate < 1.0
        assert pool_spy == ([2, 2] if workers == 2 else [])

    def test_metropolis_zero_density_state_always_moves(self):
        # a target law that draws -5, outside the support of its density
        # uniform(0, 1), starts every chain there without touching its
        # generator: while a state has density 0, u * 0 <= f(y) accepts every
        # proposal, so the chain moves by its increment at every such step;
        # the kernel keeps this rule row for row
        spec = MetropolisSpec(target=ZERO_DENSITY_START, proposal=uniform(-1.0, 1.0))
        rows, length = FILL_ROWS + 1, SLAB + 200
        got, want = self.metropolis_pair(spec, rows, length)
        np.testing.assert_array_equal(got, want)
        prev = np.concatenate([np.full((rows, 1), -5.0), got[:, :-1]], axis=1)
        outside = np.asarray(spec.target.logpdf(prev)) == -np.inf
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

    # Budgets in slab arrays (one float64 array of a full chunk's rows by
    # SLAB), each at its kind's own chunk rows: 512 for Metropolis, FILL_ROWS
    # (32) for the row-looping kernels.  Metropolis: the increments, with
    # the chain state written over them, a block of U_STEPS uniforms (a
    # sixty-fourth of a slab array) and a FILL_ROWS-row fill scratch (a
    # sixteenth at 512 rows; 1.08 slab arrays in all); Lindley: the steps,
    # cumsum and reflection in place, with one row-sized running-minimum
    # buffer (1.13); moving-max: the draws after the carry, folded into
    # window maxima in place (each fold may copy its shifted input; 2.00).
    # What is left over covers per-row draws and per-step temps.
    @pytest.mark.parametrize("kind", ["metropolis", "lindley", "moving-max"])
    def test_one_full_chunk_slab_fits_its_budget(self, kind):
        spec, budget = self.BUDGETS[kind]
        rows = _chunk_rows(spec)
        rngs = [rng_for(6, "memory", r) for r in range(rows)]
        length = SLAB - default_burn_in(spec)  # burn-in + length is one slab
        slabs = _path_slabs(spec, rngs, length)
        tracemalloc.start()
        try:
            slab = next(slabs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert slab.shape == (rows, length)
        slab_bytes = rows * SLAB * 8
        assert peak <= budget * slab_bytes, peak / slab_bytes

    @pytest.mark.parametrize("kind", ["metropolis", "lindley", "moving-max"])
    def test_three_full_slabs_fit_the_same_budget(self, kind):
        # every slab reuses the buffers of the one before, so a caller that
        # holds the previous slab while it asks for the next costs nothing
        spec, budget = self.BUDGETS[kind]
        rows = _chunk_rows(spec)
        rngs = [rng_for(7, "memory", r) for r in range(rows)]
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
        slab_bytes = rows * SLAB * 8
        assert peak <= budget * slab_bytes, peak / slab_bytes


class TestExactMaxLaws:
    def test_iid_power(self):
        F = exponential(1.0)
        spec = IIDSpec(F)
        assert exact_max_cdf(spec, 10, 1.3) == pytest.approx((1.0 - float(F.tail(1.3))) ** 10, rel=1e-12)

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
        maxima = np.array([generate(spec, length=n, seed=s).max()
                           for s in range(R)])
        for x in (25.0, 100.0, 400.0):
            p = exact_max_cdf(spec, n, x)
            se = math.sqrt(p * (1.0 - p) / R)
            assert abs(np.mean(maxima <= x) - p) <= 4.0 * se


class TestLindley:
    def test_reflection_matches_direct_recursion(self):
        length = 2 * SLAB  # the kept window crosses two slab boundaries
        # drift -0.1 keeps the chain away from 0 at the slab boundaries
        for drift in (-1.0, -0.1):
            step = shifted(pareto(2.0, 1.0), drift - 1.0)
            spec = LindleySpec(step=step)
            burn = default_burn_in(spec)
            path = generate(spec, length=length, seed=11)
            # replay the path's step draws and run X_{j+1} = max(X_j + Z_j, 0)
            # from X_0 = 0 one step at a time
            z = step.draw(rng_for(11, "path", describe_spec(spec)), burn + length)
            direct = np.empty(z.size)
            x = 0.0
            for j, dz in enumerate(z):
                x = max(x + dz, 0.0)
                direct[j] = x
            np.testing.assert_allclose(path, direct[burn:], rtol=0.0, atol=1e-6)
            resets = path == 0
            np.testing.assert_array_equal(resets, direct[burn:] == 0.0)
            assert resets.any() and not resets.all()

    def test_default_burn_in_scales_with_drift(self):
        assert default_burn_in(LindleySpec(step=LINDLEY_STEP)) >= 10_000

    def test_step_tail_dominates_stationary(self):
        path = generate(LindleySpec(step=LINDLEY_STEP), length=200_000, seed=3)
        assert lindley_step_tail_vs_stationary(LINDLEY_STEP, path) == "ratio->0"

    @staticmethod
    def _full_sort_tail(values):
        """The empirical tail as read before the zeros were counted: the
        whole path sorted."""
        sorted_vals = np.sort(values)
        qs = 1.0 - PROBE_TAILS
        qs = qs[qs <= 0.999]
        idx = np.minimum((qs * values.size).astype(int), values.size - 1)
        levels = ascending_distinct(sorted_vals[idx])
        emp_sf = (values.size - np.searchsorted(sorted_vals, levels, side="right")) \
            / values.size
        return levels, emp_sf

    @pytest.mark.parametrize("drift", [-1.0, -0.1, None])
    def test_counting_the_zeros_reads_the_full_sort_tail(self, drift):
        """Sorting only the positive values gives the levels and tail of the
        full sort bit for bit, and the same verdict, on Lindley paths with
        many zeros (drift -1), few zeros (drift -0.1) and none."""
        if drift is None:
            step = LINDLEY_STEP
            values = 1.0 + generate(LindleySpec(step=step), length=200_000, seed=5)
        else:
            step = shifted(pareto(2.0, 1.0), drift - 1.0)
            values = generate(LindleySpec(step=step), length=200_000, seed=5)
        zeros = np.count_nonzero(values == 0.0)
        assert (zeros == 0) == (drift is None) and zeros < values.size
        levels, emp_sf = _empirical_tail(values)
        full_levels, full_sf = self._full_sort_tail(values)
        np.testing.assert_array_equal(levels, full_levels, strict=True)
        np.testing.assert_array_equal(emp_sf, full_sf, strict=True)
        full_track = np.asarray(step.tail(full_levels)) / full_sf
        keep = full_sf > 0
        assert lindley_step_tail_vs_stationary(step, values) == _VERDICT[
            classify_ratio_track(full_track[keep], EMPIRICAL_RATIO_TOL)]

    def test_step_tail_check_refuses_a_negative_path(self):
        values = np.zeros(100_000)
        values[7] = -1.0
        with pytest.raises(InvalidArgumentError, match="Lindley path is >= 0"):
            lindley_step_tail_vs_stationary(LINDLEY_STEP, values)


class TestMetropolis:
    spec = MetropolisSpec(target=symmetric_pareto(2.0, 1.0), proposal=uniform(-1.0, 1.0))

    def test_config_check_passes_on_interval(self):
        chk = metropolis_config_check(self.spec, 0.0, 3.0)
        assert chk.ok
        assert chk.proposal_floor == pytest.approx(0.5)
        assert chk.monotone_on_interval

    def test_config_check_flags_flat_target(self):
        flat = MetropolisSpec(target=uniform(-5.0, 5.0), proposal=self.spec.proposal)
        chk = metropolis_config_check(flat, 0.0, 3.0)
        assert not chk.ok
        # monotone, but constant over all of [0, 3], longer than (b-a)/4
        assert not chk.monotone_on_interval

    def test_config_check_flags_a_proposal_that_vanishes_on_the_window(self):
        # uniform(-0.5, 0.5) is 0 past |x| = 0.5, inside |x| <= (3 - 0) / 3
        narrow = MetropolisSpec(target=self.spec.target, proposal=uniform(-0.5, 0.5))
        chk = metropolis_config_check(narrow, 0.0, 3.0)
        assert chk.proposal_floor == 0.0
        assert not chk.ok

    def test_tail_condition_prefers_flat_tails(self):
        assert target_tail_condition(symmetric_pareto(2.0, 1.0), 1.0)
        # exponential tails: P(x < X <= x+1)/P(X > x) = 1 - e**-1, never small
        assert not target_tail_condition(exponential(1.0), 1.0)

    def test_marginal_matches_target(self):
        """Long chain, invariant law: empirical cdf near the target cdf."""
        path = generate(self.spec, length=60_000, seed=5)
        x = np.sort(path)
        target_cdf = 1.0 - np.asarray(self.spec.target.tail(x))
        ecdf = np.arange(1, x.size + 1) / x.size
        # dependent draws, so allow a few times the iid band
        assert np.max(np.abs(ecdf - target_cdf)) < 0.03

    def test_zero_density_state_always_accepts(self):
        # started at -5, outside the support of uniform(0, 1): the current and
        # every proposed density is 0, and 0 <= 0 accepts, so the chain moves
        # by its proposal increment on every step, the first one included
        proposal = uniform(-1.0, 1.0)
        spec = MetropolisSpec(target=ZERO_DENSITY_START, proposal=proposal)
        path = generate(spec, length=3, seed=13)
        z = proposal.draw(rng_for(13, "path", describe_spec(spec)), 3)
        np.testing.assert_array_equal(path, np.add.accumulate([-5.0, *z])[1:])
        assert path[0] != -5.0

    def test_default_burn_in(self):
        # a chain starts in its target, its invariant law, so it needs none
        assert default_burn_in(self.spec) == 0
