"""Text artifacts: every writer keeps the bytes of the per-cell writer it
replaced, and streamed path and marks files keep the joined bytes."""

import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from phantomdf import acceptance, reporting
from phantomdf.errors import InvalidArgumentError
from phantomdf.distributions import exponential, jump_sequence, pareto, shifted, uniform
from phantomdf.estimate import (
    block_maxima_table,
    check_BT,
    decompose_regenerative,
    estimate_driving_sequence,
    exact_maxlaw,
    maxlaw_from_maxima,
    theta_from_driving,
)
from phantomdf.processes import (
    IIDSpec,
    LindleySpec,
    MovingMaxSpec,
    default_burn_in,
    describe_spec,
    generate,
    spec_digest,
)
from phantomdf.reporting import (
    FLOAT_FMT,
    bt_csv,
    csv_blocks,
    csv_table,
    driving_csv,
    json_report,
    marks_file_text,
    maxlaw_csv,
    path_file_text,
    theta_csv,
)
from test_estimate import column

LINDLEY = LindleySpec(step=shifted(pareto(2.0, 1.0), -2.0))
IID = IIDSpec(exponential(1.0))
MOVMAX2 = MovingMaxSpec(window=2, base=uniform(0.0, 1.0))
# a bounded jump law: at n >= 100 the driving level is the top atom, whose
# tail is 0, so theta = inf
TOP_ATOM = IIDSpec(jump_sequence([1.0, 2.0, 3.0], [0.5, 0.1, 0.0]))
GAMMA = math.exp(-1.0)
R = 200
SEED = 20260814


# ---------------------------------------------------------------------------
# references: the per-cell CSV writer and its row builders, verbatim
# ---------------------------------------------------------------------------

def fmt_float(x: float) -> str:
    return "%.17g" % float(x)  # FLOAT_FMT, spelled out so a changed format shows


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return fmt_float(x)
    return str(x)


def reference_csv_table(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def reference_maxlaw_csv(est) -> str:
    rows = []
    for r in est.rows:
        for x, p, s in zip(r.levels, r.p_hat, r.se):
            rows.append((r.n, x, p, s, r.replicas))
    return reference_csv_table(("n", "level", "p_hat", "se", "replicas"), rows)


def reference_driving_csv(dse) -> str:
    rows = zip(dse.n_values, dse.v_hat, dse.ci_lo, dse.ci_hi, dse.replicas)
    return reference_csv_table(("n", "v_hat", "ci_lo", "ci_hi", "replicas"), rows)


def reference_bt_csv(report) -> str:
    rows = []
    for r in report.rows:
        for pair in r.pairs:
            rows.append((r.n, pair.p, pair.q, pair.value, pair.se))
    return reference_csv_table(("n", "p", "q", "b_value", "se"), rows)


def reference_theta_csv(est) -> str:
    rows = [(r.n, r.level, r.tail, r.s, r.gamma_prime, r.theta,
             r.theta_lo, r.theta_hi) for r in est.rows]
    return reference_csv_table(("n", "level", "tail", "n_tail", "gamma_prime",
                                "theta", "theta_lo", "theta_hi"), rows)


# ---------------------------------------------------------------------------
# the typed-column writer against the references
# ---------------------------------------------------------------------------

def test_maxlaw_csv_keeps_the_per_cell_bytes():
    table = block_maxima_table(IID, [10, 100], R, SEED, tag="pin")
    for est in (maxlaw_from_maxima(table),
                maxlaw_from_maxima(table, level_cap=float(np.median(column(table, 100)))),
                exact_maxlaw(MOVMAX2, [20, 80], probs=np.linspace(0.01, 0.99, 33))):
        assert maxlaw_csv(est) == reference_maxlaw_csv(est)


def test_driving_csv_keeps_the_per_cell_bytes():
    for method in ("exact", "monte-carlo"):
        dse = estimate_driving_sequence(MOVMAX2, GAMMA, [10, 100, 1000], R=R,
                                        seed=SEED, method=method)
        assert driving_csv(dse) == reference_driving_csv(dse)


def test_bt_csv_keeps_the_per_cell_bytes():
    for spec, method in ((MOVMAX2, "exact"), (IID, "monte-carlo"), (LINDLEY, "monte-carlo")):
        dse = estimate_driving_sequence(spec, GAMMA, [10, 100], R=R, seed=SEED)
        report = check_BT(spec, dse, n_list=[10, 100], R=R, seed=SEED, method=method)
        assert report.method == method
        assert bt_csv(report) == reference_bt_csv(report)


def test_theta_csv_keeps_the_per_cell_bytes():
    for spec, method in ((TOP_ATOM, "exact"), (TOP_ATOM, "monte-carlo"),
                         (MOVMAX2, "monte-carlo"), (LINDLEY, "monte-carlo")):
        dse = estimate_driving_sequence(spec, GAMMA, [100, 1000], R=R, seed=SEED,
                                        method=method)
        est = theta_from_driving(spec, dse, [100, 1000], SEED)
        assert theta_csv(est) == reference_theta_csv(est)
    dse = estimate_driving_sequence(TOP_ATOM, GAMMA, [100, 1000], method="exact")
    top = theta_from_driving(TOP_ATOM, dse, [100, 1000], 0)
    assert math.isinf(top.rows[-1].theta)
    assert ",inf," in theta_csv(top)


def test_criterion_2_table_keeps_the_per_cell_bytes(monkeypatch):
    seen = []

    def spy(header, columns):
        columns = [list(c) for c in columns]
        seen.append((header, columns))
        return csv_table(header, columns)

    monkeypatch.setattr(acceptance, "csv_table", spy)
    text = acceptance.criterion_2().artifacts["mixture_maxlaw.csv"]
    (header, columns), = seen
    assert text == reference_csv_table(header, zip(*columns))
    assert [type(c[0]) for c in columns] == [int, float, float, float, int]


def test_csv_table_across_blocks_keeps_the_per_cell_bytes(monkeypatch):
    monkeypatch.setattr(reporting, "TEXT_BLOCK", 97)
    rng = np.random.default_rng(3)
    for size in (1, 96, 97, 98, 3 * 97, 3 * 97 + 1, 1_000):
        n = rng.integers(-10**12, 10**12, size)
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        x[::7] = np.inf
        u = rng.random(size)
        header = ("n", "x", "u")
        assert csv_table(header, (n, x, u)) == reference_csv_table(header, zip(n, x, u))
        assert csv_table(header[1:], (x, u)) == reference_csv_table(header[1:], zip(x, u))
        # float bit patterns (subnormals, nan) and uint64 columns between them
        m = rng.integers(0, np.iinfo(np.uint64).max, size, dtype=np.uint64, endpoint=True)
        b = rng.integers(0, np.iinfo(np.uint64).max, size, dtype=np.uint64,
                         endpoint=True).view(np.float64)
        header = ("u", "n", "b", "m")
        assert csv_table(header, (u, n, b, m)) == reference_csv_table(header, zip(u, n, b, m))


def test_csv_table_without_rows_is_the_header_line():
    empty = np.array([])
    assert csv_table(("a", "b"), (empty, empty)) == reference_csv_table(("a", "b"), []) \
        == "a,b\n"


def joined_path_text(spec, seed, values):
    # the single-string form the blocked writer must reproduce byte for byte
    head = [
        "# phantomdf path v1",
        f"# spec: {describe_spec(spec)}",
        f"# digest: {spec_digest(spec)}",
        f"# seed: {seed}",
        f"# burn_in: {default_burn_in(spec)}",
        f"# length: {values.size}",
    ]
    body = "\n".join(FLOAT_FMT % float(v) for v in values)
    return "\n".join(head) + "\n" + body + "\n"


def joined_marks_text(spec, marks):
    head = [
        "# phantomdf regeneration marks v1 (post burn-in indices)",
        f"# digest: {spec_digest(spec)}",
    ]
    body = "\n".join(str(int(i)) for i in marks)
    return "\n".join(head) + "\n" + body + "\n"


def test_blocked_text_equals_joined_text(monkeypatch):
    monkeypatch.setattr(reporting, "TEXT_BLOCK", 97)
    values = generate(LINDLEY, 5, 1_000)
    zeros = [i for i, v in enumerate(values) if v == 0.0]
    assert len(zeros) > 3 * 97
    blocks = list(path_file_text(LINDLEY, 5, values))
    assert len(blocks) == 1 + -(-1_000 // 97)
    assert "".join(blocks) == joined_path_text(LINDLEY, 5, values)
    marks = list(marks_file_text(LINDLEY, values))
    assert len(marks) == 1 + -(-len(zeros) // 97)
    assert "".join(marks) == joined_marks_text(LINDLEY, zeros)


def test_blocked_text_without_marks_keeps_empty_body_line():
    values = np.array([1.5, 0.25])
    assert "".join(marks_file_text(LINDLEY, values)) == joined_marks_text(LINDLEY, [])
    assert "".join(path_file_text(LINDLEY, 1, values)) == joined_path_text(LINDLEY, 1, values)


def test_marks_of_a_path_without_regeneration_raise_at_call():
    spec = IIDSpec(pareto(2.0, 1.0))
    with pytest.raises(ValueError):
        marks_file_text(spec, generate(spec, 1, 10))


# ---------------------------------------------------------------------------
# the digit kernel behind integer columns against "%d\n" per value
# ---------------------------------------------------------------------------

def percent_d_lines(values) -> str:
    return "".join("%d\n" % v for v in values)


def edges(dtype) -> list[int]:
    info = np.iinfo(dtype)
    return [v for v in (0, 1, -1, 9, -9, 10, -10, 99, 100, -100, info.min, info.min + 1,
                        info.max - 1, info.max) if info.min <= v <= info.max]


def kernel_lines(kernel, values) -> str:
    """A cell kernel's rows, each ended by a newline in its separator byte."""
    cells, keep = kernel(values)
    cells[:, -1], keep[:, -1] = ord("\n"), True
    return cells[keep].tobytes().decode("ascii")


def blocks_of(dtype, values, monkeypatch):
    """_text_blocks on one integer column at TEXT_BLOCK = 97, with the size
    of every kernel call recorded."""
    calls = []

    def spy(block):
        calls.append(block.size)
        return int_cells(block)

    int_cells = reporting._int_cells
    monkeypatch.setattr(reporting, "TEXT_BLOCK", 97)
    monkeypatch.setattr(reporting, "_int_cells", spy)
    return list(reporting._text_blocks(["# head"], [np.array(values, dtype=dtype)])), calls


_BLOCK_EDGE_SIZES = [0, 1, 96, 97, 98, 2 * 97 - 1, 2 * 97, 2 * 97 + 1, 3 * 97, 3 * 97 + 1]


def integer_columns(dtype):
    """Whole columns of ``dtype`` at the block-edge sizes, their values the
    edges or any integer of the dtype."""
    info = np.iinfo(dtype)
    values = st.one_of(st.sampled_from(edges(dtype)),
                       st.integers(int(info.min), int(info.max)))
    return hnp.arrays(dtype, st.sampled_from(_BLOCK_EDGE_SIZES), elements=values)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([np.int64, np.uint64]).flatmap(integer_columns))
def test_integer_column_keeps_the_percent_d_bytes(column_values):
    dtype, size, values = column_values.dtype.type, column_values.size, column_values.tolist()
    with pytest.MonkeyPatch.context() as mp:
        blocks, calls = blocks_of(dtype, values, mp)
    assert "".join(blocks) == "# head\n" + percent_d_lines(values)
    assert len(blocks) == 1 + -(-size // 97)
    assert len(calls) == len(blocks) - 1 and all(0 < c <= 97 for c in calls)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_integer_column_edges_and_empty_column(dtype, monkeypatch):
    values = edges(dtype) * 30  # 10-14 edges a copy: several blocks of 97
    int_cells = reporting._int_cells
    assert kernel_lines(int_cells, np.array(values, dtype=dtype)) == percent_d_lines(values)
    assert kernel_lines(int_cells, np.array([], dtype=dtype)) == ""
    blocks, calls = blocks_of(dtype, values, monkeypatch)
    assert "".join(blocks) == "# head\n" + percent_d_lines(values)
    assert calls == [97] * (len(values) // 97) + [len(values) % 97]
    assert blocks_of(dtype, [], monkeypatch) == (["# head\n"], [])


# ---------------------------------------------------------------------------
# the float kernel against "%.17g\n" per value, and the values it leaves to
# FLOAT_FMT itself
# ---------------------------------------------------------------------------

def percent_g_lines(values) -> str:
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=np.float64).tolist())


class CountingFormat(str):
    """FLOAT_FMT that records each value formatted through it."""

    def __new__(cls, seen: list):
        fmt = super().__new__(cls, "%.17g")
        fmt.seen = seen
        return fmt

    def __mod__(self, value):
        self.seen.append(value)
        return str.__mod__(self, value)


def float_lines(values) -> tuple[str, list]:
    """The float kernel's lines, and the values it handed to FLOAT_FMT."""
    guarded = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reporting, "FLOAT_FMT", CountingFormat(guarded))
        text = kernel_lines(reporting._float_cells, np.asarray(values, dtype=np.float64))
    return text, guarded


def in_table(values):
    """Finite values inside the kernel's table, and zeros."""
    a = np.abs(values)
    return (a == 0) | ((a >= 1e-291) & (a < 1e299))


def is_tie(value: float) -> bool:
    """Whether |value| lies exactly halfway between two 17-digit decimals."""
    with decimal.localcontext(prec=800):  # exact: a double has < 800 digits
        d = abs(decimal.Decimal(value))
        return d.scaleb(16 - d.adjusted()) % 1 == decimal.Decimal("0.5")


# ties at 17 digits: 16 integer digits and a fraction of .25 or .75
TIES = [2.0 ** 50 + i + f for i in range(0, 4000, 7) for f in (0.25, 0.75)]
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308, 1e-291, 1e299,
            0.1, 0.5, 1.0, 1e16, 1e17, 99999999999999999.0, *TIES[:4]]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.sampled_from(_BLOCK_EDGE_SIZES), elements=st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))))
def test_float_column_keeps_the_percent_g_bytes(values):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reporting, "TEXT_BLOCK", 97)
        blocks = list(reporting._text_blocks(["# head"], [values]))
    assert "".join(blocks) == "# head\n" + percent_g_lines(values)
    assert len(blocks) == 1 + -(-values.size // 97)


def test_float_kernel_on_a_million_bit_patterns():
    bits = np.random.default_rng(20261020).integers(
        0, np.iinfo(np.uint64).max, 10**6, dtype=np.uint64, endpoint=True)
    values = bits.view(np.float64)
    text, guarded = float_lines(values)
    assert text == percent_g_lines(values)
    # FLOAT_FMT takes what lies outside the table, inf and nan, the exact
    # ties, and no more than a few near-ties and log10 misses besides
    guarded = np.array(guarded)
    assert np.count_nonzero(~in_table(guarded)) == np.count_nonzero(~in_table(values))
    inside = guarded[in_table(guarded)]
    assert sum(not is_tie(v) for v in inside.tolist()) <= 10


def test_float_kernel_at_every_power_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert powers[0] > 0.0 and np.isfinite(powers[-1])
    near = np.concatenate([powers, np.nextafter(powers, np.inf),
                           np.nextafter(powers, -np.inf)])
    values = np.concatenate([near, -near])
    assert float_lines(values)[0] == percent_g_lines(values)


def test_float_kernel_on_decimal_grids():
    i = np.arange(1, 10_001, dtype=np.float64)
    values = np.concatenate([i * 10.0 ** e for e in range(-30, 31)]
                            + [i / 10.0 ** e for e in range(31)])
    assert float_lines(values)[0] == percent_g_lines(values)


def test_float_kernel_leaves_ties_and_the_outside_to_float_fmt():
    outside = [math.inf, -math.inf, math.nan, 5e-324, 1e-292, 1e299, -1.7976931348623157e308]
    text, guarded = float_lines(TIES + outside)
    assert text == percent_g_lines(TIES + outside)
    assert text.startswith("1125899906842624.2\n1125899906842624.8\n")  # half to even
    assert guarded[:len(TIES)] == TIES and all(map(is_tie, TIES))
    assert np.array_equal(guarded[len(TIES):], outside, equal_nan=True)


def near_ties() -> list[float]:
    """Doubles x = M 2**-(s+k) whose 17 digits x 10**s = M 5**s / 2**k lie
    2**-k from a tie, for k = 34 .. 52: M 5**s = 2**(k-1) +- 1 (mod 2**k)."""
    values = []
    for k in range(34, 53):
        for s in range(1, 40):
            for d in (1, -1):
                r = (2 ** (k - 1) + d) * pow(5, -s, 2 ** k) % 2 ** k
                M = r + -(-(2 ** 52 - r) // 2 ** k) * 2 ** k  # the least M >= 2**52
                if M < 2 ** 53 and 10 ** 16 <= M * 5 ** s >> k < 10 ** 17:
                    values.append(math.ldexp(M, -(s + k)))
    return values


def test_float_kernel_leaves_near_ties_to_float_fmt():
    # within _HALF_MARGIN of a tie, where the kernel's 2**-47 error could
    # round either way, the value goes through FLOAT_FMT
    values = near_ties()
    values += [-v for v in values]
    assert len(values) > 80
    text, guarded = float_lines(values)
    assert text == percent_g_lines(values)
    assert guarded == values and not any(map(is_tie, values))


def test_float_kernel_certifies_ordinary_columns():
    rng = np.random.default_rng(7)
    for values in (generate(LINDLEY, 5, 20_000), np.arange(1, 20_001) / 20_000, rng.random(20_000),
                   rng.standard_normal(20_000) * 10.0 ** rng.integers(-200, 10, 20_000),
                   np.array([0.0, -0.0, 2e-291, 9.9e298])):
        text, guarded = float_lines(values)
        assert text == percent_g_lines(values)
        assert guarded == []


def test_cycle_cdf_keeps_the_per_cell_bytes(monkeypatch):
    monkeypatch.setattr(reporting, "TEXT_BLOCK", 97)
    uniq, cum = decompose_regenerative(generate(LINDLEY, 5, 20_000)).cycle_cdf()
    assert uniq.size > 3 * 97
    assert "".join(csv_blocks(("y", "cycle_cdf"), (uniq, cum))) == \
        reference_csv_table(("y", "cycle_cdf"), zip(uniq, cum))


def test_columns_of_unequal_length_raise():
    with pytest.raises(ValueError, match="columns differ in length"):
        csv_table(("a", "b"), (np.arange(3), np.ones(4)))


def test_json_report_writes_finite_values_as_text_floats():
    payload = {"b": {2: np.float64(1 / 3), 10: 0.1}, "a": [1, True, np.int64(7)],
               "c": np.array([[1.5, 2.0]]), "d": None, "e": "zero"}
    assert json_report(payload) == (
        '{\n  "a": [\n    1,\n    true,\n    7\n  ],\n'
        '  "b": {\n    "10": 0.1,\n    "2": 0.3333333333333333\n  },\n'
        '  "c": [\n    [\n      1.5,\n      2.0\n    ]\n  ],\n'
        '  "d": null,\n  "e": "zero"\n}\n')


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
def test_json_report_writes_each_float_as_itself(values):
    """Every finite double, subnormals and -0.0 among them, reaches the
    JSON as itself: the bytes equal those of its "%.17g" text round trip,
    whether it comes as a float, a numpy scalar or an array entry."""
    values = [*values, -0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310]
    via_text = [float("%.17g" % v) for v in values]
    got = json_report({"array": np.array(values), "list": values,
                       "scalars": [np.float64(v) for v in values]})
    assert got == json.dumps({"array": via_text, "list": via_text, "scalars": via_text},
                             sort_keys=True, indent=2, allow_nan=False) + "\n"
    back = np.array(json.loads(got)["array"], dtype=float)
    np.testing.assert_array_equal(back.view(np.uint64), np.array(values).view(np.uint64))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(np.inf)])
def test_json_report_refuses_a_non_finite_value_naming_its_field(bad):
    text = reporting.fmt_float(bad)
    with pytest.raises(InvalidArgumentError,
                       match=rf"^report field rows\.1\.level is {text}, which JSON cannot hold$"):
        json_report({"rows": [{"level": 1.0}, {"level": bad}]})
    with pytest.raises(InvalidArgumentError, match=rf"^report field grid\.0\.2 is {text},"):
        json_report({"grid": np.array([[1.0, 2.0, bad]])})
    with pytest.raises(InvalidArgumentError, match=rf"^report field se is {text},"):
        json_report({"se": bad, "n": 3})
