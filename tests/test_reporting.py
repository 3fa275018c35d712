"""Text artifacts: every writer keeps the bytes of the per-cell writer it
replaced, and streamed path and marks files keep the joined bytes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phantomdf import acceptance, reporting
from phantomdf.distributions import exponential, jump_sequence, pareto, shifted, uniform
from phantomdf.estimate import (
    block_maxima_table,
    check_BT,
    estimate_driving_sequence,
    estimate_theta_single_sequence,
    exact_maxlaw,
    maxlaw_from_maxima,
)
from phantomdf.processes import (
    IIDSpec,
    LindleySpec,
    MovingMaxSpec,
    SamplePath,
    describe_spec,
    generate,
    spec_digest,
)
from phantomdf.reporting import (
    FLOAT_FMT,
    bt_csv,
    csv_table,
    driving_csv,
    marks_file_text,
    maxlaw_csv,
    path_file_text,
    theta_csv,
)

LINDLEY = LindleySpec(step=shifted(pareto(2.0, 1.0), -2.0), burn_in=300)
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
            rows.append((r.n, x, p, s, est.replicas))
    return reference_csv_table(("n", "level", "p_hat", "se", "replicas"), rows)


def reference_driving_csv(dse) -> str:
    rows = zip(dse.n_values, dse.v_hat, dse.ci_lo, dse.ci_hi)
    return reference_csv_table(("n", "v_hat", "ci_lo", "ci_hi"), rows)


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
    for est in (maxlaw_from_maxima(table, R),
                maxlaw_from_maxima(table, R, level_cap=float(np.median(table[100]))),
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
        est = estimate_theta_single_sequence(spec, GAMMA, [100, 1000], R=R,
                                             seed=SEED, method=method)
        assert theta_csv(est) == reference_theta_csv(est)
    top = estimate_theta_single_sequence(TOP_ATOM, GAMMA, [100, 1000], method="exact")
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


def test_csv_table_without_rows_is_the_header_line():
    empty = np.array([])
    assert csv_table(("a", "b"), (empty, empty)) == reference_csv_table(("a", "b"), []) \
        == "a,b\n"


def joined_path_text(path):
    # the single-string form the blocked writer must reproduce byte for byte
    head = [
        "# phantomdf path v1",
        f"# spec: {describe_spec(path.spec)}",
        f"# digest: {spec_digest(path.spec)}",
        f"# seed: {path.seed}",
        f"# burn_in: {path.burn_in}",
        f"# length: {path.values.size}",
    ]
    body = "\n".join(FLOAT_FMT % float(v) for v in path.values)
    return "\n".join(head) + "\n" + body + "\n"


def joined_marks_text(path):
    head = [
        "# phantomdf regeneration marks v1 (post burn-in indices)",
        f"# digest: {spec_digest(path.spec)}",
    ]
    body = "\n".join(str(int(i)) for i in path.regeneration_marks)
    return "\n".join(head) + "\n" + body + "\n"


def test_blocked_text_equals_joined_text(monkeypatch):
    monkeypatch.setattr(reporting, "TEXT_BLOCK", 97)
    path = generate(LINDLEY, 5, 1_000)
    assert path.regeneration_marks.size > 3 * 97
    blocks = list(path_file_text(path))
    assert len(blocks) == 1 + -(-1_000 // 97)
    assert "".join(blocks) == joined_path_text(path)
    marks = list(marks_file_text(path))
    assert len(marks) == 1 + -(-path.regeneration_marks.size // 97)
    assert "".join(marks) == joined_marks_text(path)


def test_blocked_text_without_marks_keeps_empty_body_line():
    path = SamplePath(spec=LINDLEY, seed=1, values=np.array([1.5, 0.25]),
                      regeneration_marks=np.array([], dtype=np.int64))
    assert "".join(marks_file_text(path)) == joined_marks_text(path)
    assert "".join(path_file_text(path)) == joined_path_text(path)


def test_marks_of_a_path_without_regeneration_raise_at_call():
    path = generate(IIDSpec(pareto(2.0, 1.0)), 1, 10)
    with pytest.raises(ValueError):
        marks_file_text(path)


# ---------------------------------------------------------------------------
# the digit kernel behind integer-only blocks against "%d\n" per value
# ---------------------------------------------------------------------------

def percent_d_lines(values) -> str:
    return "".join("%d\n" % v for v in values)


def edges(dtype) -> list[int]:
    info = np.iinfo(dtype)
    return [v for v in (0, 1, -1, 9, -9, 10, -10, 99, 100, -100, info.min, info.min + 1,
                        info.max - 1, info.max) if info.min <= v <= info.max]


def blocks_of(dtype, values, monkeypatch):
    """_text_blocks on one integer column at TEXT_BLOCK = 97, with the size
    of every kernel call recorded."""
    calls = []

    def spy(block):
        calls.append(block.size)
        return int_lines(block)

    int_lines = reporting._int_lines
    monkeypatch.setattr(reporting, "TEXT_BLOCK", 97)
    monkeypatch.setattr(reporting, "_int_lines", spy)
    return list(reporting._text_blocks(["# head"], [np.array(values, dtype=dtype)])), calls


_BLOCK_EDGE_SIZES = [0, 1, 96, 97, 98, 2 * 97 - 1, 2 * 97, 2 * 97 + 1, 3 * 97, 3 * 97 + 1]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([np.int64, np.uint64]), st.sampled_from(_BLOCK_EDGE_SIZES), st.data())
def test_integer_column_keeps_the_percent_d_bytes(dtype, size, data):
    info = np.iinfo(dtype)
    values = data.draw(st.lists(st.one_of(st.sampled_from(edges(dtype)),
                                          st.integers(int(info.min), int(info.max))),
                                min_size=size, max_size=size))
    with pytest.MonkeyPatch.context() as mp:
        blocks, calls = blocks_of(dtype, values, mp)
    assert "".join(blocks) == "# head\n" + percent_d_lines(values)
    assert len(blocks) == 1 + -(-size // 97)
    assert len(calls) == len(blocks) - 1 and all(0 < c <= 97 for c in calls)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_integer_column_edges_and_empty_column(dtype, monkeypatch):
    values = edges(dtype) * 30  # 10-14 edges a copy: several blocks of 97
    assert reporting._int_lines(np.array(values, dtype=dtype)) == percent_d_lines(values)
    assert reporting._int_lines(np.array([], dtype=dtype)) == ""
    blocks, calls = blocks_of(dtype, values, monkeypatch)
    assert "".join(blocks) == "# head\n" + percent_d_lines(values)
    assert calls == [97] * (len(values) // 97) + [len(values) % 97]
    assert blocks_of(dtype, [], monkeypatch) == (["# head\n"], [])
