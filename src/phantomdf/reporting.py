"""Deterministic serialization of estimates to CSV, JSON, and path files.

All floats print with %.17g so round-trips are bit-exact and reports
byte-compare across runs.  Wall-clock timings never enter these writers;
the CLI keeps them in a separate timing file outside the determinism
contract.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidArgumentError
from .estimate import (
    BTReport,
    DrivingSeqEstimate,
    MaxLawEstimate,
    ThetaEstimate,
)
from .processes import (LindleySpec, MixtureSpec, ProcessSpec, _mixture_draw_component,
                        _regeneration_marks, default_burn_in, describe_spec, spec_digest)
from .seeding import rng_for

__all__ = [
    "FLOAT_FMT",
    "fmt_float",
    "csv_blocks",
    "csv_table",
    "maxlaw_csv",
    "driving_csv",
    "bt_csv",
    "theta_csv",
    "json_report",
    "path_file_text",
    "marks_file_text",
]

FLOAT_FMT = "%.17g"


def fmt_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def csv_blocks(header: Iterable[str], columns: Iterable[Iterable]) -> Iterator[str]:
    """The CSV table as text blocks; their concatenation is the file."""
    return _text_blocks([",".join(header)], columns)


def csv_table(header: Iterable[str], columns: Iterable[Iterable]) -> str:
    return "".join(csv_blocks(header, columns))


def maxlaw_csv(est: MaxLawEstimate) -> str:
    sizes = [r.levels.size for r in est.rows]
    n = np.repeat([r.n for r in est.rows], sizes)
    grid = [np.concatenate([getattr(r, f) for r in est.rows])
            for f in ("levels", "p_hat", "se")]
    replicas = np.repeat([r.replicas for r in est.rows], sizes)
    return csv_table(("n", "level", "p_hat", "se", "replicas"), (n, *grid, replicas))


def driving_csv(dse: DrivingSeqEstimate) -> str:
    return csv_table(("n", "v_hat", "ci_lo", "ci_hi", "replicas"),
                     (dse.n_values, dse.v_hat, dse.ci_lo, dse.ci_hi, dse.replicas))


def bt_csv(report: BTReport) -> str:
    n = [r.n for r in report.rows for _ in r.pairs]
    pairs = [pair for r in report.rows for pair in r.pairs]
    return csv_table(("n", "p", "q", "b_value", "se"), (
        n, [b.p for b in pairs], [b.q for b in pairs],
        [b.value for b in pairs], [b.se for b in pairs]))


def theta_csv(est: ThetaEstimate) -> str:
    fields = ("n", "level", "tail", "s", "gamma_prime", "theta", "theta_lo", "theta_hi")
    return csv_table(("n", "level", "tail", "n_tail", "gamma_prime",
                      "theta", "theta_lo", "theta_hi"),
                     [[getattr(r, f) for r in est.rows] for f in fields])


def _plain(obj, key: str = ""):
    """``obj`` as JSON-ready builtins; ``key`` is its dotted path in the
    report, which names a value that JSON cannot hold."""
    if isinstance(obj, dict):
        return {str(k): _plain(v, f"{key}.{k}" if key else str(k)) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_plain(v, f"{key}.{i}") for i, v in enumerate(obj)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise InvalidArgumentError(
                f"report field {key} is {fmt_float(obj)}, which JSON cannot hold")
        return float(obj)
    return obj


def json_report(payload: dict) -> str:
    """Sorted, indented strict JSON; a non-finite float is an error that
    names its field."""
    return json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


# rows per text block of a streamed artifact: large paths and mark lists
# are formatted and written one block at a time, never as one string, and a
# block's arrays stay in cache (the float kernel takes about 100 ns a value
# at 8,192 rows against about 300 ns at 65,536, on a 2-core x86 VM)
TEXT_BLOCK = 8_192

# 10**1 .. 10**19: a value has one digit more than the powers it reaches
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)


def _int_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%d"`` of each value of an int64 or uint64 array as one uint8 row,
    with a mask of the bytes to keep and a last byte left for the
    separator: the digits come from numpy division, right-aligned after a
    sign byte."""
    neg = values < 0
    mag = values.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # |int64 min| = 2**63 fits
    ndigits = np.searchsorted(_POW10, mag, side="right") + 1
    width = int(ndigits.max(initial=1))
    cells = np.empty((values.size, width + 2), dtype=np.uint8)
    cells[:, 0] = ord("-")
    for j in range(width, 0, -1):
        quotient = mag // 10
        cells[:, j] = mag - quotient * 10 + ord("0")
        mag = quotient
    keep = np.arange(width + 2) >= (width + 1 - ndigits)[:, None]
    keep[:, 0] = neg
    return cells, keep


# FLOAT_FMT without a Python object per value.  A float with 10**X <= |x| <
# 10**(X+1) prints the 17 digits D = round(|x| 10**s), s = 16 - X.  |x| hi
# is Dekker's exact two-product, where hi + lo is 10**s as a double-double,
# and |x| lo is added in floating point: below 10**17 < 2**57 the computed
# |x| 10**s is off by less than 2**-47 (lo's truncation and the sum's
# rounding, each under 2**-49, and the rounding of |x| lo, under 2**-50).
# A value goes through FLOAT_FMT itself where the kernel cannot certify it:
# the fraction lies within _HALF_MARGIN of 1/2 (a tie, or too close to one
# to call), D is not 17 digits (log10 put X one off, or D rounds up to
# 10**17), |x| lies outside [1e-291, 1e299), where the table and the splits
# hold without overflow or underflow, or x is inf or nan.  +-0 stays in the
# kernel.
_S_MIN, _S_MAX = -283, 308
_X_MIN = 16 - _S_MAX  # one below the X of 1e-291, where log10 rounds down
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's splitter for 53-bit doubles
_HALF_MARGIN = 2.0 ** -32


def _pow10_table() -> np.ndarray:
    """Rows hi, hi's Veltkamp head and tail, and lo, of 10**s = 10**(16 - X)
    at column X - _X_MIN, from exact integer arithmetic."""
    rows = []
    for s in range(_S_MAX, _S_MIN - 1, -1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi = num / den  # int true division rounds correctly
        a, b = hi.as_integer_ratio()
        lo = (num * b - a * den) / (den * b)
        m, e = math.frexp(hi)  # split the mantissa, so 1e308 cannot overflow
        c = m * _SPLIT
        head = c - (c - m)
        rows.append((hi, math.ldexp(head, e), math.ldexp(m - head, e), lo))
    return np.array(rows).T.copy()


_POW10_DD = _pow10_table()

# A float cell is six uint64 words, 48 bytes: "-0.000", the first digit and
# a point; the other 16 digits, each followed by a point; "e", the
# exponent's sign and three digits, two bytes never kept and the separator.
# The cell's keep row picks the sign, the "0." and leading zeros of
# -4 <= X < 0, the significant digits, at most one point and the exponent.
_FLOAT_WIDTH = 48
_HEAD_WORDS = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64)


def _digit_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The word of each 4-digit group, its digits each followed by a point;
    the exponent's word by X - _X_MIN; and by group k (rows 0-3, after the
    first digit) and value, the significant digits through that group, or 0
    for a group of zeros."""
    v = np.arange(10_000, dtype=np.uint16)
    pairs = np.full((v.size, 8), ord("."), dtype=np.uint8)
    for j, unit in enumerate((1000, 100, 10, 1)):
        pairs[:, 2 * j] = v // unit % 10 + ord("0")
    exp = np.zeros((_S_MAX - _S_MIN + 1, 8), dtype=np.uint8)
    X = np.arange(_X_MIN, _X_MIN + len(exp))
    exp[:, 0], exp[:, 1] = ord("e"), np.where(X < 0, ord("-"), ord("+"))
    exp[:, 2:5] = pairs[np.abs(X), 2::2]
    nonzero = (4 - (v % 10 == 0) - (v % 100 == 0) - (v % 1000 == 0)).astype(np.uint8)
    digits = np.zeros((4, v.size), dtype=np.uint8)
    digits[:, 1:] = 1 + 4 * np.arange(4, dtype=np.uint8)[:, None] + nonzero[1:]
    return pairs.view(np.uint64).ravel(), exp.view(np.uint64).ravel(), digits


_PAIR_WORDS, _EXP_WORDS, _GROUP_DIGITS = _digit_words()


def _keep_words() -> tuple[np.ndarray, np.ndarray]:
    """The keep rows, six uint64 words each, by layout code 17 f + nd - 1,
    and 17 f - 1 by X - _X_MIN: f is X + 4 for the fixed notation of
    -4 <= X < 17, 21 for a two-digit exponent and 22 for a three-digit one,
    and nd the significant digits."""
    form, nd = np.divmod(np.arange(23 * 17), 17)
    nd += 1
    fixed = form < 21
    X = np.where(fixed, form - 4, 0)
    keep = np.zeros((form.size, _FLOAT_WIDTH), dtype=bool)
    keep[:, 1:6] = np.arange(5) < np.where(fixed & (X < 0), 1 - X, 0)[:, None]
    keep[:, 6:40:2] = np.arange(17) < np.maximum(nd, X + 1)[:, None]
    keep[:, 7:40:2] = np.arange(17) == np.where(nd > X + 1, X, -1)[:, None]
    keep[:, 40:45] = ~fixed[:, None]
    keep[:, 42] = form == 22
    X = np.arange(_X_MIN, _X_MIN + _S_MAX - _S_MIN + 1)
    form = np.where((X >= -4) & (X < 17), X + 4, np.where(np.abs(X) < 100, 21, 22))
    return keep.view(np.uint64), 17 * form - 1


_KEEP_WORDS, _FORM_CODES = _keep_words()


def _float_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``FLOAT_FMT`` of each value as one 48-byte uint8 row, with a mask of
    the bytes to keep and a last byte left for the separator; only a value
    the kernel cannot certify (above) makes a Python string."""
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    sure = (a >= 1e-291) & (a < 1e299)
    a[~sure] = 0.0
    X = np.floor(np.log10(np.where(sure, a, 1.0))).astype(np.intp)
    row = X - _X_MIN
    hi, head, tail, lo = _POW10_DD.take(row, axis=1)
    p = a * hi
    c = a * _SPLIT
    a_head = c - (c - a)
    a_tail = a - a_head
    # Dekker's error term of p, then |x| lo
    t = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail + a * lo
    whole = np.floor(t)
    frac = t - whole
    F = p.astype(np.int64) + whole.astype(np.int64)
    D = F + (frac > 0.5)
    certified = (x == 0.0) | ((np.abs(frac - 0.5) > _HALF_MARGIN)
                              & (F >= 10 ** 16) & (D < 10 ** 17))
    D[~certified] = 0
    top, low = np.divmod(D, 10 ** 8)
    first, top = np.divmod(top, 10 ** 8)
    groups = np.divmod(top, 10 ** 4) + np.divmod(low, 10 ** 4)
    words = np.empty((x.size, _FLOAT_WIDTH // 8), dtype=np.uint64)
    words[:, 0] = _HEAD_WORDS.take(first)
    for k, group in enumerate(groups):
        words[:, k + 1] = _PAIR_WORDS.take(group)
    words[:, 5] = _EXP_WORDS.take(row)
    digits = [_GROUP_DIGITS[k].take(g) for k, g in enumerate(groups)]
    nd = np.maximum(np.maximum(digits[0], digits[1]), np.maximum(digits[2], digits[3]))
    np.maximum(nd, 1, out=nd)
    keep = _KEEP_WORDS.take(_FORM_CODES.take(row) + nd, axis=0).view(bool)
    keep[:, 0] = np.signbit(x)
    cells = words.view(np.uint8)
    guard = np.flatnonzero(~certified)
    if guard.size:
        texts = [FLOAT_FMT % v for v in x[guard].tolist()]
        cells[guard] = np.frombuffer("".join(t.ljust(_FLOAT_WIDTH) for t in texts)
                                     .encode("ascii"), np.uint8).reshape(-1, _FLOAT_WIDTH)
        keep[guard] = np.arange(_FLOAT_WIDTH) < np.array([len(t) for t in texts])[:, None]
    return cells, keep


def _text_blocks(head: list[str], columns: Iterable[Iterable]) -> Iterator[str]:
    # the head lines, then the rows one TEXT_BLOCK at a time, each block one
    # byte matrix: %d cells for an integer column and FLOAT_FMT cells for any
    # other, side by side, each cell's last byte its "," or newline,
    # compressed once by the cells' keep masks
    columns = [np.asarray(c) for c in columns]
    if any(c.shape != columns[0].shape for c in columns):
        raise ValueError("columns differ in length")
    integer = [c.dtype.kind in "iu" for c in columns]
    yield "\n".join(head) + "\n"
    for i in range(0, columns[0].size, TEXT_BLOCK):
        block = [c[i:i + TEXT_BLOCK] for c in columns]
        floats = [c for c, is_int in zip(block, integer) if not is_int]
        if floats:  # one kernel call a block: its fixed cost shows on small tables
            float_cells = zip(*(a.reshape(len(floats), -1, _FLOAT_WIDTH)
                                for a in _float_cells(np.concatenate(floats))))
        cells, keep = zip(*(_int_cells(c) if is_int else next(float_cells)
                            for c, is_int in zip(block, integer)))
        ends = np.cumsum([c.shape[1] for c in cells]) - 1
        cells, keep = np.concatenate(cells, axis=1), np.concatenate(keep, axis=1)
        cells[:, ends], cells[:, -1], keep[:, ends] = ord(","), ord("\n"), True
        yield np.compress(keep.ravel(), cells.ravel()).tobytes().decode("ascii")


def _file_blocks(head: list[str], values: np.ndarray) -> Iterator[str]:
    # a path or marks file with no values still ends in one empty line
    return _text_blocks(head + [""] if values.size == 0 else head, [values])


def path_file_text(spec: ProcessSpec, seed: int, values: np.ndarray) -> Iterator[str]:
    """The file of the path ``generate(spec, seed, len(values))`` as text
    blocks; their concatenation is the file."""
    tag = describe_spec(spec)
    head = [
        "# phantomdf path v1",
        f"# spec: {tag}",
        f"# digest: {spec_digest(spec)}",
        f"# seed: {seed}",
        f"# burn_in: {default_burn_in(spec)}",
        f"# length: {values.size}",
    ]
    if isinstance(spec, MixtureSpec):
        # the engine draws the component first from the path's own stream
        head.append(f"# component: {_mixture_draw_component(rng_for(seed, 'path', tag))}")
    return _file_blocks(head, values)


def marks_file_text(spec: ProcessSpec, values: np.ndarray) -> Iterator[str]:
    """The regeneration marks file of a Lindley path, the indices of its
    zeros, as text blocks; their concatenation is the file."""
    if not isinstance(spec, LindleySpec):
        raise ValueError(f"a {describe_spec(spec)} path has no regeneration marks")
    head = [
        "# phantomdf regeneration marks v1 (post burn-in indices)",
        f"# digest: {spec_digest(spec)}",
    ]
    return _file_blocks(head, _regeneration_marks(values))
