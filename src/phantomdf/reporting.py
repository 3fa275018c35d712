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
from .processes import SamplePath, describe_spec, spec_digest

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
        # textual float so json round-off never differs between platforms
        return float(fmt_float(obj))
    return obj


def json_report(payload: dict) -> str:
    """Sorted, indented strict JSON; a non-finite float is an error that
    names its field."""
    return json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


# values per text block of a streamed artifact: large paths and mark lists
# are formatted and written one block at a time, never as one string
TEXT_BLOCK = 65_536

# 10**1 .. 10**19: a value has one digit more than the powers it reaches
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)


def _int_lines(values: np.ndarray) -> str:
    """``"".join("%d\\n" % v for v in values)`` for an int64 or uint64
    array, with no Python object per value: the digits come from numpy
    division, right-aligned in one uint8 row per value, and one mask keeps
    each row's sign, digits and newline."""
    neg = values < 0
    mag = values.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # |int64 min| = 2**63 fits
    ndigits = np.searchsorted(_POW10, mag, side="right") + 1
    width = int(ndigits.max(initial=1))
    cells = np.empty((values.size, width + 2), dtype=np.uint8)
    cells[:, 0], cells[:, -1] = ord("-"), ord("\n")
    for j in range(width, 0, -1):
        quotient = mag // 10
        cells[:, j] = mag - quotient * 10 + ord("0")
        mag = quotient
    keep = np.arange(width + 2) >= (width + 1 - ndigits)[:, None]
    keep[:, 0] = neg
    return cells[keep].tobytes().decode("ascii")


def _text_blocks(head: list[str], columns: Iterable[Iterable]) -> Iterator[str]:
    # the head lines, then the rows one TEXT_BLOCK at a time: a lone integer
    # column through the digit kernel, any other table through one row
    # template, %d for an integer column and FLOAT_FMT for any other (%.17g
    # has no exact vectorised form)
    columns = [np.asarray(c) for c in columns]
    yield "\n".join(head) + "\n"
    if len(columns) == 1 and columns[0].dtype.kind in "iu":
        for i in range(0, columns[0].size, TEXT_BLOCK):
            yield _int_lines(columns[0][i:i + TEXT_BLOCK])
        return
    row = ",".join("%d" if c.dtype.kind in "iu" else FLOAT_FMT for c in columns) + "\n"
    for i in range(0, columns[0].size, TEXT_BLOCK):
        block = [c[i:i + TEXT_BLOCK].tolist() for c in columns]
        # one column (a path file) formats its values directly; 1-tuples of
        # them are slower (on 1.39M integer marks 0.56-0.60 s against
        # 0.45-0.56 s on a 2-core VM)
        yield "".join(map(row.__mod__, block[0] if len(block) == 1
                          else zip(*block, strict=True)))


def _file_blocks(head: list[str], values: np.ndarray) -> Iterator[str]:
    # a path or marks file with no values still ends in one empty line
    return _text_blocks(head + [""] if values.size == 0 else head, [values])


def path_file_text(path: SamplePath) -> Iterator[str]:
    """The path file as text blocks; their concatenation is the file."""
    head = [
        "# phantomdf path v1",
        f"# spec: {describe_spec(path.spec)}",
        f"# digest: {spec_digest(path.spec)}",
        f"# seed: {path.seed}",
        f"# burn_in: {path.burn_in}",
        f"# length: {path.values.size}",
    ]
    if path.mixture_component is not None:
        head.append(f"# component: {path.mixture_component}")
    return _file_blocks(head, path.values)


def marks_file_text(path: SamplePath) -> Iterator[str]:
    """The regeneration marks file as text blocks; their concatenation is the file."""
    if path.regeneration_marks is None:
        raise ValueError("path has no regeneration marks")
    head = [
        "# phantomdf regeneration marks v1 (post burn-in indices)",
        f"# digest: {spec_digest(path.spec)}",
    ]
    return _file_blocks(head, path.regeneration_marks)
