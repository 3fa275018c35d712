"""Deterministic serialization of estimates to CSV, JSON, and path files.

All floats print with %.17g so round-trips are bit-exact and reports
byte-compare across runs.  Wall-clock timings never enter these writers;
the CLI keeps them in a separate timing file outside the determinism
contract.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

import numpy as np

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


def _cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return fmt_float(x)
    return str(x)


def csv_table(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def maxlaw_csv(est: MaxLawEstimate) -> str:
    rows = []
    for r in est.rows:
        for x, p, s in zip(r.levels, r.p_hat, r.se):
            rows.append((r.n, x, p, s, est.replicas))
    return csv_table(("n", "level", "p_hat", "se", "replicas"), rows)


def driving_csv(dse: DrivingSeqEstimate) -> str:
    rows = zip(dse.n_values, dse.v_hat, dse.ci_lo, dse.ci_hi)
    return csv_table(("n", "v_hat", "ci_lo", "ci_hi"), rows)


def bt_csv(report: BTReport) -> str:
    rows = []
    for r in report.rows:
        for pair in r.pairs:
            rows.append((r.n, pair.p, pair.q, pair.value, pair.se))
    return csv_table(("n", "p", "q", "b_value", "se"), rows)


def theta_csv(est: ThetaEstimate) -> str:
    rows = [(r.n, r.level, r.tail, r.s, r.gamma_prime, r.theta,
             r.theta_lo, r.theta_hi) for r in est.rows]
    return csv_table(("n", "level", "tail", "n_tail", "gamma_prime",
                      "theta", "theta_lo", "theta_hi"), rows)


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        # textual float so json round-off never differs between platforms
        return float(fmt_float(obj))
    return obj


def json_report(payload: dict) -> str:
    return json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n"


# values per text block of a streamed artifact: large paths and mark lists
# are formatted and written one block at a time, never as one string
TEXT_BLOCK = 65_536


def _text_blocks(head: list[str], values: np.ndarray, fmt: str) -> Iterator[str]:
    # the bytes of "\n".join(head) + "\n" + "\n".join(fmt % v ...) + "\n"
    yield "\n".join(head) + "\n"
    if values.size == 0:
        yield "\n"
    for i in range(0, values.size, TEXT_BLOCK):
        yield "".join(fmt % v for v in values[i:i + TEXT_BLOCK].tolist())


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
    return _text_blocks(head, path.values, FLOAT_FMT + "\n")


def marks_file_text(path: SamplePath) -> Iterator[str]:
    """The regeneration marks file as text blocks; their concatenation is the file."""
    if path.regeneration_marks is None:
        raise ValueError("path has no regeneration marks")
    head = [
        "# phantomdf regeneration marks v1 (post burn-in indices)",
        f"# digest: {spec_digest(path.spec)}",
    ]
    return _text_blocks(head, path.regeneration_marks, "%d\n")
