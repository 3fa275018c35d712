"""Text artifacts: streamed path and marks files keep the joined bytes."""

import numpy as np
import pytest

from phantomdf import reporting
from phantomdf.distributions import pareto, shifted
from phantomdf.processes import IIDSpec, LindleySpec, SamplePath, describe_spec, generate, spec_digest
from phantomdf.reporting import FLOAT_FMT, marks_file_text, path_file_text

LINDLEY = LindleySpec(step=shifted(pareto(2.0, 1.0), -2.0), burn_in=300)


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
