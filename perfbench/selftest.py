"""Self-test of the benchmark harness on a tiny workload (about a minute).

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

It runs ``run.py``'s main on a three-command workload at tiny sizes and
checks that every metric prints by name with its unit, that the JSON line
carries exactly the metrics BENCHMARK.json lists, that traced counts repeat
between runs, and that a wrong expected verdict or a differing artifact
digest counts as a failed command. Exit code 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import Command, Workload  # noqa: E402

TINY = Workload(
    name="selftest-tiny",
    why="tiny sizes that reach every traced layer within seconds",
    commands=(
        Command("fit", "phantom-fit", {
            "kind": "metropolis", "target": "symmetric_pareto(2,1)",
            "proposal": "uniform(-1,1)", "block_sizes": "10,20", "replicas": "200",
        }, expect={"theta_verdict": "zero"}, exit_code=1),  # too small to verify
        Command("regen", "regen", {
            "step": "pareto(2,1)-2", "length": "100000",
            "verify_blocks": "100,1000", "replicas": "200",
        }, expect={"stationary_tail_verdict": "ratio->0"}),
        Command("criterion1", "acceptance", {"criteria": "1"},
                expect={"results.0.passed": True}),
    ),
)


def main_output(workload: Workload, trace: int) -> tuple[str, dict]:
    """Stdout of run.main on ``workload`` and its parsed last line."""
    run.WORKLOADS[workload.name] = workload
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload.name, "--seed", "5",
                         "--seconds", "0", "--trace", str(trace)])
    text = buf.getvalue()
    if code != 0:
        raise SystemExit(f"run.main exited {code}:\n{text}")
    return text, json.loads(text.strip().splitlines()[-1])


def main() -> int:
    failures: list[str] = []
    checks = 0

    def check(ok: bool, what: str) -> None:
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(what)

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {key: [(m["name"], m["unit"]) for m in bench[key]]
              for key in ("end_to_end", "per_layer")}
    check(listed["end_to_end"] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check(listed["per_layer"] == list(run.PER_LAYER),
          "BENCHMARK.json per_layer differs from run.PER_LAYER")
    check([(w["name"], w["why"]) for w in bench["workloads"]]
          == [(w.name, w.why) for w in run.WORKLOADS.values()],
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")

    text, last = main_output(TINY, 0)
    check(set(last) == {"correct", "attempted", "failed", "metrics"},
          f"JSON line keys {sorted(last)}")
    check(last["correct"] and last["failed"] == 0,
          f"tiny workload failed:\n{text}")
    for name, unit in run.END_TO_END + (("failed_frac", "ratio"),):
        check(re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s", text, re.M)
              is not None, f"{name} not printed with unit {unit}")
    check([(k, v["unit"]) for k, v in last["metrics"].items()] == list(run.END_TO_END),
          "trace 0 JSON metrics differ from END_TO_END")

    text, traced = main_output(TINY, 1)
    for name, unit, _, _ in run.LAYER_METRICS:
        check(re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}$", text, re.M)
              is not None, f"{name} not printed with unit {unit}")
    check([(k, v["unit"]) for k, v in traced["metrics"].items()] == list(run.PER_LAYER),
          "trace 1 JSON metrics differ from PER_LAYER")
    check(traced["metrics"]["estimate.block_maxima_table.chain_steps"]["value"] > 0,
          "no chain steps counted")
    _, again = main_output(TINY, 1)
    for name, unit in run.PER_LAYER:
        if unit in run.COUNT_UNITS:
            check(traced["metrics"][name] == again["metrics"][name],
                  f"count {name} differs between traced runs")

    wrong = replace(TINY, name="selftest-wrong", commands=(
        replace(TINY.commands[0], expect={"theta_verdict": "positive"}),) + TINY.commands[1:])
    text, last = main_output(wrong, 0)
    check(not last["correct"] and last["failed"] == last["attempted"] // 3,
          f"a wrong expected verdict did not fail exactly the fit commands:\n{text}")

    reps = [{"commands": [{"name": "a", "problems": [], "digest": d}]}
            for d in ("x", "y", "x")]
    run.mark_digest_mismatches(reps)
    check([bool(r["commands"][0]["problems"]) for r in reps] == [False, True, False],
          "a differing digest was not counted as a failure")

    for f in failures:
        print(f"FAIL: {f}")
    print(f"selftest: {checks - len(failures)} of {checks} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
