"""phantomdf benchmark: CLI workloads timed end to end, and traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the workload's commands in a fresh child process, one
child at a time, until about S seconds have passed (at least MIN_REPS
repetitions). With ``--trace 0`` the end-to-end metrics are the medians over
the repetitions. With ``--trace 1`` untraced and traced repetitions
alternate; the traced ones wrap phantomdf's public functions from
``tracer.py`` and give the per-layer metrics, and the difference of the two
median wall times is the tracing overhead.

On a shared machine the speed of the whole box swings by up to 2x within
seconds to minutes, which would swamp any change to phantomdf. So
``wall_s`` and ``setup_s`` are reported in reference seconds: each
repetition's measured time is multiplied by (REF_CALIBRATION_S / k) **
CALIBRATION_EXPONENT, where k is the median time of a fixed calibration
kernel (``child.calibrate``) that the child runs right before and after its
commands; the metric is the median over the repetitions. On a machine as
fast as the reference they equal the measured seconds, which are printed
alongside.

Every command must exit with its expected code, write the expected verdict
fields and produce artifacts whose digest matches the other repetitions of
the same invocation; otherwise it counts as failed. The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
A JSON record of each run, its trace file when traced, and the artifacts and
logs of failed repetitions go under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

MIN_REPS = 3          # untraced repetitions per --trace 0 run
MIN_PAIRS = 1         # untraced + traced pairs per --trace 1 run
DEADLINE_S = 150.0    # start no repetition that could end past this
SINGLE_THREADED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# median calibration kernel time on the reference machine: a 2-core Intel
# Xeon VM with Python 3.11.7 and numpy 2.4.6, in a quiet period
REF_CALIBRATION_S = 0.075
# Over 191 repetitions of the three workloads on that machine, the log of
# each repetition's wall and set-up time moved with 0.40 to 0.68 times the
# log of its kernel time (least-squares slopes; correlations 0.52 to 0.84):
# the short kernel samples feel the machine's speed swings in full, a
# seconds-long workload only in part. Scaling by the full ratio
# over-corrects, so times scale by its square root.
CALIBRATION_EXPONENT = 0.5


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

def _ini(section: str, keys: dict[str, str]) -> str:
    return f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())


def _lookup(summary, dotted: str):
    value = summary
    for part in dotted.split("."):
        value = value[int(part)] if isinstance(value, list) else value[part]
    return value


def artifact_digest(out: Path) -> str:
    """sha256 over every artifact but timing.txt, which holds wall-clock data."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name == "timing.txt":
            continue
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def verdict_errors(cmd, code, error, out: Path) -> list[str]:
    if error is not None:
        return [f"raised: {error.strip().splitlines()[-1]}"]
    problems = []
    if code != cmd.exit_code:
        problems.append(f"exit code {code}, expected {cmd.exit_code}")
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"summary.json unreadable: {exc}"]
    for key, want in cmd.expect.items():
        try:
            got = _lookup(summary, key)
        except (KeyError, IndexError, TypeError):
            got = "<missing>"
        if got != want:
            problems.append(f"{key} = {got!r}, expected {want!r}")
    return problems


def run_rep(workload: Workload, seed: int, traced: bool, rep_dir: Path,
            root: Path, timeout: float) -> dict:
    """Run the workload once in a child; return its timings and command checks."""
    rep_dir.mkdir(parents=True)
    outs = {c.name: rep_dir / c.name for c in workload.commands}
    commands = []
    for cmd in workload.commands:
        keys = {k: v.format(**{n: str(p) for n, p in outs.items()})
                for k, v in cmd.config.items()}
        ini = rep_dir / f"{cmd.name}.ini"
        ini.write_text(_ini(cmd.subcommand, keys), encoding="utf-8")
        commands.append([cmd.subcommand, "--config", str(ini), "--seed", str(seed),
                         "--out", str(outs[cmd.name]), "--workers", str(cmd.workers)])
    plan, result_path = rep_dir / "plan.json", rep_dir / "result.json"
    plan.write_text(json.dumps({"commands": commands, "trace": traced}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **SINGLE_THREADED)

    rep = {"traced": traced, "commands": []}
    spawn_ns = time.monotonic_ns()
    with open(rep_dir / "child.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(plan), str(result_path)],
                cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=timeout, check=False)
            child_error = None if proc.returncode == 0 else f"child exit {proc.returncode}"
        except subprocess.TimeoutExpired:
            child_error = f"child timed out after {timeout:.0f} s"
    result = None
    if child_error is None:
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if Path(result["phantomdf"]) != (root / "src" / "phantomdf").resolve():
            child_error = f"imported phantomdf from {result['phantomdf']}"
    if child_error is not None:
        rep["error"] = child_error
        rep["commands"] = [{"name": c.name, "problems": [child_error], "digest": None}
                           for c in workload.commands]
        return rep  # rep_dir stays for inspection

    setup, wall = (result["ready_ns"] - spawn_ns) / 1e9, result["wall_ns"] / 1e9
    scale = (REF_CALIBRATION_S / statistics.median(result["calib"])) ** CALIBRATION_EXPONENT
    rep.update(
        setup_measured_s=setup,
        wall_measured_s=wall,
        setup_s=setup * scale,
        wall_s=wall * scale,
        peak_rss_mb=result["maxrss_kb"] / 1024.0,
        versions=result["versions"],
        spans=result["spans"],
        main_start_ns=result["main_start_ns"],
        calib=result["calib"],
    )
    for cmd, code, error in zip(workload.commands, result["codes"], result["errors"]):
        out = outs[cmd.name]
        rep["commands"].append({
            "name": cmd.name,
            "problems": verdict_errors(cmd, code, error, out),
            "digest": artifact_digest(out) if out.is_dir() else None,
        })
    if not any(c["problems"] for c in rep["commands"]):
        shutil.rmtree(rep_dir)
    return rep


def mark_digest_mismatches(reps: list[dict]) -> dict[str, str]:
    """Fail each command whose digest differs from the most common one."""
    modal = {}
    names = [c["name"] for c in reps[0]["commands"]]
    for i, name in enumerate(names):
        digests = Counter(r["commands"][i]["digest"] for r in reps)
        modal[name] = digests.most_common(1)[0][0]
        for r in reps:
            c = r["commands"][i]
            if c["digest"] != modal[name] and not c["problems"]:
                c["problems"].append(f"artifact digest {c['digest']} differs "
                                     f"from {modal[name]}")
    return modal


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def layer_stats(spans: list) -> dict[str, dict]:
    """Per span name: calls, self and inclusive time, summed counts.

    Self time is a span's duration minus the time its child spans cover.
    Inclusive time and counts add up only the outermost span of each name
    (and, for the reporting bytes, of the module), so nested calls are not
    counted twice.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_ns": 0, "total_ns": 0,
                                    "counts": {}, "module_counts": {}})
        s["calls"] += 1
        s["self_ns"] += end - start - child_ns[i]
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if name in ancestors:
            continue
        s["total_ns"] += end - start
        module = name.split(".")[0]
        outer_in_module = not any(a.split(".")[0] == module for a in ancestors)
        for k, v in (counts or {}).items():
            s["counts"][k] = s["counts"].get(k, 0) + v
            if outer_in_module:
                s["module_counts"][k] = s["module_counts"].get(k, 0) + v
    return stats


def _self(name):
    return lambda st, wall: st.get(name, {}).get("self_ns", 0) / 1e9


def _module_self(module):
    return lambda st, wall: sum(s["self_ns"] for n, s in st.items()
                                if n.split(".")[0] == module) / 1e9


def _count(name, key):
    return lambda st, wall: st.get(name, {}).get("counts", {}).get(key, 0)


def _calls(name):
    return lambda st, wall: st.get(name, {}).get("calls", 0)


def _module_count(module, key):
    return lambda st, wall: sum(s["module_counts"].get(key, 0) for n, s in st.items()
                                if n.split(".")[0] == module)


def _total(name):
    return lambda st, wall: st.get(name, {}).get("total_ns", 0) / 1e9


def _per(name, key):
    """Inclusive nanoseconds of ``name`` per counted unit of work."""
    def f(st, wall):
        s = st.get(name)
        units = s["counts"].get(key, 0) if s else 0
        return s["total_ns"] / units if units else 0.0
    return f


def _evals_per_s(st, wall):
    s = st.get("phantom.pow")
    return s["calls"] / (s["total_ns"] / 1e9) if s and s["total_ns"] else 0.0


def _self_share(st, wall):
    return sum(s["self_ns"] for s in st.values()) / 1e9 / wall


# (name, unit, value from (stats, traced wall_s), in the JSON line); times
# are measured seconds of the traced repetitions, not reference seconds.
# The JSON line carries the counts and only those times that every workload
# exercises: a layer that a workload never calls would report a time of
# exactly 0 on every run. The other times are printed in the per-layer
# table and kept in the trace file.
LAYER_METRICS = (
    ("estimate.block_maxima_table.self_s", "s", _self("estimate.block_maxima_table"), True),
    ("estimate.block_maxima_table.total_s", "s", _total("estimate.block_maxima_table"), True),
    ("estimate.block_maxima_table.ns_per_chain_step", "ns",
     _per("estimate.block_maxima_table", "chain_steps"), False),
    ("estimate.block_maxima_table.chain_steps", "count",
     _count("estimate.block_maxima_table", "chain_steps"), True),
    ("estimate.check_BT.self_s", "s", _self("estimate.check_BT"), False),
    ("estimate.check_BT.chain_steps", "count",
     _count("estimate.check_BT", "chain_steps"), True),
    ("estimate.estimate_theta_single_sequence.self_s", "s",
     _self("estimate.estimate_theta_single_sequence"), False),
    ("estimate.driving_from_maxima.self_s", "s", _self("estimate.driving_from_maxima"), False),
    ("estimate.maxlaw_from_maxima.self_s", "s", _self("estimate.maxlaw_from_maxima"), True),
    ("estimate.decompose_regenerative.self_s", "s",
     _self("estimate.decompose_regenerative"), False),
    ("estimate.decompose_regenerative.cycles", "count",
     _count("estimate.decompose_regenerative", "cycles"), True),
    ("estimate.rootzen_phantom.self_s", "s", _self("estimate.rootzen_phantom"), False),
    ("estimate.self_s", "s", _module_self("estimate"), True),
    ("processes.generate.self_s", "s", _self("processes.generate"), False),
    ("processes.generate.steps", "count", _count("processes.generate", "steps"), True),
    ("processes.generate.ns_per_step", "ns", _per("processes.generate", "steps"), False),
    ("processes.lindley_step_tail_vs_stationary.self_s", "s",
     _self("processes.lindley_step_tail_vs_stationary"), False),
    ("processes.self_s", "s", _module_self("processes"), True),
    ("phantom.verify_phantom.self_s", "s", _self("phantom.verify_phantom"), True),
    ("phantom.verify_phantom.levels", "count", _count("phantom.verify_phantom", "levels"), True),
    ("phantom.pow.calls", "count", _calls("phantom.pow"), True),
    ("phantom.pow.self_s", "s", _self("phantom.pow"), False),
    ("phantom.evals_per_s", "1/s", _evals_per_s, False),
    ("phantom.to_text.self_s", "s", _self("phantom.to_text"), False),
    ("phantom.from_text.self_s", "s", _self("phantom.from_text"), False),
    ("phantom.self_s", "s", _module_self("phantom"), True),
    ("reporting.self_s", "s", _module_self("reporting"), True),
    ("reporting.bytes", "bytes", _module_count("reporting", "bytes"), True),
    ("distributions.draw.calls", "count", _calls("distributions.draw"), True),
    ("distributions.draw.values", "count", _count("distributions.draw", "values"), True),
    ("distributions.draw.self_s", "s", _self("distributions.draw"), False),
    ("distributions.self_s", "s", _module_self("distributions"), True),
    ("seeding.rng_for.calls", "count", _calls("seeding.rng_for"), True),
    ("seeding.rng_for.self_s", "s", _self("seeding.rng_for"), True),
    ("config.build_spec.self_s", "s", _self("config.build_spec"), False),
    ("config.self_s", "s", _module_self("config"), True),
    ("acceptance.run_criterion.self_s", "s", _self("acceptance.run_criterion"), False),
    ("acceptance.self_s", "s", _module_self("acceptance"), False),
    ("cli.self_s", "s", _module_self("cli"), True),
    ("trace.self_share", "ratio", _self_share, True),
)
COUNT_UNITS = {"count", "bytes"}
TRACE_METRICS = (("trace.wall_s", "s"), ("trace.overhead_s", "s"))
PER_LAYER = tuple((n, u) for n, u, _, in_json in LAYER_METRICS if in_json) + TRACE_METRICS


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def machine_record(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, **versions, "blas_threads": 1}


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            root: Path) -> dict:
    run_dir = root / ".perfbench-out" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    modes = (False, True) if trace else (False,)
    minimum = MIN_PAIRS if trace else MIN_REPS
    reps: list[dict] = []
    began = time.monotonic()
    rounds = 0
    while True:
        for traced in modes:
            elapsed = time.monotonic() - began
            reps.append(run_rep(workload, seed, traced, run_dir / f"rep{len(reps) + 1}",
                                root, timeout=max(10.0, 170.0 - elapsed)))
        rounds += 1
        if any("error" in r for r in reps):
            break
        elapsed = time.monotonic() - began
        per_round = elapsed / rounds
        if elapsed + per_round > DEADLINE_S:
            break
        if rounds >= minimum and elapsed + per_round > seconds:
            break
    ok_reps = [r for r in reps if "error" not in r]
    digests = mark_digest_mismatches(reps)
    return {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, "run_dir": run_dir, "reps": reps, "digests": digests,
            "machine": machine_record(ok_reps[0]["versions"] if ok_reps else {})}


def summarize(run: dict) -> dict:
    """End-to-end or per-layer metrics of a run, plus the failure counts."""
    reps = run["reps"]
    attempted = sum(len(r["commands"]) for r in reps)
    failed = sum(1 for r in reps for c in r["commands"] if c["problems"])
    plain = [r for r in reps if "error" not in r and not r["traced"]]
    traced = [r for r in reps if "error" not in r and r["traced"]]
    metrics: dict[str, tuple[float, str]] = {}
    consistent = True
    if not run["trace"]:
        for name, unit in END_TO_END:
            metrics[name] = (_median([r[name] for r in plain]), unit)
    else:
        per_rep = []
        for r in traced:
            st = layer_stats(r["spans"])
            per_rep.append({n: f(st, r["wall_measured_s"]) for n, _, f, _ in LAYER_METRICS})
        for name, unit, _, _ in LAYER_METRICS:
            values = [m[name] for m in per_rep]
            if unit in COUNT_UNITS:
                consistent = consistent and len(set(values)) <= 1
                metrics[name] = (values[0] if values else 0, unit)
            else:
                metrics[name] = (_median(values), unit)
        wall_traced = _median([r["wall_measured_s"] for r in traced])
        metrics["trace.wall_s"] = (wall_traced, "s")
        metrics["trace.overhead_s"] = (
            wall_traced - _median([r["wall_measured_s"] for r in plain]), "s")
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "counts_consistent": consistent, "plain": plain, "traced": traced}


def write_record(run: dict, summary: dict) -> None:
    """The run's machine, repetitions, digests and metrics next to its run dir;
    with tracing, also all spans as one Chrome trace-event file."""
    base = run["run_dir"]
    record = {k: run[k] for k in ("workload", "seed", "seconds", "trace",
                                  "machine", "digests")}
    record.update(
        reps=[{k: v for k, v in r.items() if k != "spans"} for r in run["reps"]],
        attempted=summary["attempted"], failed=summary["failed"],
        reference_calibration_s=REF_CALIBRATION_S,
        calibration_exponent=CALIBRATION_EXPONENT,
        metrics={name: {"value": v, "unit": u}
                 for name, (v, u) in summary["metrics"].items()})
    base.with_name(base.name + ".json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    if run["trace"]:
        write_trace(run, base.with_name(base.name + ".trace.json"))


def write_trace(run: dict, path: Path) -> None:
    """All spans of the traced repetitions as one Chrome trace-event file."""
    events = []
    for i, r in enumerate(run["reps"]):
        if not r.get("spans"):
            continue
        base = r["main_start_ns"]
        for j, (name, start, end, parent, counts) in enumerate(r["spans"]):
            events.append({"name": name, "ph": "X", "pid": i + 1, "tid": 0,
                           "ts": (start - base) / 1e3, "dur": (end - start) / 1e3,
                           "args": {"id": j, "parent": parent, **(counts or {})}})
    path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(run: dict, summary: dict) -> None:
    m = run["machine"]
    print(f"workload {run['workload']}, seed {run['seed']}, "
          f"{len(run['reps'])} repetitions in {run['seconds']:g} s budget, "
          f"trace {int(run['trace'])}")
    print(f"machine: nproc {m.get('nproc')} (affinity {m.get('affinity')}), "
          f"cpu {m.get('cpu')}; python {m.get('python')}, numpy {m.get('numpy')}, "
          f"scipy {m.get('scipy')}; BLAS/OpenMP threads {m.get('blas_threads')}")
    for i, r in enumerate(run["reps"], 1):
        status = "; ".join(f"{c['name']}: {'; '.join(c['problems'])}"
                           for c in r["commands"] if c["problems"]) or "ok"
        if "error" in r:
            print(f"  rep {i}: {status}")
            continue
        print(f"  rep {i}{' traced' if r['traced'] else ''}: measured setup "
              f"{r['setup_measured_s']:.3f} s, wall {r['wall_measured_s']:.3f} s; "
              f"calibration {statistics.median(r['calib']):.4f} s; "
              f"peak {r['peak_rss_mb']:.1f} MB; {status}")
    for name, digest in run["digests"].items():
        print(f"  artifact digest {name}: {digest}")
    plain = summary["plain"]
    if not run["trace"] and plain:
        print(f"times below are reference seconds (calibration kernel at "
              f"{REF_CALIBRATION_S} s, exponent {CALIBRATION_EXPONENT}); "
              f"medians of {len(plain)} repetitions")
        for name, unit in END_TO_END:
            q1, q3 = _quartiles([r[name] for r in plain])
            line = (f"{name:<12} {summary['metrics'][name][0]:12.4f} {unit:<6} "
                    f"quartiles {q1:.4f} .. {q3:.4f}")
            if unit == "s":
                measured = name.replace("_s", "_measured_s")
                line += f"; measured median {_median([r[measured] for r in plain]):.4f} s"
            print(line)
    frac = summary["failed"] / summary["attempted"]
    print(f"{'failed_frac':<12} {frac:12.4f} {'ratio':<6} {summary['failed']} of "
          f"{summary['attempted']} commands failed")
    if run["trace"]:
        report_layers(summary)


def report_layers(summary: dict) -> None:
    traced = summary["traced"]
    if not traced:
        return
    st = layer_stats(traced[0]["spans"])
    wall = traced[0]["wall_measured_s"]
    print(f"per-layer table, first traced repetition (traced wall {wall:.4f} s):")
    print(f"  {'span':<46} {'calls':>8} {'self_s':>10} {'self %':>7} {'total_s':>10}  counts")
    for name, s in sorted(st.items(), key=lambda kv: -kv[1]["self_ns"]):
        counts = ", ".join(f"{k} {v}" for k, v in s["counts"].items())
        print(f"  {name:<46} {s['calls']:>8} {s['self_ns'] / 1e9:>10.4f} "
              f"{100 * s['self_ns'] / 1e9 / wall:>6.1f}% {s['total_ns'] / 1e9:>10.4f}  {counts}")
    self_sum = sum(s["self_ns"] for s in st.values()) / 1e9
    print(f"  {'sum of self times':<46} {'':>8} {self_sum:>10.4f} "
          f"{100 * self_sum / wall:>6.1f}%")
    print("per-layer metrics (medians over traced repetitions; counts must repeat):")
    for name, (value, unit) in summary["metrics"].items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    if not summary["counts_consistent"]:
        print("  counts differ between traced repetitions")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "phantomdf" / "cli.py").is_file():
        print(f"error: {root} holds no src/phantomdf; run from a phantomdf checkout",
              file=sys.stderr)
        return 2
    run = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), root)
    summary = summarize(run)
    write_record(run, summary)
    report(run, summary)
    if not summary["plain"] or (run["trace"] and not summary["traced"]):
        print("error: no repetition ran to completion", file=sys.stderr)
        return 1
    correct = summary["failed"] == 0 and summary["counts_consistent"]
    names = PER_LAYER if run["trace"] else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["metrics"][name][0], "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
