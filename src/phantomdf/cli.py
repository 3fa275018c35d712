"""Command-line pipeline: simulate, fit phantoms, verify, report verdicts.

Exit codes: 0 success, 1 verdict failure (the computation ran but the
scientific check said no), 2 usage or configuration error.  All outputs
except timing.txt are byte-deterministic in (config, seed); wall-clock
numbers live only in timing.txt.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path
from typing import Iterable

from .config import build_spec, load_config, parse_int_list, parse_law, print_defaults
from .errors import InvalidArgumentError, PhantomdfError
from .estimate import (
    check_BT,
    estimate_driving_sequence,
    estimate_theta_single_sequence,
    fit_phantom,
    regen_phantom,
    verify_by_simulation,
)
from .phantom import PhantomDistFn
from .processes import generate
from .rates import (
    DeltaEvidence,
    ExponentialMixing,
    MDependent,
    PolynomialMixing,
    alpha_discontinuous_case,
    check_rate_sufficiency,
)
from .reporting import (
    bt_csv,
    csv_table,
    driving_csv,
    json_report,
    marks_file_text,
    maxlaw_csv,
    path_file_text,
    theta_csv,
)

__all__ = ["main"]


class _Settings:
    """Config lookup with section -> [common] fallback and CLI overrides."""

    def __init__(self, args: argparse.Namespace, section: str):
        self.cp = load_config(getattr(args, "config", None))
        self.section = section
        self.args = args

    def get(self, key: str, default: str | None = None) -> str | None:
        if self.cp.has_option(self.section, key):
            return self.cp.get(self.section, key)
        if self.cp.has_option("common", key):
            return self.cp.get("common", key)
        return default

    @property
    def seed(self) -> int:
        if self.args.seed is not None:
            return self.args.seed
        return int(self.get("seed"))

    @property
    def replicas(self) -> int:
        if self.args.replicas is not None:
            return self.args.replicas
        return int(self.get("replicas"))

    @property
    def workers(self) -> int:
        if getattr(self.args, "workers", None) is not None:
            workers = self.args.workers
        else:
            workers = int(self.get("workers"))
        if workers < 1:
            raise InvalidArgumentError(f"workers must be >= 1, got {workers}")
        return workers

    @property
    def gamma(self) -> float:
        return float(self.get("gamma"))

    def horizon(self, key: str) -> float:
        """The B_T horizon T stored under ``key``: finite and positive."""
        T = float(self.get(key, "2.0"))
        if not (math.isfinite(T) and T > 0):
            raise InvalidArgumentError(f"{key} must be finite and positive, got {T:g}")
        return T

    @property
    def out_dir(self) -> Path:
        out = self.args.out if self.args.out is not None else self.get("out")
        p = Path(out)
        p.mkdir(parents=True, exist_ok=True)
        return p

    def spec(self):
        return build_spec(self.cp[self.section])


def _write(out: Path, name: str, text: str | Iterable[str]) -> None:
    """Write a text artifact given whole or as a stream of blocks."""
    with open(out / name, "w", encoding="utf-8") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def cmd_simulate(args) -> int:
    st = _Settings(args, "simulate")
    spec = st.spec()
    length = int(st.get("length"))
    path = generate(spec, st.seed, length)
    out = st.out_dir
    _write(out, "path.txt", path_file_text(path))
    wrote = ["path.txt"]
    if path.regeneration_marks is not None:
        _write(out, "path.marks.txt", marks_file_text(path))
        wrote.append("path.marks.txt")
    _write(out, "summary.json", json_report({
        "subcommand": "simulate",
        "seed": st.seed,
        "length": length,
        "files": wrote,
        "regenerations": None if path.regeneration_marks is None
        else int(path.regeneration_marks.size),
    }))
    print(f"simulate: wrote {', '.join(wrote)} to {out}")
    return 0


def cmd_phantom_fit(args) -> int:
    st = _Settings(args, "phantom-fit")
    spec = st.spec()
    blocks = parse_int_list(st.get("block_sizes"))
    R, seed, gamma = st.replicas, st.seed, st.gamma
    bt_T = st.horizon("bt_T")
    dse, phantom = fit_phantom(spec, gamma, blocks, R, seed, tag="phantom-fit",
                               workers=st.workers)
    ml, ver, verified = verify_by_simulation(spec, phantom, blocks, R, seed,
                                             tag="phantom-verify", workers=st.workers)

    bt = check_BT(spec, dse, T=bt_T, n_list=blocks, R=R, seed=seed,
                  workers=st.workers)
    theta = estimate_theta_single_sequence(spec, gamma, blocks, R=R,
                                           seed=seed, workers=st.workers)
    theta_text = "theta = 0" if theta.verdict == "zero" \
        else f"theta = {theta.theta_hat:.4f}"

    out = st.out_dir
    _write(out, "driving.csv", driving_csv(dse))
    _write(out, "maxlaw.csv", maxlaw_csv(ml))
    _write(out, "bt.csv", bt_csv(bt))
    _write(out, "theta.csv", theta_csv(theta))
    _write(out, "phantom.txt", phantom.to_text())
    _write(out, "summary.json", json_report({
        "subcommand": "phantom-fit",
        "gamma": gamma,
        "replicas": R,
        "seed": seed,
        "phantom_verified": verified,
        "sup_gap": ver.sup_gap,
        "gaps": ver.gaps(),
        "bt_max_b": bt.max_b(),
        "bt_r_exponent": bt.r_exponent,
        "bt_r_adjusted": bt.r_adjusted,
        "driving_raw_violations": dse.raw_violations,
        "theta_verdict": theta.verdict,
        "theta_hat": theta.theta_hat,
    }))
    verdict = "phantom verified" if verified else "phantom NOT verified"
    print(f"phantom-fit: {verdict}, {theta_text} (sup gap {ver.sup_gap:.4f})")
    return 0 if verified else 1


def cmd_verify(args) -> int:
    st = _Settings(args, "verify")
    spec = st.spec()
    blocks = parse_int_list(st.get("block_sizes"))
    text = Path(st.get("phantom")).read_text(encoding="utf-8")
    phantom = PhantomDistFn.from_text(text)
    ml, ver, ok = verify_by_simulation(spec, phantom, blocks, st.replicas, st.seed,
                                       tag="verify", workers=st.workers)
    out = st.out_dir
    _write(out, "maxlaw.csv", maxlaw_csv(ml))
    _write(out, "summary.json", json_report({
        "subcommand": "verify",
        "phantom_verified": ok,
        "sup_gap": ver.sup_gap,
        "gaps": ver.gaps(),
    }))
    print(f"verify: sup gap {ver.sup_gap:.4f} -> "
          f"{'verified' if ok else 'NOT verified'}")
    return 0 if ok else 1


def cmd_bt_check(args) -> int:
    st = _Settings(args, "bt-check")
    spec = st.spec()
    blocks = parse_int_list(st.get("block_sizes"))
    T = st.horizon("T")
    dse = estimate_driving_sequence(spec, st.gamma, blocks, R=st.replicas,
                                    seed=st.seed, workers=st.workers)
    bt = check_BT(spec, dse, T=T, n_list=blocks,
                  R=st.replicas, seed=st.seed, workers=st.workers)
    last = bt.rows[-1]
    worst = max(last.pairs, key=lambda p: abs(p.value))
    ok = abs(worst.value) <= max(4.0 * worst.se, 0.02)
    out = st.out_dir
    _write(out, "bt.csv", bt_csv(bt))
    _write(out, "driving.csv", driving_csv(dse))
    _write(out, "summary.json", json_report({
        "subcommand": "bt-check",
        "T": bt.T,
        "b_values": {str(r.n): r.b_value for r in bt.rows},
        "r_exponent": bt.r_exponent,
        "r_adjusted": bt.r_adjusted,
        "factorizes_at_largest_n": ok,
    }))
    print(f"bt-check: b({last.n}) = {last.b_value:.5f} -> "
          f"{'ok' if ok else 'FAILS'}")
    return 0 if ok else 1


def cmd_regen(args) -> int:
    st = _Settings(args, "regen")
    rg = regen_phantom(parse_law(st.get("step")), int(st.get("length")),
                       parse_int_list(st.get("verify_blocks")), st.replicas,
                       st.seed, tag="regen-verify", workers=st.workers,
                       smoothing=st.get("smoothing", "linear"))
    rs, ver = rg.stats, rg.verification
    out = st.out_dir
    _write(out, "cycle_maxima_cdf.csv",
           csv_table(("y", "cycle_cdf"), zip(*rs.cycle_cdf)))
    _write(out, "maxlaw.csv", maxlaw_csv(rg.maxlaw))
    _write(out, "path.marks.txt", marks_file_text(rg.path))
    _write(out, "summary.json", json_report({
        "subcommand": "regen",
        "cycle_count": rs.cycle_count,
        "mu_hat": rs.mu_hat,
        "mu_se": rs.mu_se,
        "phantom_verified": rg.verified,
        "sup_gap": ver.sup_gap,
        "cycle_tail_ratio": rg.band.ratio,
        "cycle_tail_band_ok": rg.band_ok,
        "stationary_tail_verdict": rg.tails.verdict,
        "zero_cycle_diag": {str(k): v for k, v in rs.zero_cycle_diag.items()},
    }))
    ok = rg.verified and rg.band_ok and rg.tail_ok
    print(f"regen: {rs.cycle_count} cycles, mu = {rs.mu_hat:.4f}, "
          f"sup gap {ver.sup_gap:.4f}, tail band {rg.band.ratio:.3f}, "
          f"verdict {rg.tails.verdict} -> {'ok' if ok else 'FAILS'}")
    return 0 if ok else 1


def _parse_mixing(text: str):
    text = text.strip().lower()
    if not text:
        return None
    name, _, argtext = text.partition("(")
    argtext = argtext.rstrip(")")
    arg = float(argtext) if argtext else 0.0
    if name == "m_dependent":
        return MDependent(m=int(arg))
    if name == "exponential":
        return ExponentialMixing(rho=arg)
    if name == "polynomial":
        return PolynomialMixing(beta=arg)
    raise ValueError(f"unknown mixing case {text!r}")


def cmd_rates(args) -> int:
    st = _Settings(args, "rates")
    kind = st.get("kind")
    b = float(st.get("b"))
    beta = float(st.get("beta"))
    verdict = check_rate_sufficiency(kind, beta, b)
    payload = {"rate_check": {
        "kind": verdict.kind.value,
        "b": verdict.b,
        "beta": verdict.beta,
        "threshold": verdict.threshold,
        "sufficient": verdict.sufficient,
        "margin": verdict.margin,
        "note": verdict.note,
    }}
    ok = verdict.sufficient
    mixing = _parse_mixing(st.get("mixing", ""))
    if mixing is not None:
        delta_xi = {}
        for piece in (st.get("delta_xi", "") or "").split(","):
            if ":" in piece:
                xi, flag = piece.split(":")
                delta_xi[float(xi)] = flag.strip().lower() == "true"
        ev = DeltaEvidence(delta0=(st.get("delta0", "false").lower() == "true"),
                           delta_xi=delta_xi)
        case = alpha_discontinuous_case(mixing, ev)
        payload["discontinuous_case"] = {
            "admits_phantom": case.admits_phantom,
            "which_case": case.which_case,
            "undetermined": case.undetermined,
            "detail": case.detail,
        }
        ok = ok and case.admits_phantom
    out = st.out_dir
    _write(out, "summary.json", json_report(payload))
    note = f" ({verdict.note})" if verdict.note else ""
    print(f"rates: {verdict.kind.value} threshold {verdict.threshold:.4f}, "
          f"beta = {beta:g} -> "
          f"{'sufficient' if verdict.sufficient else 'NOT sufficient'}{note}")
    return 0 if ok else 1


def cmd_extremal_index(args) -> int:
    st = _Settings(args, "extremal-index")
    spec = st.spec()
    blocks = parse_int_list(st.get("block_sizes"))
    est = estimate_theta_single_sequence(spec, st.gamma, blocks,
                                         R=st.replicas, seed=st.seed,
                                         method=st.get("method", "auto"),
                                         workers=st.workers)
    out = st.out_dir
    _write(out, "theta.csv", theta_csv(est))
    _write(out, "summary.json", json_report({
        "subcommand": "extremal-index",
        "verdict": est.verdict,
        "theta_hat": est.theta_hat,
        "se": est.se,
        "method": est.method,
    }))
    if est.verdict == "zero":
        print("extremal-index: verdict theta = 0 (diverging n * tail)")
    else:
        print(f"extremal-index: theta = {est.theta_hat:.4f} "
              f"+/- {est.se:.4f}" if est.se else
              f"extremal-index: theta = {est.theta_hat:.4f}")
    return 0


def cmd_acceptance(args) -> int:
    from .acceptance import run_all

    st = _Settings(args, "acceptance")
    which = st.get("criteria", "all")
    numbers = None if which.strip() == "all" else parse_int_list(which)
    results = run_all(numbers, workers=st.workers)
    out = st.out_dir
    for r in results:
        print(r.line())
        for name, text in r.artifacts.items():
            _write(out, f"criterion{r.number}_{name}", text)
    _write(out, "summary.json", json_report({
        "subcommand": "acceptance",
        "results": [{"number": r.number, "name": r.name, "passed": r.passed,
                     "detail": r.detail} for r in results],
        "all_passed": all(r.passed for r in results),
    }))
    _write(out, "timing.txt", "".join(
        f"criterion {r.number}: {r.seconds:.2f} s\n" for r in results))
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "phantom-fit": cmd_phantom_fit,
    "verify": cmd_verify,
    "bt-check": cmd_bt_check,
    "regen": cmd_regen,
    "rates": cmd_rates,
    "extremal-index": cmd_extremal_index,
    "acceptance": cmd_acceptance,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phantomdf",
        description="Phantom distribution functions for stationary sequences: "
                    "simulate, fit, verify, and report verdicts.")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the default config INI and exit")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--replicas", type=int, help="replica count override")
        p.add_argument("--workers", type=int, help="worker processes for replica "
                       "chunks (>= 1; results are worker-independent)")
        p.add_argument("--print-defaults", action="store_true",
                       help="print the default config INI and exit")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "print_defaults", False):
        sys.stdout.write(print_defaults())
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        # a rerun into the same out dir starts a fresh timing.txt; commands
        # that time their own stages write it before the total is appended
        settings = _Settings(args, args.command)
        settings.workers  # reject a bad worker count before any work starts
        timing = settings.out_dir / "timing.txt"
        timing.unlink(missing_ok=True)
        code = _COMMANDS[args.command](args)
    except PhantomdfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with open(timing, "a", encoding="utf-8") as fh:
            fh.write(f"total: {time.perf_counter() - start:.2f} s\n")
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
