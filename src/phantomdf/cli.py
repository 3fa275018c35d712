"""Command-line pipeline: simulate, fit phantoms, verify, report verdicts.

Exit codes: 0 success, 1 verdict failure (the computation ran but the
scientific check said no), 2 usage or configuration error.  All outputs
except timing.txt are byte-deterministic in (config, seed); wall-clock
numbers live only in timing.txt.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from pathlib import Path
from typing import Iterable

from .config import (
    build_spec,
    load_config,
    parse_int_list,
    parse_law,
    parse_number,
    print_defaults,
)
from .errors import InvalidArgumentError, PhantomdfError
from .estimate import (
    check_BT,
    estimate_driving_sequence,
    estimate_theta_single_sequence,
    fit_phantom,
    propbasic_series,
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
    """Config lookup with section -> [common] fallback and CLI overrides,
    and the wall-clock lines of the run's timing.txt."""

    def __init__(self, args: argparse.Namespace, section: str):
        self.cp = load_config(getattr(args, "config", None))
        self.section = section
        self.args = args
        self.timing: list[str] = []

    def get(self, key: str, default: str | None = None) -> str | None:
        if self.cp.has_option(self.section, key):
            return self.cp.get(self.section, key)
        if self.cp.has_option("common", key):
            return self.cp.get("common", key)
        return default

    def number(self, key: str, kind: type = int, default: str | None = None) -> int | float:
        """The value under ``key`` as ``kind`` (see ``parse_number``)."""
        return parse_number(key, self.get(key, default), kind)

    @property
    def seed(self) -> int:
        seed = self.args.seed if self.args.seed is not None else self.number("seed")
        if not 0 <= seed < 2**64:
            raise InvalidArgumentError(f"seed must lie in [0, 2**64), got {seed}")
        return seed

    @property
    def replicas(self) -> int:
        if self.args.replicas is not None:
            return self.args.replicas
        return self.number("replicas")

    @property
    def workers(self) -> int:
        if getattr(self.args, "workers", None) is not None:
            workers = self.args.workers
        else:
            workers = self.number("workers")
        if workers < 1:
            raise InvalidArgumentError(f"workers must be >= 1, got {workers}")
        return workers

    @property
    def gamma(self) -> float:
        return self.number("gamma", float)

    def horizon(self, key: str) -> float:
        """The B_T horizon T stored under ``key``: finite and positive."""
        T = self.number(key, float, "2.0")
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

    def write(self, name: str, text: str | Iterable[str]) -> None:
        """Write a text artifact given whole or as a stream of blocks, and
        time it; a stream's time includes its formatting."""
        start = time.perf_counter()
        with open(self.out_dir / name, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        self.timing.append(f"write {name}: {time.perf_counter() - start:.2f} s")


def cmd_simulate(st: _Settings) -> int:
    spec = st.spec()
    length = st.number("length")
    path = generate(spec, st.seed, length)
    out = st.out_dir
    st.write("path.txt", path_file_text(path))
    wrote = ["path.txt"]
    if path.regeneration_marks is not None:
        st.write("path.marks.txt", marks_file_text(path))
        wrote.append("path.marks.txt")
    st.write("summary.json", json_report({
        "subcommand": "simulate",
        "seed": st.seed,
        "length": length,
        "files": wrote,
        "regenerations": None if path.regeneration_marks is None
        else int(path.regeneration_marks.size),
    }))
    print(f"simulate: wrote {', '.join(wrote)} to {out}")
    return 0


def cmd_phantom_fit(st: _Settings) -> int:
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

    st.write("driving.csv", driving_csv(dse))
    st.write("maxlaw.csv", maxlaw_csv(ml))
    st.write("bt.csv", bt_csv(bt))
    st.write("theta.csv", theta_csv(theta))
    st.write("phantom.txt", phantom.to_text())
    st.write("summary.json", json_report({
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


def cmd_verify(st: _Settings) -> int:
    spec = st.spec()
    blocks = parse_int_list(st.get("block_sizes"))
    text = Path(st.get("phantom")).read_text(encoding="utf-8")
    phantom = PhantomDistFn.from_text(text)
    ml, ver, ok = verify_by_simulation(spec, phantom, blocks, st.replicas, st.seed,
                                       tag="verify", workers=st.workers)
    st.write("maxlaw.csv", maxlaw_csv(ml))
    st.write("summary.json", json_report({
        "subcommand": "verify",
        "phantom_verified": ok,
        "sup_gap": ver.sup_gap,
        "gaps": ver.gaps(),
    }))
    print(f"verify: sup gap {ver.sup_gap:.4f} -> "
          f"{'verified' if ok else 'NOT verified'}")
    return 0 if ok else 1


def cmd_bt_check(st: _Settings) -> int:
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
    # the skeleton condition k_n C_n -> 0 with k_n P(X_1 > v_n) bounded;
    # reported only, it does not enter the exit code
    pb = propbasic_series(spec, dse, R=st.replicas, seed=st.seed, workers=st.workers)
    st.write("bt.csv", bt_csv(bt))
    st.write("driving.csv", driving_csv(dse))
    st.write("summary.json", json_report({
        "subcommand": "bt-check",
        "T": bt.T,
        "b_values": {str(r.n): r.b_value for r in bt.rows},
        "r_exponent": bt.r_exponent,
        "r_adjusted": bt.r_adjusted,
        "factorizes_at_largest_n": ok,
        "propbasic": {
            "rows": [{"n": r.n, "k": r.k, "m": r.m, "k_tail": r.k_tail,
                      "k_c": r.k_c, "sandwich_ok": r.sandwich_ok} for r in pb.rows],
            "max_k_tail": pb.max_k_tail,
            "diverging": pb.diverging,
        },
    }))
    print(f"bt-check: b({last.n}) = {last.b_value:.5f} -> "
          f"{'ok' if ok else 'FAILS'}")
    return 0 if ok else 1


def cmd_regen(st: _Settings) -> int:
    rg = regen_phantom(parse_law(st.get("step")), st.number("length"),
                       parse_int_list(st.get("verify_blocks")), st.replicas,
                       st.seed, tag="regen-verify", workers=st.workers)
    rs, ver = rg.stats, rg.verification
    st.write("cycle_maxima_cdf.csv",
           csv_table(("y", "cycle_cdf"), rs.cycle_cdf))
    st.write("maxlaw.csv", maxlaw_csv(rg.maxlaw))
    st.write("path.marks.txt", marks_file_text(rg.path))
    st.write("summary.json", json_report({
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
    """A mixing case from ``name(arg)``, or None for an empty string."""
    text = text.strip().lower()
    if not text:
        return None
    call = re.fullmatch(r"(\w+)\(([^()]*)\)", text)
    if call is None:
        raise InvalidArgumentError(f"mixing case must read name(argument), got {text!r}")
    name, argtext = call.groups()
    if not argtext.strip():
        raise InvalidArgumentError(f"mixing case {text!r} needs an argument")
    try:
        arg = float(argtext)
    except ValueError:
        raise InvalidArgumentError(
            f"mixing argument must be a number, got {argtext!r}") from None
    if not math.isfinite(arg):
        raise InvalidArgumentError(f"mixing argument must be finite, got {argtext!r}")
    if name == "m_dependent":
        if arg != int(arg):
            raise InvalidArgumentError(
                f"m_dependent range must be an integer, got {argtext!r}")
        return MDependent(m=int(arg))
    if name == "exponential":
        return ExponentialMixing(rho=arg)
    if name == "polynomial":
        return PolynomialMixing(beta=arg)
    raise InvalidArgumentError(f"unknown mixing case {text!r}")


def _parse_flag(key: str, text: str) -> bool:
    flag = text.strip().lower()
    if flag not in ("true", "false"):
        raise InvalidArgumentError(f"{key} must be true or false, got {text!r}")
    return flag == "true"


def _parse_delta_xi(text: str) -> dict[float, bool]:
    """``xi:flag`` pairs, comma-separated; each xi finite and >= 0."""
    delta_xi = {}
    for piece in filter(None, (p.strip() for p in text.split(","))):
        xitext, colon, flag = piece.partition(":")
        try:
            xi = float(xitext)
        except ValueError:
            xi = math.nan
        if not colon or not (math.isfinite(xi) and xi >= 0):
            raise InvalidArgumentError(
                f"delta_xi entries must read xi:true or xi:false with a finite "
                f"xi >= 0, got {piece!r}")
        delta_xi[xi] = _parse_flag("delta_xi flag", flag)
    return delta_xi


def cmd_rates(st: _Settings) -> int:
    kind = st.get("kind")
    b = st.number("b", float)
    beta = st.number("beta", float)
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
        ev = DeltaEvidence(delta0=_parse_flag("delta0", st.get("delta0", "false")),
                           delta_xi=_parse_delta_xi(st.get("delta_xi", "") or ""))
        case = alpha_discontinuous_case(mixing, ev)
        payload["discontinuous_case"] = {
            "admits_phantom": case.admits_phantom,
            "which_case": case.which_case,
            "undetermined": case.undetermined,
            "detail": case.detail,
        }
        ok = ok and case.admits_phantom
    st.write("summary.json", json_report(payload))
    note = f" ({verdict.note})" if verdict.note else ""
    print(f"rates: {verdict.kind.value} threshold {verdict.threshold:.4f}, "
          f"beta = {beta:g} -> "
          f"{'sufficient' if verdict.sufficient else 'NOT sufficient'}{note}")
    return 0 if ok else 1


def cmd_extremal_index(st: _Settings) -> int:
    spec = st.spec()
    blocks = parse_int_list(st.get("block_sizes"))
    est = estimate_theta_single_sequence(spec, st.gamma, blocks,
                                         R=st.replicas, seed=st.seed,
                                         method=st.get("method", "auto"),
                                         workers=st.workers)
    st.write("theta.csv", theta_csv(est))
    st.write("summary.json", json_report({
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


def cmd_acceptance(st: _Settings) -> int:
    from .acceptance import run_all

    which = st.get("criteria", "all")
    numbers = None if which.strip() == "all" else parse_int_list(which)
    results = run_all(numbers, workers=st.workers)
    st.timing.extend(f"criterion {r.number}: {r.seconds:.2f} s" for r in results)
    for r in results:
        print(r.line())
        for name, text in r.artifacts.items():
            st.write(f"criterion{r.number}_{name}", text)
    st.write("summary.json", json_report({
        "subcommand": "acceptance",
        "results": [{"number": r.number, "name": r.name, "passed": r.passed,
                     "detail": r.detail} for r in results],
        "all_passed": all(r.passed for r in results),
    }))
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
        settings = _Settings(args, args.command)
        # reject a bad seed or worker count before any work starts
        settings.seed, settings.workers
        code = _COMMANDS[args.command](settings)
    except PhantomdfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # wall-clock lines, outside the byte contract; a rerun into the same out
    # dir replaces them
    settings.timing.append(f"total: {time.perf_counter() - start:.2f} s")
    try:
        (settings.out_dir / "timing.txt").write_text(
            "".join(line + "\n" for line in settings.timing), encoding="utf-8")
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
