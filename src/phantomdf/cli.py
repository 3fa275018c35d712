"""Command-line pipeline: simulate, fit phantoms, verify, report verdicts.

Exit codes: 0 success, 1 verdict failure (the computation ran but the
scientific check said no), 2 usage or configuration error.  All outputs
except timing.txt are byte-deterministic in (config, seed); wall-clock
numbers live only in timing.txt.  Each command builds its summary.json
text before it writes any file, so a summary that JSON cannot hold exits 2
naming its field and leaves no file behind.
"""

from __future__ import annotations

import argparse
import math
import re
import resource
import sys
import time
from contextlib import contextmanager
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
    BT_HORIZON,
    check_BT,
    estimate_driving_sequence,
    fit_phantom,
    propbasic_series,
    regen_phantom,
    theta_from_driving,
    two_sided_gaps,
    verify_by_simulation,
)
from .phantom import PhantomDistFn
from .processes import LindleySpec, _regeneration_marks, generate, has_exact_max_law
from .reporting import (
    bt_csv,
    csv_blocks,
    driving_csv,
    json_report,
    marks_file_text,
    maxlaw_csv,
    path_file_text,
    theta_csv,
)

__all__ = ["main"]


class _Settings:
    """The command's config section, with the --seed, --replicas, --workers
    and --out flags written into it, and the wall-clock lines of the run's
    timing.txt.  A key reads the flag, else the section, else [common] (the
    parser's default section), else the built-in default."""

    def __init__(self, args: argparse.Namespace, section: str):
        self.cp = load_config(args.config)
        self.section = self.cp[section]
        for key in ("seed", "replicas", "workers", "out"):
            flag = getattr(args, key)
            if flag is not None:
                self.section[key] = str(flag)
        self.timing: list[str] = []

    def get(self, key: str) -> str:
        return self.section[key]

    def number(self, key: str, kind: type = int) -> int | float:
        """The value under ``key`` as ``kind`` (see ``parse_number``)."""
        return parse_number(key, self.get(key), kind)

    @property
    def seed(self) -> int:
        seed = self.number("seed")
        if not 0 <= seed < 2**64:
            raise InvalidArgumentError(f"seed must lie in [0, 2**64), got {seed}")
        return seed

    @property
    def replicas(self) -> int:
        return self.number("replicas")

    @property
    def workers(self) -> int:
        workers = self.number("workers")
        if workers < 1:
            raise InvalidArgumentError(f"workers must be >= 1, got {workers}")
        return workers

    @property
    def gamma(self) -> float:
        return self.number("gamma", float)

    @property
    def out_dir(self) -> Path:
        p = Path(self.get("out"))
        p.mkdir(parents=True, exist_ok=True)
        return p

    def spec(self):
        return build_spec(self.section)

    @contextmanager
    def stage(self, name: str):
        """Time the block it wraps as one ``name: x.xx s`` timing line."""
        start = time.perf_counter()
        yield
        self.timing.append(f"{name}: {time.perf_counter() - start:.2f} s")

    def write(self, name: str, text: str | Iterable[str]) -> None:
        """Write a text artifact given whole or as a stream of blocks, and
        time it; a stream's time includes its formatting."""
        with self.stage(f"write {name}"), open(self.out_dir / name, "w",
                                               encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)


def cmd_simulate(st: _Settings) -> int:
    spec = st.spec()
    length = st.number("length")
    values = generate(spec, st.seed, length)
    out = st.out_dir
    lindley = isinstance(spec, LindleySpec)
    wrote = ["path.txt", "path.marks.txt"] if lindley else ["path.txt"]
    summary = json_report({
        "subcommand": "simulate",
        "seed": st.seed,
        "length": length,
        "files": wrote,
        "regenerations": _regeneration_marks(values).size if lindley else None,
    })
    st.write("path.txt", path_file_text(spec, st.seed, values))
    if lindley:
        st.write("path.marks.txt", marks_file_text(spec, values))
    st.write("summary.json", summary)
    print(f"simulate: wrote {', '.join(wrote)} to {out}")
    return 0


def cmd_phantom_fit(st: _Settings) -> int:
    spec = st.spec()
    blocks = parse_int_list(st.get("block_sizes"))
    R, seed, gamma = st.replicas, st.seed, st.gamma
    with st.stage("fit table"):
        dse, phantom = fit_phantom(spec, gamma, blocks, R, seed, tag="phantom-fit",
                                   workers=st.workers)
    with st.stage("validation"):
        ml, ver, verified = verify_by_simulation(spec, phantom, blocks, R, seed,
                                                 tag="phantom-verify", workers=st.workers)
    with st.stage("B_T"):
        bt = check_BT(spec, dse, n_list=blocks, R=R, seed=seed, workers=st.workers)
    with st.stage("theta"):
        # theta reads the fit's driving levels, or the exact ones where the
        # max law has a closed form
        levels = (estimate_driving_sequence(spec, gamma, blocks, method="exact")
                  if has_exact_max_law(spec) else dse)
        theta = theta_from_driving(spec, levels, blocks, seed)
    theta_text = "theta = 0" if theta.verdict == "zero" \
        else f"theta = {theta.theta_hat:.4f}"

    summary = {
        "subcommand": "phantom-fit",
        "gamma": gamma,
        "replicas": R,
        "seed": seed,
        "phantom_verified": verified,
        "sup_gap": ver.sup_gap,
        "gaps": ver.gaps(),
        "gaps_two_sided": two_sided_gaps(dse, phantom, ver),
        "bt_max_b": bt.max_b(),
        "bt_cov_diag": {str(r.n): r.cov_diag for r in bt.rows},
        "bt_r_exponent": bt.r_exponent,
        "bt_r_adjusted": bt.r_adjusted,
        "driving_raw_violations": dse.raw_violations,
        "theta_verdict": theta.verdict,
        "theta_hat": theta.theta_hat,
    }
    chains = ""
    if dse.acceptance_rate is not None:  # the fit table's Metropolis chains
        summary["metropolis_acceptance_rate"] = dse.acceptance_rate
        chains = f", metropolis acceptance rate {dse.acceptance_rate:.4f}"
    summary_text = json_report(summary)
    st.write("driving.csv", driving_csv(dse))
    st.write("maxlaw.csv", maxlaw_csv(ml))
    st.write("bt.csv", bt_csv(bt))
    st.write("theta.csv", theta_csv(theta))
    st.write("phantom.txt", phantom.to_text())
    st.write("summary.json", summary_text)
    verdict = "phantom verified" if verified else "phantom NOT verified"
    print(f"phantom-fit: {verdict}, {theta_text} (sup gap {ver.sup_gap:.4f}{chains})")
    return 0 if verified else 1


def cmd_verify(st: _Settings) -> int:
    spec = st.spec()
    blocks = parse_int_list(st.get("block_sizes"))
    text = Path(st.get("phantom")).read_text(encoding="utf-8")
    phantom = PhantomDistFn.from_text(text)
    ml, ver, ok = verify_by_simulation(spec, phantom, blocks, st.replicas, st.seed,
                                       tag="verify", workers=st.workers)
    summary = json_report({
        "subcommand": "verify",
        "phantom_verified": ok,
        "sup_gap": ver.sup_gap,
        "gaps": ver.gaps(),
    })
    st.write("maxlaw.csv", maxlaw_csv(ml))
    st.write("summary.json", summary)
    print(f"verify: sup gap {ver.sup_gap:.4f} -> "
          f"{'verified' if ok else 'NOT verified'}")
    return 0 if ok else 1


def cmd_bt_check(st: _Settings) -> int:
    spec = st.spec()
    blocks = parse_int_list(st.get("block_sizes"))
    with st.stage("driving levels"):
        dse = estimate_driving_sequence(spec, st.gamma, blocks, R=st.replicas,
                                        seed=st.seed, workers=st.workers)
    with st.stage("B_T"):
        bt = check_BT(spec, dse, n_list=blocks, R=st.replicas, seed=st.seed,
                      workers=st.workers)
    last = bt.rows[-1]
    worst = max(last.pairs, key=lambda p: abs(p.value))
    ok = abs(worst.value) <= max(4.0 * worst.se, 0.02)
    # the skeleton condition k_n C_n -> 0 with k_n P(X_1 > v_n) bounded;
    # reported only, it does not enter the exit code
    with st.stage("propbasic"):
        pb = propbasic_series(spec, dse, R=st.replicas, seed=st.seed,
                              workers=st.workers)
    summary = {
        "subcommand": "bt-check",
        "T": BT_HORIZON,
        "method": bt.method,
        "replicas": bt.replicas,
        "b_values": {str(r.n): r.b_value for r in bt.rows},
        "cov_diag": {str(r.n): r.cov_diag for r in bt.rows},
        "r_exponent": bt.r_exponent,
        "r_adjusted": bt.r_adjusted,
        "factorizes_at_largest_n": ok,
        "propbasic": {
            "rows": [r._asdict() for r in pb.rows],
            "max_k_tail": pb.max_k_tail,
            "diverging": pb.diverging,
        },
    }
    if bt.acceptance_rate is not None:  # the B_T replicas' Metropolis chains
        summary["metropolis_acceptance_rate"] = bt.acceptance_rate
    summary_text = json_report(summary)
    st.write("bt.csv", bt_csv(bt))
    st.write("driving.csv", driving_csv(dse))
    st.write("summary.json", summary_text)
    print(f"bt-check: b({last.n}) = {last.b_value:.5f} -> "
          f"{'ok' if ok else 'FAILS'}")
    return 0 if ok else 1


def cmd_regen(st: _Settings) -> int:
    rg = regen_phantom(parse_law(st.get("step")), st.number("length"),
                       parse_int_list(st.get("verify_blocks")), st.replicas,
                       st.seed, tag="regen-verify", workers=st.workers, stage=st.stage)
    rs, ver = rg.stats, rg.verification
    summary = json_report({
        "subcommand": "regen",
        "cycle_count": rs.cycle_count,
        "mu_hat": rs.mu_hat,
        "mu_se": rs.mu_se,
        "phantom_verified": rg.verified,
        "sup_gap": ver.sup_gap,
        "gaps": ver.gaps(),
        "cycle_tail_level": rg.band.level,
        "cycle_tail_ratio": rg.band.ratio,
        "cycle_tail_exceedances": rg.band.exceedances,
        "cycle_tail_band_ok": rg.band_ok,
        "stationary_tail_verdict": rg.tail_verdict,
        "zero_cycle_diag": {str(k): v for k, v in rs.zero_cycle_diag.items()},
    })
    # no marks file: simulate writes it for the same step, seed and length
    st.write("cycle_maxima_cdf.csv", csv_blocks(("y", "cycle_cdf"), rs.cycle_cdf()))
    st.write("maxlaw.csv", maxlaw_csv(rg.maxlaw))
    st.write("summary.json", summary)
    ok = rg.verified and rg.band_ok and rg.tail_ok
    print(f"regen: {rs.cycle_count} cycles, mu = {rs.mu_hat:.4f}, "
          f"sup gap {ver.sup_gap:.4f}, tail band {rg.band.ratio:.3f}, "
          f"verdict {rg.tail_verdict} -> {'ok' if ok else 'FAILS'}")
    return 0 if ok else 1


def _parse_mixing(text: str):
    """A mixing case from ``name(arg)``, or None for an empty string."""
    from .rates import ExponentialMixing, MDependent, PolynomialMixing

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
    """``xi:flag`` pairs, comma-separated; each xi finite, >= 0 and named once."""
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
        if xi in delta_xi:
            raise InvalidArgumentError(f"delta_xi names xi = {xi:g} twice, got {text!r}")
        delta_xi[xi] = _parse_flag("delta_xi flag", flag)
    return delta_xi


def cmd_rates(st: _Settings) -> int:
    from .rates import DeltaEvidence, alpha_discontinuous_case, check_rate_sufficiency

    kind = st.get("kind")
    b = st.number("b", float)
    beta = st.number("beta", float)
    verdict = check_rate_sufficiency(kind, beta, b)
    # a record's fields are its JSON keys; DependenceKind is a str enum,
    # which JSON writes as its value
    payload = {"rate_check": verdict._asdict()}
    ok = verdict.sufficient
    mixing = _parse_mixing(st.get("mixing"))
    if mixing is not None:
        ev = DeltaEvidence(delta0=_parse_flag("delta0", st.get("delta0")),
                           delta_xi=_parse_delta_xi(st.get("delta_xi")))
        case = alpha_discontinuous_case(mixing, ev)
        payload["discontinuous_case"] = case._asdict()
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
    # the driving levels are kept for their acceptance rate
    with st.stage("driving levels"):
        dse = estimate_driving_sequence(spec, st.gamma, blocks, R=st.replicas,
                                        seed=st.seed, method=st.get("method"),
                                        workers=st.workers)
    with st.stage("theta"):
        est = theta_from_driving(spec, dse, blocks, st.seed)
    summary = {
        "subcommand": "extremal-index",
        "verdict": est.verdict,
        "theta_hat": est.theta_hat,
        "se": est.se,
        "method": est.method,
    }
    if dse.acceptance_rate is not None:  # the table's Metropolis chains
        summary["metropolis_acceptance_rate"] = dse.acceptance_rate
    summary_text = json_report(summary)
    st.write("theta.csv", theta_csv(est))
    st.write("summary.json", summary_text)
    if est.verdict == "zero":
        print("extremal-index: verdict theta = 0 (diverging n * tail)")
    else:
        print(f"extremal-index: theta = {est.theta_hat:.4f} "
              f"+/- {est.se:.4f}" if est.se else
              f"extremal-index: theta = {est.theta_hat:.4f}")
    return 0


def cmd_acceptance(st: _Settings) -> int:
    from .acceptance import run_all

    which = st.get("criteria")
    numbers = None if which.strip() == "all" else parse_int_list(which)
    if numbers is not None and (not numbers or len(set(numbers)) < len(numbers)):
        raise InvalidArgumentError(
            f"criteria must be 'all' or distinct criterion numbers, got {which!r}")
    results = run_all(numbers, workers=st.workers)
    st.timing.extend(f"criterion {r.number}: {r.seconds:.2f} s" for r in results)
    summary = json_report({
        "subcommand": "acceptance",
        "results": [{"number": r.number, "name": r.name, "passed": r.passed,
                     "detail": r.detail} for r in results],
        "all_passed": all(r.passed for r in results),
    })
    for r in results:
        print(r.line())
        for name, text in r.artifacts.items():
            st.write(f"criterion{r.number}_{name}", text)
    st.write("summary.json", summary)
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
    except (PhantomdfError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # wall-clock and peak-memory lines, outside the byte contract; a rerun
    # into the same out dir replaces them.  Forked workers, once joined,
    # count under RUSAGE_CHILDREN (0 when nothing forked); maxrss is in KiB.
    settings.timing.append(f"total: {time.perf_counter() - start:.2f} s")
    for label, who in (("peak rss", resource.RUSAGE_SELF),
                       ("workers peak rss", resource.RUSAGE_CHILDREN)):
        settings.timing.append(f"{label}: {resource.getrusage(who).ru_maxrss / 1024:.1f} MB")
    try:
        (settings.out_dir / "timing.txt").write_text(
            "".join(line + "\n" for line in settings.timing), encoding="utf-8")
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
