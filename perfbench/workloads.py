"""The benchmark's workloads: CLI commands, their configs and expected verdicts.

Every workload is a closed loop with one client: one child process runs its
commands in sequence, each starting when the previous one has returned. The
benchmark seed reaches the CLI unchanged through ``--seed``. The expected
exit codes and ``summary.json`` fields are what phantomdf 0.1.0 produces.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    name: str                      # label in reports; also the out dir name
    subcommand: str
    config: dict[str, str]         # keys of the subcommand's INI section
    expect: dict[str, object]      # dotted summary.json path -> expected value
    workers: int = 1
    exit_code: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]


METROPOLIS_FIT = Workload(
    name="metropolis-fit",
    why=("phantom-fit on criterion 8's Metropolis chain: the per-step Python "
         "kernel in block maxima and Monte-Carlo BT does almost all the work"),
    commands=(
        # 512 replicas are four full 128-row chunks, two per worker once
        # workers run in parallel; today --workers 2 only sets the chunking.
        # At 256 replicas the 3 SE + 0.05 phantom check fails for some seeds
        # (seed 4 among 1..21); at 512 it held on every seed tried.
        Command("fit", "phantom-fit", {
            "kind": "metropolis",
            "target": "symmetric_pareto(2,1)",
            "proposal": "uniform(-1,1)",
            "block_sizes": "100,1000",
            "replicas": "512",
        }, expect={"phantom_verified": True, "theta_verdict": "zero"}, workers=2),
    ),
)

LINDLEY_REGEN = Workload(
    name="lindley-regen",
    why=("regen on a 2e6-step Lindley path with one worker: vectorised paths, "
         "regenerative split, Rootzen phantom and heavy CSV writing; no "
         "Metropolis loop"),
    commands=(
        Command("regen", "regen", {
            "step": "pareto(2,1)-2",
            "length": "2000000",
            "verify_blocks": "1000,10000",
            "replicas": "1000",
        }, expect={"phantom_verified": True, "cycle_tail_band_ok": True,
                   "stationary_tail_verdict": "ratio->0"}),
    ),
)

_MOVING_MAX = {"kind": "moving_max", "window": "2", "base": "uniform(0,1)",
               "block_sizes": "100,1000,10000", "replicas": "1000000"}

CLOSED_FORM = Workload(
    name="closed-form",
    why=("moving-max fit and verify over 1e6 replicas plus criterion 1: "
         "transform sampler, exact BT and theta, scalar phantom evaluation; "
         "no chain steps"),
    commands=(
        Command("fit", "phantom-fit", dict(_MOVING_MAX),
                expect={"phantom_verified": True, "theta_verdict": "positive"}),
        # "{fit}" is replaced by the fit command's out dir
        Command("verify", "verify", dict(_MOVING_MAX, phantom="{fit}/phantom.txt"),
                expect={"phantom_verified": True}),
        Command("criterion1", "acceptance", {"criteria": "1"},
                expect={"all_passed": True, "results.0.number": 1,
                        "results.0.passed": True}),
    ),
)

WORKLOADS = {w.name: w for w in (METROPOLIS_FIT, LINDLEY_REGEN, CLOSED_FORM)}
