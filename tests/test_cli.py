"""Command-line interface: exit codes, artifacts, and rerun determinism.

Everything runs in-process through main(argv) to keep the suite fast;
each scenario gets its own config file under tmp_path.
"""

import argparse
import configparser
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from phantomdf.cli import _Settings, main
from phantomdf.config import DEFAULTS
from phantomdf.rates import RateVerdict


def write_config(path, text):
    path.write_text(text)
    return str(path)


def timing_labels(out):
    """The labels of out/timing.txt: stage and write seconds, then the two
    memory lines, each line checked against its format."""
    lines = (out / "timing.txt").read_text().splitlines()
    assert all(re.fullmatch(r"[\w. ]+: \d+\.\d\d s", line) for line in lines[:-2])
    assert all(re.fullmatch(r"[\w ]+: \d+\.\d MB", line) for line in lines[-2:])
    return [line.split(":")[0] for line in lines]


@pytest.fixture
def run(tmp_path, capsys):
    def _run(text, *argv, section_args=()):
        cfg = write_config(tmp_path / "cfg.ini", text)
        rc = main([*argv, "--config", cfg, *section_args])
        out = capsys.readouterr()
        return rc, out.out, out.err
    return _run


def test_print_defaults_parses(capsys):
    assert main(["--print-defaults"]) == 0
    text = capsys.readouterr().out
    parser = configparser.ConfigParser()
    parser.read_string(text)
    assert parser.get("common", "seed") == "20260814"
    assert "phantom-fit" in parser.sections()


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_missing_config_exits_2(capsys):
    assert main(["rates", "--config", "/no/such/file.ini"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_law_string_exits_2(run, tmp_path):
    rc, _out, err = run("[simulate]\nkind = iid\nmarginal = not_a_law(1)\n",
                        "simulate", "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "error" in err


class TestSimulate:
    CFG = "[common]\nseed = 7\n[simulate]\nkind = lindley\nstep = pareto(2,1)-2\nlength = 4000\n"

    def test_writes_path_and_marks(self, run, tmp_path):
        out = tmp_path / "sim"
        rc, stdout, _ = run(self.CFG, "simulate", "--out", str(out))
        assert rc == 0
        assert (out / "path.txt").exists()
        assert (out / "path.marks.txt").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["length"] == 4000
        # marks are indices into the kept window
        lines = (out / "path.marks.txt").read_text().splitlines()
        idx = [int(s) for s in lines if s and not s.startswith("#")]
        assert idx and all(0 <= i < 4000 for i in idx)

    def test_lindley_marks_point_at_zeros(self, run, tmp_path):
        out = tmp_path / "sim"
        assert run(self.CFG, "simulate", "--out", str(out))[0] == 0

        def body(name):
            return [s for s in (out / name).read_text().splitlines() if not s.startswith("#")]

        values = np.array([float(s) for s in body("path.txt")])
        marks = [int(s) for s in body("path.marks.txt")]
        assert values.size == 4000 and len(marks) > 10
        np.testing.assert_array_equal(values[marks], 0.0)
        # every zero inside the kept window is marked, and counted
        assert marks == [i for i, v in enumerate(values) if v == 0.0]
        assert json.loads((out / "summary.json").read_text())["regenerations"] == len(marks)

    def test_rerun_byte_identical(self, run, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(self.CFG, "simulate", "--out", str(a))
        run(self.CFG, "simulate", "--out", str(b))
        assert (a / "path.txt").read_bytes() == (b / "path.txt").read_bytes()
        assert (a / "path.marks.txt").read_bytes() == (b / "path.marks.txt").read_bytes()

    def test_rerun_into_same_dir_keeps_one_total_line(self, run, tmp_path):
        out = tmp_path / "sim"
        for _ in range(2):
            assert run(self.CFG, "simulate", "--out", str(out))[0] == 0
        lines = (out / "timing.txt").read_text().splitlines()
        # one write line per artifact, in write order, then one total line,
        # then the peak memory of this process and of its joined workers
        assert [line for line in lines if line.startswith("total: ")] == [lines[-3]]
        assert all(re.fullmatch(r"write [\w.]+: \d+\.\d\d s", line) for line in lines[:-3])
        assert [line.split(":")[0] for line in lines[:-3]] == [
            "write path.txt", "write path.marks.txt", "write summary.json"]
        assert all(re.fullmatch(r"(workers )?peak rss: \d+\.\d MB", line)
                   for line in lines[-2:])
        assert [line.split(":")[0] for line in lines[-2:]] == ["peak rss", "workers peak rss"]
        assert sorted(p.name for p in out.iterdir()) == [
            "path.marks.txt", "path.txt", "summary.json", "timing.txt"]

    def test_timing_reports_no_worker_memory_when_nothing_forked(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.ini", self.CFG)
        out = tmp_path / "sim"
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "phantomdf.cli", "simulate", "--config", cfg,
             "--out", str(out)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
        assert proc.returncode == 0, proc.stderr
        memory = dict(line.split(": ") for line in
                      (out / "timing.txt").read_text().splitlines()[-2:])
        assert memory["workers peak rss"] == "0.0 MB"
        assert float(memory["peak rss"].removesuffix(" MB")) > 0.0

    def test_seed_override_changes_path(self, run, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(self.CFG, "simulate", "--out", str(a))
        run(self.CFG, "simulate", "--out", str(b), section_args=("--seed", "8"))
        assert (a / "path.txt").read_bytes() != (b / "path.txt").read_bytes()


class TestPhantomFit:
    CFG = ("[common]\nseed = 11\nreplicas = 300\n"
           "[phantom-fit]\nkind = iid\nmarginal = exp(1)\nblock_sizes = 50,200\n")

    def test_fit_verify_round_trip(self, run, tmp_path):
        out = tmp_path / "fit"
        rc, stdout, _ = run(self.CFG, "phantom-fit", "--out", str(out))
        assert rc == 0, stdout
        assert "verified" in stdout
        for name in ("driving.csv", "maxlaw.csv", "bt.csv", "theta.csv", "phantom.txt"):
            assert (out / name).exists()
        assert (out / "phantom.txt").read_text().startswith("phantomdf continuous v1")

        ver_cfg = (f"[common]\nseed = 11\nreplicas = 300\n"
                   f"[verify]\nphantom = {out / 'phantom.txt'}\nkind = iid\n"
                   f"marginal = exp(1)\nblock_sizes = 50,200\n")
        cfg2 = write_config(tmp_path / "ver.ini", ver_cfg)
        assert main(["verify", "--config", cfg2, "--out", str(tmp_path / "ver")]) == 0

    def test_verify_reads_back_a_fit_with_1e_8_exponents(self, run, tmp_path):
        # a fit grid up to 10**8 gives knot exponents down to 1e-8, each
        # stored as one knot, and verify reads them back
        cfg = ("[common]\nseed = 1\nreplicas = 200\n[{0}]\n{1}kind = moving_max\n"
               "window = 2\nbase = uniform(0,1)\nblock_sizes = 100000,1000000\n")
        out = tmp_path / "fit"
        assert run(cfg.format("phantom-fit", ""), "phantom-fit", "--out", str(out))[0] == 0
        text = (out / "phantom.txt").read_text()
        assert float(text.splitlines()[-1].split()[1]) == 1e-8
        rc, stdout, err = run(cfg.format("verify", f"phantom = {out / 'phantom.txt'}\n"),
                              "verify", "--out", str(tmp_path / "ver"))
        assert (rc, err) == (0, ""), err
        assert json.loads((tmp_path / "ver" / "summary.json").read_text())["phantom_verified"]

    def test_summary_reports_estimator_diagnostics(self, run, tmp_path):
        out = tmp_path / "fit"
        assert run(self.CFG, "phantom-fit", "--out", str(out))[0] == 0
        summary = json.loads((out / "summary.json").read_text())
        violations = summary["driving_raw_violations"]
        assert isinstance(violations, int) and violations >= 0
        assert summary["bt_r_exponent"] in (1 / 3, 1 / 4, 1 / 5)
        assert summary["bt_r_adjusted"] is (summary["bt_r_exponent"] != 1 / 3)
        # the r_n covariance and the level of each gap, per block size
        assert list(summary["bt_cov_diag"]) == ["200", "50"]  # sorted keys
        assert all(abs(c) < 0.25 for c in summary["bt_cov_diag"].values())
        assert [(g["n"], g["level"] > 0) for g in summary["gaps"]] == [(50, True),
                                                                       (200, True)]
        # every knot rests on R maxima; the two-sided z is the gap over both
        # SEs
        for gap, two in zip(summary["gaps"], summary["gaps_two_sided"], strict=True):
            assert (two["n"], two["phantom_replicas"]) == (gap["n"], summary["replicas"])
            assert 0.0 < two["phantom_se"] < 0.1
            assert two["z"] == pytest.approx(gap["gap"] / math.hypot(gap["se"],
                                                                     two["phantom_se"]))
        assert "metropolis_acceptance_rate" not in summary  # Metropolis specs only

    def test_worker_count_does_not_change_artifacts(self, run, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w3"
        run(self.CFG, "phantom-fit", "--out", str(a))
        run(self.CFG, "phantom-fit", "--out", str(b), section_args=("--workers", "3"))
        for name in ("driving.csv", "maxlaw.csv", "bt.csv", "theta.csv", "phantom.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_timing_lists_the_stages_then_the_writes(self, run, tmp_path):
        out = tmp_path / "fit"
        assert run(self.CFG, "phantom-fit", "--out", str(out))[0] == 0
        assert timing_labels(out) == [
            "fit table", "validation", "B_T", "theta",
            *(f"write {name}" for name in ("driving.csv", "maxlaw.csv", "bt.csv",
                                           "theta.csv", "phantom.txt", "summary.json")),
            "total", "peak rss", "workers peak rss"]

    def test_markov_fit_draws_one_replica_set_per_question(self, run, tmp_path,
                                                           monkeypatch):
        """The fit table, the validation table and one B_T set for every
        block size; theta reads the fit's driving levels."""
        from phantomdf import estimate

        tags = []
        window_maxima = estimate._window_maxima

        def spy(spec, windows, R, seed, tag, workers=1):
            tags.append(tag)
            return window_maxima(spec, windows, R, seed, tag, workers)

        monkeypatch.setattr(estimate, "_window_maxima", spy)
        out = tmp_path / "fit"
        rc, _, err = run(TestWorkers.CFG, "phantom-fit", "--out", str(out))
        assert rc in (0, 1) and err == ""
        assert tags == ["phantom-fit", "phantom-verify", "bt-80"]
        driving = {row[0]: row[1] for row in
                   (line.split(",") for line in (out / "driving.csv").read_text().splitlines()[1:])}
        theta = [line.split(",")[:2] for line in (out / "theta.csv").read_text().splitlines()[1:]]
        assert theta == [[n, driving[n]] for n in ("20", "80")]

    def test_missing_phantom_file_exits_2(self, run, tmp_path):
        rc, _out, err = run("[verify]\nphantom = nowhere.txt\nkind = iid\n"
                            "marginal = exp(1)\nblock_sizes = 50,200\n",
                            "verify", "--out", str(tmp_path / "v"))
        assert rc == 2


class TestWorkers:
    CFG = ("[common]\nseed = 11\nreplicas = 256\n"
           "[phantom-fit]\nkind = metropolis\ntarget = symmetric_pareto(2,1)\n"
           "proposal = uniform(-1,1)\nblock_sizes = 20,80\n")

    @pytest.mark.parametrize("cfg_extra, argv", [
        ("", ("--workers", "0")),
        ("", ("--workers", "-2")),
        ("workers = 0\n", ()),
    ], ids=["flag-zero", "flag-negative", "ini-zero"])
    def test_nonpositive_workers_exit_2_before_any_work(self, run, tmp_path,
                                                         cfg_extra, argv):
        out = tmp_path / "o"
        rc, stdout, err = run(self.CFG + cfg_extra, "phantom-fit", "--out", str(out),
                              section_args=argv)
        assert rc == 2 and stdout == ""
        assert err.splitlines() == [err.strip()] and err.startswith("error: workers")
        assert not out.exists()

    @pytest.mark.parametrize("cfg_extra, argv, seed", [
        ("", ("--seed", "-1"), "-1"),
        ("", ("--seed", str(2**64)), str(2**64)),
        ("seed = -1\n", (), "-1"),
        ("seed = 18446744073709551616\n", (), str(2**64)),
    ], ids=["flag-negative", "flag-2**64", "ini-negative", "ini-2**64"])
    def test_seed_outside_64_bits_exits_2_before_any_work(self, run, tmp_path,
                                                          cfg_extra, argv, seed):
        # the seed streams reduce the master seed mod 2**64: -1 and 2**64
        # would alias seeds 2**64 - 1 and 0
        out = tmp_path / "o"
        rc, stdout, err = run(self.CFG + cfg_extra, "phantom-fit", "--out", str(out),
                              section_args=argv)
        assert (rc, stdout) == (2, "")
        assert err.splitlines() == [f"error: seed must lie in [0, 2**64), got {seed}"]
        assert not out.exists()

    @staticmethod
    def fit_at_one_and_two_workers(run, cfg, a, b, monkeypatch, pool_spy):
        """phantom-fit into ``a`` at one worker, whose 256 Metropolis rows are
        one chunk in the parent, then into ``b`` at two, with the rows cut
        into two 128-row chunks so that every replica set forks."""
        from phantomdf import estimate

        monkeypatch.setattr(estimate.os, "cpu_count", lambda: 2)
        assert run(cfg, "phantom-fit", "--out", str(a))[0] in (0, 1)
        assert pool_spy == []
        monkeypatch.setattr(estimate, "_chunk_rows", lambda spec: 128)
        assert run(cfg, "phantom-fit", "--out", str(b),
                   section_args=("--workers", "2"))[0] in (0, 1)
        assert pool_spy == [2, 2, 2]  # fit, validation and B_T each forked

    def test_acceptance_rate_is_the_same_at_one_and_two_workers(self, run, tmp_path,
                                                                 monkeypatch, pool_spy):
        a, b = tmp_path / "w1", tmp_path / "w2"
        self.fit_at_one_and_two_workers(run, self.CFG, a, b, monkeypatch, pool_spy)
        rates = [json.loads((out / "summary.json").read_text())["metropolis_acceptance_rate"]
                 for out in (a, b)]
        assert rates[0] == rates[1] and 0.5 < rates[0] < 1.0
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_fit_files_are_the_same_at_one_and_two_workers(self, run, tmp_path,
                                                           monkeypatch, pool_spy):
        """R = 256 at blocks 20 and 80: the fit chains stop at 80, the fit
        sizes above it read that column, and every file keeps its bytes."""
        a, b = tmp_path / "w1", tmp_path / "w2"
        self.fit_at_one_and_two_workers(run, self.CFG, a, b, monkeypatch, pool_spy)
        names = sorted(p.name for p in a.iterdir() if p.name != "timing.txt")
        assert names == sorted(p.name for p in b.iterdir() if p.name != "timing.txt")
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        rows = [line.split(",") for line in (a / "driving.csv").read_text().splitlines()]
        assert rows[0] == ["n", "v_hat", "ci_lo", "ci_hi", "replicas"]
        counts = {int(row[0]): int(row[-1]) for row in rows[1:]}
        assert max(counts) == 6_325 and set(counts.values()) == {256}
        two = json.loads((a / "summary.json").read_text())["gaps_two_sided"]
        assert [(g["n"], g["phantom_replicas"]) for g in two] == [(20, 256), (80, 256)]

    def test_error_in_a_worker_exits_2_without_traceback(self, run, tmp_path,
                                                          monkeypatch, pool_spy):
        from phantomdf import estimate
        from phantomdf.errors import InvalidArgumentError

        def broken(spec, rngs, length):
            raise InvalidArgumentError("broken path engine")

        monkeypatch.setattr(estimate.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(estimate, "_chunk_rows", lambda spec: 128)  # two chunks
        monkeypatch.setattr(estimate, "_path_slabs", broken)
        rc, _out, err = run(self.CFG, "phantom-fit", "--out", str(tmp_path / "o"),
                            section_args=("--workers", "2"))
        assert rc == 2
        assert err == "error: broken path engine\n"
        assert pool_spy == [2]  # raised in the forked workers


class TestMalformedPhantom:
    HEADER = "phantomdf continuous v1\n"
    TABLE = "gamma 0.36787944117144233\nknots 2\n0.5 1\n0.9 0.5\n"

    @pytest.mark.parametrize("text", [
        HEADER,                                            # header only
        HEADER + "gamma 0.36787944117144233\n",            # no knot count
        HEADER + TABLE.rsplit("\n", 2)[0] + "\n",           # one knot short
        HEADER + TABLE.replace("knots 2", "knots two"),    # non-numeric count
        HEADER + TABLE.replace("0.9 0.5", "0.9 half"),     # non-numeric exponent
        HEADER + TABLE.replace("0.9 0.5", "0.9 0"),        # zero exponent
        HEADER + TABLE.replace("0.9 0.5", "0.9 -0.5"),     # negative exponent
    ], ids=["header-only", "no-count", "short-table", "count-text",
            "exponent-text", "zero-exponent", "negative-exponent"])
    def test_verify_exits_2_with_one_line_error(self, run, tmp_path, text):
        phantom = tmp_path / "phantom.txt"
        phantom.write_text(text)
        rc, _out, err = run(f"[verify]\nphantom = {phantom}\nkind = iid\n"
                            "marginal = exp(1)\nblock_sizes = 50,200\n",
                            "verify", "--out", str(tmp_path / "v"))
        assert rc == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


class TestVerdictExitCodes:
    def test_rates_sufficient(self, run, tmp_path):
        rc, stdout, _ = run("[rates]\nkind = theta\nb = 1.0\nbeta = 4.0\n",
                            "rates", "--out", str(tmp_path / "r"))
        assert rc == 0 and "sufficient" in stdout
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["rate_check"]["sufficient"] is True
        # the record's fields are the keys, and its str enum is its value
        assert sorted(summary["rate_check"]) == sorted(RateVerdict._fields)
        assert summary["rate_check"]["kind"] == "theta"

    def test_rates_insufficient(self, run, tmp_path):
        rc, stdout, _ = run("[rates]\nkind = kappa\nb = 1.0\nbeta = 4.0\n",
                            "rates", "--out", str(tmp_path / "r"))
        assert rc == 1 and "NOT sufficient" in stdout

    def test_rates_discontinuous_case(self, run, tmp_path):
        rc, _stdout, _ = run("[rates]\nkind = alpha\nb = 1.0\nbeta = 1.0\n"
                             "mixing = polynomial(4)\ndelta_xi = 0.5:true\n",
                             "rates", "--out", str(tmp_path / "r"))
        assert rc == 0
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["discontinuous_case"]["admits_phantom"] is True

    def test_extremal_index_reports_without_failing(self, run, tmp_path):
        rc, stdout, _ = run("[common]\nseed = 5\nreplicas = 300\n"
                            "[extremal-index]\nkind = moving_max\nwindow = 2\n"
                            "base = uniform(0,1)\nblock_sizes = 100,1000\nmethod = exact\n",
                            "extremal-index", "--out", str(tmp_path / "ei"))
        assert rc == 0
        assert "theta" in stdout
        assert (tmp_path / "ei" / "theta.csv").exists()
        summary = json.loads((tmp_path / "ei" / "summary.json").read_text())
        assert "metropolis_acceptance_rate" not in summary  # Metropolis specs only

    def test_extremal_index_writes_the_metropolis_acceptance_rate(self, run, tmp_path):
        from phantomdf.distributions import symmetric_pareto, uniform
        from phantomdf.estimate import estimate_driving_sequence
        from phantomdf.processes import MetropolisSpec

        rc, _, err = run("[common]\nseed = 5\nreplicas = 200\n"
                         "[extremal-index]\nkind = metropolis\n"
                         "target = symmetric_pareto(2,1)\nproposal = uniform(-1,1)\n"
                         "block_sizes = 20,80\n",
                         "extremal-index", "--out", str(tmp_path / "ei"))
        assert (rc, err) == (0, "")
        spec = MetropolisSpec(target=symmetric_pareto(2.0, 1.0), proposal=uniform(-1.0, 1.0))
        dse = estimate_driving_sequence(spec, math.exp(-1.0), [20, 80], R=200, seed=5)
        summary = json.loads((tmp_path / "ei" / "summary.json").read_text())
        assert summary["metropolis_acceptance_rate"] == dse.acceptance_rate
        assert 0.5 < dse.acceptance_rate < 1.0

    def test_bt_check_writes_the_metropolis_acceptance_rate(self, run, tmp_path):
        # the B_T replicas are R chains to the largest p + q (2 x 80); the
        # rate is their moves over their R (160 - 1) steps
        import numpy as np

        from phantomdf.distributions import symmetric_pareto, uniform
        from phantomdf.processes import MetropolisSpec, _path_slabs
        from phantomdf.seeding import rng_for

        rc, _, err = run("[common]\nseed = 5\nreplicas = 200\n"
                         "[bt-check]\nkind = metropolis\n"
                         "target = symmetric_pareto(2,1)\nproposal = uniform(-1,1)\n"
                         "block_sizes = 20,80\n",
                         "bt-check", "--out", str(tmp_path / "bt"))
        assert rc in (0, 1) and err == ""
        spec = MetropolisSpec(target=symmetric_pareto(2.0, 1.0), proposal=uniform(-1.0, 1.0))
        paths = np.concatenate([s.copy() for s in _path_slabs(
            spec, [rng_for(5, "bt-80", r) for r in range(200)], 160)], axis=1)
        moves = np.count_nonzero(paths[:, 1:] != paths[:, :-1])
        summary = json.loads((tmp_path / "bt" / "summary.json").read_text())
        assert summary["metropolis_acceptance_rate"] == moves / (200 * 159)
        assert 0.5 < summary["metropolis_acceptance_rate"] < 1.0

    # the law's quantile maps its overflow to inf on purpose, so numpy warns
    # of nothing, and an error here fails the test
    @pytest.mark.filterwarnings("error")
    def test_bt_check_with_an_infinite_level_exits_2_naming_it(self, run, tmp_path):
        # symmetric_pareto(0.001, 1) holds a quarter of its mass on each side
        # beyond the largest double, so the propbasic levels are infinite:
        # summary.json would need "level": Infinity, which is not JSON.  The
        # summary is built before the first write, so no artifact is left
        out = tmp_path / "bt"
        rc, _out, err = run("[common]\nseed = 1\nreplicas = 200\n"
                            "[bt-check]\nkind = iid\nmarginal = symmetric_pareto(0.001,1)\n"
                            "block_sizes = 10,20\n", "bt-check", "--out", str(out))
        assert rc == 2
        assert err == ("error: report field propbasic.rows.0.level is inf, "
                       "which JSON cannot hold\n")
        assert not out.exists() or list(out.iterdir()) == []

    def test_phantom_fit_names_the_acceptance_rate_of_a_chain_that_never_moves(
            self, run, tmp_path):
        # every proposal lands where exp(1) has no mass, or so far out that
        # its density is 0, so each chain stays at its start
        out = tmp_path / "fit"
        rc, stdout, err = run("[common]\nseed = 1\nreplicas = 200\n"
                              "[phantom-fit]\nkind = metropolis\ntarget = exp(1)\n"
                              "proposal = uniform(-1e300,1e300)\nblock_sizes = 10,20\n",
                              "phantom-fit", "--out", str(out))
        assert (rc, err) == (1, "")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metropolis_acceptance_rate"] == 0.0
        assert stdout == (
            f"phantom-fit: phantom NOT verified, theta = 0 (sup gap "
            f"{summary['sup_gap']:.4f}, metropolis acceptance rate 0.0000)\n")

    def test_bt_check_timing_lists_the_stages_then_the_writes(self, run, tmp_path):
        out = tmp_path / "bt"
        assert run("[common]\nseed = 3\nreplicas = 200\n"
                   "[bt-check]\nkind = iid\nmarginal = exp(1)\nblock_sizes = 50,200\n",
                   "bt-check", "--out", str(out))[0] in (0, 1)
        assert timing_labels(out) == [
            "driving levels", "B_T", "propbasic",
            *(f"write {name}" for name in ("bt.csv", "driving.csv", "summary.json")),
            "total", "peak rss", "workers peak rss"]

    def test_extremal_index_timing_lists_the_stages_then_the_writes(self, run, tmp_path):
        out = tmp_path / "ei"
        assert run("[common]\nseed = 5\nreplicas = 300\n"
                   "[extremal-index]\nkind = moving_max\nwindow = 2\n"
                   "base = uniform(0,1)\nblock_sizes = 100,1000\nmethod = exact\n",
                   "extremal-index", "--out", str(out))[0] == 0
        assert timing_labels(out) == [
            "driving levels", "theta",
            *(f"write {name}" for name in ("theta.csv", "summary.json")),
            "total", "peak rss", "workers peak rss"]

    def test_bt_check_ok(self, run, tmp_path):
        rc, stdout, _ = run("[common]\nseed = 3\nreplicas = 400\n"
                            "[bt-check]\nkind = iid\nmarginal = exp(1)\n"
                            "block_sizes = 50,200\n",
                            "bt-check", "--out", str(tmp_path / "bt"))
        assert rc == 0 and "ok" in stdout

    def test_bt_check_reports_propbasic(self, run, tmp_path, monkeypatch):
        from phantomdf import estimate

        monkeypatch.setattr(estimate.os, "cpu_count", lambda: 2)
        cfg = ("[common]\nseed = 3\nreplicas = 400\n"
               "[bt-check]\nkind = iid\nmarginal = exp(1)\nblock_sizes = 50,200\n")
        outs = [tmp_path / "w1", tmp_path / "w2"]
        for out, workers in zip(outs, ("1", "2")):
            assert run(cfg, "bt-check", "--out", str(out),
                       section_args=("--workers", workers))[0] == 0
        for name in ("bt.csv", "driving.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        pb = json.loads((outs[0] / "summary.json").read_text())["propbasic"]
        assert [(r["n"], r["k"], r["m"]) for r in pb["rows"]] == [(50, 7, 7), (200, 14, 14)]
        assert pb["max_k_tail"] == max(r["k_tail"] for r in pb["rows"]) < 1.0
        assert pb["diverging"] is False
        assert all(r["sandwich_ok"] and r["k_c"] >= 0 and r["k_c_se"] > 0
                   for r in pb["rows"])
        summary = json.loads((outs[0] / "summary.json").read_text())
        assert set(summary["cov_diag"]) == set(summary["b_values"]) == {"50", "200"}
        assert "metropolis_acceptance_rate" not in summary  # Metropolis specs only


def test_regen_pipeline(run, tmp_path):
    # the regen command refuses paths shorter than 1e5 values
    rc, stdout, _ = run("[common]\nseed = 19\n"
                        "[regen]\nstep = pareto(2,1)-2\nlength = 100000\n"
                        "verify_blocks = 300,1000\n",
                        "regen", "--out", str(tmp_path / "rg"))
    assert rc == 0, stdout
    assert "cycles" in stdout and "ratio->0" in stdout
    assert sorted(p.name for p in (tmp_path / "rg").iterdir()) == [
        "cycle_maxima_cdf.csv", "maxlaw.csv", "summary.json", "timing.txt"]
    summary = json.loads((tmp_path / "rg" / "summary.json").read_text())
    assert summary["phantom_verified"] is True
    assert summary["cycle_count"] >= 500
    assert summary["stationary_tail_verdict"] == "ratio->0"
    assert [g["n"] for g in summary["gaps"]] == [300, 1000]
    assert summary["cycle_tail_exceedances"] > 0
    assert summary["cycle_tail_level"] > 0.0
    assert timing_labels(tmp_path / "rg") == [
        "path", "regenerative split", "validation table", "band and tail verdict",
        *(f"write {name}" for name in ("cycle_maxima_cdf.csv", "maxlaw.csv",
                                       "summary.json")),
        "total", "peak rss", "workers peak rss"]


def test_simulate_writes_the_marks_of_regen_s_path(run, tmp_path, monkeypatch):
    # regen writes no marks; simulate with its step, seed and length writes
    # the marks of the path it split into cycles
    from phantomdf import estimate
    from phantomdf.processes import generate

    drawn = []

    def spy(*args):
        drawn.append(generate(*args))
        return drawn[-1]

    monkeypatch.setattr(estimate, "generate", spy)
    law = "[common]\nseed = 19\n[{}]\nstep = pareto(2,1)-2\nlength = 100000\n"
    assert run(law.format("regen") + "verify_blocks = 300,1000\n",
               "regen", "--out", str(tmp_path / "rg"))[0] == 0
    assert run(law.format("simulate") + "kind = lindley\n",
               "simulate", "--out", str(tmp_path / "sim"))[0] == 0
    [path] = drawn
    lines = (tmp_path / "sim" / "path.marks.txt").read_text().splitlines()
    marks = [int(s) for s in lines if s and not s.startswith("#")]
    assert marks == np.flatnonzero(path == 0.0).tolist()
    cycles = json.loads((tmp_path / "rg" / "summary.json").read_text())["cycle_count"]
    assert cycles == len(marks) - 1


class TestBadBlockSizes:
    """Bad block sizes, gamma, replica counts, law parameters or
    estimation methods exit 2 with one line before anything is simulated."""
    FIT = ("[common]\nseed = 11\nreplicas = 256\n"
           "[phantom-fit]\nkind = metropolis\ntarget = symmetric_pareto(2,1)\n"
           "proposal = uniform(-1,1)\nblock_sizes = {}\n")
    VERIFY = ("[verify]\nphantom = {}\nkind = iid\nmarginal = exp(1)\n"
              "block_sizes = {}\n")
    REGEN = ("[regen]\nstep = pareto(2,1)-2\nlength = 2000000\n"
             "verify_blocks = {}\n")

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        from phantomdf import cli, estimate

        def called(*args, **kwargs):
            raise AssertionError("simulated before the block sizes were checked")

        for module in (cli, estimate):  # wherever a module binds them
            for name in ("block_maxima_table", "generate"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, called)

    def assert_rejected(self, rc, stdout, err,
                        error="error: block sizes must be strictly increasing, >= 1"):
        assert rc == 2 and stdout == ""
        assert err.splitlines() == [error]

    @pytest.mark.parametrize("sizes", ["1000,100", "0,100", "100,100"])
    def test_phantom_fit(self, run, tmp_path, sizes):
        self.assert_rejected(*run(self.FIT.format(sizes), "phantom-fit",
                                  "--out", str(tmp_path / "o")))

    @pytest.mark.parametrize("sizes", ["200,50", "0,100"])
    def test_verify(self, run, tmp_path, sizes):
        phantom = tmp_path / "phantom.txt"
        phantom.write_text(TestMalformedPhantom.HEADER + TestMalformedPhantom.TABLE)
        self.assert_rejected(*run(self.VERIFY.format(phantom, sizes), "verify",
                                  "--out", str(tmp_path / "o")))

    @pytest.mark.parametrize("sizes", ["10000,1000", "0,1000"])
    def test_regen(self, run, tmp_path, sizes):
        self.assert_rejected(*run(self.REGEN.format(sizes), "regen",
                                  "--out", str(tmp_path / "o")))

    @pytest.mark.parametrize("gamma", ["1.5", "0", "nan"])
    def test_phantom_fit_gamma(self, run, tmp_path, gamma):
        self.assert_rejected(*run(self.FIT.format("100,1000") + f"gamma = {gamma}\n",
                                  "phantom-fit", "--out", str(tmp_path / "o")),
                             error="error: gamma must lie strictly inside (0, 1)")

    @pytest.mark.parametrize("command", ["phantom-fit", "verify", "regen"])
    def test_replica_floor(self, run, tmp_path, command):
        phantom = tmp_path / "phantom.txt"
        phantom.write_text(TestMalformedPhantom.HEADER + TestMalformedPhantom.TABLE)
        cfg = {"phantom-fit": self.FIT.format("100,1000"),
               "verify": self.VERIFY.format(phantom, "50,200"),
               "regen": self.REGEN.format("1000,10000")}[command]
        self.assert_rejected(*run(cfg, command, "--out", str(tmp_path / "o"),
                                  section_args=("--replicas", "50")),
                             error="error: need at least 200 replicas, got 50")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("law, error", [
        ("exp(nan)", "parameters of 'exp' must be finite"),
        ("exp(inf)", "parameters of 'exp' must be finite"),
        ("exp(1e400)", "parameters of 'exp' must be finite"),
        ("pareto(nan,1)", "parameters of 'pareto' must be finite"),
        ("beta(nan,1)", "parameters of 'beta' must be finite"),
        ("exp(1)+1e400", "shift must be finite, got inf"),
    ])
    def test_phantom_fit_non_finite_law(self, run, tmp_path, law, error):
        cfg = ("[common]\nreplicas = 256\n[phantom-fit]\nkind = iid\n"
               f"marginal = {law}\nblock_sizes = 100,1000\n")
        self.assert_rejected(*run(cfg, "phantom-fit", "--out", str(tmp_path / "o")),
                             error=f"error: {error}")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, section, law", [
        ("phantom-fit", "kind = metropolis\ntarget = {}\nproposal = uniform(-1,1)\n",
         "pareto(1e-300,1e300)"),
        ("bt-check", "kind = iid\nmarginal = {}\n", "pareto(1e-300,1)"),
    ], ids=["metropolis-target", "iid-marginal"])
    def test_law_whose_quantile_is_infinite(self, run, tmp_path, command, section, law):
        # every quantile of these laws overflows: the sampler would draw inf
        cfg = (f"[common]\nreplicas = 200\n[{command}]\n" + section.format(law)
               + "block_sizes = 10,20\n")
        self.assert_rejected(*run(cfg, command, "--out", str(tmp_path / "o")),
                             error=f"error: law {law!r} has no finite median: its tail "
                                   "at the largest double is 1")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("law, bad, name", [
        ("symmetric_pareto(2,1)", "symmetric_pareto(nan,1)", "symmetric_pareto"),
        ("uniform(-1,1)", "uniform(-inf,1)", "uniform"),
    ], ids=["target", "proposal"])
    def test_phantom_fit_non_finite_metropolis_law(self, run, tmp_path, law, bad, name):
        cfg = self.FIT.format("100,1000").replace(law, bad)
        self.assert_rejected(*run(cfg, "phantom-fit", "--out", str(tmp_path / "o")),
                             error=f"error: parameters of '{name}' must be finite")

    @pytest.mark.parametrize("law", ["geometric(0.5)", "superheavy()"])
    def test_phantom_fit_metropolis_target_without_a_density(self, run, tmp_path, law):
        cfg = self.FIT.format("100,1000").replace("symmetric_pareto(2,1)", law)
        self.assert_rejected(*run(cfg, "phantom-fit", "--out", str(tmp_path / "o")),
                             error="error: target and proposal need a log density")

    @pytest.mark.parametrize("law, bad, error", [
        ("uniform(-1,1)", "uniform(-1,2)", "proposal density must be symmetric about 0"),
        ("uniform(-1,1)", "uniform(-1,1)+0.5",
         "proposal density must be symmetric about 0"),
        ("uniform(-1,1)", "geometric(0.5)", "target and proposal need a log density"),
        ("symmetric_pareto(2,1)", "uniform(200,300)",
         "target density vanishes on the probe grid"),
    ], ids=["asymmetric", "shifted", "proposal-without-density", "target-off-grid"])
    def test_phantom_fit_metropolis_spec_refusal(self, run, tmp_path, law, bad, error):
        cfg = self.FIT.format("100,1000").replace(law, bad)
        self.assert_rejected(*run(cfg, "phantom-fit", "--out", str(tmp_path / "o")),
                             error=f"error: {error}")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("step, mean, burn", [
        ("uniform(-1,1)-1e-12", "-1e-12", "2e+13"),
        ("uniform(-1,1)-5e-324", "-5e-324", "inf"),  # 20 / |mean| overflows
    ], ids=["tiny-mean", "subnormal-mean"])
    @pytest.mark.parametrize("command, section", [
        ("simulate", "kind = lindley\nstep = {}\nlength = 10\n"),
        ("regen", "step = {}\nlength = 10\n"),
        ("phantom-fit", "kind = lindley\nstep = {}\nblock_sizes = 10\n"),
    ], ids=["simulate", "regen", "phantom-fit"])
    def test_lindley_burn_in_past_the_cap(self, run, tmp_path, command, section, step,
                                          mean, burn):
        # a burn-in of 20 / |mean| steps would run for hours, or not at all
        start = time.perf_counter()
        got = run(f"[{command}]\n" + section.format(step), command,
                  "--out", str(tmp_path / "o"))
        assert time.perf_counter() - start < 1.0
        self.assert_rejected(*got, error=f"error: step mean {mean} needs a burn-in of "
                                         f"{burn} steps; at most 10000000 are allowed")
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    def test_regen_non_finite_shift(self, run, tmp_path):
        cfg = self.REGEN.format("1000,10000").replace("pareto(2,1)-2", "pareto(2,1)-1e400")
        self.assert_rejected(*run(cfg, "regen", "--out", str(tmp_path / "o")),
                             error="error: shift must be finite, got -inf")


    @pytest.mark.parametrize("kind", ["iid\nmarginal = exp(1)",
                                      "lindley\nstep = pareto(2,1)-2"])
    def test_extremal_index_method(self, run, tmp_path, kind):
        cfg = (f"[extremal-index]\nkind = {kind}\nblock_sizes = 100,1000\n"
               "method = exactt\n")
        self.assert_rejected(*run(cfg, "extremal-index", "--out", str(tmp_path / "o")),
                             error="error: method must be 'auto', 'exact' or "
                                   "'monte-carlo', got 'exactt'")


class TestBadNumbers:
    """A malformed number exits 2 with one line naming its config key, and a
    size too large for memory exits 2 with one line naming the field that
    sized the array (numpy refuses these sizes before it touches memory)."""

    @pytest.mark.parametrize("command, cfg, error", [
        ("phantom-fit", "[common]\nreplicas = abc\n", "replicas must be an integer, got 'abc'"),
        ("simulate", "[simulate]\nkind = moving_max\nwindow = 2.5\nbase = uniform(0,1)\n",
         "window must be an integer, got '2.5'"),
        ("simulate", "[simulate]\nlength = 1e3\n", "length must be an integer, got '1e3'"),
        ("phantom-fit", "[common]\ngamma = e\n", "gamma must be a number, got 'e'"),
        ("rates", "[rates]\nbeta = ten\n", "beta must be a number, got 'ten'"),
        ("rates", "[rates]\nb = x\n", "b must be a number, got 'x'"),
    ], ids=["replicas", "window", "length", "gamma", "beta", "b"])
    def test_malformed_number_names_its_key(self, run, tmp_path, command, cfg, error):
        rc, stdout, err = run(cfg, command, "--out", str(tmp_path / "o"))
        assert (rc, stdout) == (2, "")
        assert err.splitlines() == [f"error: {error}"]

    @pytest.mark.parametrize("command, cfg, field", [
        ("phantom-fit", "[phantom-fit]\nkind = iid\nmarginal = exp(1)\n"
         "replicas = 1000000000000000\n", "replicas"),
        ("simulate", "[simulate]\nlength = 100000000000000\n", "length"),
        ("simulate", "[simulate]\nkind = moving_max\nwindow = 1000000000000000\n"
         "base = uniform(0,1)\n", "window"),
    ], ids=["replicas", "length", "window"])
    def test_size_beyond_memory_names_its_field(self, run, tmp_path, command, cfg, field):
        rc, stdout, err = run(cfg, command, "--out", str(tmp_path / "o"))
        assert (rc, stdout) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {field} is too large: Unable to allocate")
        assert not (tmp_path / "o").exists()

    def test_regen_rejects_replicas_before_the_path(self, run, tmp_path, monkeypatch):
        # the replica count is tried against memory before the 2e6-step path
        # is simulated, so the exit costs no path work
        def generate(*args):
            raise AssertionError("generate ran before the replica check")
        monkeypatch.setattr("phantomdf.estimate.generate", generate)
        rc, stdout, err = run("[regen]\nlength = 2000000\nreplicas = 1000000000000000\n",
                              "regen", "--out", str(tmp_path / "o"))
        assert (rc, stdout) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: replicas is too large: Unable to allocate")
        assert not (tmp_path / "o").exists()


class TestUnknownConfigKeys:
    """A key or section that no command reads exits 2 with one line naming
    it, before any simulation runs; every config the package or the
    benchmark writes still loads."""

    @pytest.mark.parametrize("command, cfg, error", [
        ("regen", "[regen]\nstep = pareto(2,1)-2\nlength = 100000\nsmoothing = step\n",
         "unknown key 'smoothing' in config section [regen]"),
        ("phantom-fit", "[phantom-fit]\nkind = iid\nmarginal = exp(1)\nblok_sizes = 10,100\n",
         "unknown key 'blok_sizes' in config section [phantom-fit]"),
        ("rates", "[common]\nseed = 1\n[phantom_fit]\nblock_sizes = 10\n",
         "unknown config section [phantom_fit]"),
        # a Metropolis chain always starts in its target law
        ("phantom-fit", "[phantom-fit]\nkind = metropolis\ntarget = symmetric_pareto(2,1)\n"
         "proposal = uniform(-1,1)\ninit = 0.5\n",
         "unknown key 'init' in config section [phantom-fit]"),
        # the B_T pairs reach p + q = 2n whatever a horizon says, so no key
        # sets one; the error names a key as the file writes it
        ("bt-check", "[bt-check]\nT = 3\n", "unknown key 'T' in config section [bt-check]"),
        ("phantom-fit", "[phantom-fit]\nbt_T = 2\n",
         "unknown key 'bt_T' in config section [phantom-fit]"),
        # [common] is the section every other one reads through to
        ("phantom-fit", "[DEFAULT]\nseed = 3\n", "unknown config section [DEFAULT]"),
        ("phantom-fit", "[common]\nblock_sizes = 10\n",
         "unknown key 'block_sizes' in config section [common]"),
    ], ids=["removed", "misspelt", "section", "init", "T", "bt_T", "DEFAULT", "common"])
    def test_exits_2_naming_the_key(self, run, tmp_path, monkeypatch, command, cfg, error):
        def simulated(*args, **kwargs):
            raise AssertionError("simulated before the config was checked")
        monkeypatch.setattr("phantomdf.estimate.generate", simulated)
        monkeypatch.setattr("phantomdf.estimate.block_maxima_table", simulated)
        rc, stdout, err = run(cfg, command, "--out", str(tmp_path / "o"))
        assert (rc, stdout) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {error}; one of [")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section", ["common", "phantom-fit"])
    def test_two_cases_of_one_key_exit_2(self, run, tmp_path, section):
        # keys compare in lowercase, so Seed and seed name one key twice;
        # one of them alone is the seed
        rc, stdout, err = run(f"[{section}]\nSeed = 3\nseed = 4\n", "phantom-fit",
                              "--out", str(tmp_path / "o"))
        assert (rc, stdout) == (2, "")
        assert err == (f"error: config section [{section}] sets 'Seed' and 'seed', "
                       "which name one key\n")
        assert not (tmp_path / "o").exists()

    def test_defaults_and_benchmark_configs_load(self, tmp_path):
        import runpy

        from phantomdf.config import load_config, print_defaults

        load_config(write_config(tmp_path / "defaults.ini", print_defaults()))
        path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
        workloads = runpy.run_path(str(path))["WORKLOADS"]
        commands = [c for w in workloads.values() for c in w.commands]
        assert len(commands) == 5
        for c in commands:
            text = f"[{c.subcommand}]\n" + "".join(f"{k} = {v}\n" for k, v in c.config.items())
            cp = load_config(write_config(tmp_path / f"{c.name}.ini", text))
            assert dict(cp[c.subcommand]).items() >= c.config.items()


@pytest.mark.parametrize("key, flag", [("seed", 13), ("replicas", 500), ("workers", 4),
                                       ("out", "from-flag")])
def test_a_setting_reads_the_flag_then_the_section_then_common_then_the_default(
        tmp_path, key, flag):
    def read(text, flag=None):
        args = argparse.Namespace(config=write_config(tmp_path / "cfg.ini", text),
                                  seed=None, replicas=None, workers=None, out=None)
        setattr(args, key, flag)
        return _Settings(args, "phantom-fit").get(key)

    common = f"[common]\n{key} = 7\n[bt-check]\n{key} = 9\n"
    both = common + f"[phantom-fit]\n{key} = 8\n"
    assert read("") == DEFAULTS["common"][key]
    assert read(common) == "7"
    assert read(both) == "8"
    assert read(both, flag) == read("", flag) == str(flag)


@pytest.mark.parametrize("section", ["common", "phantom-fit"])
def test_a_repeated_section_exits_2(run, tmp_path, section):
    rc, stdout, err = run(f"[{section}]\nseed = 1\n[{section}]\nreplicas = 300\n",
                          "phantom-fit", "--out", str(tmp_path / "o"))
    assert (rc, stdout) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: malformed config") and "already exists" in err
    assert not (tmp_path / "o").exists()


class TestCriteriaList:
    """An acceptance criteria list that is empty, names a criterion twice or
    names no criterion exits 2 with one line, before any criterion runs."""
    LIST_ERROR = "criteria must be 'all' or distinct criterion numbers, got {!r}"

    @pytest.mark.parametrize("value, error", [
        (",", LIST_ERROR.format(",")),
        ("", LIST_ERROR.format("")),
        ("1,1", LIST_ERROR.format("1,1")),
        ("3, 2,3", LIST_ERROR.format("3, 2,3")),
        ("11", "no criterion 11"),
    ], ids=["comma", "empty", "repeated", "repeated-later", "unknown"])
    def test_rejected(self, run, tmp_path, monkeypatch, value, error):
        from phantomdf import acceptance

        def ran(*args, **kwargs):
            raise AssertionError("a criterion ran before the list was checked")
        monkeypatch.setattr(acceptance, "_CRITERIA", dict.fromkeys(acceptance._CRITERIA, ran))
        rc, stdout, err = run(f"[acceptance]\ncriteria = {value}\n", "acceptance",
                              "--out", str(tmp_path / "a"))
        assert (rc, stdout, err) == (2, "", f"error: {error}\n")
        assert not (tmp_path / "a").exists()

    def test_a_known_number_before_an_unknown_one_runs_nothing(self, run, tmp_path,
                                                             monkeypatch):
        from phantomdf import acceptance

        ran = []
        monkeypatch.setattr(acceptance, "run_criterion",
                            lambda number, workers=1: ran.append(number))
        rc, stdout, err = run("[acceptance]\ncriteria = 3,11\n", "acceptance",
                              "--out", str(tmp_path / "a"))
        assert (rc, stdout, err) == (2, "", "error: no criterion 11\n")
        assert ran == []
        assert not (tmp_path / "a").exists()

    def test_unknown_number_is_an_invalid_argument(self):
        from phantomdf.acceptance import run_criterion
        from phantomdf.errors import InvalidArgumentError

        with pytest.raises(InvalidArgumentError, match="no criterion 0"):
            run_criterion(0)


class TestBadRates:
    """Rate checks with a non-finite rate, a malformed mixing case or a flag
    that is neither true nor false exit 2 with one line and write nothing."""
    BASE = "[rates]\nkind = theta\nb = 1.0\nbeta = 4.0\n"
    MIXING = "[rates]\nkind = alpha\nb = 1.0\nbeta = 1.0\nmixing = {}\n"
    XI = MIXING.format("polynomial(4)") + "delta_xi = {}\n"
    XI_ERROR = "delta_xi entries must read xi:true or xi:false with a finite xi >= 0, got {!r}"

    @pytest.mark.parametrize("cfg, error", [
        pytest.param(BASE.replace("4.0", "nan"), "decay rate beta must be finite, got nan",
                     id="beta-nan"),
        pytest.param(BASE.replace("4.0", "inf"), "decay rate beta must be finite, got inf",
                     id="beta-inf"),
        pytest.param(BASE.replace("4.0", "-1"), "decay rate beta must be >= 0, got -1",
                     id="beta-negative"),
        pytest.param(MIXING.format("m_dependent(inf)"),
                     "mixing argument must be finite, got 'inf'", id="m_dependent-inf"),
        pytest.param(MIXING.format("m_dependent(2.7)"),
                     "m_dependent range must be an integer, got '2.7'", id="m_dependent-2.7"),
        pytest.param(MIXING.format("polynomial(nan)"),
                     "mixing argument must be finite, got 'nan'", id="polynomial-nan"),
        pytest.param(MIXING.format("polynomial(inf)"),
                     "mixing argument must be finite, got 'inf'", id="polynomial-inf"),
        pytest.param(MIXING.format("polynomial(four)"),
                     "mixing argument must be a number, got 'four'", id="polynomial-text"),
        pytest.param(MIXING.format("geometric(0.5)"),
                     "unknown mixing case 'geometric(0.5)'", id="unknown-case"),
        pytest.param(MIXING.format("exponential"),
                     "mixing case must read name(argument), got 'exponential'",
                     id="exponential-without-argument"),
        pytest.param(MIXING.format("polynomial()"),
                     "mixing case 'polynomial()' needs an argument", id="polynomial-empty"),
        pytest.param(MIXING.format("polynomial(4"),
                     "mixing case must read name(argument), got 'polynomial(4'",
                     id="polynomial-unclosed"),
        pytest.param(MIXING.format("polynomial(4)))"),
                     "mixing case must read name(argument), got 'polynomial(4)))'",
                     id="polynomial-extra-parentheses"),
        pytest.param(MIXING.format("polynomial)4("),
                     "mixing case must read name(argument), got 'polynomial)4('",
                     id="polynomial-reversed-parentheses"),
        pytest.param(XI.format("nan:true"), XI_ERROR.format("nan:true"), id="xi-nan"),
        pytest.param(XI.format("-1:true"), XI_ERROR.format("-1:true"), id="xi-negative"),
        pytest.param(XI.format("0.5"), XI_ERROR.format("0.5"), id="xi-without-flag"),
        pytest.param(XI.format("0.5:yes"), "delta_xi flag must be true or false, got 'yes'",
                     id="xi-flag-yes"),
        pytest.param(XI.format("0.1:true,0.1:false"),
                     "delta_xi names xi = 0.1 twice, got '0.1:true,0.1:false'",
                     id="xi-repeated"),
        pytest.param(XI.format("0.5:false, 0.1:true, 0.10:true"),
                     "delta_xi names xi = 0.1 twice, got '0.5:false, 0.1:true, 0.10:true'",
                     id="xi-repeated-later"),
        pytest.param(MIXING.format("m_dependent(2)") + "delta0 = ture\n",
                     "delta0 must be true or false, got 'ture'", id="delta0-ture"),
    ])
    def test_rejected(self, run, tmp_path, cfg, error):
        rc, stdout, err = run(cfg, "rates", "--out", str(tmp_path / "r"))
        assert (rc, stdout) == (2, "")
        assert err.splitlines() == [f"error: {error}"]
        assert not (tmp_path / "r" / "summary.json").exists()

    def test_flags_and_integer_ranges_still_parse(self, run, tmp_path):
        rc, _stdout, err = run(self.MIXING.format("m_dependent(2.0)") +
                               "delta0 = TRUE\ndelta_xi = 0.1:false, 0.2:True,\n",
                               "rates", "--out", str(tmp_path / "r"))
        assert (rc, err) == (0, "")
        case = json.loads((tmp_path / "r" / "summary.json").read_text())["discontinuous_case"]
        assert case["which_case"] == "m-dependent"


def test_scipy_stays_off_the_import_path(tmp_path):
    """Importing the package and running a whole phantom-fit load numpy but
    not scipy.stats; only the beta law imports scipy."""
    cfg = write_config(tmp_path / "cfg.ini", "[common]\nreplicas = 200\n"
                       "[phantom-fit]\nkind = iid\nmarginal = exp(1)\nblock_sizes = 10\n")
    script = ("import sys\n"
              "import phantomdf, phantomdf.cli\n"
              "print('scipy.stats' in sys.modules)\n"
              f"rc = phantomdf.cli.main(['phantom-fit', '--config', {cfg!r}, "
              f"'--out', {str(tmp_path / 'o')!r}])\n"
              "print(rc, 'scipy.stats' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "0 False"), proc.stdout


def test_numpy_ma_stays_off_the_command_path(tmp_path):
    """A Metropolis phantom-fit, a regen and a moving-max phantom-fit, run in
    one fresh interpreter, never load numpy.ma: np.unique without
    return_counts would import it on its first call, 15-25 ms of each
    command's fixed cost."""
    configs = {
        "metropolis": "[phantom-fit]\nkind = metropolis\ntarget = symmetric_pareto(2,1)\n"
                      "proposal = uniform(-1,1)\nblock_sizes = 20,80\n",
        "regen": "[regen]\nstep = pareto(2,1)-2\nlength = 100000\nverify_blocks = 300,1000\n",
        "moving-max": "[phantom-fit]\nkind = moving_max\nwindow = 2\nbase = uniform(0,1)\n"
                      "block_sizes = 100,1000\n",
    }
    script = "import sys\nimport phantomdf.cli\n"
    for name, text in configs.items():
        cfg = write_config(tmp_path / f"{name}.ini", "[common]\nseed = 3\nreplicas = 200\n" + text)
        command = "regen" if name == "regen" else "phantom-fit"
        script += (f"rc = phantomdf.cli.main([{command!r}, '--config', {cfg!r}, "
                   f"'--out', {str(tmp_path / name)!r}])\n"
                   f"print({name!r}, rc, 'numpy.ma' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.split()[0] in configs]
    assert lines == [f"{name} 0 False" for name in configs], proc.stdout


def test_rates_and_acceptance_stay_off_the_command_path(tmp_path):
    """import phantomdf.cli, a Metropolis phantom-fit and a regen load
    neither phantomdf.rates nor phantomdf.acceptance; acceptance
    --criteria 1 loads acceptance but not rates; the package's rates names
    still resolve on first use."""
    configs = {
        "metropolis": ("phantom-fit", "[phantom-fit]\nkind = metropolis\n"
                       "target = symmetric_pareto(2,1)\nproposal = uniform(-1,1)\n"
                       "block_sizes = 20,80\n"),
        "regen": ("regen", "[regen]\nstep = pareto(2,1)-2\nlength = 100000\n"
                  "verify_blocks = 300,1000\n"),
        "acceptance": ("acceptance", "[acceptance]\ncriteria = 1\n"),
    }
    loaded = "[m for m in ('phantomdf.rates', 'phantomdf.acceptance') if m in sys.modules]"
    script = f"import sys\nimport phantomdf.cli\nprint('import', {loaded})\n"
    for name, (command, text) in configs.items():
        cfg = write_config(tmp_path / f"{name}.ini", "[common]\nseed = 3\nreplicas = 200\n" + text)
        script += (f"rc = phantomdf.cli.main([{command!r}, '--config', {cfg!r}, "
                   f"'--out', {str(tmp_path / name)!r}])\n"
                   f"print({name!r}, rc, {loaded})\n")
    script += ("import phantomdf\n"
               "from phantomdf import check_rate_sufficiency\n"
               "print('names', phantomdf.MDependent(m=2).m, callable(check_rate_sufficiency),\n"
               "      {'DeltaEvidence', 'threshold_beta', 'MDependent'} <= set(dir(phantomdf)))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines()
             if line.split()[0] in ("import", "names", *configs)]
    assert lines == ["import []", "metropolis 0 []", "regen 0 []",
                     "acceptance 0 ['phantomdf.acceptance']", "names 2 True True"], proc.stdout
