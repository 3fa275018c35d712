"""Command-line interface: exit codes, artifacts, and rerun determinism.

Everything runs in-process through main(argv) to keep the suite fast;
each scenario gets its own config file under tmp_path.
"""

import configparser
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from phantomdf.cli import main


def write_config(path, text):
    path.write_text(text)
    return str(path)


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
        # one write line per artifact, in write order, then one total line
        assert [line for line in lines if line.startswith("total: ")] == [lines[-1]]
        assert all(re.fullmatch(r"write [\w.]+: \d+\.\d\d s", line) for line in lines[:-1])
        assert [line.split(":")[0] for line in lines[:-1]] == [
            "write path.txt", "write path.marks.txt", "write summary.json"]
        assert sorted(p.name for p in out.iterdir()) == [
            "path.marks.txt", "path.txt", "summary.json", "timing.txt"]

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

    def test_worker_count_does_not_change_artifacts(self, run, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w3"
        run(self.CFG, "phantom-fit", "--out", str(a))
        run(self.CFG, "phantom-fit", "--out", str(b), section_args=("--workers", "3"))
        for name in ("driving.csv", "maxlaw.csv", "bt.csv", "theta.csv", "phantom.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

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

    def test_error_in_a_worker_exits_2_without_traceback(self, run, tmp_path,
                                                          monkeypatch):
        from phantomdf import estimate
        from phantomdf.errors import InvalidArgumentError

        def broken(spec, rngs, length):
            raise InvalidArgumentError("broken path engine")

        monkeypatch.setattr(estimate.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(estimate, "_path_slabs", broken)
        rc, _out, err = run(self.CFG, "phantom-fit", "--out", str(tmp_path / "o"),
                            section_args=("--workers", "2"))
        assert rc == 2
        assert err == "error: broken path engine\n"


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

    def test_bt_check_ok(self, run, tmp_path):
        rc, stdout, _ = run("[common]\nseed = 3\nreplicas = 400\n"
                            "[bt-check]\nkind = iid\nmarginal = exp(1)\n"
                            "block_sizes = 50,200\nt = 2.0\n",
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
        assert all(r["sandwich_ok"] and r["k_c"] >= 0 for r in pb["rows"])


def test_regen_pipeline(run, tmp_path):
    # the regen command refuses paths shorter than 1e5 values
    rc, stdout, _ = run("[common]\nseed = 19\n"
                        "[regen]\nstep = pareto(2,1)-2\nlength = 100000\n"
                        "verify_blocks = 300,1000\n",
                        "regen", "--out", str(tmp_path / "rg"))
    assert rc == 0, stdout
    assert "cycles" in stdout and "ratio->0" in stdout
    for name in ("cycle_maxima_cdf.csv", "maxlaw.csv", "path.marks.txt"):
        assert (tmp_path / "rg" / name).exists()
    summary = json.loads((tmp_path / "rg" / "summary.json").read_text())
    assert summary["phantom_verified"] is True
    assert summary["cycle_count"] >= 500
    assert summary["stationary_tail_verdict"] == "ratio->0"


class TestBadBlockSizes:
    """Bad block sizes, gamma, replica counts, B_T horizons, law
    parameters or estimation methods exit 2 with one line before anything
    is simulated."""
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

    @pytest.mark.parametrize("T", ["nan", "inf", "-1"])
    def test_phantom_fit_horizon(self, run, tmp_path, T):
        self.assert_rejected(*run(self.FIT.format("100,1000") + f"bt_T = {T}\n",
                                  "phantom-fit", "--out", str(tmp_path / "o")),
                             error=f"error: bt_T must be finite and positive, got {float(T):g}")

    @pytest.mark.parametrize("T", ["nan", "inf", "-1"])
    def test_bt_check_horizon(self, run, tmp_path, T):
        cfg = self.FIT.replace("[phantom-fit]", "[bt-check]").format("100,1000")
        self.assert_rejected(*run(cfg + f"T = {T}\n", "bt-check", "--out", str(tmp_path / "o")),
                             error=f"error: T must be finite and positive, got {float(T):g}")

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

    @pytest.mark.parametrize("init", ["nan", "inf"])
    def test_phantom_fit_non_finite_init(self, run, tmp_path, init):
        self.assert_rejected(*run(self.FIT.format("100,1000") + f"init = {init}\n",
                                  "phantom-fit", "--out", str(tmp_path / "o")),
                             error=f"error: init must be finite, got {init}")

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
        ("phantom-fit", "[phantom-fit]\nkind = metropolis\ntarget = symmetric_pareto(2,1)\n"
         "proposal = uniform(-1,1)\ninit = zero\n", "init must be a number, got 'zero'"),
    ], ids=["replicas", "window", "length", "gamma", "init"])
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
