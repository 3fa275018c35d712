"""Command-line interface: exit codes, artifacts, and rerun determinism.

Everything runs in-process through main(argv) to keep the suite fast;
each scenario gets its own config file under tmp_path.
"""

import configparser
import json
import os
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
        assert len(lines) == 1 and lines[0].startswith("total: ")

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


def test_regen_pipeline(run, tmp_path):
    # the regen command refuses paths shorter than 1e5 values
    rc, stdout, _ = run("[common]\nseed = 19\n"
                        "[regen]\nstep = pareto(2,1)-2\nlength = 100000\n"
                        "verify_blocks = 300,1000\nsmoothing = linear\n",
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
    """Bad block sizes, gamma, smoothing, replica counts, B_T horizons or
    law parameters exit 2 with one line before anything is simulated."""
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

    def test_regen_smoothing(self, run, tmp_path):
        self.assert_rejected(*run(self.REGEN.format("1000,10000") + "smoothing = cubic\n",
                                  "regen", "--out", str(tmp_path / "o")),
                             error="error: smoothing must be 'linear' or 'step'")

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
