"""Command line interface tests.

Everything runs in-process through cli.main so exit codes and streams
are observable; subprocess round-trips are covered once for the module
entry point.  Byte-identity assertions pin the determinism contract.
"""

import json
import os
import subprocess
import sys

import pytest

from edwards1d import cli
from edwards1d.constants import compute_constants

CONSTS = compute_constants()


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


class TestConstantsCommand:
    def test_csv_row(self, capsys):
        rc, out, err = run_cli(capsys, "constants")
        assert rc == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "a_star,b_star,c_star,a_2star,b_2star,rho_2star"
        vals = [float(tok) for tok in lines[1].split(",")]
        assert vals == pytest.approx([CONSTS.a_star, CONSTS.b_star,
                                      CONSTS.c_star, CONSTS.a_2star,
                                      CONSTS.b_2star, CONSTS.rho_2star],
                                     rel=1e-15)

    def test_seventeen_digit_round_trip(self, capsys):
        rc, out, _ = run_cli(capsys, "constants")
        val = out.strip().split("\n")[1].split(",")[0]
        assert float(val) == CONSTS.a_star

    def test_json_mirror(self, capsys):
        rc, out, _ = run_cli(capsys, "constants", "--format", "json")
        assert rc == 0
        rec = json.loads(out)[0]
        assert rec["a_2star"] == pytest.approx(CONSTS.a_2star, rel=1e-15)


class TestAiryZeros:
    def test_table(self, capsys):
        rc, out, _ = run_cli(capsys, "airy-zeros", "--k-max", "3")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,a_k,aip_k"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(-2.338107410459767, abs=5e-13)

    def test_bad_count(self, capsys):
        rc, _, err = run_cli(capsys, "airy-zeros", "--k-max", "0")
        assert rc == 2 and "k-max" in err


class TestEigenCommand:
    def test_summary_row(self, capsys):
        rc, out, _ = run_cli(capsys, "eigen", "--a", "1")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a,rho,rho_prime,rho_second,residual"
        vals = lines[1].split(",")
        assert float(vals[1]) == pytest.approx(-0.9022415217442991, abs=1e-9)
        assert float(vals[4]) < 1e-6

    def test_eigenfunction_dump(self, capsys):
        rc, out, _ = run_cli(capsys, "eigen", "--a", "0", "--dump-eigenfunction")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "h,x"
        assert len(lines) > 1000
        h0, x0 = lines[1].split(",")
        assert float(h0) == 0.0 and float(x0) > 0.0


class TestCurves:
    def test_rate_curve_row_count_and_single_branch_flip(self, capsys):
        rc, out, _ = run_cli(capsys, "rate-curve", "--bmin", "0",
                             "--bmax", "3", "--step", "0.01")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "b,I,dI,branch"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 301
        branches = [r[3] for r in rows]
        flips = sum(1 for i in range(1, len(branches))
                    if branches[i] != branches[i - 1])
        assert flips == 1
        assert branches[0] == "linear" and branches[-1] == "convex"
        # I(0) = a**, and the linear branch has slope -rho(a**)
        assert float(rows[0][1]) == pytest.approx(CONSTS.a_2star, abs=2e-3)
        assert float(rows[0][2]) == pytest.approx(-CONSTS.rho_2star, rel=1e-12)

    def test_rate_curve_coupling_rescales(self, capsys):
        _, out1, _ = run_cli(capsys, "rate-curve", "--bmin", "1", "--bmax", "1",
                             "--step", "1")
        _, out8, _ = run_cli(capsys, "rate-curve", "--bmin", "2", "--bmax", "2",
                             "--step", "1", "--beta", "8")
        i1 = float(out1.strip().split("\n")[1].split(",")[1])
        i8 = float(out8.strip().split("\n")[1].split(",")[1])
        # I_beta(beta^{1/3} b) = beta^{2/3} I(b) with beta = 8
        assert i8 == pytest.approx(4.0 * i1, rel=1e-10)

    def test_mgf_curve(self, capsys):
        rc, out, _ = run_cli(capsys, "mgf-curve", "--mumin", "0",
                             "--mumax", "1", "--step", "0.5")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mu,lambda_plus,branch"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == pytest.approx(-CONSTS.a_star,
                                                              abs=1e-6)

    def test_grid_validation(self, capsys):
        rc, _, err = run_cli(capsys, "rate-curve", "--step", "-0.1")
        assert rc == 2 and "step" in err


class TestSpectralCommands:
    def test_w_profile(self, capsys):
        rc, out, _ = run_cli(capsys, "w-profile", "--t", "0.8",
                             "--npts", "9", "--hmax", "4")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "h,w" and len(lines) == 10
        mid = [float(tok) for tok in lines[3].split(",")]
        assert mid[1] > 0.0

    def test_w_coeffs(self, capsys):
        rc, out, _ = run_cli(capsys, "w-coeffs", "--K", "4")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,gamma_k,a_scaled_k,a_k,c_k"
        assert len(lines) == 5
        row0 = lines[1].split(",")
        assert float(row0[1]) == pytest.approx(2.0 ** 0.5, rel=1e-12)
        assert float(row0[2]) == pytest.approx(-CONSTS.a_2star, rel=1e-12)


class TestValidationSuites:
    def test_quick_suite_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "besq-validate", "--suite",
                             "absorption,tilted", "--n", "20000")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "check,value,target,se,z"
        assert len(lines) == 3
        for ln in lines[1:]:
            assert abs(float(ln.split(",")[4])) <= 4.0

    def test_biased_discretization_fails_with_exit_one(self, capsys):
        # a deliberately coarse step leaves the oracle off by many sigma
        rc, out, _ = run_cli(capsys, "besq-validate", "--suite", "y",
                             "--dt", "0.08", "--n", "100000", "--seed", "2")
        assert rc == 1
        zs = [abs(float(ln.split(",")[4]))
              for ln in out.strip().split("\n")[1:]]
        assert max(zs) > 4.0

    def test_unknown_suite_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "besq-validate", "--suite", "spectral")
        assert rc == 2 and "unknown suite" in err


class TestPolymerCommands:
    POLY = ("polymer", "--T", "2", "--beta", "1", "--dt", "0.004",
            "--bin", "0.1", "--n", "2000", "--seed", "12")

    def test_estimate_row(self, capsys):
        rc, out, _ = run_cli(capsys, *self.POLY)
        assert rc == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["logZ", "logZ_se"]
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["logZ"]) < 0.0
        assert row["seed"] == "12" and row["n"] == "2000"

    def test_tilt_row(self, capsys):
        rc, out, _ = run_cli(capsys, *self.POLY, "--mu", "0.5")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mu,log_mgf,se,n,seed"
        assert float(lines[1].split(",")[0]) == 0.5

    def test_rayknight_row(self, capsys):
        rc, out, _ = run_cli(capsys, "rayknight", "--a", "1", "--T", "2",
                             "--n", "4000", "--seed", "19",
                             "--quintuples", "40", "--checks", "unconditional")
        assert rc in (0, 1)  # small n, z can wander; contract is the format
        lines = out.strip().split("\n")
        assert lines[0].startswith("direct_mean,direct_se,")
        assert len(lines) == 2

    def test_rayknight_unknown_check(self, capsys):
        rc, out, err = run_cli(capsys, "rayknight", "--T", "2",
                               "--checks", "unconditonal")
        assert rc == 2 and out == ""
        assert "unconditional, swap, bookkeeping" in err

    @pytest.mark.parametrize("checks", ["", " , "])
    def test_rayknight_empty_checks(self, capsys, checks):
        # no check run must not read as a passing suite
        rc, out, err = run_cli(capsys, "rayknight", "--T", "0.5", "--n", "200",
                               "--checks", checks)
        assert rc == 2 and out == ""
        assert "no checks" in err

    @pytest.mark.parametrize("quintuples", ["1", "2"])
    def test_rayknight_too_few_quintuples(self, capsys, quintuples):
        # these ended in a ZeroDivisionError traceback (exit 1) or, with 2,
        # in a swap-variance z of order 1e14 from a zero standard error
        rc, out, err = run_cli(capsys, "rayknight", "--T", "1", "--n", "500",
                               "--quintuples", quintuples)
        assert rc == 2 and out == ""
        assert "quintuples" in err and "Traceback" not in err

    def test_rayknight_unconditional_needs_three_quintuples(self, capsys):
        # one quintuple reported composite_se = 0 and exited 1 on a false breach
        rc, out, err = run_cli(capsys, "rayknight", "--T", "2", "--n", "4000",
                               "--quintuples", "1", "--checks", "unconditional")
        assert rc == 2 and out == ""
        assert "quintuples" in err and "Traceback" not in err

    def test_collapse_rows(self, capsys):
        rc, out, _ = run_cli(capsys, "collapse", "--betas", "1",
                             "--T", "2", "--n", "2000", "--seed", "4")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "beta,z_logZ,z_endpoint,rate,exponent,max_z"
        assert float(lines[1].split(",")[1]) == 0.0


class TestPlumbing:
    def test_unknown_flag_exits_two(self, capsys):
        rc, out, _ = run_cli(capsys, "constants", "--frobnicate")
        assert rc == 2
        assert out == ""  # no partial output

    def test_unknown_command_exits_two(self, capsys):
        rc, _, _ = run_cli(capsys, "spectra")
        assert rc == 2

    def test_version_fingerprints(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser()[0].parse_args(["--version"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr()
        assert out.startswith("edwards1d ")
        assert "artifact=" in out and "constants=" in out

    def test_output_file_atomic_write(self, tmp_path, capsys):
        target = tmp_path / "zeros.csv"
        rc, out, _ = run_cli(capsys, "airy-zeros", "--k-max", "2",
                             "--output", str(target))
        assert rc == 0 and out == ""
        text = target.read_text()
        assert text.startswith("k,a_k,aip_k\n")
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp." in p]
        assert leftovers == []

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["polymer", "--T", "2", "--n", "1000", "--seed", "5"]
        assert cli.main(argv + ["--output", str(a)]) == 0
        assert cli.main(argv + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_and_precedence(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# polymer settings\nseed = 123\nn = 1500\n")
        rc, out, _ = run_cli(capsys, "polymer", "--T", "2",
                             "--config", str(cfgfile))
        assert rc == 0
        header, row = out.strip().split("\n")
        rec = dict(zip(header.split(","), row.split(",")))
        assert rec["seed"] == "123" and rec["n"] == "1500"
        # explicit flag beats the file
        rc, out, _ = run_cli(capsys, "polymer", "--T", "2", "--seed", "9",
                             "--config", str(cfgfile))
        rec = dict(zip(*[ln.split(",") for ln in out.strip().split("\n")]))
        assert rec["seed"] == "9" and rec["n"] == "1500"

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("paths = 10\n")
        rc, _, err = run_cli(capsys, "polymer", "--config", str(cfgfile))
        assert rc == 2 and "unknown config key" in err

    def test_config_malformed_line_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed 123\n")
        rc, _, err = run_cli(capsys, "polymer", "--config", str(cfgfile))
        assert rc == 2 and "key = value" in err

    def test_env_seed_and_precedence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, "55")
        rc, out, _ = run_cli(capsys, "polymer", "--T", "2", "--n", "1000")
        rec = dict(zip(*[ln.split(",") for ln in out.strip().split("\n")]))
        assert rec["seed"] == "55"
        # config file beats the environment
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed = 77\n")
        rc, out, _ = run_cli(capsys, "polymer", "--T", "2", "--n", "1000",
                             "--config", str(cfgfile))
        rec = dict(zip(*[ln.split(",") for ln in out.strip().split("\n")]))
        assert rec["seed"] == "77"
        # and a flag beats both
        rc, out, _ = run_cli(capsys, "polymer", "--T", "2", "--n", "1000",
                             "--seed", "3", "--config", str(cfgfile))
        rec = dict(zip(*[ln.split(",") for ln in out.strip().split("\n")]))
        assert rec["seed"] == "3"

    def test_env_seed_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, "twelve")
        rc, _, err = run_cli(capsys, "polymer", "--T", "2", "--n", "1000")
        assert rc == 2 and cli.ENV_SEED in err

    def test_abbreviated_flag_beats_config_and_env(self, tmp_path, capsys,
                                                   monkeypatch):
        # argparse reads --se as --seed; the precedence must hold for it too
        monkeypatch.setenv(cli.ENV_SEED, "55")
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed = 9\n")
        for extra in ([], ["--config", str(cfgfile)]):
            rc, out, _ = run_cli(capsys, "polymer", "--T", "0.5", "--n", "200",
                                 "--se", "3", *extra)
            rec = dict(zip(*[ln.split(",") for ln in out.strip().split("\n")]))
            assert rc == 0 and rec["seed"] == "3"

    def test_config_value_checked_like_its_flag(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("format = xml\n")
        rc, out, err = run_cli(capsys, "constants", "--config", str(cfgfile))
        assert rc == 2 and out == ""
        assert "--format" in err and "invalid choice" in err

    def test_config_value_may_start_with_minus(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("betas = -1,2\n")
        rc, out, err = run_cli(capsys, "collapse", "--config", str(cfgfile))
        # the value reaches scaling_collapse, which rejects the coupling
        assert rc == 2 and out == ""
        assert "betas must be positive" in err

    def test_required_option_from_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("t = 0.8\nnpts = 5\n")
        rc, out, err = run_cli(capsys, "w-profile", "--config", str(cfgfile))
        assert rc == 0 and err == ""
        rc, flag_out, _ = run_cli(capsys, "w-profile", "--t", "0.8",
                                  "--npts", "5")
        assert out == flag_out

    def test_required_option_missing(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("npts = 5\n")
        for extra in ([], ["--config", str(cfgfile)]):
            rc, out, err = run_cli(capsys, "w-profile", *extra)
            assert rc == 2 and out == ""
            assert "required" in err and "--t" in err

    def test_config_boolean_flag(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("dump-eigenfunction = yes\na = 0\n")
        rc, out, _ = run_cli(capsys, "eigen", "--config", str(cfgfile))
        lines = out.strip().split("\n")
        assert rc == 0 and lines[0] == "h,x" and len(lines) > 1000
        cfgfile.write_text("dump-eigenfunction = maybe\n")
        rc, out, err = run_cli(capsys, "eigen", "--config", str(cfgfile))
        assert rc == 2 and out == "" and "expected a boolean" in err

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "edwards1d.cli",
                               "constants"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("a_star,")
