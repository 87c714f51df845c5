"""Campaign harness and command-line surface."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracheat import VerifyConfig, verify_sandwich
from fracheat.cli import run_cli
from fracheat.harness import build_models, config_from_mapping, read_config
from fracheat.errors import DomainError

CAMPAIGNS = Path(__file__).parents[1] / "campaigns"


def small_jump_config(**overrides):
    base = dict(subordinator="stable:0.5", kernel="cauchy:1",
                phi_scale="power:1", volume="power:1",
                t_lo=0.1, t_hi=10.0, t_n=3, z_lo=0.1, z_hi=10.0, z_n=3,
                z_mode="regime", method="quad")
    base.update(overrides)
    return VerifyConfig(**base)


class TestVerify:
    def test_small_campaign(self):
        rep = verify_sandwich(small_jump_config())
        assert rep.all_finite
        assert len(rep.rows) == 9
        assert rep.near_summary.count + rep.off_summary.count == 9

    def test_empty_grid(self):
        rep = verify_sandwich(small_jump_config(z_n=0))
        assert rep.rows == ()
        assert rep.all_finite

    def test_regime_recomputable_from_rows(self):
        cfg = small_jump_config()
        rep = verify_sandwich(cfg)
        _, _, emodel = build_models(cfg)
        for row in rep.rows:
            assert emodel.classify(row.t, row.z).regime.value == row.regime

    def test_mc_campaign_deterministic(self):
        cfg = small_jump_config(method="mc", mc_samples=2000, seed=5)
        a = verify_sandwich(cfg)
        b = verify_sandwich(cfg)
        assert [r.p for r in a.rows] == [r.p for r in b.rows]

    def test_mc_approaches_quad(self):
        quad = verify_sandwich(small_jump_config())
        mc = verify_sandwich(small_jump_config(method="mc", mc_samples=1_000_000))
        for rq, rm in zip(quad.rows, mc.rows):
            assert rm.p == pytest.approx(rq.p, rel=0.02)
        assert mc.near_summary.spread == pytest.approx(
            quad.near_summary.spread, rel=0.05)
        assert mc.off_summary.spread == pytest.approx(
            quad.off_summary.spread, rel=0.05)

    def test_quad_takes_one_call_per_t(self, monkeypatch):
        from fracheat import solution
        calls = []
        row_form = solution.density_quadrature
        monkeypatch.setattr(solution, "density_quadrature",
                            lambda *args: calls.append(args[3]) or row_form(*args))
        rep = verify_sandwich(small_jump_config())
        assert [z.size for z in calls] == [3, 3, 3]
        assert [r.z for r in rep.rows] == [z for row in calls for z in row.tolist()]

    def test_row_error_recorded_per_point(self, monkeypatch):
        from fracheat import solution

        def explode(kernel, model, t, z):
            if t > 1.0:
                raise DomainError("no density here")
            return [solution.SolutionEstimate(1e-3, 1e-4, "quad", z_i < 1.0) for z_i in z]

        monkeypatch.setattr(solution, "density_quadrature", explode)
        rep = verify_sandwich(small_jump_config())
        assert [r.error for r in rep.rows[6:]] == ["no density here"] * 3
        assert all(r.error is None for r in rep.rows[:6])
        assert not rep.all_finite
        assert rep.flagged == sum(r.z >= 1.0 for r in rep.rows[:6]) > 0

    def test_diffusion_campaign_logs(self):
        cfg = VerifyConfig(subordinator="stable:0.5", kernel="gaussian:1",
                           phi_scale="power:2", volume="power:1",
                           t_lo=0.1, t_hi=10.0, t_n=3, z_lo=9.0, z_hi=400.0,
                           z_n=3, z_mode="regime")
        rep = verify_sandwich(cfg)
        assert rep.all_finite
        assert np.isfinite(rep.off_log_lo) and np.isfinite(rep.off_log_hi)
        assert 0.0 < rep.off_log_lo <= rep.off_log_hi

    def test_underflowed_rows_are_flagged(self):
        # past n ~ 1.7e4 p underflows to 0 on the contour and on the
        # Gauss-Kronrod rule; a zero is no converged answer
        base = config_from_mapping(read_config(CAMPAIGNS / "diffusion.cfg"))
        cfg = config_from_mapping(dict(t_n=3, z_n=4, z_lo=1e3, z_hi=1e8), base=base)
        rep = verify_sandwich(cfg)
        zeros = [r for r in rep.rows if r.p == 0.0]
        assert len(zeros) == 6 and rep.flagged == 6
        assert not any(r.converged for r in zeros)


class TestConfig:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "campaign.cfg"
        path.write_text(
            "# jump campaign\n"
            "subordinator = stable:0.5\n"
            "kernel = cauchy:1\n"
            "t_n = 3   # small\n"
            "z_n = 3\n")
        cfg = config_from_mapping(read_config(path))
        assert cfg.t_n == 3 and cfg.kernel == "cauchy:1"

    def test_unknown_key(self):
        with pytest.raises(DomainError):
            config_from_mapping({"zz_top": "1"})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(DomainError):
            read_config(path)

    def test_validation(self):
        with pytest.raises(DomainError):
            VerifyConfig(t_lo=-1.0)
        with pytest.raises(DomainError):
            VerifyConfig(method="dance")


class TestCli:
    @pytest.mark.parametrize("name", ["jump.cfg", "diffusion.cfg"])
    def test_campaign_config_runs(self, name, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert run_cli(["verify", "--config", str(CAMPAIGNS / name),
                        "--t-n", "3", "--z-n", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2 + 9
        assert capsys.readouterr().err.rstrip().endswith("; flagged=0")

    @pytest.mark.parametrize("name", ["jump.cfg", "diffusion.cfg"])
    def test_campaign_csv_is_byte_identical(self, name, tmp_path, capsys):
        texts = []
        for k in range(2):
            out = tmp_path / f"rows{k}.csv"
            assert run_cli(["verify", "--config", str(CAMPAIGNS / name), "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_eval_quad(self, capsys):
        code = run_cli(["eval", "--beta", "0.5", "--kernel", "gaussian:1",
                        "--t", "1", "--z", "0", "--method", "quad"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# fracheat-csv v1\n")
        value = float(out.strip().splitlines()[-1].split(",")[2])
        assert value == pytest.approx(0.40802446954913144, abs=1e-7)

    def test_eval_piecewise_scale(self, capsys):
        # a two-branch phi-scale takes the exponent at every node at once
        code = run_cli(["eval", "--kernel", "diffusion", "--phi-scale", "power2:2,3,1",
                        "--volume", "power:1", "--beta", "0.5", "--t", "1", "--z", "1"])
        out = capsys.readouterr()
        assert code == 0 and "Traceback" not in out.err
        assert np.isfinite(float(out.out.strip().splitlines()[-1].split(",")[2]))

    def test_eval_mixture(self, capsys):
        code = run_cli(["eval", "--subordinator", "mixture:1,0.3;1,0.7",
                        "--kernel", "cauchy:1", "--t", "1", "--z", "0.5"])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert row[-1] == "laplace"
        assert float(row[2]) == pytest.approx(0.241577, rel=1e-5)

    def test_eval_fourier(self, capsys):
        code = run_cli(["eval", "--beta", "0.5", "--kernel", "gaussian:1",
                        "--t", "1", "--z", "0", "--method", "fourier"])
        assert code == 0
        value = float(capsys.readouterr().out.strip().splitlines()[-1].split(",")[2])
        assert value == pytest.approx(0.40802446954913144, abs=1e-6)

    def test_eval_fourier_cauchy(self, capsys):
        code = run_cli(["eval", "--beta", "0.5", "--kernel", "cauchy:1",
                        "--t", "1", "--z", "1", "--method", "fourier"])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        value, err = float(row[2]), float(row[3])
        quad = 0.12040287906839685  # eval --method quad at the same point
        assert 0.0 < err < 1e-6
        assert abs(value - quad) <= err

    @pytest.mark.parametrize("kernel", ["gaussian:3", "cauchy:2", "jump"])
    def test_eval_fourier_kernel_mismatch(self, kernel, capsys):
        code = run_cli(["eval", "--beta", "0.5", "--kernel", kernel, "--phi-scale", "power:1",
                        "--volume", "power:1", "--t", "1", "--z", "1", "--method", "fourier"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gaussian:1 or cauchy:1" in captured.err

    def test_module_entry_point(self):
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-m", "fracheat", "selftest"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "PASS  fourier fundamental value" in done.stdout

    def test_estimate(self, capsys):
        code = run_cli(["estimate", "--beta", "0.5", "--kernel", "cauchy:1",
                        "--phi-scale", "power:1", "--volume", "power:1",
                        "--t", "1", "--z", "10"])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        t, z, regime, est, _ = line.split(",")
        assert regime == "off"
        assert float(est) == pytest.approx(0.01, rel=1e-12)

    def test_sample_deterministic(self, capsys):
        argv = ["sample", "--dist", "e", "--beta", "0.5", "--t", "1",
                "--n", "50", "--seed", "3"]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert len(first.strip().splitlines()) == 52  # comment + header + 50

    def test_sample_needs_value(self, capsys):
        assert run_cli(["sample", "--dist", "s", "--beta", "0.5"]) == 2

    def test_verify_flagged_rows_exit_3(self, capsys):
        # the six underflowed rows (p = 0) are flagged: they leave the
        # verdict and the off log-ratio range, and the run is a
        # non-convergence, not a verification failure
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["verify", "--config", str(CAMPAIGNS / "diffusion.cfg"), "--t-n", "3",
                            "--z-n", "4", "--z-lo", "1e3", "--z-hi", "1e8"])
        captured = capsys.readouterr()
        assert code == 3
        summary = captured.err.strip().splitlines()[-1]
        assert summary.endswith("all_finite=True; flagged=6")
        lo, hi = (float(v) for v in summary.split("off log-ratio: [")[1].split("]")[0].split(","))
        assert lo == pytest.approx(0.4746362297905614, rel=1e-9)
        assert hi == pytest.approx(0.4940753288435190, rel=1e-9)
        assert captured.out.count(",inf,quad\n") == 6

    def test_missing_config_is_usage_error(self, capsys):
        code = run_cli(["verify", "--config", "does-not-exist.cfg"])
        assert code == 2
        assert "does-not-exist.cfg" in capsys.readouterr().err

    def test_bad_flag_is_usage_error(self):
        assert run_cli(["eval", "--nope"]) == 2

    @pytest.mark.parametrize("flag, key", [
        ("--kernel", "gaussian:x"), ("--subordinator", "mixture:1"),
        ("--subordinator", "stable:"), ("--phi-scale", "power:"),
        ("--volume", "power2:1,2")])
    def test_malformed_model_key_is_usage_error(self, capsys, flag, key):
        code = run_cli(["estimate", flag, key, "--t", "1", "--z", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err and "Traceback" not in err

    def test_verify_to_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = run_cli(["verify", "--beta", "0.5", "--kernel", "cauchy:1",
                        "--phi-scale", "power:1", "--volume", "power:1",
                        "--t-lo", "0.1", "--t-hi", "10", "--t-n", "2",
                        "--z-lo", "0.1", "--z-hi", "10", "--z-n", "2",
                        "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# fracheat-csv v1"
        assert lines[1].split(",")[0] == "t"
        assert len(lines) == 6

    @pytest.mark.parametrize("flags", [
        ["--t-n", "0"], ["--t-n", "-1"], ["--t-lo", "0"], ["--t-lo", "-1"],
        ["--x-n", "1"], ["--x-half", "0"], ["--x-half", "-8"]],
        ids=lambda flags: " ".join(flags))
    def test_malformed_residual_input_is_usage_error(self, capsys, flags):
        code = run_cli(["residual", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("fracheat: ") and "Traceback" not in captured.err

    def test_residual_reports_quadrature(self, capsys):
        assert run_cli(["residual", "--t-lo", "1", "--t-hi", "1", "--t-n", "1"]) == 0
        summary = capsys.readouterr().err
        assert "converged=True" in summary
        assert float(summary.rsplit("quad_error=", 1)[1]) < 1e-9

    def test_selftest(self, capsys):
        assert run_cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_selftest_mixture_levy_tail(self, capsys):
        assert run_cli(["selftest"]) == 0
        assert "PASS  mixture inverse density at r->0 equals the Levy tail" in capsys.readouterr().out

    def test_selftest_mass(self, capsys):
        assert run_cli(["selftest"]) == 0
        assert "PASS  mass conservation" in capsys.readouterr().out

    def test_selftest_weak_form_right_side(self, capsys):
        assert run_cli(["selftest"]) == 0
        assert ("PASS  weak-form right side equals the Mittag-Leffler integral"
                in capsys.readouterr().out)

    def test_nonconvergence_exit_code(self, capsys, monkeypatch):
        from fracheat import cli as cli_mod
        from fracheat.errors import QuadratureError

        def explode(*args, **kwargs):
            raise QuadratureError("did not converge", value=0.0, error=1.0)

        monkeypatch.setattr(cli_mod.solution, "density_quadrature", explode)
        code = run_cli(["eval", "--beta", "0.5", "--kernel", "gaussian:1",
                        "--t", "1", "--z", "0"])
        assert code == 3
        assert "non-convergence" in capsys.readouterr().err

    def test_fourier_nonconvergence_exit_code(self, capsys, monkeypatch):
        # a Fourier head whose Gauss-Kronrod pass did not converge is refused
        from fracheat import solution
        quad = solution.kronrod_quad
        monkeypatch.setattr(solution, "kronrod_quad",
                            lambda *args, **kwargs: (*quad(*args, **kwargs)[:2], False))
        code = run_cli(["eval", "--beta", "0.5", "--kernel", "gaussian:1",
                        "--t", "1", "--z", "0", "--method", "fourier"])
        assert code == 3
        assert "non-convergence" in capsys.readouterr().err

    def test_residual_small_order(self, capsys):
        # the initial check takes u at a fixed E-scale, so even at beta = 0.1
        # it measures the quadrature error, not u(s0) - f ~ s0**beta
        code = run_cli(["residual", "--beta", "0.1", "--t-lo", "0.5", "--t-hi", "1",
                        "--t-n", "2"])
        summary = capsys.readouterr().err
        assert code == 0
        assert float(summary.split("initial error: ", 1)[1].split(";")[0]) < 1e-12

    def test_residual_failure_exit_code(self, capsys, monkeypatch):
        from fracheat import solution
        report = solution.WeakFormReport(0.5, ((1.0, 1.0, 1.5),), False, 0.0, True, 0.0,
                                         900, 0.0)
        monkeypatch.setattr(solution, "caputo_weak_residual", lambda *args: report)
        assert run_cli(["residual", "--t-n", "1"]) == 1

    def test_residual_small(self, capsys):
        code = run_cli(["residual", "--beta", "0.5", "--t-lo", "0.5",
                        "--t-hi", "1.0", "--t-n", "2", "--x-half", "6",
                        "--x-n", "97"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [ln for ln in out.strip().splitlines()[2:]]
        assert len(rows) == 2
        for row in rows:
            assert float(row.split(",")[-1]) < 0.05
