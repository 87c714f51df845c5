"""Campaign harness and command-line surface."""

import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fracheat import VerifyConfig, harness, solution, verify_sandwich
from fracheat.cli import run_cli
from fracheat.harness import build_models, config_from_mapping, read_config
from fracheat.errors import DomainError

CAMPAIGNS = Path(__file__).parents[1] / "campaigns"
README = Path(__file__).parents[1] / "README.md"
# the deep off-diagonal diffusion grid, where p underflows past n ~ 1.7e4,
# and log p at two of its points (1-d Gaussian, 1/2-stable time change) by
# one mpmath integral at 30 digits, test_solution._half_stable_log_reference
DEEP_ARGS = ["--t-n", "3", "--z-n", "4", "--z-lo", "1e3", "--z-hi", "1e8"]
DEEP_LOG_P = {(0.01, 464.1588833612782): -7883.566554597685, (1.0, 1e4): -101794.73688375616}


def _saddle_flags_all(monkeypatch):
    """Let the saddle contour flag every z: the deep rows then underflow."""
    monkeypatch.setattr(solution, "_saddle_row", lambda kernel, model, t, z: [None] * z.size)


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
            assert emodel.estimate(row.t, row.z).regime == row.regime

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

    def test_estimate_takes_one_call_per_t(self, monkeypatch):
        from fracheat import solution
        from fracheat.estimates import EstimateModel
        calls, p_calls = [], []
        row_form, p_row_form = EstimateModel.estimate, solution.density_quadrature
        monkeypatch.setattr(EstimateModel, "estimate",
                            lambda self, t, z: calls.append((t, z)) or row_form(self, t, z))
        monkeypatch.setattr(solution, "density_quadrature",
                            lambda *args: p_calls.append(args[3]) or p_row_form(*args))
        rep = verify_sandwich(small_jump_config())
        assert [t for t, _ in calls] == sorted({r.t for r in rep.rows})
        assert all(z is p_z for (_, z), p_z in zip(calls, p_calls))
        assert [r.z for r in rep.rows] == [z for _, row in calls for z in row.tolist()]

    def test_estimate_error_recorded_per_t(self, monkeypatch):
        from fracheat.errors import QuadratureError
        from fracheat.estimates import EstimateModel
        row_form = EstimateModel.estimate

        def explode(self, t, z):
            if 0.5 < t < 2.0:
                raise QuadratureError("no estimate here", value=1.0, error=1.0)
            return row_form(self, t, z)

        monkeypatch.setattr(EstimateModel, "estimate", explode)
        rep = verify_sandwich(small_jump_config())
        assert [r.regime for r in rep.rows[3:6]] == ["error"] * 3
        assert [r.error for r in rep.rows[3:6]] == ["no estimate here"] * 3
        assert all(r.error is None and r.p > 0.0 for r in rep.rows[:3] + rep.rows[6:])
        assert not rep.all_finite

    def test_mc_takes_one_call_per_t(self, monkeypatch):
        from fracheat import solution
        calls = []
        row_form = solution.density_monte_carlo
        monkeypatch.setattr(solution, "density_monte_carlo",
                            lambda *args: calls.append(args) or row_form(*args))
        cfg = small_jump_config(method="mc", mc_samples=2000, seed=5)
        rep = verify_sandwich(cfg)
        assert [args[3].size for args in calls] == [3, 3, 3]
        assert [(args[5].seed, args[5].index) for args in calls] == [(5, 0), (5, 1), (5, 2)]
        assert [r.z for r in rep.rows] == [z for args in calls for z in args[3].tolist()]

    def test_mc_deep_rows_are_tilted(self):
        # the deepest diffusion column rests on a few plain draws; its rows
        # come back tilted and converged, within 4 stated errors of quadrature
        base = config_from_mapping(read_config(CAMPAIGNS / "diffusion.cfg"))
        cfg = config_from_mapping(dict(t_n=2, z_n=3), base=base)
        quad = verify_sandwich(cfg)
        mc = verify_sandwich(replace(cfg, method="mc", mc_samples=50_000))
        assert [r.method for r in mc.rows] == ["mc", "mc", "mc-tilted"] * 2
        assert mc.tilted == 2 and mc.flagged == 0
        for rq, rm in zip(quad.rows, mc.rows):
            assert rm.converged and abs(rm.p - rq.p) < 4.0 * rm.p_err

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

    def test_underflowed_rows_take_log_p(self):
        # past n ~ 1.7e4 p underflows to 0; the saddle contour's log p gives L
        base = config_from_mapping(read_config(CAMPAIGNS / "diffusion.cfg"))
        cfg = config_from_mapping(dict(t_n=3, z_n=4, z_lo=1e3, z_hi=1e8), base=base)
        rep = verify_sandwich(cfg)
        zeros = [r for r in rep.rows if r.p == 0.0]
        assert len(zeros) == 6 and rep.flagged == 0 and rep.all_finite
        assert all(r.method == "saddle" and r.converged for r in rep.rows)
        checked = 0
        for (t, z), log_p in DEEP_LOG_P.items():
            for r in rep.rows:
                if math.isclose(r.t, t, rel_tol=1e-14) and math.isclose(r.z, z, rel_tol=1e-14):
                    assert r.log_ratio == pytest.approx((math.log(r.estimate) - log_p) / r.n,
                                                        rel=1e-10)
                    checked += 1
        assert checked == 2

    def test_underflowed_rows_are_flagged(self, monkeypatch):
        # past n ~ 1.7e4 p underflows to 0 on the contour and on the
        # Gauss-Kronrod rule; a zero is no converged answer
        _saddle_flags_all(monkeypatch)
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
        for bad in ({"t_lo": float("nan")}, {"t_hi": float("inf")}, {"z_hi": float("inf")},
                    {"z_lo": float("nan")}, {"mc_samples": 99}):
            with pytest.raises(DomainError):
                VerifyConfig(**bad)
        with pytest.raises(DomainError):
            VerifyConfig(method="dance")

    @pytest.mark.parametrize("key", ["t_n", "z_n", "mc_samples", "seed"])
    def test_int_keys_refuse_fractions(self, key):
        # a fraction is refused, not truncated; an integral float is an int
        with pytest.raises(DomainError):
            config_from_mapping({key: 1000.5})
        with pytest.raises(DomainError):
            VerifyConfig(**{key: 1000.5})
        assert config_from_mapping({key: 1e5}) == VerifyConfig(**{key: 100_000})
        assert type(getattr(VerifyConfig(**{key: 1e5}), key)) is int


class TestCli:
    @pytest.mark.parametrize("name", ["jump.cfg", "diffusion.cfg"])
    def test_campaign_config_runs(self, name, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert run_cli(["verify", "--config", str(CAMPAIGNS / name),
                        "--t-n", "3", "--z-n", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2 + 9
        assert capsys.readouterr().err.rstrip().endswith("; flagged=0; tilted=0")

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

    def test_eval_mc_collapsed_mixture_exits_3(self, capsys):
        code = run_cli(["eval", "--subordinator", "mixture:1,0.3;1,0.7", "--kernel",
                        "gaussian:1", "--t", "1", "--z", "10", "--method", "mc", "--n", "200"])
        assert code == 3
        assert "non-convergence" in capsys.readouterr().err

    def test_verify_mc_reports_tilted_rows(self, capsys):
        code = run_cli(["verify", "--config", str(CAMPAIGNS / "diffusion.cfg"), "--t-n", "2",
                        "--z-n", "3", "--method", "mc", "--mc-samples", "20000"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.rstrip().endswith("; flagged=0; tilted=2")
        assert captured.out.count(",mc-tilted\n") == 2

    def test_power2_jump_campaign(self, capsys):
        # at v = 1 the kernel time scale Phi(Phi^-1(1/phi(1/t))) is one ulp
        # from 1/phi(1/t): the two splits share a log and give no empty panel
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["verify", "--config", str(CAMPAIGNS / "jump.cfg"), "--kernel", "jump",
                            "--phi-scale", "power2:0.5,1.5,1", "--t-n", "5", "--z-n", "5"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.rstrip().endswith("; flagged=0; tilted=0")
        assert "nan" not in captured.out

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

    def test_eval_fourier_far_point_is_refused(self, capsys):
        # p = 2.77e-20 here: the Fourier value's stated error, 1.3e-13, is
        # no answer within the oracle's relative tolerance
        code = run_cli(["eval", "--beta", "0.5", "--kernel", "gaussian:1",
                        "--t", "0.01", "--z", "9.487", "--method", "fourier"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "non-convergence" in captured.err

    def test_eval_fourier_one_part_mixture(self, capsys):
        # mixture:1,0.5 has phi = lam**(1/2), the exponent of stable:0.5
        args = ["eval", "--kernel", "gaussian:1", "--t", "1", "--z", "0", "--method", "fourier"]
        outs = []
        for model in (["--subordinator", "mixture:1,0.5"], ["--beta", "0.5"]):
            assert run_cli(args + model) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_eval_fourier_tiny_weight_is_refused(self, capsys):
        # phi = 1e-300 lam**(1/2) spreads p over z ~ 1e150: at z = 1,
        # p ~ 4e-151 lies below the head's absolute floor, a verdict and no
        # traceback, as t**(1/2) / a stays in float range
        code = run_cli(["eval", "--subordinator", "mixture:1e-300,0.5", "--kernel", "gaussian:1",
                        "--t", "1", "--z", "1", "--method", "fourier"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "non-convergence" in captured.err

    def test_eval_fourier_two_part_mixture_is_refused(self, capsys):
        code = run_cli(["eval", "--subordinator", "mixture:1,0.3;1,0.7", "--kernel", "gaussian:1",
                        "--t", "1", "--z", "0", "--method", "fourier"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "one-part exponent" in captured.err

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

    @pytest.mark.parametrize("command, marker", [
        ("eval --beta 0.5 --kernel gaussian:1 --t 1 --z 1e160", "fracheat:"),
        ("verify --beta 0.5 --kernel gaussian:1 --phi-scale power:2 --t-n 1 --z-n 2 "
         "--z-lo 1 --z-hi 1e200 --z-mode absolute", "flagged=1"),
        ("estimate --subordinator mixture:1,0.3;1,0.7 --kernel gaussian:1 "
         "--phi-scale power:2 --t 1 --z 1e300", "fracheat:"),
    ], ids=["eval", "verify", "estimate"])
    def test_distance_past_float_range_exits_3(self, command, marker):
        # z**2 and the start of the root search lie past float range
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-m", "fracheat", *command.split()],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 3, done.stderr
        assert marker in done.stderr
        assert "Traceback" not in done.stderr

    def test_estimate(self, capsys):
        code = run_cli(["estimate", "--beta", "0.5", "--kernel", "cauchy:1",
                        "--phi-scale", "power:1", "--volume", "power:1",
                        "--t", "1", "--z", "10"])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        t, z, regime, est, _ = line.split(",")
        assert regime == "off"
        assert float(est) == pytest.approx(0.01, rel=1e-12)

    def test_estimate_finite_on_diagonal_of_a_bent_volume(self, capsys):
        # V = power2:1,3,1 under Phi = r**2: the first piece falls like r**-1/2
        code = run_cli(["estimate", "--t", "1", "--z", "0", "--kernel", "gaussian:1",
                        "--phi-scale", "power:2", "--volume", "power2:1,3,1"])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        t, z, regime, est, _ = line.split(",")
        assert regime == "near"
        assert float(est) == pytest.approx(4.0 - math.sqrt(2.0), rel=1e-14, abs=0)

    @pytest.mark.parametrize("command, column, expected", [
        # V(1e60) on the second piece of power2:6,1,1, where r**6 overflows
        ("estimate --t 1 --z 1e60 --kernel cauchy:1 --beta 0.5 --volume power2:6,1,1",
         3, 1.0000000000000002e-120),
        # m(t, r) at the kernel's r = 1e-300 floor, where t/r overflows
        ("eval --kernel diffusion --phi-scale power2:2,3,1 --t 1e20 --z 0 --beta 0.5",
         2, 0.000556815312271348),
        # near-diagonal integrals past float range: (phi(1/t) c)**g overflows
        ("estimate --t 1e-300 --z 1e-200 --kernel cauchy:1 --phi-scale power:1 "
         "--volume power:3 --beta 0.5", 3, math.inf),
        ("estimate --t 1 --z 0 --kernel cauchy:1 --phi-scale power2:1,3,1e-100 "
         "--volume power:8 --beta 0.5", 3, math.inf),
        # a near-diagonal piece whose factors leave float range on both
        # sides, phi(1/t)**3 = 1e-540 and a**-2 = 1e400, around a value in range
        ("estimate --t 1e200 --z 1e-10 --kernel gaussian:1 --beta 0.9 --phi-scale power:2 "
         "--volume power2:6,1,1", 3, 2.0 * math.sqrt(2.0) * 1e200 ** -0.45),
    ], ids=["volume-second-piece", "scale-root-floor", "near-overflow", "near-tiny-edge",
            "near-split-range"])
    def test_out_of_range_pieces_under_warnings_as_errors(self, command, column, expected):
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-W", "error", "-m", "fracheat", *command.split()],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        value = float(done.stdout.strip().splitlines()[-1].split(",")[column])
        assert value == pytest.approx(expected, rel=1e-13, abs=0)

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

    @pytest.mark.parametrize("argv, message", [
        # sample draws from the time change alone: it takes no kernel or profile
        (["sample", "--dist", "e", "--t", "1", "--n", "2", "--beta", "0.5",
          "--kernel", "gaussian:x", "--volume", "nonsense"], "unrecognized arguments"),
        # --beta is shorthand for --subordinator: given both, neither wins silently
        (["eval", "--beta", "0.7", "--subordinator", "stable:0.5", "--kernel", "gaussian:1",
          "--t", "1", "--z", "0"], "not allowed with"),
    ], ids=["sample-kernel-flags", "beta-and-subordinator"])
    def test_flags_nothing_reads_are_usage_errors(self, capsys, argv, message):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("kernel", ["gaussian:1", "cauchy:1"])
    @pytest.mark.parametrize("method", ["quad", "mc"])
    def test_far_z_under_warnings_as_errors(self, kernel, method):
        # z * z overflows past z = 1.3e154: q is 0 there, so p = 0 is no answer (exit 3)
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-W", "error", "-m", "fracheat", "eval", "--beta",
                               "0.5", "--kernel", kernel, "--t", "1", "--z", "1e160",
                               "--method", method], capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 3, done.stderr
        assert "numerical non-convergence" in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.parametrize("method", ["mc", "quad", "fourier"])
    @pytest.mark.parametrize("t, z", [("nan", "1"), ("inf", "1"), ("1", "nan"), ("1", "inf")])
    def test_eval_non_finite_point_is_usage_error(self, capsys, method, t, z):
        code = run_cli(["eval", "--method", method, "--beta", "0.5",
                        "--t", t, "--z", z, "--n", "500"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "fracheat: density needs a finite t > 0 and finite z >= 0\n"

    @pytest.mark.parametrize("flags", [
        ["--dist", "e", "--t", "1", "--n", "-5"], ["--dist", "e", "--t", "inf"],
        ["--dist", "e", "--t", "nan"], ["--dist", "e", "--t", "0"],
        ["--dist", "s", "--r", "inf"], ["--dist", "s", "--r", "nan"],
        ["--dist", "s", "--r", "1", "--n", "-5"], ["--dist", "s", "--r", "1e308"]],
        ids=" ".join)
    def test_sample_bad_input_is_usage_error(self, capsys, flags):
        code = run_cli(["sample", "--beta", "0.5", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("fracheat: sample_") and "Traceback" not in captured.err

    @pytest.mark.parametrize("flags, message", [
        (["--method", "mc", "--mc-samples", "-5"], "mc_samples must be >= 100, got -5"),
        (["--z-hi", "inf"], "grid ranges must be finite, positive and ordered"),
        (["--t-lo", "nan"], "grid ranges must be finite, positive and ordered"),
        (["--method", "foo"], "method must be 'quad' or 'mc', got foo"),
        (["--z-mode", "foo"], "z_mode must be 'regime' or 'absolute', got foo"),
        (["--t-n", "2.5"], "config key 't_n': '2.5' is not of type int"),
        (["--t-lo", "abc"], "config key 't_lo': 'abc' is not of type float")],
        ids=["mc_samples", "z_hi", "t_lo", "method", "z_mode", "t_n_text", "t_lo_text"])
    def test_verify_bad_input_is_usage_error(self, capsys, flags, message):
        code = run_cli(["verify", "--config", str(CAMPAIGNS / "jump.cfg"),
                        "--t-n", "2", "--z-n", "2", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"fracheat: {message}\n"

    @pytest.mark.parametrize("t, z", [("1", "nan"), ("nan", "1"), ("inf", "1")])
    def test_estimate_non_finite_point_is_usage_error(self, capsys, t, z):
        code = run_cli(["estimate", "--beta", "0.5", "--kernel", "cauchy:1", "--t", t, "--z", z])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("fracheat: estimates need a finite t > 0 and z >= 0, "
                                f"got t={float(t)}, z={float(z)}\n")

    def test_verify_deep_rows_exit_0(self, capsys):
        # the six rows whose p underflows take L from the saddle's log p
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["verify", "--config", str(CAMPAIGNS / "diffusion.cfg"), *DEEP_ARGS])
        captured = capsys.readouterr()
        assert code == 0
        summary = captured.err.strip().splitlines()[-1]
        assert summary.endswith("all_finite=True; flagged=0; tilted=0")
        lo, hi = (float(v) for v in summary.split("off log-ratio: [")[1].split("]")[0].split(","))
        assert lo == pytest.approx(0.4724893140401937, rel=1e-9)
        assert hi == pytest.approx(0.4940753288435190, rel=1e-9)
        assert captured.out.count(",saddle\n") == 12

    def test_verify_flagged_rows_exit_3(self, capsys, monkeypatch):
        # without the saddle contour, the six underflowed rows (p = 0) are
        # flagged: they leave the verdict and the off log-ratio range, and
        # the run is a non-convergence, not a verification failure
        _saddle_flags_all(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["verify", "--config", str(CAMPAIGNS / "diffusion.cfg"), *DEEP_ARGS])
        captured = capsys.readouterr()
        assert code == 3
        summary = captured.err.strip().splitlines()[-1]
        assert summary.endswith("all_finite=True; flagged=6; tilted=0")
        lo, hi = (float(v) for v in summary.split("off log-ratio: [")[1].split("]")[0].split(","))
        assert lo == pytest.approx(0.4746362297905614, rel=1e-9)
        assert hi == pytest.approx(0.4940753288435190, rel=1e-9)
        assert captured.out.count(",inf,quad\n") == 6

    def test_missing_config_is_usage_error(self, capsys):
        code = run_cli(["verify", "--config", "does-not-exist.cfg"])
        assert code == 2
        assert "does-not-exist.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [None, "t_lo = abc\n", "t_n = 2.5\n"],
                             ids=["directory", "t_lo", "t_n"])
    def test_malformed_config_is_usage_error(self, text, tmp_path, capsys):
        path = tmp_path
        if text is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(text)
        code = run_cli(["verify", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("fracheat: ") and "Traceback" not in captured.err
        if text is not None:
            assert text.split()[0] in captured.err

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

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--subordinator", "mixture:nan,0.5"],
         "mixture weights must be finite and positive, got nan"),
        (["eval", "--subordinator", "mixture:inf,0.5"],
         "mixture weights must be finite and positive, got inf"),
        (["sample", "--dist", "s", "--r", "1", "--n", "3", "--subordinator", "mixture:nan,0.5"],
         "mixture weights must be finite and positive, got nan"),
        (["estimate", "--phi-scale", "power:inf"], "exponent must be finite and positive, got inf"),
        (["estimate", "--phi-scale", "power2:1,2,inf"], "r_break must be finite and positive, got inf"),
        (["estimate", "--volume", "power2:6,1,1e-150"],
         "r_break**exp_low and r_break**exp_high must lie within float range"),
        (["eval", "--kernel", "gaussian:0"], "kernel dimension must be >= 1, got 0"),
        (["eval", "--kernel", "gaussian:-1"], "kernel dimension must be >= 1, got -1"),
        (["eval", "--kernel", "cauchy:0"], "kernel dimension must be >= 1, got 0")],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_out_of_domain_model_is_usage_error(self, capsys, argv, message):
        point = [] if argv[0] == "sample" else ["--t", "1", "--z", "0.5"]
        code = run_cli([*argv, *point])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"fracheat: {message}\n"

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

    def test_selftest_weak_form_generator(self, capsys):
        assert run_cli(["selftest"]) == 0
        assert "PASS  weak-form generator identity" in capsys.readouterr().out

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
        # a residual over the bound, then a generator identity over it
        for residual, generator_error in ((0.5, 0.0), (0.0, 0.5)):
            report = solution.WeakFormReport(
                residual=residual, rows=((1.0, 1.0, 1.5),), generator_error=generator_error,
                initial_error=0.0, converged=True, quad_error=0.0, n_profiles=900,
                table_error=0.0)
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


# every VerifyConfig key: its verify flag and a value other than its default
SCHEMA = {
    "subordinator": ("--subordinator", "mixture:1,0.3;1,0.7"),
    "kernel": ("--kernel", "gaussian:2"),
    "phi_scale": ("--phi-scale", "power:2"),
    "volume": ("--volume", "power:2"),
    "t_lo": ("--t-lo", "0.5"),
    "t_hi": ("--t-hi", "2.0"),
    "t_n": ("--t-n", "0"),
    "z_lo": ("--z-lo", "0.25"),
    "z_hi": ("--z-hi", "4.0"),
    "z_n": ("--z-n", "2"),
    "z_mode": ("--z-mode", "absolute"),
    "method": ("--method", "mc"),
    "mc_samples": ("--mc-samples", "500"),
    "seed": ("--seed", "9"),
    "out": ("--out", "rows.csv"),
}


class TestVerifySchema:
    def test_schema_lists_every_key(self):
        assert list(SCHEMA) == [f.name for f in fields(VerifyConfig)]

    @pytest.mark.parametrize("source", ["flags", "file"])
    def test_every_key_can_be_set(self, source, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        seen, run = [], harness.verify_sandwich
        monkeypatch.setattr(harness, "verify_sandwich", lambda cfg: seen.append(cfg) or run(cfg))
        if source == "flags":
            argv = [arg for flag, value in SCHEMA.values() for arg in (flag, value)]
        else:
            (tmp_path / "all.cfg").write_text(
                "".join(f"{key} = {value}\n" for key, (_, value) in SCHEMA.items()))
            argv = ["--config", "all.cfg"]
        assert run_cli(["verify", *argv]) == 0
        assert seen == [VerifyConfig(
            subordinator="mixture:1,0.3;1,0.7", kernel="gaussian:2", phi_scale="power:2",
            volume="power:2", t_lo=0.5, t_hi=2.0, t_n=0, z_lo=0.25, z_hi=4.0, z_n=2,
            z_mode="absolute", method="mc", mc_samples=500, seed=9, out="rows.csv")]
        assert (tmp_path / "rows.csv").read_text().splitlines()[0] == "# fracheat-csv v1"


def _readme_commands():
    """The argv of every `fracheat ...` line of the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = (line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("fracheat ")]


def test_readme_shows_every_command():
    assert {argv[0] for argv in _readme_commands()} == {
        "eval", "estimate", "verify", "sample", "residual", "selftest"}


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(README.parent)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv = [*argv[:i], str(tmp_path / argv[i]), *argv[i + 1:]]
    assert run_cli(argv) == 0
