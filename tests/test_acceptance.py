"""Acceptance suite: one test per criterion, each timed against its budget.

Quantitative criteria target exact special cases (beta = 1/2 closed forms,
Gamma-integral values recomputed here); property criteria assert
finiteness and bounded spread of fitted constants, never specific
comparability constants.
"""

import math
import time

import numpy as np
import pytest
from scipy import special

from fracheat import (ExactCauchy, ExactGaussian, GaussianBump, PowerLaw,
                      RngStream, Stable, StableMixture, SubordinatorModel,
                      VerifyConfig, caputo_weak_residual, cbf_from_scale,
                      density_fourier, density_monte_carlo, density_quadrature,
                      integrated_tail_identities, mass_residual,
                      mittag_leffler, scaling_report, subgaussian_exponent,
                      subordinated_exponent, tail_bounds_report,
                      time_derivative_report, verify_sandwich)
from fracheat import stable
from fracheat.kernels import DiffusionSurrogate, JumpSurrogate

P_ONE_ZERO = math.gamma(0.25) / (4.0 ** 0.75 * math.pi)  # 0.40802446954913144


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, \
                f"runtime {self.elapsed:.2f}s exceeded budget {self.seconds}s"


def done(k, note):
    print(f"criterion {k:2d}: PASS - {note}")


def test_criterion_01_cdf_oracle():
    with Budget(1.0) as b:
        model = SubordinatorModel(Stable(0.5))
        grid = np.geomspace(1e-2, 1e2, 25)
        worst = 0.0
        for r in grid:
            got = stable.cdf(0.5, grid * r ** -2.0)
            ref = special.erfc(r / (2.0 * np.sqrt(grid)))
            worst = max(worst, float(np.max(np.abs(got - ref))))
        # spot-check that the model API routes through the same evaluation
        assert model.cdf(grid[3], grid[7]) == pytest.approx(
            float(special.erfc(grid[3] / (2.0 * math.sqrt(grid[7])))), abs=1e-12)
        assert worst <= 1e-10
    done(1, f"cdf max abs err {worst:.2e} in {b.elapsed:.2f}s")


def test_criterion_02_density_oracle():
    with Budget(1.0) as b:
        xs = np.geomspace(0.05, 50.0, 50)
        ref = xs ** -1.5 * np.exp(-1.0 / (4.0 * xs)) / (2.0 * math.sqrt(math.pi))
        got = np.array([stable.density(0.5, float(x)) for x in xs])
        worst = float(np.max(np.abs(got / ref - 1.0)))
        assert worst <= 1e-8
    done(2, f"density max rel err {worst:.2e} in {b.elapsed:.2f}s")


def test_criterion_03_sampler_ks():
    with Budget(5.0) as b:
        worst = 0.0
        for beta in (0.3, 0.5, 0.7):
            model = SubordinatorModel(Stable(beta))
            draws = np.sort(model.sample_subordinator(1.0, RngStream(2024, 0), 100_000))
            cdf_vals = stable.cdf(beta, draws)
            ks = float(np.max(np.abs(np.arange(1, draws.size + 1) / draws.size
                                     - cdf_vals)))
            worst = max(worst, ks)
            assert ks < 0.01, f"beta={beta}: KS={ks}"
        # determinism under a fixed stream
        a = SubordinatorModel(Stable(0.5)).sample_subordinator(1.0, RngStream(1, 1), 1000)
        b2 = SubordinatorModel(Stable(0.5)).sample_subordinator(1.0, RngStream(1, 1), 1000)
        assert np.array_equal(a, b2)
    done(3, f"worst KS {worst:.4f} in {b.elapsed:.2f}s")


def test_criterion_04_fundamental_solution_oracle():
    with Budget(30.0) as b:
        model = SubordinatorModel(Stable(0.5))
        kernel = ExactGaussian(1)
        quad = density_quadrature(kernel, model, 1.0, 0.0)
        assert quad.value == pytest.approx(P_ONE_ZERO, abs=1e-6)
        fourier = density_fourier(0.5, 2, 1.0, 0.0)
        assert fourier == pytest.approx(P_ONE_ZERO, abs=1e-5)
        mc = density_monte_carlo(kernel, model, 1.0, 0.0, 1_000_000, RngStream(2024, 1))
        assert abs(mc.value - P_ONE_ZERO) < 3.0 * mc.error
        # self-similar collapse over three decades of t
        zetas = np.array([0.0, 0.7, 1.8, 3.2])
        profiles = []
        for t in (0.1, 1.0, 10.0):
            profiles.append([density_quadrature(kernel, model, t,
                                                float(zt * t ** 0.25)).value * t ** 0.25
                             for zt in zetas])
        profiles = np.asarray(profiles)
        collapse = float(np.max(np.abs(profiles / profiles[1] - 1.0)))
        assert collapse < 1e-6
    done(4, f"quad/fourier/mc agree; collapse {collapse:.1e} in {b.elapsed:.2f}s")


def test_criterion_05_mittag_leffler():
    from fracheat.solution import _ml_asymptotic, _ml_integral, _ml_series
    with Budget(1.0) as b:
        xs = np.linspace(0.0, 50.0, 201)
        worst = max(abs(mittag_leffler(0.5, float(x)) - float(special.erfcx(x)))
                    for x in xs)
        assert worst <= 1e-9
        # branch overlap at both switchover radii
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert abs(_ml_series(beta, 1.0) - _ml_integral(beta, 1.0)) < 1e-10
            assert abs(_ml_integral(beta, 50.0) - _ml_asymptotic(beta, 50.0)) < 1e-10
    done(5, f"identity err {worst:.1e}, switchovers continuous in {b.elapsed:.2f}s")


def test_criterion_06_jump_sandwich():
    with Budget(60.0) as b:
        cfg = VerifyConfig(subordinator="stable:0.5", kernel="cauchy:1",
                           phi_scale="power:1", volume="power:1",
                           t_lo=1e-3, t_hi=1e3, t_n=13, z_lo=1e-3, z_hi=1e3,
                           z_n=13, z_mode="regime", method="quad")
        rep = verify_sandwich(cfg)
        assert rep.all_finite
        assert rep.near_summary.spread < 1e3
        assert rep.off_summary.spread < 1e3
        assert rep.off_summary.spread < 1e2
    done(6, f"near spread {rep.near_summary.spread:.2f}, "
            f"off spread {rep.off_summary.spread:.2f} in {b.elapsed:.2f}s")


def test_criterion_07_diffusion_comparability():
    with Budget(60.0) as b:
        # z t**(-1/4) in [2, 30] <=> Phi(z) phi(1/t) in [4, 900]
        cfg = VerifyConfig(subordinator="stable:0.5", kernel="gaussian:1",
                           phi_scale="power:2", volume="power:1",
                           t_lo=1e-2, t_hi=1e2, t_n=9, z_lo=4.0, z_hi=900.0,
                           z_n=9, z_mode="regime", method="quad")
        rep = verify_sandwich(cfg)
        assert rep.all_finite
        logs = [r.log_ratio for r in rep.rows if r.log_ratio is not None]
        assert len(logs) == len(rep.rows)
        assert min(logs) >= 0.1 and max(logs) <= 10.0
    done(7, f"log-ratio in [{min(logs):.3f}, {max(logs):.3f}] in {b.elapsed:.2f}s")


def test_criterion_08_scale_solvers():
    with Budget(1.0) as b:
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(100):
            t, r = rng.uniform(0.05, 20.0, 2)
            alpha = rng.uniform(1.2, 4.0)
            beta = rng.uniform(0.1, 0.9)
            m = subgaussian_exponent(PowerLaw(alpha), t, r)
            m_ref = (r ** alpha / t) ** (1.0 / (alpha - 1.0))
            n = subordinated_exponent(PowerLaw(alpha), Stable(beta), t, r)
            n_ref = (r * t ** (-beta / alpha)) ** (alpha / (alpha - beta))
            worst = max(worst, abs(m / m_ref - 1.0), abs(n / n_ref - 1.0))
        assert worst <= 1e-12
        for r in (0.2, 1.0, 5.0):
            scale = PowerLaw(2.0)
            assert subgaussian_exponent(scale, scale.value(r), r) == 1.0
    done(8, f"closed forms to {worst:.1e} in {b.elapsed:.2f}s")


def test_criterion_09_derivative_bound():
    with Budget(1.0) as b:
        lams = np.geomspace(1e-6, 1e6, 61)
        models = [Stable(0.5),
                  StableMixture(((1.0, 0.3), (1.0, 0.7))),
                  StableMixture(((2.0, 0.2), (1.0, 0.5))),
                  StableMixture(((1.0, 0.4), (3.0, 0.6)))]
        stars = []
        for m in models:
            rep = scaling_report(m, lams=lams)
            assert rep.lower_defect >= -1e-9
            assert np.isfinite(rep.c_star) and rep.c_star > 0
            assert rep.passed
            stars.append(rep.c_star)
    done(9, f"C* fitted: {', '.join(f'{c:.3f}' for c in stars)} in {b.elapsed:.2f}s")


def test_criterion_10_constructed_exponent():
    with Budget(10.0) as b:
        cbf = cbf_from_scale(PowerLaw(2.0), 3.0)
        rs = np.geomspace(1e-4, 1e4, 65)
        prods = np.array([r * r * cbf.phi(r ** -3.0) for r in rs])
        spread = float(prods.max() / prods.min())
        assert spread < 100.0
        lams = np.geomspace(1e-6, 1e6, 25)
        phis = np.array([cbf.phi(l) for l in lams])
        slopes = np.diff(np.log(phis)) / np.diff(np.log(lams))
        assert np.all(np.abs(slopes - 2.0 / 3.0) <= 0.05)
    done(10, f"product spread {spread:.6f}, slopes within 0.05 of 2/3 "
             f"in {b.elapsed:.2f}s")


def test_criterion_11_balance_identity():
    with Budget(10.0) as b:
        model = SubordinatorModel(Stable(0.5))
        residuals = []
        for t in (0.5, 1.0, 2.0):
            rep = integrated_tail_identities(model, t)
            residuals.append(rep.total_residual)
            assert rep.total_residual < 1e-4
    done(11, f"residuals {', '.join(f'{r:.1e}' for r in residuals)} "
             f"in {b.elapsed:.2f}s")


def test_criterion_12_tail_bounds():
    with Budget(5.0) as b:
        model = SubordinatorModel(Stable(0.5))
        grid = np.geomspace(1e-2, 1e2, 25)
        rep = tail_bounds_report(model, grid, grid)
        assert rep.passed
        for value in (rep.concentration_c, rep.lower_linear_c,
                      rep.upper_exp_c, rep.lower_exp_c):
            assert np.isfinite(value) and value > 0.0
        ratio_spread = rep.ratio_hi / rep.ratio_lo
        assert ratio_spread < 50.0
    done(12, f"four bounds fitted, near-ratio spread {ratio_spread:.3f} "
             f"in {b.elapsed:.2f}s")


def test_criterion_13_weak_form_residual():
    with Budget(10.0) as b:
        f = GaussianBump()
        g = GaussianBump()
        rep = caputo_weak_residual(0.5, f, g,
                                   np.linspace(0.2, 2.0, 10),
                                   np.linspace(-8.0, 8.0, 257))
        assert rep.residual < 0.05
        assert rep.initial_error < 1e-6
    done(13, f"residual {rep.residual:.2e}, initial error "
             f"{rep.initial_error:.1e} in {b.elapsed:.2f}s")


def test_criterion_14_mass_conservation():
    with Budget(30.0) as b:
        worst = 0.0
        for beta in (0.3, 0.5):
            model = SubordinatorModel(Stable(beta))
            for kernel in (ExactGaussian(1), ExactCauchy(1)):
                for t in (0.1, 1.0):
                    res = mass_residual(kernel, model, t)
                    worst = max(worst, res)
                    assert res < 1e-6
    done(14, f"worst residual {worst:.1e} in {b.elapsed:.2f}s")


def test_criterion_15_surrogate_derivatives():
    with Budget(5.0) as b:
        jump = time_derivative_report(JumpSurrogate(PowerLaw(1.0), PowerLaw(2.0)))
        diff = time_derivative_report(DiffusionSurrogate(PowerLaw(1.0), PowerLaw(2.0)))
        for rep in (jump, diff):
            assert rep.passed
            assert 0.0 < rep.threshold_lo < rep.threshold_hi < np.inf
            assert np.isfinite(rep.c_bound) and rep.c_bound > 0.0
    done(15, f"thresholds jump ({jump.threshold_lo:.2f}, {jump.threshold_hi:.2f}), "
             f"diffusion ({diff.threshold_lo:.2f}, {diff.threshold_hi:.2f}) "
             f"in {b.elapsed:.2f}s")
