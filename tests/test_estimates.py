"""Estimate shapes, regime logic, and the power-law specialization."""

import math

import mpmath
import pytest

from fracheat import (DomainError, EstimateModel, PiecewisePower, PowerLaw, Regime, Stable,
                      dset_estimate, explicit_near_diagonal)


def model(beta=0.5, alpha=2.0, d=1.0, flavor="diffusion"):
    return EstimateModel(Stable(beta), PowerLaw(alpha), PowerLaw(d), flavor)


class TestClassify:
    def test_boundary_inclusive(self):
        m = model()
        tag = m.classify(1.0, 1.0)  # Phi(1) * phi(1) = 1
        assert tag.regime is Regime.NEAR and tag.scalar == 1.0

    def test_off(self):
        m = model()
        tag = m.classify(1.0, 2.0)
        assert tag.regime is Regime.OFF and tag.scalar == pytest.approx(4.0)

    def test_scaling_puts_back_near(self):
        m = model()
        tag = m.classify(16.0, 2.0)  # 4 * (1/16)**0.5 = 1
        assert tag.scalar == pytest.approx(1.0, rel=1e-12)
        assert tag.regime is Regime.NEAR


class TestNearDiagonalIntegral:
    def test_power_value_on_diagonal(self):
        m = model()  # d=1 < alpha=2, phi(1/1) = 1
        assert m.near_diagonal_integral(1.0, 0.0) == pytest.approx(
            2.0 * math.sqrt(2.0), rel=1e-12)

    def test_log_case(self):
        m = EstimateModel(Stable(0.5), PowerLaw(1.0), PowerLaw(1.0), "jump")
        val = m.near_diagonal_integral(1.0, 0.02)  # phi(1/t)=1, a = 0.02
        assert val == pytest.approx(math.log(100.0), rel=1e-12)

    def test_heavy_volume_diverges_on_diagonal(self):
        m = EstimateModel(Stable(0.5), PowerLaw(2.0), PowerLaw(3.0), "diffusion")
        assert m.near_diagonal_integral(1.0, 0.0) == math.inf

    def test_quadrature_matches_closed_form(self):
        from fracheat import PiecewisePower
        m1 = EstimateModel(Stable(0.5), PowerLaw(2.0), PowerLaw(1.0), "jump")
        m2 = EstimateModel(Stable(0.5), PiecewisePower(2.0, 2.0, 1.0),
                           PowerLaw(1.0), "jump")
        for t, z in ((1.0, 0.5), (4.0, 1.0), (0.3, 0.1)):
            if m1.classify(t, z).scalar > 1.0:
                continue
            assert m2.near_diagonal_integral(t, z) == pytest.approx(
                m1.near_diagonal_integral(t, z), rel=1e-9)

    def test_kinked_profiles_against_mpmath(self):
        # Phi = power2:1.5,2.5,1 and V = power2:0.5,1.2,0.7 put kinks at
        # r = phi(1/t) Phi(1) and phi(1/t) Phi(0.7) inside (a, 2)
        scale, volume = PiecewisePower(1.5, 2.5, 1.0), PiecewisePower(0.5, 1.2, 0.7)
        m = EstimateModel(Stable(0.5), scale, volume, "jump")
        mpmath.mp.dps = 30
        try:
            for t, z in ((1.0, 0.3), (0.3, 0.1), (4.0, 1.0)):
                phi_t = mpmath.sqrt(mpmath.mpf(1) / t)

                def integrand(r):
                    x = r / phi_t
                    u = x ** (1 / mpmath.mpf(1.5)) if x <= 1 else x ** (1 / mpmath.mpf(2.5))
                    return 1 / (u ** 0.5 if u <= 0.7 else 0.7 ** -0.7 * u ** 1.2)

                a = m.classify(t, z).scalar
                kinks = [k for k in (phi_t, phi_t * mpmath.mpf(0.7) ** 1.5) if a < k < 2]
                ref = mpmath.quad(integrand, sorted([mpmath.mpf(a), *kinks, mpmath.mpf(2)]))
                assert m.near_diagonal_integral(t, z) == pytest.approx(float(ref), rel=1e-10)
        finally:
            mpmath.mp.dps = 15

    def test_regime_guard(self):
        m = model()
        with pytest.raises(DomainError):
            m.near_diagonal_integral(1.0, 2.0)


class TestEstimate:
    def test_off_diagonal_jump(self):
        m = EstimateModel(Stable(0.5), PowerLaw(1.0), PowerLaw(1.0), "jump")
        shape = m.estimate(1.0, 10.0)
        assert shape.value == pytest.approx(0.01, rel=1e-12)

    def test_off_diagonal_diffusion_pair(self):
        m = model()
        shape = m.estimate(1.0, 4.0)
        assert shape.value is None
        assert shape.prefactor == pytest.approx(1.0, rel=1e-12)
        assert shape.exponent_arg == pytest.approx(4.0 ** (4.0 / 3.0), rel=1e-12)

    def test_on_diagonal_routes_to_integral(self):
        m = model()
        shape = m.estimate(1.0, 0.0)
        assert shape.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_boundary_continuity(self):
        # jump flavor: the two branches stay within a bounded factor at the seam
        m = EstimateModel(Stable(0.5), PowerLaw(1.0), PowerLaw(1.0), "jump")
        t = 1.0
        z_at = 1.0 / m.exponent.phi(1.0 / t)
        eps = 1e-6
        near_val = m.estimate(t, z_at * (1.0 - eps)).value
        off_val = m.estimate(t, z_at * (1.0 + eps)).value
        assert 0.1 < near_val / off_val < 10.0

    def test_diffusion_needs_valid_indices(self):
        with pytest.raises(DomainError):
            EstimateModel(Stable(0.5), PowerLaw(1.0), PowerLaw(1.0), "diffusion")
        with pytest.raises(DomainError):
            EstimateModel(Stable(0.9), PowerLaw(0.95), PowerLaw(1.0), "diffusion")
        with pytest.raises(DomainError):
            EstimateModel(Stable(0.5), PowerLaw(2.0), PowerLaw(1.0), "smooth")


class TestPowerLawSpecialization:
    def test_near_flat_case(self):
        est = dset_estimate(0.5, 2.0, 1.0, local=True, t=1.0, z=0.0)
        assert est.near and est.value == pytest.approx(1.0, rel=1e-12)

    def test_near_time_shape(self):
        est = dset_estimate(0.5, 2.0, 1.0, local=True, t=16.0, z=0.0)
        assert est.value == pytest.approx(16.0 ** -0.25, rel=1e-12)

    def test_off_local_pair(self):
        est = dset_estimate(0.5, 2.0, 1.0, local=True, t=1.0, z=2.0)
        assert not est.near
        assert est.prefactor == pytest.approx(1.0, rel=1e-12)
        assert est.exponent_arg == pytest.approx(2.0 ** (4.0 / 3.0), rel=1e-10)

    def test_off_jump_value(self):
        est = dset_estimate(0.5, 1.0, 1.0, local=False, t=1.0, z=10.0)
        assert est.value == pytest.approx(0.01, rel=1e-12)

    def test_log_case(self):
        est = dset_estimate(0.5, 1.0, 1.0, local=False, t=1.0, z=0.25)
        assert est.value == pytest.approx(math.log(8.0), rel=1e-12)

    def test_local_needs_alpha_two(self):
        with pytest.raises(DomainError):
            dset_estimate(0.5, 1.0, 1.0, local=True, t=1.0, z=1.0)

    def test_consistency_with_general_machinery(self):
        # the general estimate differs from the specialization only by a
        # (t, z)-independent factor in each regime
        m = EstimateModel(Stable(0.5), PowerLaw(1.0), PowerLaw(1.0), "jump")
        ratios = []
        for t in (0.3, 1.0, 3.0):
            for z in (5.0, 10.0, 40.0):
                if m.classify(t, z).regime is not Regime.OFF:
                    continue
                general = m.estimate(t, z).value
                short = dset_estimate(0.5, 1.0, 1.0, local=False, t=t, z=z).value
                ratios.append(general / short)
        assert max(ratios) / min(ratios) < 1.0 + 1e-9

    def test_exponent_consistency_identity(self):
        # t * inv((z/t)**alpha) == inv(z**alpha/t**alpha)/inv(1/(phi(1/t) t**alpha))
        exp_ = Stable(0.5)
        alpha = 2.0
        for t in (0.3, 1.0, 7.0):
            for z in (2.0, 11.0):
                lhs = t * exp_.power_ratio_inverse(alpha, (z / t) ** alpha)
                num = exp_.power_ratio_inverse(alpha, z ** alpha / t ** alpha)
                den = exp_.power_ratio_inverse(
                    alpha, 1.0 / (exp_.phi(1.0 / t) * t ** alpha))
                assert lhs == pytest.approx(num / den, rel=1e-9)

    def test_matches_subordinated_exponent(self):
        from fracheat import subordinated_exponent
        est = dset_estimate(0.5, 2.0, 1.0, local=True, t=1.0, z=2.0)
        n = subordinated_exponent(PowerLaw(2.0), Stable(0.5), 1.0, 2.0)
        assert est.exponent_arg == pytest.approx(n, rel=1e-9)


class TestExplicitNearDiagonal:
    def test_light_volume(self):
        m = EstimateModel(Stable(0.5), PowerLaw(2.0), PowerLaw(1.0), "jump")
        tag, val = explicit_near_diagonal(m, 1.0, 0.3)
        assert tag == "time-scale"
        assert val == pytest.approx(1.0, rel=1e-12)  # phi(1)**0.5

    def test_heavy_volume(self):
        m = EstimateModel(Stable(0.5), PowerLaw(2.0), PowerLaw(3.0), "jump")
        t = 1.0  # phi(1/t) = 1
        tag, val = explicit_near_diagonal(m, t, 0.5)
        assert tag == "distance-scale"
        assert val == pytest.approx(0.25 / 0.125, rel=1e-12)

    def test_critical(self):
        m = EstimateModel(Stable(0.5), PowerLaw(1.0), PowerLaw(1.0), "jump")
        tag, val = explicit_near_diagonal(m, 1.0, 0.1)
        assert tag == "logarithmic"
        assert val == pytest.approx(math.log(20.0), rel=1e-12)

    def test_not_applicable(self):
        from fracheat import PiecewisePower
        m = EstimateModel(Stable(0.5), PiecewisePower(1.0, 2.0, 1.0),
                          PiecewisePower(1.0, 2.0, 1.0), "jump")
        tag, val = explicit_near_diagonal(m, 1.0, 0.1)
        assert tag == "not-applicable" and val is None

    def test_agrees_with_integral_up_to_constant(self):
        m = EstimateModel(Stable(0.5), PowerLaw(2.0), PowerLaw(1.0), "jump")
        ratios = []
        for t in (0.5, 1.0, 2.0):
            for z in (0.0, 0.2):
                _, val = explicit_near_diagonal(m, t, z)
                ratios.append(m.near_diagonal_integral(t, z) / val)
        assert max(ratios) / min(ratios) < 10.0
