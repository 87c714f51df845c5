"""Estimate shapes, regime logic, and the power-law specialization."""

import math

import mpmath
import numpy as np
import pytest

from fracheat import (DomainError, EstimateModel, PiecewisePower, PowerLaw, Stable,
                      estimates, explicit_near_diagonal, parse_exponent)


def model(beta=0.5, alpha=2.0, d=1.0, flavor="diffusion"):
    return EstimateModel(Stable(beta), PowerLaw(alpha), PowerLaw(d), flavor)


class TestClassify:
    @pytest.mark.parametrize("t, z", [(1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0),
                                      (1.0, math.inf), (0.0, 1.0), (1.0, -1.0)])
    def test_needs_finite_point(self, t, z):
        with pytest.raises(DomainError):
            model().estimate(t, z)

    def test_boundary_inclusive(self):
        m = model()
        tag = m.estimate(1.0, 1.0)  # Phi(1) * phi(1) = 1
        assert tag.regime == "near" and tag.scalar == 1.0

    def test_off(self):
        m = model()
        tag = m.estimate(1.0, 2.0)
        assert tag.regime == "off" and tag.scalar == pytest.approx(4.0)

    def test_scaling_puts_back_near(self):
        m = model()
        tag = m.estimate(16.0, 2.0)  # 4 * (1/16)**0.5 = 1
        assert tag.scalar == pytest.approx(1.0, rel=1e-12)
        assert tag.regime == "near"


class TestNearDiagonalIntegral:
    def test_power_value_on_diagonal(self):
        m = model()  # d=1 < alpha=2, phi(1/1) = 1
        assert m.estimate(1.0, 0.0).value == pytest.approx(
            2.0 * math.sqrt(2.0), rel=1e-12)

    def test_log_case(self):
        m = EstimateModel(Stable(0.5), PowerLaw(1.0), PowerLaw(1.0), "jump")
        val = m.estimate(1.0, 0.02).value  # phi(1/t)=1, a = 0.02
        assert val == pytest.approx(math.log(100.0), rel=1e-12)

    def test_heavy_volume_diverges_on_diagonal(self):
        # the first piece has V's exponent over Phi's at least 1
        for volume in (PowerLaw(3.0), PiecewisePower(2.0, 1.0, math.pi)):
            m = EstimateModel(Stable(0.5), PowerLaw(2.0), volume, "diffusion")
            assert m.estimate(1.0, 0.0).value == math.inf

    @pytest.mark.parametrize("t, exact", [(1.0, 4.0 - math.sqrt(2.0)),
                                          (100.0, 0.4 - 1.0 / math.sqrt(500.0))])
    def test_light_first_piece_finite_on_diagonal(self, t, exact):
        # V = r up to 1, r**3 beyond, under Phi = r**2: r**-1/2 then r**-3/2
        # from 0 to 2, split at phi(1/t); finite though V's upper index is 3
        m = EstimateModel(Stable(0.5), PowerLaw(2.0), PiecewisePower(1.0, 3.0, 1.0),
                          "diffusion")
        assert m.estimate(t, 0.0).value == pytest.approx(exact, rel=1e-14, abs=0)

    def test_quadrature_matches_closed_form(self):
        from fracheat import PiecewisePower
        m1 = EstimateModel(Stable(0.5), PowerLaw(2.0), PowerLaw(1.0), "jump")
        m2 = EstimateModel(Stable(0.5), PiecewisePower(2.0, 2.0, 1.0),
                           PowerLaw(1.0), "jump")
        for t, z in ((1.0, 0.5), (4.0, 1.0), (0.3, 0.1)):
            if m1.estimate(t, z).scalar > 1.0:
                continue
            assert m2.estimate(t, z).value == pytest.approx(m1.estimate(t, z).value, rel=1e-9)

    def test_kinked_profiles_against_mpmath(self):
        # Phi = power2:1.5,2.5,1 and V = power2:0.5,v_hi,0.7 put kinks at
        # r = phi(1/t) Phi(1) and phi(1/t) Phi(0.7) inside (a, 2); with
        # v_hi = 1.6, V's upper index is above Phi's lower one, but the first
        # piece falls like r**-1/3, so the integral from a = 0 is finite
        inputs = [(1.2, t, z, 1e-10) for t, z in ((1.0, 0.3), (0.3, 0.1), (4.0, 1.0))]
        inputs += [(1.6, t, 0.0, 1e-13) for t in (1.0, 0.3, 4.0)]
        mpmath.mp.dps = 30
        try:
            for v_hi, t, z, rel in inputs:
                scale, volume = PiecewisePower(1.5, 2.5, 1.0), PiecewisePower(0.5, v_hi, 0.7)
                m = EstimateModel(Stable(0.5), scale, volume, "jump")
                phi_t = mpmath.sqrt(mpmath.mpf(1) / t)

                def integrand(r):
                    x = r / phi_t
                    u = x ** (1 / mpmath.mpf(1.5)) if x <= 1 else x ** (1 / mpmath.mpf(2.5))
                    return 1 / (u ** 0.5 if u <= 0.7
                                else mpmath.mpf(0.7) ** (0.5 - mpmath.mpf(v_hi)) * u ** v_hi)

                a = m.estimate(t, z).scalar
                kinks = [k for k in (phi_t, phi_t * mpmath.mpf(0.7) ** 1.5) if a < k < 2]
                ref = mpmath.quad(integrand, sorted([mpmath.mpf(a), *kinks, mpmath.mpf(2)]))
                assert m.estimate(t, z).value == pytest.approx(float(ref), rel=rel)
        finally:
            mpmath.mp.dps = 15

    @pytest.mark.parametrize("t", [1e150, 1e200, 1e300])
    def test_factors_past_float_range(self, t):
        # V = r**6 up to 1, r beyond, under Phi = r**2 and phi(1/t) = t**-0.9:
        # at z = 1e-10 the first piece's phi(1/t)**3 underflows and its
        # a**-2 overflows, though the value is in range.  The reference is
        # the integral of (phi/r)**3 from a to phi, then of (phi/r)**(1/2)
        # from phi to 2, in 40 digits
        m = EstimateModel(Stable(0.9), PowerLaw(2.0), PiecewisePower(6.0, 1.0, 1.0), "diffusion")
        with mpmath.workdps(40):
            phi = mpmath.mpf(t) ** mpmath.mpf(-0.9)
            a = mpmath.mpf(1e-10) ** 2 * phi
            ref = phi ** 3 / 2 * (a ** -2 - phi ** -2) + 2 * mpmath.sqrt(phi) * (
                mpmath.sqrt(2) - mpmath.sqrt(phi))
        assert m.estimate(t, 1e-10).value == pytest.approx(float(ref), rel=1e-13, abs=0)


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


class TestRowForm:
    """estimate(t, z) over a 1-d row of z is the list of its per-z scalar
    calls: bitwise where the shapes are closed forms or elementwise roots,
    and within 1e-13 on the two-branch near-diagonal rows."""

    @pytest.mark.parametrize("m, t", [(model(), 16.0),  # Phi(2) phi(1/16) = 1
                                      (model(0.5, 1.0, 1.0, "jump"), 4.0),  # Phi(2) phi(1/4) = 1
                                      (model(0.3, 2.0, 3.0, "jump"), 0.7)])
    def test_power_profiles_bitwise(self, m, t):
        zs = np.concatenate([[0.0, 2.0], np.geomspace(1e-3, 1e3, 25)])
        row = m.estimate(t, zs)
        assert repr(row) == repr([m.estimate(t, z) for z in zs.tolist()])
        assert {shape.regime for shape in row} == {"near", "off"}
        if t != 0.7:
            assert row[1].scalar == 1.0 and row[1].regime == "near"

    def test_mixture_roots_bitwise(self):
        m = EstimateModel(parse_exponent("mixture:1,0.3;1,0.7"), PowerLaw(2.0), PowerLaw(1.0),
                          "diffusion")
        zs = np.concatenate([[0.0], np.geomspace(0.1, 100.0, 12)])
        row = m.estimate(1.0, zs)
        assert repr(row) == repr([m.estimate(1.0, z) for z in zs.tolist()])
        assert sum(shape.exponent_arg is not None for shape in row) > 6

    def test_mixture_row_takes_one_root_call(self, monkeypatch):
        m = EstimateModel(parse_exponent("mixture:1,0.3;1,0.7"), PowerLaw(2.0), PowerLaw(1.0),
                          "diffusion")
        calls = []
        root = estimates.subordinated_exponent
        monkeypatch.setattr(estimates, "subordinated_exponent",
                            lambda *args: calls.append(args[3]) or root(*args))
        row = m.estimate(1.0, np.geomspace(0.1, 100.0, 400))
        assert len(row) == 400 and len(calls) == 1
        assert calls[0].size == sum(shape.regime == "off" for shape in row) > 250

    def test_two_branch_near_integrals(self):
        m = EstimateModel(Stable(0.5), PiecewisePower(1.5, 2.5, 1.0),
                          PiecewisePower(0.5, 1.2, 0.7), "jump")
        for t in (0.3, 1.0, 4.0):
            zs = np.concatenate([[0.0], np.geomspace(1e-3, 3.0, 20)])
            row = m.estimate(t, zs)
            near = [(shape, z) for shape, z in zip(row, zs.tolist()) if shape.regime == "near"]
            assert len(near) > 10
            for shape, z in near:
                assert shape.value == pytest.approx(m.estimate(t, z).value, rel=1e-13, abs=0)

    def test_shapes_of_the_result(self):
        m = model()
        assert isinstance(m.estimate(1.0, 0.5), estimates.EstimateValue)
        assert m.estimate(1.0, [0.5]) == [m.estimate(1.0, 0.5)]
        assert m.estimate(1.0, np.array([])) == []
        for bad in ([0.5, math.nan], [1.0, -1.0], [[0.5]]):
            with pytest.raises(DomainError):
                m.estimate(1.0, bad)


class TestPowerLawSpecialization:
    """The d-set shapes: EstimateModel with power profiles, a beta-stable
    time change, and explicit_near_diagonal near the diagonal."""

    def test_near_flat_case(self):
        m = model(0.5, 2.0, 1.0, "diffusion")
        assert m.estimate(1.0, 0.0).regime == "near"
        tag, val = explicit_near_diagonal(m, 1.0, 0.0)
        assert tag == "time-scale" and val == pytest.approx(1.0, rel=1e-12)

    def test_near_time_shape(self):
        tag, val = explicit_near_diagonal(model(0.5, 2.0, 1.0, "diffusion"), 16.0, 0.0)
        assert tag == "time-scale" and val == pytest.approx(16.0 ** -0.25, rel=1e-12)

    def test_off_local_pair(self):
        est = model(0.5, 2.0, 1.0, "diffusion").estimate(1.0, 2.0)
        assert est.regime == "off"
        assert est.prefactor == pytest.approx(1.0, rel=1e-12)
        assert est.exponent_arg == pytest.approx(2.0 ** (4.0 / 3.0), rel=1e-10)

    def test_off_jump_value(self):
        est = model(0.5, 1.0, 1.0, "jump").estimate(1.0, 10.0)
        assert est.value == pytest.approx(0.01, rel=1e-12)

    def test_log_case(self):
        tag, val = explicit_near_diagonal(model(0.5, 1.0, 1.0, "jump"), 1.0, 0.25)
        assert tag == "logarithmic" and val == pytest.approx(math.log(8.0), rel=1e-12)

    def test_local_needs_alpha_two(self):
        with pytest.raises(DomainError):
            model(0.5, 1.0, 1.0, "diffusion")

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
        t, z, alpha = 1.0, 2.0, 2.0
        est = model(0.5, alpha, 1.0, "diffusion").estimate(t, z)
        n = t * Stable(0.5).power_ratio_inverse(alpha, (z / t) ** alpha)
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
                ratios.append(m.estimate(t, z).value / val)
        assert max(ratios) / min(ratios) < 10.0
