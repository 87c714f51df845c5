"""Spatial kernels: closed forms, sandwich shapes, derivative structure."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from fracheat import (DiffusionSurrogate, DomainError, ExactCauchy,
                      ExactGaussian, JumpSurrogate, PowerLaw, VerifyConfig, parse_kernel,
                      time_derivative_report)
from fracheat.harness import build_models
from fracheat.kernels import _dq_dt
from fracheat.numerics import _EXP_FAST, _EXP_ZERO
from fracheat.scale import subgaussian_exponent


class TestExactKernels:
    def test_gaussian_on_diagonal(self):
        assert ExactGaussian(1).q(1.0, 0.0) == pytest.approx(
            (4.0 * math.pi) ** -0.5, rel=1e-14)

    def test_cauchy_value(self):
        assert ExactCauchy(1).q(1.0, 1.0) == pytest.approx(
            1.0 / (2.0 * math.pi), rel=1e-14)

    @pytest.mark.parametrize("kernel", [ExactGaussian(1), ExactCauchy(1)])
    @pytest.mark.parametrize("t", [0.2, 1.0, 5.0])
    def test_mass_one(self, kernel, t):
        val, _ = integrate.quad(lambda y: kernel.q(t, y), 0, np.inf, limit=300)
        assert 2.0 * val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("kind", [ExactGaussian, ExactCauchy])
    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_at_least_one(self, kind, dim):
        with pytest.raises(DomainError, match="dimension must be >= 1"):
            kind(dim)

    def test_vectorized(self):
        k = ExactGaussian(1)
        ts = np.array([0.5, 1.0, 2.0])
        assert np.allclose(k.q(ts, 1.0), [k.q(t, 1.0) for t in ts])


class TestSurrogates:
    def test_jump_value(self):
        k = JumpSurrogate(PowerLaw(1.0), PowerLaw(1.0))
        assert k.q(1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_cauchy_is_exactly_a_jump_shape(self):
        # with V = r, Phi = r the surrogate equals pi * the Cauchy kernel
        kj = JumpSurrogate(PowerLaw(1.0), PowerLaw(1.0))
        kc = ExactCauchy(1)
        ratios = []
        for t in np.geomspace(1e-3, 1e3, 7):
            for z in np.geomspace(1e-3, 1e3, 7):
                ratios.append(kc.q(t, z) / kj.q(t, z))
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() < 1.0 + 1e-12
        assert ratios.max() < 10.0

    def test_diffusion_vs_gaussian_log_scale(self):
        # chaining exponent z^2/t vs Gaussian exponent z^2/(4t): ratio 4
        kd = DiffusionSurrogate(PowerLaw(1.0), PowerLaw(2.0))
        kg = ExactGaussian(1)
        for t in (0.1, 1.0, 10.0):
            for z in (3.0, 10.0, 30.0):
                if z * z / t < 5.0 or z * z / t > 600.0:
                    continue
                m_sur = -math.log(kd.q(t, z) * math.sqrt(t))
                m_gauss = -math.log(kg.q(t, z) * math.sqrt(4.0 * math.pi * t))
                assert 1.0 / 8.0 <= m_sur / m_gauss <= 8.0

    def test_diffusion_on_diagonal(self):
        kd = DiffusionSurrogate(PowerLaw(1.0), PowerLaw(2.0))
        assert kd.q(4.0, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_diffusion_needs_superlinear_scale(self):
        with pytest.raises(DomainError):
            DiffusionSurrogate(PowerLaw(1.0), PowerLaw(1.0))

    def test_parse(self):
        assert isinstance(parse_kernel("gaussian:1"), ExactGaussian)
        assert isinstance(parse_kernel("cauchy:1"), ExactCauchy)
        k = parse_kernel("jump", volume=PowerLaw(1.0), scale=PowerLaw(2.0))
        assert isinstance(k, JumpSurrogate)
        with pytest.raises(DomainError):
            parse_kernel("heat")


# the flavor of the estimate each kernel obeys and the order alpha of its
# 1-d symbol |xi|**alpha, which the Fourier oracle reads; a campaign's
# estimate model takes the kernel's flavor
@pytest.mark.parametrize("key, flavor, order", [
    ("gaussian:1", "diffusion", 2), ("gaussian:2", "diffusion", None),
    ("cauchy:1", "jump", 1), ("cauchy:2", "jump", None),
    ("jump", "jump", None), ("diffusion", "diffusion", None)])
def test_kernel_states_flavor_and_fourier_order(key, flavor, order):
    kernel, _, emodel = build_models(VerifyConfig(kernel=key, phi_scale="power:2"))
    assert (kernel.flavor, kernel.fourier_order, emodel.flavor) == (flavor, order, flavor)


def _plain_q(kernel, t, z):
    """q(t, z) as one expression over fresh arrays, with every factor
    formed at each call: the bits the row form must keep."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    if isinstance(kernel, ExactGaussian):
        return ((4.0 * np.pi * t) ** (-kernel.dim / 2.0) * np.exp(-z * z / (4.0 * t)))[()]
    if isinstance(kernel, ExactCauchy):
        d = kernel.dim
        const = math.gamma((d + 1) / 2.0) / np.pi ** ((d + 1) / 2.0)
        return (const * t / (t * t + z * z) ** ((d + 1) / 2.0))[()]
    vol = kernel.volume.value(kernel.scale.inverse(t))
    if isinstance(kernel, JumpSurrogate):
        return (t / (t * vol + kernel.scale.value(z) * kernel.volume.value(z)))[()]
    if np.ndim(z) == 0 and float(z) == 0.0:
        return (1.0 / vol * np.ones_like(t))[()]
    m = subgaussian_exponent(kernel.scale, t, np.maximum(z, 1e-300))
    return (1.0 / vol * np.exp(-np.where(z > 0, m, 0.0)))[()]


ROW_KERNELS = [ExactGaussian(1), ExactGaussian(3), ExactCauchy(1), ExactCauchy(3),
               JumpSurrogate(PowerLaw(1.0), PowerLaw(2.0)),
               DiffusionSurrogate(PowerLaw(1.0), PowerLaw(2.0))]
ROW_IDS = ["gaussian:1", "gaussian:3", "cauchy:1", "cauchy:3", "jump", "diffusion"]
# (s, z): one point, a row of 1e3 draws at one z, a far row whose exponents
# of the Gaussian and the diffusion kernel straddle both edges of
# numerics.exp_in_place in shuffled order, and the quadrature's (n_z, 1)
# column of z against its (n_s,) nodes in s
ROW_CASES = {
    "point": (0.7, 1.3),
    "draws": (np.random.default_rng(5).lognormal(0.0, 4.0, 1000), 2.5),
    "far": (np.random.default_rng(6).permutation(np.geomspace(1e-2, 1e2, 30_001)), 10.0),
    "quadrature": (np.geomspace(1e-3, 1e3, 40), np.array([[0.0], [0.5], [3.0], [40.0]])),
}


class TestRowForm:
    @pytest.mark.parametrize("kernel", ROW_KERNELS, ids=ROW_IDS)
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_row_form_is_q_bit_for_bit(self, kernel, case):
        s, z = ROW_CASES[case]
        zs = [z] if np.ndim(z) or isinstance(kernel, (ExactGaussian, ExactCauchy)) else [z, 0.0]
        for zj in zs:
            want = _plain_q(kernel, s, zj)
            q_of = kernel.at(s)
            assert np.array_equal(kernel.q(s, zj), want)
            assert np.array_equal(q_of(zj), want)
            buf = np.empty(np.broadcast_shapes(np.shape(s), np.shape(zj)))
            got = q_of(zj, out=buf)
            assert np.array_equal(got, want) and np.array_equal(buf, want)
            assert np.shares_memory(got, buf) or np.ndim(got) == 0

    @pytest.mark.parametrize("kernel", [ExactGaussian(1), ROW_KERNELS[-1]],
                             ids=["gaussian", "diffusion"])
    def test_far_row_crosses_both_exp_edges(self, kernel):
        s, z = ROW_CASES["far"]
        with np.errstate(divide="ignore"):
            exponent = np.log(_plain_q(kernel, s, z) / _plain_q(kernel, s, 0.0))
        assert np.any(exponent == -np.inf)
        assert np.any((exponent > _EXP_ZERO) & (exponent < _EXP_FAST))

    def test_point_gives_a_scalar(self):
        for kernel in ROW_KERNELS:
            assert np.ndim(kernel.at(1.0)(0.5)) == 0


class TestDerivativeStructure:
    def test_jump_report(self):
        rep = time_derivative_report(JumpSurrogate(PowerLaw(1.0), PowerLaw(2.0)))
        assert rep.passed
        assert 0.0 < rep.threshold_lo <= rep.threshold_hi < np.inf
        # analytic flip for V=r, Phi=r^2 sits at (1/2)**(2/3)
        flip = 0.5 ** (2.0 / 3.0)
        assert rep.threshold_lo <= flip <= rep.threshold_hi

    def test_diffusion_report(self):
        rep = time_derivative_report(DiffusionSurrogate(PowerLaw(1.0), PowerLaw(2.0)))
        assert rep.passed
        assert 0.0 < rep.threshold_lo <= rep.threshold_hi < np.inf
        assert np.isfinite(rep.c_bound) and rep.c_bound > 0.0

    @pytest.mark.parametrize("kind, want", [
        (JumpSurrogate, (0.9999999999882663, 0.5011872336272726, 0.6309573444801929)),
        (DiffusionSurrogate, (0.572999513862406, 0.398107170553497, 0.5011872336272715))])
    def test_criterion_15_numbers(self, kind, want):
        # the (c_bound, threshold_lo, threshold_hi) of criterion 15's two
        # reports, as a point-by-point loop over the grid gave them
        rep = time_derivative_report(kind(PowerLaw(1.0), PowerLaw(2.0)))
        assert (rep.c_bound, rep.threshold_lo, rep.threshold_hi) == pytest.approx(
            want, rel=1e-14, abs=0)

    def test_near_diagonal_sign(self):
        # Phi(z)/t = 1e-3: decreasing in t
        k = JumpSurrogate(PowerLaw(1.0), PowerLaw(2.0))
        t = 1.0
        z = math.sqrt(1e-3 * t)
        assert _dq_dt(k, t, z) < 0.0

    def test_far_off_diagonal_sign(self):
        # Phi(z)/t far above the flip: increasing in t for the diffusion
        # shape (probed at exponent 500, within float range; at 1e3 the
        # kernel itself underflows)
        k = DiffusionSurrogate(PowerLaw(1.0), PowerLaw(2.0))
        t = 1.0
        z = math.sqrt(500.0 * t)
        assert k.q(t, z) > 0.0
        assert _dq_dt(k, t, z) > 0.0
        kj = JumpSurrogate(PowerLaw(1.0), PowerLaw(2.0))
        assert _dq_dt(kj, t, math.sqrt(1e3 * t)) > 0.0

    def test_sign_change_near_crossover(self):
        k = JumpSurrogate(PowerLaw(1.0), PowerLaw(2.0))
        t = 1.0
        z_at = math.sqrt(t)  # Phi(z) = t
        lo = _dq_dt(k, t, 0.25 * z_at)
        hi = _dq_dt(k, t, 4.0 * z_at)
        assert lo < 0.0 < hi

    def test_exact_kernel_rejected(self):
        with pytest.raises(DomainError):
            time_derivative_report(ExactGaussian(1))

    def test_empty_grid_rejected(self):
        kernel = DiffusionSurrogate(PowerLaw(1.0), PowerLaw(2.0))
        for ts, zs in (([1.0], []), ([], [1.0])):
            with pytest.raises(DomainError):
                time_derivative_report(kernel, ts=ts, zs=zs)

    def test_all_underflowed_grid_fails(self):
        # q(1, 1e6) = exp(-m) underflows: no point is left to judge
        kernel = DiffusionSurrogate(PowerLaw(1.0), PowerLaw(2.0))
        assert kernel.q(1.0, 1e6) == 0.0
        rep = time_derivative_report(kernel, ts=[1.0], zs=[1e6])
        assert not rep.passed


@given(t=st.floats(0.01, 100.0), z1=st.floats(0.0, 50.0), z2=st.floats(0.0, 50.0))
def test_monotone_in_distance(t, z1, z2):
    lo, hi = sorted((z1, z2))
    for kernel in (ExactGaussian(1), ExactCauchy(1),
                   JumpSurrogate(PowerLaw(1.0), PowerLaw(1.0)),
                   DiffusionSurrogate(PowerLaw(1.0), PowerLaw(2.0))):
        assert kernel.q(t, lo) >= kernel.q(t, hi) - 1e-15
