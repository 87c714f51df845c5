"""Subordinator distributions, inverse process, bounds and identities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special

from fracheat import subordinator
from fracheat import (DomainError, QuadratureError, RngStream, Stable, StableMixture,
                      SubordinatorModel, UnsupportedModelError, cbf_from_scale,
                      integrated_tail_identities, tail_bounds_report)
from fracheat.numerics import geometric_boundaries, panel_nodes
from fracheat.scale import PowerLaw
from fracheat.solution import _hyperbola


@pytest.fixture(scope="module")
def half():
    return SubordinatorModel(Stable(0.5))


@pytest.fixture(scope="module")
def mixture():
    return SubordinatorModel(StableMixture(((1.0, 0.3), (1.0, 0.7))))


class TestCdf:
    def test_closed_form_examples(self, half):
        assert half.cdf(2.0, 4.0) == pytest.approx(special.erfc(0.5), abs=1e-12)
        assert half.cdf(1.0, 1.0) == pytest.approx(special.erfc(0.5), abs=1e-12)

    def test_limits(self, half):
        assert half.cdf(1.0, 1e9) > 1.0 - 1e-4
        assert half.survival(1.0, 1e-12) == 1.0

    def test_scaling_identity_exact(self, half):
        # P(S_r <= t) = P(S_1 <= t r**(-1/beta)) exactly
        from fracheat import stable
        for r, t in ((0.7, 2.0), (3.0, 0.4), (10.0, 10.0)):
            assert half.cdf(r, t) == stable.cdf(0.5, t * r ** -2.0)

    def test_constructed_rejected(self):
        # no stable parts: every distribution and sampling call refuses it
        model = SubordinatorModel(cbf_from_scale(PowerLaw(2.0), 3.0))
        calls = (lambda: model.cdf(1.0, 1.0), lambda: model.survival(1.0, 1.0),
                 lambda: model.log_cdf(1.0, 1.0), lambda: model.inverse_density(1.0, 1.0),
                 lambda: model.inverse_density_grid(1.0, [1.0]),
                 lambda: model.inverse_support(1.0),
                 lambda: model.sample_subordinator(1.0, RngStream(0, 0), 3),
                 lambda: model.sample_inverse(1.0, RngStream(0, 0), 3))
        for call in calls:
            with pytest.raises(UnsupportedModelError):
                call()

    @pytest.mark.parametrize("exponent", [Stable(0.05), StableMixture(((1.0, 0.05), (1.0, 0.5)))])
    def test_part_scale_overflow(self, exponent):
        # (a r)**(-1/beta) = 1e400 for the 0.05 part at r = 1e-20: the law is
        # still one jump past t, P(S_r >= t) = r nu(t) to O(r**2)
        model = SubordinatorModel(exponent)
        r, t = 1e-20, 1.0
        tail = r * exponent.levy_tail(t)
        assert model.survival(r, t) == pytest.approx(tail, rel=1e-6)
        assert abs(model.cdf(r, t) - (1.0 - tail)) <= 1e-15
        assert abs(model.log_cdf(r, t) + tail) <= 1e-15

    def test_mixture_cdf_plus_survival(self, mixture):
        for r, t in ((0.5, 1.0), (1.0, 0.5), (2.0, 3.0)):
            total = mixture.cdf(r, t) + mixture.survival(r, t)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_mixture_monotone_in_t(self, mixture):
        vals = [mixture.cdf(1.0, t) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_mixture_against_sampler(self, mixture):
        draws = np.sort(mixture.sample_subordinator(1.0, RngStream(3, 0), 4000))
        cdf_vals = np.array([mixture.cdf(1.0, float(t)) for t in draws[::40]])
        emp = (np.arange(draws.size) / draws.size)[::40]
        assert np.max(np.abs(cdf_vals - emp)) < 0.03


# the three mixtures of criterion 9
MIXTURES = (((1.0, 0.3), (1.0, 0.7)), ((2.0, 0.2), (1.0, 0.5)), ((1.0, 0.4), (3.0, 0.6)))


class TestOnePath:
    """A stable exponent is the one-part case of the sum-of-parts path."""

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_one_term_mixture_is_stable_bitwise(self, beta):
        plain = SubordinatorModel(Stable(beta))
        single = SubordinatorModel(StableMixture(((1.0, beta),)))
        for t in (1e-3, 0.4, 1.0, 30.0):
            assert single.inverse_support(t) == plain.inverse_support(t)
            assert np.array_equal(single.sample_inverse(t, RngStream(4, 1), 200),
                                  plain.sample_inverse(t, RngStream(4, 1), 200))
            for r in (1e-6, 0.05, 1.0, 8.0):
                for name in ("cdf", "survival", "log_cdf"):
                    assert getattr(single, name)(r, t) == getattr(plain, name)(r, t)

    def test_weighted_single_term(self, half):
        # phi = 2 lam**(1/2): E_t is half of the 1/2-stable one
        model = SubordinatorModel(StableMixture(((2.0, 0.5),)))
        rs = np.geomspace(1e-3, 3.0, 25)
        ref = 2.0 * np.exp(-(2.0 * rs) ** 2 / 4.0) / math.sqrt(math.pi)
        assert np.allclose(model.inverse_density_grid(1.0, rs), ref, rtol=1e-11, atol=0.0)
        assert np.array_equal(model.sample_inverse(1.0, RngStream(6, 0), 100),
                              half.sample_inverse(1.0, RngStream(6, 0), 100) / 2.0)

    @pytest.mark.parametrize("terms", MIXTURES)
    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_support_holds_the_mass(self, terms, t):
        # P(E_t > R) = P(S_R <= t) must vanish at the support bound R
        model = SubordinatorModel(StableMixture(terms))
        assert model.cdf(model.inverse_support(t), t) <= 1e-12

    @pytest.mark.parametrize("r", [1e-5, 1e-8, 1e-12])
    def test_small_r_survival_keeps_every_part(self, mixture, r):
        # at small r, P(S_r >= 1) is the sum of the parts' survivals; the
        # first part's mass below the convolution ladder must not be lost
        parts = sum(SubordinatorModel(StableMixture((term,))).survival(r, 1.0)
                    for term in mixture.exponent.terms)
        assert abs(mixture.survival(r, 1.0) / parts - 1.0) <= 1e-6


class TestInverseDensity:
    def test_half_gaussian(self, half):
        # density of E_t at beta = 1/2 is exp(-r^2/(4t)) / sqrt(pi t)
        assert half.inverse_density(1.0, 2.0) == pytest.approx(
            math.exp(-1.0) / math.sqrt(math.pi), rel=1e-12)
        assert half.inverse_density(1.0, 1e-8) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-6)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_normalization(self, beta, t):
        model = SubordinatorModel(Stable(beta))
        hi = model.inverse_support(t)
        val, _ = integrate.quad(lambda r: model.inverse_density(t, r), 0.0, hi,
                                limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_matches_survival_derivative(self, half):
        # P(E_t <= r) = P(S_r >= t): compare h to the finite difference
        t, r = 1.3, 0.8
        h = 1e-6
        fd = (half.survival(r + h, t) - half.survival(r - h, t)) / (2 * h)
        assert half.inverse_density(t, r) == pytest.approx(fd, rel=1e-8)

    def test_grid_matches_scalar(self, half):
        rs = np.geomspace(0.01, 10.0, 40)
        grid = half.inverse_density_grid(1.0, rs)
        scal = np.array([half.inverse_density(1.0, r) for r in rs])
        assert np.max(np.abs(grid - scal)) < 1e-10

    def test_mixture_density_integrates(self):
        # int_0^R h = 1, R the support bound, by Gauss-Legendre in log r
        # with 4 panels per decade down to lo, below which h is its r -> 0
        # limit nu(t) to ~1e-12
        for terms in MIXTURES:
            model = SubordinatorModel(StableMixture(terms))
            for t in (1e-3, 1.0, 1e3):
                lo = 1e-12 / model.exponent.levy_tail(t)
                u, w = panel_nodes(np.log(geometric_boundaries(lo, model.inverse_support(t))),
                                   order=12)
                r = np.exp(u)
                mass = w @ (model.inverse_density_grid(t, r) * r) + model.inverse_density(t, lo) * lo
                assert abs(mass - 1.0) <= 1e-9

    @pytest.mark.parametrize("terms", MIXTURES)
    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_mixture_small_r_limit_is_levy_tail(self, terms, t):
        # P(S_r >= t) = r nu(t) + O(r^2) as r -> 0: one jump past t
        model = SubordinatorModel(StableMixture(terms))
        assert model.inverse_density(t, 1e-8) == pytest.approx(
            model.exponent.levy_tail(t), rel=1e-6)

    @pytest.mark.parametrize("r", [1e-15, 1e-17, 1e-20])
    def test_stable_scale_overflow(self, r):
        # r**(-1/beta) nears or passes the float range at beta = 0.05; h
        # is still nu(t), with no digits lost to denormals on the way
        model = SubordinatorModel(Stable(0.05))
        assert abs(model.inverse_density(1.0, r) - model.exponent.levy_tail(1.0)) <= 1e-12

    def test_mixture_part_scale_overflow(self):
        # (a r)**(-1/beta) overflows for the 0.05 part at these r, and h
        # is still nu(t)
        model = SubordinatorModel(StableMixture(((1.0, 0.05), (1.0, 0.5))))
        h = model.inverse_density_grid(1.0, [1e-30, 1e-20])
        assert np.allclose(h, model.exponent.levy_tail(1.0), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("terms", MIXTURES)
    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_mixture_convolution_error_far_below_rel_tol(self, terms, t, monkeypatch):
        # against convolutions on twice the panels at 1e-3 times the
        # tolerance, from r -> 0 into the far tail of E_t (h down to 1e-250)
        model = SubordinatorModel(StableMixture(terms))
        rs = model.inverse_support(t) * np.geomspace(1e-6, 0.6, 30)
        h = model.inverse_density_grid(t, rs)
        monkeypatch.setattr(subordinator, "_CONV_PANELS", 2 * subordinator._CONV_PANELS)
        monkeypatch.setattr(subordinator, "_CONV_TOL", 1e-3 * subordinator._CONV_TOL)
        fine = model.inverse_density_grid(t, rs)
        live = fine > 1e-250
        assert live.sum() >= 20
        assert np.max(np.abs(h[live] / fine[live] - 1.0)) <= 1e-12

    def test_three_parts(self):
        # the convolution nests: against a central difference of the
        # survival and the contour inversion of the transform in t of
        # h_t(r), (phi(lam)/lam) exp(-r phi(lam))
        terms = ((1.0, 0.3), (0.5, 0.5), (1.0, 0.7))
        model = SubordinatorModel(StableMixture(terms))
        t, r, step = 1.0, 0.5, 5e-5
        h = model.inverse_density(t, r)
        fd = (model.survival(r + step, t) - model.survival(r - step, t)) / (2.0 * step)
        assert h == pytest.approx(fd, rel=1e-8)
        contour = []
        for n in (16, 24):
            lam, weights = _hyperbola(n, t)
            phi = sum(a * lam ** b for a, b in terms)
            contour.append(float((weights * np.exp(lam * t - r * phi) * phi / lam).sum().real))
        assert abs(contour[1] - contour[0]) <= 1e-12
        assert h == pytest.approx(contour[1], rel=1e-10)
        assert model.inverse_density(t, 1e-8) == pytest.approx(
            model.exponent.levy_tail(t), rel=1e-6)


class TestSampling:
    def test_inverse_mean_half(self, half):
        # E_1 has mean 2/sqrt(pi) at beta = 1/2
        n = 100_000
        draws = half.sample_inverse(1.0, RngStream(123, 0), n)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - 2.0 / math.sqrt(math.pi)) < 3.0 * se

    def test_inverse_cdf_identity(self, half):
        # P(E_1 <= x) = erf(x / 2)
        draws = np.sort(half.sample_inverse(1.0, RngStream(9, 1), 50_000))
        emp = np.arange(1, draws.size + 1) / draws.size
        ks = np.max(np.abs(emp - special.erf(draws / 2.0)))
        assert ks < 0.012

    def test_deterministic(self, half):
        a = half.sample_inverse(1.0, RngStream(5, 2), 500)
        b = half.sample_inverse(1.0, RngStream(5, 2), 500)
        assert np.array_equal(a, b)

    def test_subordinator_scaling(self, half):
        draws = half.sample_subordinator(4.0, RngStream(8, 0), 20_000)
        # S_4 = 16 * S_1 in distribution; compare medians
        ref = 16.0 / special.erfcinv(0.5) ** 2 / 4.0  # median of S_1 = 1/(4 erfcinv(1/2)^2), scaled
        med = np.median(draws)
        assert med == pytest.approx(ref, rel=0.05)

    def test_mixture_inverse_against_cdf(self, mixture):
        draws = np.sort(mixture.sample_inverse(0.7, RngStream(21, 0), 300, tol=5e-3))
        probe = draws[::15]
        cdf_vals = np.array([mixture.survival(float(r), 0.7) for r in probe])
        emp = (np.arange(1, draws.size + 1) / draws.size)[::15]
        assert np.max(np.abs(cdf_vals - emp)) < 0.12

    def test_mixture_path_cap_raises(self, mixture, monkeypatch):
        # the fine step is tol times the pilot draw, so a path needs ~1/tol
        # steps: one chunk of 512 cannot reach t
        monkeypatch.setattr(subordinator, "_MAX_INCREMENTS", 512)
        with pytest.raises(QuadratureError):
            mixture.sample_inverse(0.7, RngStream(21, 0), 1)


class TestTailBounds:
    def test_stable_grid(self, half):
        grid = np.geomspace(1e-2, 1e2, 13)
        rep = tail_bounds_report(half, grid, grid)
        assert rep.passed
        assert rep.upper_exp_c >= 0.2
        assert rep.ratio_hi / rep.ratio_lo < 50.0

    def test_degenerate_corner(self, half):
        # r phi(1/t) -> 0: survival and the linear lower bound both vanish
        r, t = 1e-8, 1e6
        x = r * half.exponent.phi(1.0 / t)
        assert half.survival(r, t) < 1e-6
        assert 1.0 - math.exp(-x) < 1e-6

    def test_mixture_grid(self, mixture):
        grid = np.geomspace(1e-1, 1e1, 5)
        rep = tail_bounds_report(mixture, grid, grid)
        assert rep.passed


class TestIdentities:
    def test_balance_residuals(self, half):
        rep = integrated_tail_identities(half, 1.0)
        assert rep.total_residual < 1e-4
        for res in rep.first_identity.values():
            assert res < 1e-4

    def test_small_t(self, half):
        rep = integrated_tail_identities(half, 1e-4)
        assert rep.total_residual < 1e-3

    @pytest.mark.parametrize("t", [1e-4, 0.5])
    def test_windowed_identity_exact(self, half, t):
        # the windowed identity holds exactly; the pass in log q resolves
        # P(S_s > r) down to r far below s**2 << t
        rep = integrated_tail_identities(half, t)
        assert max(rep.first_identity.values()) <= 1e-10

    def test_needs_stable(self, mixture):
        with pytest.raises(UnsupportedModelError):
            integrated_tail_identities(mixture, 1.0)


@settings(max_examples=25)
@given(beta=st.floats(0.15, 0.85), r=st.floats(0.05, 20.0),
       t=st.floats(0.05, 20.0))
@example(beta=0.771484375, r=3.125, t=0.78125)  # survival within 1e-15 of 1
def test_inverse_distribution_identity(beta, r, t):
    # P(E_t <= r) = P(S_r >= t) by construction; spot-check via density.
    # The difference is taken of the smaller of P(S_r >= t) and
    # P(S_r <= t), which keeps its relative precision where the other is
    # within rounding of 1
    model = SubordinatorModel(Stable(beta))
    h = 1e-5 * r
    if model.survival(r, t) <= model.cdf(r, t):
        fd = (model.survival(r + h, t) - model.survival(r - h, t)) / (2 * h)
    else:
        fd = (model.cdf(r - h, t) - model.cdf(r + h, t)) / (2 * h)
    hv = model.inverse_density(t, r)
    assert hv == pytest.approx(fd, rel=2e-4, abs=1e-12)


def test_domain_errors(half):
    with pytest.raises(DomainError):
        half.cdf(0.0, 1.0)
    with pytest.raises(DomainError):
        half.inverse_density(1.0, 0.0)
    with pytest.raises(DomainError):
        half.sample_inverse(-1.0, RngStream(0, 0), 10)
