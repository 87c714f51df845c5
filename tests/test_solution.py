"""Cross-validated evaluation of p(t, z) and the Mittag-Leffler function.

The central frozen oracle: for a 1-d Gaussian kernel under a 1/2-stable
time change,
    p(1, 0) = int_0^inf (4 pi s)**-0.5 * exp(-s^2/4)/sqrt(pi) ds
            = Gamma(1/4) / (4**0.75 * pi) = 0.40802446954913144...
(recomputed here from the Gamma integral; equivalently 1/(2 Gamma(3/4))).
"""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from fracheat import (DomainError, ExactCauchy, ExactGaussian, GaussianBump,
                      JumpSurrogate, PowerLaw, RngStream, SolutionEstimate, Stable,
                      StableMixture, SubordinatorModel, UnsupportedModelError,
                      caputo_weak_residual, cbf_from_scale, density_fourier,
                      density_laplace, density_monte_carlo, density_quadrature,
                      mass_residual, mittag_leffler)
from fracheat import solution
from fracheat.numerics import chebyshev_table, kronrod_quad
from fracheat.solution import _fourier

P_ONE_ZERO = math.gamma(0.25) / (4.0 ** 0.75 * math.pi)


def _half_stable_reference(kind, t, z):
    """p(t, z) for the 1-d Gaussian or Cauchy kernel under a 1/2-stable time
    change, where E_t has the closed-form density exp(-s^2/4t)/sqrt(pi t):
    one QUADPACK integral in u = log s, split at the peak of q(s, z) h_t(s)."""
    def integrand(u):
        s = math.exp(u)
        if kind == "gaussian":
            log_q = -0.5 * math.log(4.0 * math.pi * s) - z * z / (4.0 * s)
        else:
            log_q = math.log(s / (math.pi * (s * s + z * z)))
        return math.exp(log_q + u - s * s / (4.0 * t) - 0.5 * math.log(math.pi * t))

    peak = (z * z * t / 2.0) ** (1.0 / 3.0) if kind == "gaussian" else z
    marks = sorted({0.5 * math.log(t), math.log(max(peak, 1e-300))})
    lo, hi = marks[0] - 40.0, 0.5 * math.log(3200.0 * t)  # s^2/4t = 800 at hi
    val, _ = integrate.quad(integrand, max(lo, -700.0), hi,
                            points=[m for m in marks if m > lo], epsabs=0.0,
                            epsrel=1e-13, limit=400)
    return val


def _ml_reference(beta, x):
    """E_beta(-x) to 30 digits: the power series for x <= 1, else the
    spectral integral sin(b pi)/(b pi) int_0^inf exp(-(ux)**(1/b))
    / (u^2 + 2u cos(b pi) + 1) du, split around the peak of its
    denominator at u = -cos(b pi), of width sin(b pi)."""
    with mpmath.workdps(30):
        b, x = mpmath.mpf(beta), mpmath.mpf(x)
        if x <= 1:
            total, k, term = mpmath.mpf(0), 0, mpmath.mpf(1)
            while k < 5 or abs(term) > mpmath.mpf(10) ** -35:
                term = (-x) ** k * mpmath.rgamma(1 + b * k)
                total, k = total + term, k + 1
            return float(total)
        cb, sb = mpmath.cos(b * mpmath.pi), mpmath.sin(b * mpmath.pi)
        u_cut = mpmath.mpf(800) ** b / x  # exp(-800) beyond
        pts = {mpmath.mpf(0), 1 / x, u_cut}
        pts.update(-cb + k * sb for k in (-8, -2, -0.5, 0, 0.5, 2, 8))
        pts = sorted(p for p in pts if 0 <= p <= u_cut)
        val = mpmath.quad(lambda u: mpmath.exp(-(u * x) ** (1 / b)) / (u * u + 2 * u * cb + 1), pts)
        return float(sb / (b * mpmath.pi) * val)


# the three mixtures of criterion 9
MIXTURES = (((1.0, 0.3), (1.0, 0.7)), ((2.0, 0.2), (1.0, 0.5)), ((1.0, 0.4), (3.0, 0.6)))


def _talbot_mixture_reference(terms, kind, t, z, dps=30):
    """p(t, z) under phi = sum a lam**b by mpmath's Talbot inversion at dps
    digits.  The Cauchy resolvent (1/pi) int_0^inf cos(xi z)/(mu + xi) dxi
    is written through Ci and Si, whose growing cos/sin factors cancel
    catastrophically once |Im(mu z)| is large on Talbot's contour, so the
    Cauchy reference holds only near the diagonal."""
    with mpmath.workdps(dps):
        def transform(lam):
            mu = sum(a * lam ** b for a, b in terms)
            if kind == "gaussian":
                root = mpmath.sqrt(mu)
                return mu / lam * mpmath.exp(-root * z) / (2 * root)
            w = mu * z
            res = (-mpmath.ci(w) * mpmath.cos(w)
                   - (mpmath.si(w) - mpmath.pi / 2) * mpmath.sin(w)) / mpmath.pi
            return mu / lam * res
        return float(mpmath.re(mpmath.invertlaplace(transform, t, method="talbot")))


def _no_resolvent(self, mu, z):
    raise UnsupportedModelError("resolvent withheld")


def _saddle_flags_all(monkeypatch):
    """Let the saddle contour flag every z, so that the z the hyperbola
    flags take the Gauss-Kronrod rule."""
    monkeypatch.setattr(solution, "_saddle_row", lambda kernel, model, t, z: [None] * z.size)


@pytest.fixture(scope="module")
def mix():
    return SubordinatorModel(StableMixture(MIXTURES[0]))


@pytest.fixture(scope="module")
def half():
    return SubordinatorModel(Stable(0.5))


@pytest.fixture(scope="module")
def gauss():
    return ExactGaussian(1)


@pytest.fixture(scope="module")
def cauchy():
    return ExactCauchy(1)


class TestQuadrature:
    def test_frozen_oracle(self, gauss, half):
        est = density_quadrature(gauss, half, 1.0, 0.0)
        assert est.converged
        assert est.value == pytest.approx(P_ONE_ZERO, abs=1e-8)
        assert P_ONE_ZERO == pytest.approx(1.0 / (2.0 * math.gamma(0.75)), rel=1e-15)

    def test_time_scaling(self, gauss, half):
        est = density_quadrature(gauss, half, 16.0, 0.0)
        assert est.value == pytest.approx(P_ONE_ZERO * 16.0 ** -0.25, rel=1e-7)

    @pytest.mark.parametrize("kind, t, z", [
        ("gaussian", 1.0, 0.0), ("gaussian", 0.1, 1.0), ("gaussian", 10.0, 3.0),
        ("gaussian", 1.0, 30.0), ("gaussian", 1.3737515291681892, 39.3330341341852),
        ("cauchy", 1.0, 0.3), ("cauchy", 0.1, 1.0), ("cauchy", 10.0, 3.0),
        ("cauchy", 1.0, 30.0), ("cauchy", 1311.4930702352094, 78913.3705214919)])
    def test_error_estimate_is_honest(self, gauss, cauchy, half, kind, t, z, monkeypatch):
        # the public dispatch, then the Gauss-Kronrod rule alone
        kernel = gauss if kind == "gaussian" else cauchy
        ref = _half_stable_reference(kind, t, z)
        for withheld in (False, True):
            if withheld:
                monkeypatch.setattr(type(kernel), "resolvent", _no_resolvent)
                _saddle_flags_all(monkeypatch)
            est = density_quadrature(kernel, half, t, z)
            assert est.converged and (est.method == "quad" or not withheld)
            assert abs(est.value - ref) <= 1e-10 * ref
            assert abs(est.value - ref) <= est.error

    @pytest.mark.parametrize("beta", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_diagonal_moment(self, gauss, beta, monkeypatch):
        # p(t, 0) = E[(4 pi E_t)**-1/2] with E_t = (t/S)**beta, S standard
        # beta-stable, whose moment E[S**(beta/2)] is Gamma(1/2)/Gamma(1 - beta/2)
        model = SubordinatorModel(Stable(beta))
        for withheld in (False, True):
            if withheld:
                monkeypatch.setattr(ExactGaussian, "resolvent", _no_resolvent)
            for t in (1e-3, 1.0, 1e3):
                exact = (t ** (-beta / 2.0) * math.gamma(0.5)
                         / (math.gamma(1.0 - beta / 2.0) * math.sqrt(4.0 * math.pi)))
                est = density_quadrature(gauss, model, t, 0.0)
                assert est.method == ("quad" if withheld else "laplace") and est.converged
                assert abs(est.value - exact) <= est.error

    def test_stable_takes_the_contour_near_the_diagonal(self, gauss, cauchy, half, monkeypatch):
        assert density_quadrature(cauchy, half, 1.0, 0.3).method == "laplace"
        saddle = density_quadrature(gauss, half, 1.0, 30.0)  # flagged on the hyperbola
        assert saddle.method == "saddle" and saddle.converged
        _saddle_flags_all(monkeypatch)
        est = density_quadrature(gauss, half, 1.0, 30.0)
        assert est.method == "quad" and est.converged
        assert abs(saddle.value - est.value) <= saddle.error + est.error

    def test_unmet_tolerance_is_flagged(self, cauchy, half, monkeypatch):
        from fracheat import numerics, solution
        evaluated = []
        panels = numerics._kronrod_panels

        def counting(f, lo, hi):
            evaluated.append(lo.size)
            return panels(f, lo, hi)

        monkeypatch.setattr(numerics, "_kronrod_panels", counting)
        monkeypatch.setattr(solution, "REL_TOL", 1e-20)
        est = density_quadrature(cauchy, half, 1.0, 0.3)
        assert sum(evaluated[1:]) == 2 * numerics._MAX_BISECTIONS  # budget spent
        assert not est.converged
        assert math.isfinite(est.error) and est.error > 1e-20 * est.value
        assert est.value == pytest.approx(_half_stable_reference("cauchy", 1.0, 0.3), rel=1e-12)

    def test_cauchy_on_diagonal_diverges(self, cauchy, half):
        with pytest.raises(DomainError):
            density_quadrature(cauchy, half, 1.0, 0.0)

    def test_positivity_and_monotonicity(self, gauss, cauchy, half):
        for t in (0.1, 1.0, 10.0):
            vals = [density_quadrature(cauchy, half, t, z).value
                    for z in (0.2, 0.5, 1.0, 2.0, 8.0)]
            vals += [density_quadrature(gauss, half, t, z).value
                     for z in (0.0, 0.5, 1.0, 2.0, 8.0)]
            assert all(v > 0 for v in vals)
            assert all(a >= b for a, b in zip(vals[:5], vals[1:5]))
            assert all(a >= b for a, b in zip(vals[5:], vals[6:]))

    def test_self_similar_collapse(self, gauss, half):
        # p(t, z) = t**(-1/4) P(z t**(-1/4)) for the 1/2-stable Gaussian case
        zetas = (0.0, 0.5, 1.5, 3.0)
        profiles = []
        for t in (0.1, 1.0, 10.0):
            row = [density_quadrature(gauss, half, t, zeta * t ** 0.25).value
                   * t ** 0.25 for zeta in zetas]
            profiles.append(row)
        profiles = np.asarray(profiles)
        spread = np.abs(profiles / profiles[1] - 1.0)
        assert spread.max() < 1e-6

    def test_degenerate_time_change_limit(self, gauss):
        # beta -> 1: E_t -> t so p approaches the plain kernel
        model = SubordinatorModel(Stable(0.999))
        for t, z in ((1.0, 0.0), (1.0, 1.0)):
            est = density_quadrature(gauss, model, t, z)
            assert est.value == pytest.approx(gauss.q(t, z), rel=0.01)

    def test_mixture_quadrature_against_mc(self, cauchy):
        from fracheat import StableMixture
        mix = SubordinatorModel(StableMixture(((1.0, 0.3), (1.0, 0.7))))
        est = density_quadrature(cauchy, mix, 1.0, 1.0)
        mc = density_monte_carlo(cauchy, mix, 1.0, 1.0, 20_000, RngStream(61, 0))
        assert abs(est.value - mc.value) < 4.0 * mc.error

    def test_domain(self, gauss, half):
        with pytest.raises(DomainError):
            density_quadrature(gauss, half, 0.0, 0.0)
        with pytest.raises(DomainError):
            density_quadrature(gauss, half, 1.0, -1.0)

    @pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
    def test_mixture_goes_through_the_contour(self, gauss, cauchy, mix, kind):
        est = density_quadrature(gauss if kind == "gaussian" else cauchy, mix, 1.0, 0.5)
        assert est.method == "laplace" and est.converged
        ref = _talbot_mixture_reference(MIXTURES[0], kind, 1.0, 0.5)
        assert abs(est.value - ref) <= est.error

    def test_mixture_without_resolvent_uses_kronrod(self, mix):
        kernel = JumpSurrogate(PowerLaw(1.0), PowerLaw(1.0))
        with pytest.raises(UnsupportedModelError):
            density_laplace(kernel, mix, 1.0, 0.5)
        est = density_quadrature(kernel, mix, 1.0, 0.5)
        assert est.method == "quad" and est.converged

    def test_kronrod_path_agrees_with_contour(self, cauchy, mix, monkeypatch):
        contour = density_laplace(cauchy, mix, 1.0, 1.0)
        monkeypatch.setattr(ExactCauchy, "resolvent", _no_resolvent)
        est = density_quadrature(cauchy, mix, 1.0, 1.0)
        assert est.method == "quad" and est.converged
        assert abs(est.value - contour.value) <= est.error + contour.error

    @pytest.mark.parametrize("terms", MIXTURES)
    def test_kronrod_path_error_is_honest(self, gauss, cauchy, terms, monkeypatch):
        # with the resolvent withheld, mixtures take the Gauss-Kronrod rule
        # against the convolution inverse density; the contour is the
        # reference
        model = SubordinatorModel(StableMixture(terms))
        points = [(kernel, t, z) for kernel in (gauss, cauchy) for t, z in ((1.0, 0.5), (1.0, 1.0))]
        contours = [density_laplace(kernel, model, t, z) for kernel, t, z in points]
        monkeypatch.setattr(ExactGaussian, "resolvent", _no_resolvent)
        monkeypatch.setattr(ExactCauchy, "resolvent", _no_resolvent)
        for (kernel, t, z), contour in zip(points, contours):
            est = density_quadrature(kernel, model, t, z)
            assert est.method == "quad" and est.converged
            assert abs(est.value - contour.value) <= est.error + contour.error

    def test_kronrod_rows_share_panels(self):
        # rows of integrands on shared panels: each row meets its own
        # tolerance; a lone row takes the scalar form
        rows = lambda x: np.stack([np.exp(-x), x * x, np.sqrt(x)])
        total, error, ok = kronrod_quad(rows, [0.0, 1.0, 2.0], 1e-12, 0.0)
        exact = [1.0 - math.exp(-2.0), 8.0 / 3.0, 2.0 ** 1.5 / 1.5]
        assert total.shape == error.shape == ok.shape == (3,) and ok.all()
        assert np.allclose(total, exact, rtol=1e-12, atol=0.0)
        single = kronrod_quad(np.sqrt, [0.0, 1.0, 2.0], 1e-12, 0.0)
        assert isinstance(single[0], float) and single[2] is True
        assert single[0] == pytest.approx(exact[2], rel=1e-12)

    def test_kronrod_path_deep_off_diagonal(self, gauss, cauchy, mix, monkeypatch):
        # the hyperbola flags Gaussian (1, 30), p ~ 1e-36; the saddle
        # contour, and the Gauss-Kronrod rule without it, meet Talbot at 50
        # digits within their stated errors
        ref = _talbot_mixture_reference(MIXTURES[0], "gaussian", 1.0, 30.0, dps=50)
        est = density_quadrature(gauss, mix, 1.0, 30.0)
        assert est.method == "saddle" and est.converged
        assert abs(est.value - ref) <= est.error
        with monkeypatch.context() as patch:
            _saddle_flags_all(patch)
            est = density_quadrature(gauss, mix, 1.0, 30.0)
        assert est.method == "quad" and est.converged
        assert abs(est.value - ref) <= est.error
        contour = density_laplace(cauchy, mix, 0.1, 3.0)
        assert contour.converged
        monkeypatch.setattr(ExactCauchy, "resolvent", _no_resolvent)
        est = density_quadrature(cauchy, mix, 0.1, 3.0)
        assert est.method == "quad" and est.converged
        assert abs(est.value - contour.value) <= est.error + contour.error


def _row_against_points(kernel, model, t, zs):
    """The row form at zs, checked point by point against scalar calls:
    values within the sum of the two stated errors, the same method and
    the same flag.  Returns the row."""
    row = density_quadrature(kernel, model, t, np.asarray(zs))
    assert isinstance(row, list) and len(row) == len(zs)
    for z, est in zip(zs, row):
        point = density_quadrature(kernel, model, t, z)
        assert (est.method, est.converged) == (point.method, point.converged), f"z={z}"
        assert abs(est.value - point.value) <= est.error + point.error, f"z={z}"
    return row


class TestRow:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
    def test_stable_rows(self, gauss, cauchy, beta):
        model = SubordinatorModel(Stable(beta))
        for kernel in (gauss, cauchy):
            for t in (0.1, 1.0, 10.0):
                _row_against_points(kernel, model, t, [0.05, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0])

    def test_mixture_row(self, gauss, cauchy, mix):
        for kernel in (gauss, cauchy):
            _row_against_points(kernel, mix, 1.0, [0.1, 0.5, 2.0])

    def test_row_without_resolvent_shares_one_kronrod_pass(self, half, monkeypatch):
        # a surrogate kernel has no resolvent, so every z takes the
        # Gauss-Kronrod rule; the row form spends one pass on them all
        from fracheat import numerics
        kernel = JumpSurrogate(PowerLaw(1.0), PowerLaw(1.0))
        zs = [0.01, 0.2, 1.0, 5.0, 40.0]
        passes = []
        quad = numerics.kronrod_quad
        monkeypatch.setattr(solution, "kronrod_quad",
                            lambda *args: passes.append(1) or quad(*args))
        row = density_quadrature(kernel, half, 1.0, np.asarray(zs))
        assert len(passes) == 1
        assert all(est.method == "quad" and est.converged for est in row)
        _row_against_points(kernel, half, 1.0, zs)

    def test_row_mixes_contour_and_flagged(self, gauss, half, mix, monkeypatch):
        # (1, 30) is flagged on the hyperbola (p ~ 1e-36 for the mixture)
        # and taken by the saddle contour, or else by the Gauss-Kronrod rule
        for last in ("saddle", "quad"):
            if last == "quad":
                _saddle_flags_all(monkeypatch)
            for model in (half, mix):
                row = _row_against_points(gauss, model, 1.0, [0.0, 0.5, 30.0])
                assert [est.method for est in row] == ["laplace", "laplace", last]
                assert all(est.converged for est in row)

    def test_forms(self, gauss, half):
        assert isinstance(density_quadrature(gauss, half, 1.0, 0.5), SolutionEstimate)
        one = density_quadrature(gauss, half, 1.0, np.array([0.5]))
        assert isinstance(one, list) and len(one) == 1
        assert density_quadrature(gauss, half, 1.0, np.array([])) == []
        row = density_laplace(gauss, half, 1.0, [0.5, 1.0])
        assert row[1].value == pytest.approx(density_laplace(gauss, half, 1.0, 1.0).value, rel=1e-14)
        with pytest.raises(DomainError):
            density_quadrature(gauss, half, 1.0, np.array([0.5, -1.0]))
        with pytest.raises(DomainError):
            density_quadrature(gauss, half, 1.0, np.ones((2, 2)))
        with pytest.raises(DomainError):
            density_quadrature(ExactCauchy(1), half, 1.0, np.array([1.0, 0.0]))


class TestLaplace:
    def test_against_closed_form(self, gauss, cauchy, half):
        accepted = 0
        for kind, kernel in (("gaussian", gauss), ("cauchy", cauchy)):
            for t in np.geomspace(1e-3, 1e3, 7):
                for z in np.geomspace(1e-3, 100.0, 8):
                    est = density_laplace(kernel, half, t, z)
                    assert est.method == "laplace"
                    if not est.converged:
                        continue
                    accepted += 1
                    ref = _half_stable_reference(kind, t, z)
                    assert abs(est.value - ref) <= 1e-10 * ref
                    assert abs(est.value - ref) <= est.error
        assert accepted >= 90  # of 112; the deep off-diagonal ones are flagged

    @pytest.mark.parametrize("beta", [0.9, 0.99])
    def test_cauchy_resolvent_past_right_angle(self, cauchy, beta, monkeypatch):
        # arg phi(lam) passes pi/2 on the contour once beta > 0.8, where the
        # principal-branch exp1 form of the Cauchy resolvent jumps; the
        # reference is the Gauss-Kronrod rule, with the resolvent withheld
        model = SubordinatorModel(Stable(beta))
        points = ((1.0, 0.5), (10.0, 3.0))
        contours = [density_laplace(cauchy, model, t, z) for t, z in points]
        monkeypatch.setattr(ExactCauchy, "resolvent", _no_resolvent)
        for (t, z), est in zip(points, contours):
            ref = density_quadrature(cauchy, model, t, z)
            assert est.converged and ref.converged
            assert abs(est.value - ref.value) <= 1e-10 * ref.value

    @pytest.mark.parametrize("terms", MIXTURES)
    def test_mixtures_against_talbot(self, gauss, cauchy, terms):
        model = SubordinatorModel(StableMixture(terms))
        points = [("gaussian", t, z) for t, z in
                  ((0.1, 0.3), (1.0, 0.5), (1.0, 2.0), (10.0, 1.0), (10.0, 5.0), (3.0, 3.0))]
        points += [("cauchy", t, z) for t, z in ((0.1, 0.1), (1.0, 0.5), (10.0, 1.0))]
        for kind, t, z in points:
            est = density_laplace(gauss if kind == "gaussian" else cauchy, model, t, z)
            ref = _talbot_mixture_reference(terms, kind, t, z)
            assert est.converged
            assert abs(est.value - ref) <= 1e-10 * ref
            assert abs(est.value - ref) <= est.error

    def test_deep_off_diagonal_is_flagged(self, gauss, cauchy, mix):
        est = density_laplace(gauss, mix, 1.0, 30.0)
        assert not est.converged
        # e^{w} E1(w) overflows on this contour: never a number, always flagged
        est = density_laplace(cauchy, mix, 1e-3, 3.0)
        assert not est.converged and est.error == math.inf

    def test_zero_is_not_converged(self, gauss, half, monkeypatch):
        # p(1, 1467.8) underflows to 0, which meets any relative tolerance
        # but is no answer: the contour flags it, and so does the
        # Gauss-Kronrod rule it falls through to, with or without a resolvent;
        # the saddle contour answers in log p
        contour = density_laplace(gauss, half, 1.0, 1467.8)
        assert contour.value == 0.0 and not contour.converged
        saddle = density_quadrature(gauss, half, 1.0, 1467.8)
        assert (saddle.value, saddle.method, saddle.converged) == (0.0, "saddle", True)
        assert -1e4 < saddle.log_value < -745.0
        _saddle_flags_all(monkeypatch)
        quad = density_quadrature(gauss, half, 1.0, np.array([0.5, 1467.8]))
        assert quad[0].converged and quad[0].method == "laplace"
        assert (quad[1].value, quad[1].method, quad[1].converged) == (0.0, "quad", False)
        monkeypatch.setattr(ExactGaussian, "resolvent", _no_resolvent)
        quad = density_quadrature(gauss, half, 1.0, 1467.8)
        assert (quad.value, quad.method, quad.converged) == (0.0, "quad", False)

    def test_unsupported_models(self, gauss, half):
        with pytest.raises(UnsupportedModelError):
            density_laplace(ExactGaussian(2), half, 1.0, 0.5)
        with pytest.raises(UnsupportedModelError):
            density_laplace(gauss, SubordinatorModel(cbf_from_scale(PowerLaw(2.0), 3.0)), 1.0, 0.5)
        with pytest.raises(DomainError):
            density_laplace(gauss, half, 0.0, 0.5)


# (t, z) off the diagonal for the saddle contour against the Gauss-Kronrod rule
SADDLE_POINTS = ((1.0, 10.0), (0.1, 10.0), (10.0, 30.0), (1.0, 30.0))


def _half_stable_log_reference(t, z, dps=30):
    """log p(t, z) for the 1-d Gaussian kernel under a 1/2-stable time
    change, at any depth: one mpmath integral of q(s, z) h_t(s) s over
    u = log(s/s*) around the peak s* of exp(-z**2/4s - s**2/4t), at
    (s*)**3 = t z**2 / 2, out to +-40 widths sigma = (1.5 (s*)**2 / t)**-0.5,
    with the exponent at u = 0 taken out."""
    with mpmath.workdps(dps):
        t, z = mpmath.mpf(t), mpmath.mpf(z)
        peak = mpmath.cbrt(t * z * z / 2)

        def log_f(u):
            s = peak * mpmath.exp(u)
            return (-mpmath.log(4 * mpmath.pi * s) / 2 - z * z / (4 * s) - s * s / (4 * t)
                    - mpmath.log(mpmath.pi * t) / 2 + mpmath.log(s))

        top = log_f(0)
        reach = 40 / mpmath.sqrt(1.5 * peak * peak / t)
        area = mpmath.quad(lambda u: mpmath.exp(log_f(u) - top), mpmath.linspace(-reach, reach, 41))
        return float(top + mpmath.log(area))


class TestSaddle:
    """The saddle contour, which takes the Gaussian z the hyperbola flags."""

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 0.9])
    def test_stable_against_kronrod(self, gauss, beta):
        model = SubordinatorModel(Stable(beta))
        for t, z in SADDLE_POINTS:
            saddle, = solution._saddle_row(gauss, model, t, np.array([z]))
            quad, = solution._kronrod_row(gauss, model, t, np.array([z]))
            assert quad.converged
            assert saddle.value == pytest.approx(quad.value, rel=1e-12, abs=0.0), (t, z)
            assert abs(saddle.value - quad.value) <= saddle.error + quad.error, (t, z)

    @pytest.mark.parametrize("terms", MIXTURES)
    def test_mixtures_against_kronrod(self, gauss, terms):
        # one Gauss-Kronrod pass per t; a p below the smallest normal float
        # is flagged there, and checked against the saddle in its own test
        model = SubordinatorModel(StableMixture(terms))
        for t, zs in ((1.0, [10.0, 30.0, 100.0]), (0.1, [30.0]), (100.0, [30.0, 100.0, 300.0])):
            row = np.array(zs)
            saddle = solution._saddle_row(gauss, model, t, row)
            for z, est, quad in zip(zs, saddle, solution._kronrod_row(gauss, model, t, row)):
                assert est.converged, (t, z)
                if quad.value >= np.finfo(float).tiny:
                    assert quad.converged
                    assert est.value == pytest.approx(quad.value, rel=1e-12, abs=0.0), (t, z)
                    assert abs(est.value - quad.value) <= est.error + quad.error, (t, z)

    def test_subnormal_kronrod_is_flagged(self, gauss, monkeypatch):
        # p(1, 100) = 2.4655e-309 is subnormal: the Gauss-Kronrod rule comes
        # within its absolute floor but 3.7% off, so it is flagged
        model = SubordinatorModel(StableMixture(MIXTURES[2]))
        saddle = density_quadrature(gauss, model, 1.0, 100.0)
        assert saddle.method == "saddle" and saddle.converged
        assert saddle.value == pytest.approx(2.4655e-309, rel=1e-4)
        assert saddle.log_value == pytest.approx(math.log(2.4655e-309), abs=1e-4)
        _saddle_flags_all(monkeypatch)
        quad = density_quadrature(gauss, model, 1.0, 100.0)
        assert quad.method == "quad" and not quad.converged
        assert 0.0 < quad.value < np.finfo(float).tiny

    @pytest.mark.parametrize("t, z, log_p", [(0.01, 464.1588833612782, -7883.566554597685),
                                             (1.0, 1e4, -101794.73688375616)])
    def test_log_p_against_mpmath(self, gauss, half, t, z, log_p):
        assert _half_stable_log_reference(t, z) == pytest.approx(log_p, rel=1e-15)
        est = density_quadrature(gauss, half, t, z)
        assert (est.value, est.method, est.converged) == (0.0, "saddle", True)
        assert est.log_value == pytest.approx(log_p, rel=1e-13)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 0.9])
    def test_near_diagonal_is_flagged_not_wrong(self, gauss, beta):
        # near the diagonal the saddle nears the branch point at 0: each z
        # is flagged or within its stated error of the hyperbola
        model = SubordinatorModel(Stable(beta))
        zs = np.array([0.05, 0.5, 1.0, 3.0])
        saddle = solution._saddle_row(gauss, model, 1.0, zs)
        for z, est, contour in zip(zs, saddle, density_laplace(gauss, model, 1.0, zs)):
            assert contour.converged
            assert abs(est.value - contour.value) <= est.error + contour.error, z
        assert not saddle[1].converged  # (1, 0.5)
        assert beta != 0.3 or not saddle[3].converged  # (1, 3)

    def test_zero_never_reaches_the_saddle(self, gauss, half, monkeypatch):
        assert solution._saddle_row(gauss, half, 1.0, np.array([0.0, 30.0]))[0] is None
        monkeypatch.setattr(ExactGaussian, "resolvent", _no_resolvent)
        row = density_quadrature(gauss, half, 1.0, np.array([0.0, 30.0]))
        assert [est.method for est in row] == ["quad", "saddle"]
        assert all(est.converged for est in row)

    def test_saddle_out_of_float_range_is_flagged(self, gauss, half, mix):
        # past z ~ 1e200 lam* leaves [1e-300, 1e300]: no number, never an error
        zs = np.array([30.0, 1e200])
        assert solution._saddle_row(gauss, mix, 1.0, zs) == [None, None]
        near, far = solution._saddle_row(gauss, half, 1.0, np.array([30.0, 1e250]))
        assert near.converged and not far.converged and far.error == math.inf

    def test_kernels_without_log_resolvent(self, cauchy, half):
        with pytest.raises(UnsupportedModelError):
            solution._saddle_row(cauchy, half, 1.0, np.array([30.0]))
        with pytest.raises(UnsupportedModelError):
            solution._saddle_row(ExactGaussian(2), half, 1.0, np.array([30.0]))

    def test_log_value_stays_out_of_the_repr(self, gauss, half):
        est = density_quadrature(gauss, half, 1.0, 30.0)
        assert est.log_value is not None and "log_value" not in repr(est)
        assert repr(est) == repr(SolutionEstimate(est.value, est.error, est.method, est.converged))


class TestMonteCarlo:
    def test_matches_oracle(self, gauss, half):
        est = density_monte_carlo(gauss, half, 1.0, 0.0, 200_000, RngStream(77, 0))
        assert abs(est.value - P_ONE_ZERO) < 3.0 * est.error

    def test_matches_quadrature_cauchy(self, cauchy, half):
        quad = density_quadrature(cauchy, half, 1.0, 1.0).value
        est = density_monte_carlo(cauchy, half, 1.0, 1.0, 200_000, RngStream(78, 0))
        assert abs(est.value - quad) < 3.0 * est.error

    def test_error_shrinks_like_sqrt_n(self, gauss, half):
        small = density_monte_carlo(gauss, half, 1.0, 1.0, 1_000, RngStream(79, 0))
        large = density_monte_carlo(gauss, half, 1.0, 1.0, 100_000, RngStream(79, 1))
        assert large.error < small.error / 5.0

    def test_deterministic(self, gauss, half):
        a = density_monte_carlo(gauss, half, 1.0, 0.5, 1_000, RngStream(80, 4))
        b = density_monte_carlo(gauss, half, 1.0, 0.5, 1_000, RngStream(80, 4))
        assert a.value == b.value

    def test_min_samples(self, gauss, half):
        with pytest.raises(DomainError):
            density_monte_carlo(gauss, half, 1.0, 0.0, 10, RngStream(0, 0))

    def test_row_matches_scalar_calls(self, gauss, cauchy, half):
        # one draw set per call: every z of a row, tilted or not, is bitwise
        # the scalar call on the same stream, wherever it sits in the row
        for kernel, zs, methods in (
                (gauss, [0.0, 0.5, 3.0, 30.0, 8.0], "mc mc mc mc-tilted mc"),
                (gauss, [40.0, 1.0, 30.0, 20.0], "mc-tilted mc mc-tilted mc-tilted"),
                (cauchy, [0.5, 3.0, 30.0, 8.0], "mc mc mc mc")):
            row = density_monte_carlo(kernel, half, 1.0, np.array(zs), 20_000, RngStream(81, 2))
            assert [est.method for est in row] == methods.split()
            for z, est in zip(zs, row):
                assert est == density_monte_carlo(kernel, half, 1.0, z, 20_000, RngStream(81, 2))

    def test_deep_row_is_tilted(self, gauss, half):
        # at (1, 30) p ~ 8.748e-21 rests on a handful of plain draws; the
        # tilted draws recover it within 4 stated standard errors
        ref = _half_stable_reference("gaussian", 1.0, 30.0)
        assert ref == pytest.approx(8.748e-21, rel=1e-3)
        est = density_monte_carlo(gauss, half, 1.0, 30.0, 100_000, RngStream(82, 0))
        assert est.method == "mc-tilted" and est.converged
        assert abs(est.value - ref) < 4.0 * est.error
        assert est.error < 0.02 * ref

    def test_shared_tilted_draws_stay_honest(self, gauss, half):
        # every tilted z of a row rejects from the same stable draws and
        # exponentials, which changes only their correlation: over 20
        # streams, no more estimates lie beyond 3, 4 and 5 stated standard
        # errors than draws of their own per z allow.  Tilted campaign rows
        # with their own draws lay beyond them 17, 3 and 0 times in 1945;
        # each bound is the count whose Poisson tail at 100 estimates is
        # about 1e-3 or less at those rates (under 1 in 1945 for 5)
        zs = np.array([25.0, 30.0, 40.0, 50.0, 60.0])
        refs = np.array([_half_stable_reference("gaussian", 1.0, z) for z in zs])
        gaps = []
        for index in range(20):
            row = density_monte_carlo(gauss, half, 1.0, zs, 20_000, RngStream(86, index))
            tilted = [(est, ref) for est, ref in zip(row, refs) if est.method == "mc-tilted"]
            assert len(tilted) >= 4
            gaps += [abs(est.value - ref) / est.error for est, ref in tilted]
        gaps = np.array(gaps)
        for k, most in ((3.0, 5), (4.0, 2), (5.0, 1)):
            assert np.sum(gaps > k) <= most, (k, np.sort(gaps)[-6:])

    def test_collapse_without_tilt_is_flagged(self, gauss, half, monkeypatch):
        # the plain estimate at (1, 30) has an effective sample size of a
        # few draws; with no tilted fallback it comes back flagged
        monkeypatch.setattr(solution, "_tilted", lambda *args: None)
        est = density_monte_carlo(gauss, half, 1.0, 30.0, 100_000, RngStream(82, 0))
        assert est.method == "mc" and not est.converged

    def test_collapsed_mixture_is_flagged(self, gauss, mix):
        est = density_monte_carlo(gauss, mix, 1.0, 10.0, 200, RngStream(0, 0))
        assert est.method == "mc" and not est.converged

    def test_tilted_rows_deterministic(self, gauss, half):
        zs = np.array([1.0, 20.0, 30.0, 40.0])
        a = density_monte_carlo(gauss, half, 2.0, zs, 20_000, RngStream(83, 5))
        b = density_monte_carlo(gauss, half, 2.0, zs, 20_000, RngStream(83, 5))
        assert [e.method for e in a].count("mc-tilted") == 3
        assert a == b

    def test_zero_sample_is_flagged(self, gauss, half):
        # q underflows at every plain draw; the tilted draws still reach it
        # or the row is flagged, never a converged zero
        est = density_monte_carlo(gauss, half, 1.0, 1e4, 1_000, RngStream(84, 0))
        assert est.converged == (est.value > 0.0)


SCALE_LAM = 2.0
SCALE_POINTS = ((0.3, 0.2), (1.0, 1.5), (2.0, 4.0), (0.5, 6.0))


def _scaled_pair(evaluate, alpha, beta):
    """(p(t, z), lam * p(lam**(alpha/beta) t, lam z)) estimates at each
    point: the two agree for a beta-stable time change of a 1-d kernel of
    time scale z**alpha, as E_(c t) = c**beta E_t in law."""
    for t, z in SCALE_POINTS:
        yield evaluate(t, z), evaluate(SCALE_LAM ** (alpha / beta) * t, SCALE_LAM * z)


def _assert_self_similar(base, scaled, slack=1e-14):
    """Within the stated errors, plus a rounding slack for the scaled t."""
    gap = abs(SCALE_LAM * scaled.value - base.value)
    assert gap <= SCALE_LAM * scaled.error + base.error + slack * abs(base.value), (base, scaled)


class TestSelfSimilarity:
    """p(lam**(alpha/beta) t, lam z) = lam**-1 p(t, z) for stable:beta and
    the Gaussian (alpha = 2) and Cauchy (alpha = 1) kernels, on every
    evaluator of p."""

    @pytest.mark.parametrize("beta", [0.5, 0.7])
    def test_kronrod(self, gauss, cauchy, beta, monkeypatch):
        model = SubordinatorModel(Stable(beta))
        _saddle_flags_all(monkeypatch)
        for kernel, alpha in ((gauss, 2), (cauchy, 1)):
            monkeypatch.setattr(type(kernel), "resolvent", _no_resolvent)
            for base, scaled in _scaled_pair(
                    lambda t, z: density_quadrature(kernel, model, t, z), alpha, beta):
                assert base.method == scaled.method == "quad"
                assert base.converged and scaled.converged
                _assert_self_similar(base, scaled)

    @pytest.mark.parametrize("beta", [0.5, 0.7])
    def test_contour(self, gauss, cauchy, beta):
        model = SubordinatorModel(Stable(beta))
        checked = 0
        for kernel, alpha in ((gauss, 2), (cauchy, 1)):
            for base, scaled in _scaled_pair(
                    lambda t, z: density_laplace(kernel, model, t, z), alpha, beta):
                if base.converged and scaled.converged:
                    _assert_self_similar(base, scaled)
                    checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("beta", [0.5, 0.7])
    def test_saddle(self, gauss, beta):
        # off the diagonal, in log p: log p(lam**(2/beta) t, lam z) = log p(t, z) - log lam
        model = SubordinatorModel(Stable(beta))
        for t, z in SADDLE_POINTS:
            base, scaled = (solution._saddle_row(gauss, model, tt, np.array([zz]))[0]
                            for tt, zz in ((t, z), (SCALE_LAM ** (2.0 / beta) * t, SCALE_LAM * z)))
            if base.converged and scaled.converged:
                gap = abs(scaled.log_value + math.log(SCALE_LAM) - base.log_value)
                assert gap <= (base.error / base.value + scaled.error / scaled.value
                               + 1e-14 * abs(base.log_value))

    @pytest.mark.parametrize("beta", [0.5, 0.7])
    def test_fourier(self, beta):
        for alpha in (1, 2):
            for base, scaled in _scaled_pair(
                    lambda t, z: _fourier((1.0, beta), alpha, t, z), alpha, beta):
                assert base.converged and scaled.converged
                _assert_self_similar(base, scaled)

    @pytest.mark.parametrize("beta", [0.5, 0.7])
    def test_monte_carlo(self, gauss, cauchy, beta):
        # the same stream scales every inverse-time draw by lam**alpha up
        # to rounding, so untilted estimates agree far inside their errors
        model = SubordinatorModel(Stable(beta))
        for kernel, alpha in ((gauss, 2), (cauchy, 1)):
            for base, scaled in _scaled_pair(
                    lambda t, z: density_monte_carlo(kernel, model, t, z, 20_000,
                                                     RngStream(85, 0)), alpha, beta):
                assert base.method == scaled.method == "mc"
                assert SCALE_LAM * scaled.value == pytest.approx(base.value, rel=1e-12)
                assert SCALE_LAM * scaled.error == pytest.approx(base.error, rel=1e-9)


class TestMittagLeffler:
    def test_identity_half(self):
        for x in np.linspace(0.0, 50.0, 101):
            assert mittag_leffler(0.5, float(x)) == pytest.approx(
                float(special.erfcx(x)), abs=1e-10, rel=1e-10)

    def test_at_zero(self):
        for beta in (0.1, 0.5, 0.9):
            assert mittag_leffler(beta, 0.0) == 1.0

    def test_named_values(self):
        assert mittag_leffler(0.5, 1.0) == pytest.approx(
            math.e * special.erfc(1.0), rel=1e-11)
        assert mittag_leffler(0.5, 100.0) == pytest.approx(
            float(special.erfcx(100.0)), rel=1e-9)

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.5, 2.0 / 3.0, 0.7, 0.99])
    def test_spectral_head_against_mpmath(self, beta):
        # the head coefficients beta sin(m pi (1 - beta)) gamma(beta m, v) of
        # the spectral integral, with v = _ML_HEAD**(1/beta)
        head = solution._ml_spectral_rule(beta)[3]
        m = np.arange(1, head.size + 1)
        sines = beta * np.sin(m * math.pi * (1.0 - beta))
        with mpmath.workdps(30):
            v = mpmath.mpf(solution._ML_HEAD ** (1.0 / beta))
            ref = sines * np.array([float(mpmath.gammainc(beta * k, 0, v)) for k in m.tolist()])
        assert np.all(np.abs(head - ref) <= 1e-14 * np.abs(ref))

    def test_asymptotic_coefficients_skip_the_poles(self):
        # 1/Gamma(1 - k/2) is exactly 0 at every even k, so only odd k remain
        k, coef = solution._ml_asymptotic_coeffs(0.5)
        assert np.array_equal(k, np.arange(1.0, 120.0, 2.0))
        with mpmath.workdps(30):
            ref = [float((-1) ** (j + 1) * mpmath.rgamma(1 - mpmath.mpf(j) / 2))
                   for j in k.tolist()]
        assert np.all(np.abs(coef - ref) <= 1e-14 * np.abs(ref))

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_branch_overlap(self, beta):
        from fracheat.solution import _ml_asymptotic, _ml_integral, _ml_series
        assert abs(_ml_series(beta, 1.0) - _ml_integral(beta, 1.0)) < 1e-10
        assert abs(_ml_integral(beta, 50.0) - _ml_asymptotic(beta, 50.0)) < 1e-10

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    def test_against_mpmath(self, beta):
        # on this grid the scalar QUADPACK path this evaluator replaced was
        # off by 2.0e-15, 2.2e-16, 8.9e-16 and 5.0e-14 at the four orders
        xs = np.geomspace(1e-3, 1e3, 31)
        ref = np.array([_ml_reference(beta, x) for x in xs])
        got = mittag_leffler(beta, xs)
        assert got.shape == xs.shape
        assert np.max(np.abs(got / ref - 1.0)) <= 2e-15

    def test_array_matches_scalar(self):
        xs = np.array([[0.0, 0.5, 1.0], [1.5, 49.0, 50.0], [80.0, 1e3, 1e6]])
        got = mittag_leffler(0.7, xs)
        assert got.shape == (3, 3)
        for x, v in zip(xs.ravel(), got.ravel()):
            assert v == pytest.approx(mittag_leffler(0.7, float(x)), rel=1e-15)
        assert isinstance(mittag_leffler(0.7, 2.0), float)

    def test_monotone_decreasing(self):
        xs = np.geomspace(0.01, 200.0, 60)
        vals = [mittag_leffler(0.35, float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler(1.0, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, -1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, np.array([1.0, np.nan]))


class TestFourierOracle:
    def test_frozen_oracle(self):
        assert density_fourier(0.5, 2, 1.0, 0.0) == pytest.approx(P_ONE_ZERO, abs=1e-7)

    def test_against_quadrature(self, gauss, cauchy):
        for beta in (0.3, 0.5, 0.7):
            model = SubordinatorModel(Stable(beta))
            for alpha, kernel in ((2, gauss), (1, cauchy)):
                for t in (0.1, 1.0, 10.0):
                    for z in (0.0, 1.0, 10.0):
                        if z == 0.0 and alpha == 1:
                            continue
                        pq = density_quadrature(kernel, model, t, z).value
                        pf = density_fourier(beta, alpha, t, z)
                        assert abs(pq - pf) <= max(2e-4 * pq, 1e-7), \
                            f"beta={beta} alpha={alpha} t={t} z={z}"

    def test_error_is_honest(self):
        # beta = 1/2, against the closed form at z = 0 and the QUADPACK
        # reference on a 10 x 10 grid, for both spatial orders; every point
        # is converged, and so within the stated relative tolerance 1e-5
        for t in (0.1, 1.0, 10.0):
            est = _fourier((1.0, 0.5), 2, t, 0.0)
            value, err = est.value, est.error
            assert abs(value - P_ONE_ZERO * t ** -0.25) <= err
            assert est.converged and err <= 1e-5 * abs(value)
        for alpha, kind in ((2, "gaussian"), (1, "cauchy")):
            for t in np.geomspace(0.1, 10.0, 10):
                for z in np.geomspace(0.1, 2.0, 10):
                    est = _fourier((1.0, 0.5), alpha, t, z)
                    value, err = est.value, est.error
                    ref = _half_stable_reference(kind, t, z)
                    assert abs(value - ref) <= err, f"alpha={alpha} t={t} z={z}"
                    assert err <= 1e-5 * ref
                    assert est.converged and err <= 1e-5 * abs(value)

    def test_far_point_is_flagged(self):
        # the diffusion campaign's corner t = 0.01, z = 9.487: p = 2.77e-20,
        # far below the head's absolute floor, so the value is off by a
        # factor of about 3e4; its stated error covers that, but is no
        # relative answer
        est = _fourier((1.0, 0.5), 2, 0.01, 9.487)
        assert abs(est.value - 2.77e-20) <= est.error
        assert est.error > solution._FOURIER_REL_TOL * abs(est.value)
        assert not est.converged

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_table_matches_mittag_leffler(self, beta):
        # x from 0 to 1e12: both ends of the table, e**-40 and e**20, and
        # the branch switch points of mittag_leffler at 1 and 50
        edges = [0.0, math.exp(solution._ML_TABLE_LO), math.exp(solution._ML_TABLE_HI), 1.0, 50.0]
        x = np.concatenate([np.geomspace(1e-30, 1e12, 3000),
                            np.random.default_rng(5).uniform(0.0, 60.0, 1000),
                            *([e, np.nextafter(e, 0.0), np.nextafter(e, np.inf)] for e in edges)])
        got, ref = solution._ml_tabulated(beta, x), mittag_leffler(beta, x)
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)

    def test_error_counts_the_table(self, monkeypatch):
        # at z = 0, xi_end = (60 / t**beta)**(1/alpha): the stated error
        # carries the table's error times xi_end, over pi
        est = _fourier((1.0, 0.5), 2, 1.0, 0.0)
        table = solution._ml_table(0.5)
        assert est.converged and est.error >= table.error[0] * math.sqrt(60.0) / math.pi
        worse = dataclasses.replace(table, error=table.error + 1e-6)
        monkeypatch.setattr(solution, "_ml_table", lambda beta: worse)
        shifted = _fourier((1.0, 0.5), 2, 1.0, 0.0)
        assert shifted.value == est.value
        assert shifted.error - est.error == pytest.approx(1e-6 * math.sqrt(60.0) / math.pi, rel=1e-6)

    @pytest.mark.parametrize("beta, t", [(0.5, 1e-4), (0.9, 1e-4), (0.9, 0.01), (0.99, 0.01),
                                         (0.99, 0.1), (0.999, 0.01), (0.999, 0.1)])
    def test_on_diagonal_tail_stays_finite(self, gauss, beta, t):
        # here a coefficient times t**(-beta k) overflows and xi_end**(1 - 2k)
        # underflows: each z = 0 tail term is finite as (t**beta xi_end**2)**-k xi_end
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = _fourier((1.0, beta), 2, t, 0.0)
        ref = density_quadrature(gauss, SubordinatorModel(Stable(beta)), t, 0.0)
        assert est.converged and ref.converged
        assert abs(est.value - ref.value) <= est.error + ref.error

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_one_part_weight(self, gauss, cauchy, alpha):
        # phi = 2 lam**(1/2): E_t = (t/X)**(1/2) / 2, so t**(1/2) / 2 replaces
        # t**(1/2) in the Mittag-Leffler argument
        kernel, model = (cauchy, gauss)[alpha - 1], SubordinatorModel(StableMixture(((2.0, 0.5),)))
        for t, z in ((1.0, 0.7), (0.1, 0.0), (10.0, 3.0)):
            if z == 0.0 and alpha == 1:
                continue
            est, ref = _fourier((2.0, 0.5), alpha, t, z), density_quadrature(kernel, model, t, z)
            assert est.converged and ref.converged
            assert abs(est.value - ref.value) <= est.error + ref.error, f"t={t} z={z}"

    def test_classical_limit(self, gauss):
        got = density_fourier(0.999, 2, 1.0, 0.0)
        assert got == pytest.approx((4.0 * math.pi) ** -0.5, rel=0.01)

    def test_on_diagonal_cauchy_diverges(self):
        with pytest.raises(DomainError):
            density_fourier(0.5, 1, 1.0, 0.0)


class TestMass:
    def test_spot(self, gauss, half):
        assert mass_residual(gauss, half, 1.0) < 1e-6

    def test_mixture(self, cauchy, mix):
        assert mass_residual(cauchy, mix, 1.0) < 1e-6

    def test_no_quadpack(self, gauss, half, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.integrate.quad called")
        monkeypatch.setattr(integrate, "quad", refuse)
        assert mass_residual(gauss, half, 0.1) < 1e-10

    def test_no_quadpack_anywhere(self, half, monkeypatch, capsys):
        # the identities, the constructed exponent, the kinked near-diagonal
        # integral and the selftest oracle all take the Gauss-Kronrod rule
        from fracheat import (EstimateModel, PiecewisePower, PowerLaw, Stable, cbf_from_scale,
                              integrated_tail_identities)
        from fracheat.cli import run_cli

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.integrate.quad called")
        monkeypatch.setattr(integrate, "quad", refuse)
        assert integrated_tail_identities(half, 1.0).total_residual < 1e-10
        assert cbf_from_scale(PowerLaw(2.0), 3.0).phi(1.0) == pytest.approx(
            2.0 * math.pi / math.sqrt(3.0), rel=1e-12)
        emodel = EstimateModel(Stable(0.5), PiecewisePower(2.0, 3.0, 1.0), PowerLaw(1.0), "jump")
        assert emodel.estimate(1.0, 0.5).value > 0.0
        assert run_cli(["selftest"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_needs_exact_kernel(self, half):
        from fracheat import JumpSurrogate, PowerLaw
        with pytest.raises(DomainError):
            mass_residual(JumpSurrogate(PowerLaw(1.0), PowerLaw(1.0)), half, 1.0)


class TestWeakForm:
    def test_residual_small_grid(self):
        f = GaussianBump()
        g = GaussianBump()
        rep = caputo_weak_residual(0.5, f, g, np.linspace(0.3, 1.5, 3),
                                   np.linspace(-8.0, 8.0, 129))
        assert rep.residual < 0.02
        assert rep.initial_error < 1e-6
        assert rep.generator_error < 1e-12

    def test_disjoint_supports(self):
        f = GaussianBump(center=20.0)
        g = GaussianBump(center=-20.0)
        rep = caputo_weak_residual(0.5, f, g, np.array([0.2, 0.4]),
                                   np.linspace(-28.0, 28.0, 161))
        for _, lhs, rhs in rep.rows:
            assert abs(lhs) < 1e-8 and abs(rhs) < 1e-8

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_exact_residual(self, beta):
        bump = GaussianBump()
        rep = caputo_weak_residual(beta, bump, bump, np.array([0.3, 1.0, 1.7]),
                                   np.linspace(-8.0, 8.0, 257))
        assert rep.residual <= 1e-8
        assert rep.generator_error <= 1e-12

    def test_wrong_generator_is_caught(self):
        class FastBump(GaussianBump):
            """A heat evolution that runs 0.1% fast: T_{1.001 r}."""

            def heat_evolution(self, r, x):
                return super().heat_evolution(1.001 * np.asarray(r, dtype=float), x)

        bump = FastBump()
        rep = caputo_weak_residual(0.5, bump, bump, np.array([0.3, 1.0, 1.7]),
                                   np.linspace(-8.0, 8.0, 257))
        # the time change still solves the identity for this semigroup's G2;
        # only d/dr G = G2 fails
        assert rep.residual <= 1e-8
        assert rep.generator_error >= 1e-4

    @staticmethod
    def _right_side_oracle(beta, t):
        """int g'' u(t, .) dx for f = g = exp(-x**2) from the Mittag-Leffler
        function alone: G'(r) = -1/2 int lam**(1/2) e**(-lam/2) e**(-lam r) dlam
        and E[e**(-lam E_t)] = E_beta(-lam t**beta); lam = mu**2 here."""
        val, _ = integrate.quad(
            lambda mu: mu * mu * math.exp(-0.5 * mu * mu) * mittag_leffler(beta, mu * mu * t ** beta),
            0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        return -val

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.95, 0.99])
    def test_right_side_matches_mittag_leffler(self, beta):
        bump = GaussianBump()
        rep = caputo_weak_residual(beta, bump, bump, np.array([0.3, 1.0]),
                                   np.linspace(-8.0, 8.0, 257))
        for t, _, rhs in rep.rows:
            assert rhs == pytest.approx(self._right_side_oracle(beta, t), rel=1e-10)
        assert rep.converged and rep.quad_error < 1e-9

    @pytest.mark.parametrize("beta", [0.9, 0.99])
    def test_initial_error_as_order_nears_one(self, beta):
        bump = GaussianBump()
        rep = caputo_weak_residual(beta, bump, bump, np.array([0.3]),
                                   np.linspace(-8.0, 8.0, 257))
        assert rep.initial_error <= 1e-12

    def test_heat_evolution_closed_form(self):
        bump = GaussianBump(center=1.0, width=2.0, amplitude=0.5)
        xs = np.linspace(-3.0, 5.0, 7)
        r = 0.7
        w2 = 4.0 + 4.0 * r
        ref = 0.5 * 2.0 / math.sqrt(w2) * np.exp(-(xs - 1.0) ** 2 / w2)
        assert np.allclose(bump.heat_evolution(r, xs), ref, rtol=1e-13)

    def test_bump_second_derivative(self):
        bump = GaussianBump()
        xs = np.linspace(-2.0, 2.0, 9)
        h = 1e-5
        fd = (bump(xs + h) - 2.0 * bump(xs) + bump(xs - h)) / h ** 2
        assert np.allclose(bump.second_derivative(xs), fd, atol=1e-5)


class TestChebyshevTable:
    @pytest.mark.parametrize("f, gs, x", [
        (GaussianBump(), (GaussianBump(), GaussianBump().second_derivative),
         np.linspace(-8.0, 8.0, 257)),
        (GaussianBump(center=20.0),
         (GaussianBump(center=-20.0), GaussianBump(center=-20.0).second_derivative),
         np.linspace(-28.0, 28.0, 161)),
        (GaussianBump(), (lambda x: 1.0 / np.cosh(x),), np.linspace(-8.0, 8.0, 257)),
    ], ids=["centred", "disjoint", "sech"])
    def test_within_stated_error(self, f, gs, x):
        def direct(y):
            """G(e**y) = int g T_r f dx for each g, by scipy's Simpson rule."""
            profiles = f.heat_evolution(np.exp(y)[:, None], x)
            return np.stack([integrate.simpson(g(x) * profiles, x=x) for g in gs])

        lo, hi = -45.0, 8.0
        table = chebyshev_table(direct, lo, hi, 1e-14)
        y = np.random.default_rng(11).uniform(lo, hi, 2000)
        ref = direct(y)
        assert table.converged
        for row in range(len(gs)):
            assert np.abs(table(y, row) - ref[row]).max() <= table.error[row]
            assert table.error[row] <= 1e-12 * table.peak[row]


class TestWeakFormTable:
    @staticmethod
    def _direct_rows(beta, bump, t, x_grid):
        """(lhs, rhs) at t with G2 evaluated directly at every Gauss-Kronrod
        node of the 64 memory rows and the right side."""
        model = SubordinatorModel(Stable(beta))
        wg2 = solution._simpson_weights(x_grid) * bump.second_derivative(x_grid)

        def g2(r):
            flat = r.ravel()
            return np.concatenate([bump.heat_evolution(flat[i:i + 64, None], x_grid) @ wg2
                                   for i in range(0, flat.size, 64)]).reshape(r.shape)

        nodes, gl_weights = np.polynomial.legendre.leggauss(solution._WEAK_NODES)
        v, v_weights = 0.5 * (nodes + 1.0), 0.5 * gl_weights
        below, above = 0.5 * t * v ** (1.0 / beta), t - 0.5 * t * v ** (1.0 / (1.0 - beta))
        s = np.concatenate([below, above])
        total, _, _ = solution._self_similar_rows(model, lambda y: np.vstack([
            g2(s[:, None] ** beta * np.exp(y)) * np.exp(y), g2(t ** beta * np.exp(y))]))
        # w(t-s) F'(s) ds with F'(s) = beta s**(beta-1) E[E_1 G2(s**beta E_1)]:
        # (t/2)**beta w(t-s) dv below t/2, (t/2)**(1-beta) beta s**(beta-1) dv/(1-beta) above
        gam = math.gamma(1.0 - beta)
        weights = np.concatenate([
            (0.5 * t) ** beta * (t - below) ** -beta / gam,
            (0.5 * t) ** (1.0 - beta) * beta * above ** (beta - 1.0) / ((1.0 - beta) * gam)])
        return (weights * np.tile(v_weights, 2)) @ total[:-1], total[-1]

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    def test_rows_match_direct_evaluation(self, beta):
        bump = GaussianBump()
        x_grid = np.linspace(-8.0, 8.0, 257)
        rep = caputo_weak_residual(beta, bump, bump, np.array([0.3, 1.7]), x_grid)
        for t, lhs, rhs in rep.rows:
            ref_lhs, ref_rhs = self._direct_rows(beta, bump, t, x_grid)
            assert rhs == pytest.approx(ref_rhs, rel=1e-14)
            assert lhs == pytest.approx(ref_lhs, rel=1e-11)
        assert rep.converged and rep.table_error < 1e-13

    def test_profile_count(self, monkeypatch):
        seen = []
        heat = GaussianBump.heat_evolution

        def counting(self, r, x):
            seen.append(np.size(r))
            return heat(self, r, x)

        monkeypatch.setattr(GaussianBump, "heat_evolution", counting)
        bump = GaussianBump()
        rep = caputo_weak_residual(0.5, bump, bump, np.linspace(0.2, 2.0, 10),
                                   np.linspace(-8.0, 8.0, 257))
        assert rep.n_profiles == sum(seen) <= 2000

    def test_unmet_table_tolerance_is_flagged(self, monkeypatch):
        from fracheat import numerics
        # one panel over the whole range in log r, which bisection may not split
        monkeypatch.setattr(numerics, "_CHEB_WIDTH", 100.0)
        monkeypatch.setattr(numerics, "_CHEB_MIN_WIDTH", 100.0)
        bump = GaussianBump()
        rep = caputo_weak_residual(0.5, bump, bump, np.array([1.0]),
                                   np.linspace(-8.0, 8.0, 257))
        assert not rep.converged
        assert rep.table_error > 1e-8
        assert rep.quad_error >= rep.table_error


def test_quadrature_tolerances():
    from fracheat import numerics
    assert (numerics.REL_TOL, numerics.ABS_FLOOR) == (1e-10, 1e-300)


def test_tolerances_are_not_settable():
    # the tolerances are module constants, and the d-set shapes are
    # EstimateModel's: no model field, argument or export sets or repeats them
    import dataclasses
    import inspect

    import fracheat
    from fracheat import ConstructedCBF
    assert [f.name for f in dataclasses.fields(SubordinatorModel)] == ["exponent"]
    assert [f.name for f in dataclasses.fields(ConstructedCBF)] == ["scale", "alpha3"]
    assert "tol" not in inspect.signature(SubordinatorModel.sample_inverse).parameters
    for name in ("QuadratureConfig", "dset_estimate", "PowerLawEstimate"):
        assert not hasattr(fracheat, name)
