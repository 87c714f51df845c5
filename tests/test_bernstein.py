"""Laplace exponent models: closed-form values, inverses, fitted constants."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracheat import (DomainError, PiecewisePower, PowerLaw, Stable,
                      StableMixture, UnsupportedModelError, cbf_from_scale,
                      parse_exponent, scaling_report)


class TestStable:
    def test_phi_values(self):
        s = Stable(0.5)
        assert s.phi(4.0) == pytest.approx(2.0, rel=1e-14)
        assert s.phi(1.0) == 1.0

    def test_phi_prime(self):
        s = Stable(0.5)
        assert s.phi_prime(4.0) == pytest.approx(0.25, rel=1e-14)
        assert s.phi_prime(1.0) == pytest.approx(0.5, rel=1e-14)

    def test_inverses(self):
        s = Stable(0.5)
        assert s.phi_inverse(2.0) == pytest.approx(4.0, rel=1e-11)
        assert s.phi_prime_inverse(0.25) == pytest.approx(4.0, rel=1e-11)

    def test_power_ratio(self):
        s = Stable(0.5)
        assert s.power_ratio(2.0, 4.0) == pytest.approx(8.0, rel=1e-14)
        assert s.power_ratio_inverse(2.0, 8.0) == pytest.approx(4.0, rel=1e-11)

    def test_levy_tail(self):
        s = Stable(0.5)
        assert s.levy_tail(1.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
        assert s.integrated_tail(1.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)
        assert s.integrated_tail(0.0) == 0.0

    def test_bad_index(self):
        for b in (0.0, 1.0, -0.1):
            with pytest.raises(DomainError):
                Stable(b)


class TestMixture:
    def test_values(self):
        m = StableMixture(((1.0, 0.3), (1.0, 0.7)))
        assert m.phi(1.0) == pytest.approx(2.0, rel=1e-14)
        assert m.phi_prime(1.0) == pytest.approx(1.0, rel=1e-14)
        assert m.beta_lo == 0.3 and m.beta_hi == 0.7

    def test_tails_are_weighted_sums(self):
        m = StableMixture(((2.0, 0.3), (1.0, 0.7)))
        s = 1.7
        expected = (2.0 * s ** -0.3 / math.gamma(0.7)
                    + s ** -0.7 / math.gamma(0.3))
        assert m.levy_tail(s) == pytest.approx(expected, rel=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            StableMixture(())
        with pytest.raises(DomainError):
            StableMixture(((0.0, 0.5),))
        with pytest.raises(DomainError):
            StableMixture(((1.0, 1.5),))


class TestScalingReport:
    def test_stable_c_star_exact(self):
        rep = scaling_report(Stable(0.5))
        assert rep.passed
        assert rep.c_star == pytest.approx(2.0, rel=1e-9)
        assert rep.lower_defect >= -1e-9

    def test_kappa_one_ratio(self):
        s = Stable(0.37)
        lam = 3.21
        assert s.phi(1.0 * lam) / s.phi(lam) == 1.0

    def test_mixture_bounded_by_worst_index(self):
        rep = scaling_report(StableMixture(((1.0, 0.3), (1.0, 0.7))),
                             lams=np.geomspace(1e-6, 1e6, 49))
        assert rep.passed
        assert rep.c_star <= 1.0 / 0.3 + 1e-9

    def test_three_mixtures_pass(self):
        for terms in (((1.0, 0.3), (1.0, 0.7)),
                      ((2.0, 0.2), (1.0, 0.5)),
                      ((1.0, 0.4), (3.0, 0.6))):
            rep = scaling_report(StableMixture(terms))
            assert rep.passed and np.isfinite(rep.c_star)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            scaling_report(Stable(0.5), lams=[], kappas=[2.0])


@pytest.fixture(scope="module")
def cbf():
    return cbf_from_scale(PowerLaw(2.0), 3.0)


class TestConstructed:

    def test_product_bounded(self, cbf):
        # for Phi = r**2 and alpha3 = 3 the product is analytically constant
        rs = np.geomspace(1e-3, 1e3, 25)
        prods = np.array([rs_ ** 2 * cbf.phi(rs_ ** -3.0) for rs_ in rs])
        assert prods.max() / prods.min() < 1.0 + 1e-9

    def test_closed_form_value(self, cbf):
        # the defining integral evaluates to (pi / sin(2 pi/3)) * lam**(2/3)
        target = 2.0 * math.pi / math.sqrt(3.0)
        assert cbf.phi(1.0) == pytest.approx(target, rel=1e-10)

    def test_vanishes_at_origin(self, cbf):
        assert cbf.phi(1e-12) < 1e-6

    def test_indices(self, cbf):
        assert cbf.beta_lo == pytest.approx(2.0 / 3.0)
        assert cbf.beta_hi == pytest.approx(2.0 / 3.0)

    def test_scaling_indices_fitted(self, cbf):
        lams = np.geomspace(1e-4, 1e4, 9)
        phis = np.array([cbf.phi(l) for l in lams])
        slopes = np.diff(np.log(phis)) / np.diff(np.log(lams))
        assert np.all(np.abs(slopes - 2.0 / 3.0) < 0.05)

    def test_complete_monotonicity_spotcheck(self, cbf):
        # (-1)^n differences of phi(lam)/lam alternate for n <= 3
        lams = np.linspace(1.0, 3.0, 6)
        vals = np.array([cbf.phi(l) / l for l in lams])
        d1 = np.diff(vals)
        d2 = np.diff(d1)
        d3 = np.diff(d2)
        assert np.all(d1 <= 0.0)
        assert np.all(d2 >= 0.0)
        assert np.all(d3 <= 1e-12)

    def test_alpha3_must_exceed_upper_index(self):
        with pytest.raises(DomainError):
            cbf_from_scale(PowerLaw(2.0), 2.0)

    def test_no_levy_tail(self, cbf):
        with pytest.raises(UnsupportedModelError):
            cbf.levy_tail(1.0)

    def test_derivative_consistent(self, cbf):
        # d/dlam of c lam**(2/3) is (2/3) c lam**(-1/3)
        target = (2.0 / 3.0) * 2.0 * math.pi / math.sqrt(3.0)
        assert cbf.phi_prime(1.0) == pytest.approx(target, rel=1e-5)


def test_constructed_closed_form_everywhere(cbf):
    # phi(lam) = (pi / sin(2 pi/3)) lam**(2/3), and its difference quotient
    # sees one rule, as the panels in w do not move with lam
    c = math.pi / math.sin(2.0 * math.pi / 3.0)
    for lam in np.geomspace(1e-6, 1e6, 25):
        assert cbf.phi(lam) == pytest.approx(c * lam ** (2.0 / 3.0), rel=1e-12)
        assert cbf.phi_prime(lam) == pytest.approx(
            2.0 / 3.0 * c * lam ** (-1.0 / 3.0), rel=1e-8)


def test_constructed_piecewise_against_mpmath():
    # Phi = power2:1.5,2.5,1 has a kink at u = 1; mpmath splits there and
    # at lam u**3 = 1
    scale = PiecewisePower(1.5, 2.5, 1.0)
    cbf = cbf_from_scale(scale, 3.0)
    mpmath.mp.dps = 30
    try:
        for lam in (1e-6, 0.03, 1.0, 50.0, 1e6):
            lam_mp = mpmath.mpf(lam)

            def integrand(u):
                phi = u ** 1.5 if u <= 1 else u ** 2.5
                return 3 * lam_mp * u ** 3 / ((lam_mp * u ** 3 + 1) * u * phi)

            split = sorted({mpmath.mpf(1), lam_mp ** (-mpmath.mpf(1) / 3)})
            ref = mpmath.quad(integrand, [0, *split, mpmath.inf])
            assert cbf.phi(lam) == pytest.approx(float(ref), rel=1e-10)
    finally:
        mpmath.mp.dps = 15


class TestParse:
    def test_stable(self):
        e = parse_exponent("stable:0.5")
        assert isinstance(e, Stable) and e.beta == 0.5

    def test_mixture(self):
        e = parse_exponent("mixture:1,0.3;1,0.7")
        assert isinstance(e, StableMixture)
        assert e.terms == ((1.0, 0.3), (1.0, 0.7))

    def test_unknown(self):
        with pytest.raises(DomainError):
            parse_exponent("tempered:0.5")


@given(beta=st.floats(0.05, 0.95), lam=st.floats(1e-6, 1e6))
def test_phi_inverse_round_trip(beta, lam):
    s = Stable(beta)
    assert s.phi_inverse(s.phi(lam)) == pytest.approx(lam, rel=1e-10)


@given(beta=st.floats(0.05, 0.95), alpha=st.floats(1.0, 4.0),
       lam=st.floats(1e-4, 1e4))
def test_power_ratio_round_trip(beta, alpha, lam):
    if alpha <= beta:
        return
    s = Stable(beta)
    y = s.power_ratio(alpha, lam)
    assert s.power_ratio_inverse(alpha, y) == pytest.approx(lam, rel=1e-10)


@given(l1=st.floats(1e-5, 1e5), l2=st.floats(1e-5, 1e5))
def test_monotone_and_concave(l1, l2):
    m = StableMixture(((1.0, 0.3), (2.0, 0.6)))
    lo, hi = sorted((l1, l2))
    # a few ulps apart phi may round to the same double
    assert m.phi(lo) <= m.phi(hi)
    if hi > lo * (1.0 + 1e-12):
        assert m.phi(lo) < m.phi(hi)
    if hi <= lo * (1.0 + 1e-6):
        return  # below this gap rounding noise swamps the divided difference
    mid = math.sqrt(lo * hi)
    # concavity: second divided difference is non-positive
    dd = ((m.phi(hi) - m.phi(mid)) / (hi - mid)
          - (m.phi(mid) - m.phi(lo)) / (mid - lo))
    assert dd <= 1e-9 * abs(m.phi(mid))
