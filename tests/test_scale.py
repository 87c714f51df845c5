"""Scale/volume profiles and the implicit solvers m(t, r), n(t, r)."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracheat import (DomainError, PiecewisePower, PowerLaw, Stable,
                      StableMixture, parse_profile, subgaussian_exponent,
                      subordinated_exponent)
from fracheat.numerics import monotone_root


class TestProfiles:
    def test_power_law(self):
        p = PowerLaw(2.0)
        assert p.value(3.0) == 9.0
        assert p.inverse(9.0) == 3.0
        assert p.value(0.0) == 0.0

    def test_piecewise_glued(self):
        p = PiecewisePower(2.0, 3.0, 1.0)
        assert p.value(2.0) == pytest.approx(8.0, rel=1e-14)
        assert p.value(0.5) == pytest.approx(0.25, rel=1e-14)
        # continuity at the break
        assert p.value(1.0 - 1e-12) == pytest.approx(p.value(1.0 + 1e-12), rel=1e-9)

    def test_piecewise_volume_example(self):
        v = PiecewisePower(1.0, 2.0, 1.0)
        assert v.value(4.0) == pytest.approx(16.0, rel=1e-14)
        assert v.value(0.5) == pytest.approx(0.5, rel=1e-14)

    def test_inverse_round_trip(self):
        p = PiecewisePower(1.5, 2.5, 2.0)
        for r in (0.1, 1.0, 2.0, 5.0, 100.0):
            assert p.inverse(p.value(r)) == pytest.approx(r, rel=1e-12)

    def test_parse(self):
        assert isinstance(parse_profile("power:2"), PowerLaw)
        pp = parse_profile("power2:2,3,1.0")
        assert isinstance(pp, PiecewisePower) and pp.r_break == 1.0
        with pytest.raises(DomainError):
            parse_profile("exp:1")

    @pytest.mark.parametrize("make", [lambda v: PowerLaw(v), lambda v: PiecewisePower(v, 2.0, 1.0),
                                      lambda v: PiecewisePower(1.0, v, 1.0),
                                      lambda v: PiecewisePower(1.0, 2.0, v)])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_profile_parameters_finite_positive(self, make, value):
        with pytest.raises(DomainError, match="finite and positive"):
            make(value)

    @pytest.mark.parametrize("profile", [PowerLaw(2.0), PiecewisePower(1.5, 2.5, 1.0)])
    def test_empty_arrays(self, profile):
        empty = np.array([])
        for got in (profile.value(empty), profile.inverse(empty),
                    subgaussian_exponent(profile, 1.0, empty),
                    subordinated_exponent(profile, Stable(0.5), 1.0, empty)):
            assert isinstance(got, np.ndarray) and got.shape == (0,)

    @pytest.mark.parametrize("profile", [PowerLaw(2.0), PiecewisePower(1.5, 2.5, 1.0)])
    def test_negative_in_array_refused(self, profile):
        with pytest.raises(DomainError):
            profile.value(np.array([1.0, -1.0]))
        with pytest.raises(DomainError):
            profile.inverse(np.array([1.0, -1.0]))
        with pytest.raises(DomainError):
            subordinated_exponent(profile, Stable(0.5), 1.0, np.array([1.0, 0.0]))


class TestSubgaussianExponent:
    def test_power_law_closed_form(self):
        m = subgaussian_exponent(PowerLaw(2.0), 1.0, 2.0)
        assert m == pytest.approx(4.0, rel=1e-14)
        # residual identity: t/m = Phi(r/m)
        assert 1.0 / m == pytest.approx(PowerLaw(2.0).value(2.0 / m), rel=1e-12)

    def test_at_characteristic_time(self):
        for r in (0.3, 1.0, 7.0):
            scale = PowerLaw(2.5)
            assert subgaussian_exponent(scale, scale.value(r), r) == pytest.approx(1.0, rel=1e-14)

    def test_second_example(self):
        assert subgaussian_exponent(PowerLaw(2.0), 4.0, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_bisection_matches_closed_form(self):
        rng = np.random.default_rng(5)
        scale = PiecewisePower(2.0, 2.0, 1.0)  # identical branches: pure power
        for _ in range(20):
            t, r = rng.uniform(0.1, 10.0, 2)
            got = subgaussian_exponent(scale, t, r)
            ref = subgaussian_exponent(PowerLaw(2.0), t, r)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_residual_piecewise(self):
        scale = PiecewisePower(1.5, 3.0, 1.0)
        for t, r in ((0.3, 2.0), (5.0, 0.4), (1.0, 1.0)):
            m = subgaussian_exponent(scale, t, r)
            assert t / m == pytest.approx(scale.value(r / m), rel=1e-10)

    @pytest.mark.parametrize("scale", [PiecewisePower(1.5, 3.0, 2.0),
                                       PiecewisePower(3.0, 1.2, 0.5)])
    def test_piecewise_matches_root(self, scale):
        r = 1.7
        # t/r on the low branch, at the kink r_break**(exp_low - 1), and beyond
        ts = r * scale.r_break ** (scale.exp_low - 1.0) * np.array([0.01, 0.3, 1.0, 4.0, 100.0])
        ms = subgaussian_exponent(scale, ts, r)
        assert ms.shape == ts.shape
        for t, m in zip(ts, ms):
            root = monotone_root(lambda m: np.log(t / m) - np.log(scale.value(r / m)),
                                 rtol=1e-15)
            assert m == pytest.approx(root, rel=1e-13)

    def test_monotone_in_t(self):
        scale = PiecewisePower(1.5, 3.0, 1.0)
        ms = [subgaussian_exponent(scale, t, 2.0) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(ms, ms[1:]))

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            subgaussian_exponent(PowerLaw(1.0), 1.0, 1.0)
        with pytest.raises(DomainError):
            subgaussian_exponent(PowerLaw(2.0), 0.0, 1.0)


class TestSubordinatedExponent:
    def test_power_law_closed_form(self):
        n = subordinated_exponent(PowerLaw(2.0), Stable(0.5), 1.0, 2.0)
        assert n == pytest.approx(2.0 ** (4.0 / 3.0), rel=1e-14)
        # residual: 1/phi(n/t) = Phi(r/n)
        assert n ** -0.5 == pytest.approx((2.0 / n) ** 2, rel=1e-12)

    def test_unit_root(self):
        # when Phi(r) phi(1/t) = 1 the solution is n = 1
        scale, exp_ = PowerLaw(2.0), Stable(0.5)
        t = 2.0
        r = scale.inverse(1.0 / exp_.phi(1.0 / t))
        assert subordinated_exponent(scale, exp_, t, r) == pytest.approx(1.0, rel=1e-10)

    def test_bisection_matches_closed_form(self):
        rng = np.random.default_rng(11)
        scale, exp_ = PiecewisePower(2.0, 2.0, 1.0), Stable(0.5)
        for _ in range(20):
            t, r = rng.uniform(0.1, 10.0, 2)
            got = subordinated_exponent(scale, exp_, t, r)
            root = monotone_root(lambda n: np.log(scale.value(r / n)) + np.log(exp_.phi(n / t)),
                                 rtol=1e-15)
            assert got == pytest.approx(root, rel=1e-12)

    @pytest.mark.parametrize("scale, exp_", [
        *[(PiecewisePower(*p), Stable(b)) for p in ((1.5, 2.5, 1.0), (3.0, 1.2, 0.5), (2.0, 1.0, math.pi))
          for b in (0.3, 0.5, 0.9)],
        (PowerLaw(2.0), StableMixture(((2.0, 0.5),)))])
    def test_closed_form_against_mpmath(self, scale, exp_):
        # x = r/n solves Phi(x)/x**b = (t/r)**b / a: on the piece c x**e that
        # holds there, x = (y/c)**(1/(e-b)); the t, r grid crosses every kink
        (a, b), = exp_.terms
        ts, rs = np.geomspace(1e-4, 1e4, 9), np.geomspace(1e-3, 1e3, 13)
        got = subordinated_exponent(scale, exp_, ts[:, None], rs)
        with mpmath.workdps(40):
            (s, c, e), *later = scale.pieces
            pieces = [(mpmath.mpf(s), mpmath.mpf(c), mpmath.mpf(e))]
            for s, _, e in later:  # glued exactly at each start
                _, c, e_before = pieces[-1]
                pieces.append((mpmath.mpf(s), c * mpmath.mpf(s) ** (e_before - e), mpmath.mpf(e)))
            worst, used = 0.0, set()
            for t, row in zip(ts, got):
                for r, n in zip(rs, row):
                    y = (mpmath.mpf(t) / r) ** b / a
                    for i, (s, c, e) in enumerate(pieces):
                        x = (y / c) ** (1 / (e - b))
                        end = pieces[i + 1][0] if i + 1 < len(pieces) else mpmath.inf
                        if s <= x <= end:
                            used.add(i)
                            break
                    worst = max(worst, float(abs(n / (r / x) - 1)))
        assert worst < 2e-14 and used == set(range(len(pieces)))

    def test_residual_generic(self):
        scale = PiecewisePower(1.5, 3.0, 1.0)
        exp_ = Stable(0.5)
        for t, r in ((0.3, 2.0), (5.0, 0.4), (1.0, 1.0)):
            n = subordinated_exponent(scale, exp_, t, r)
            assert 1.0 / exp_.phi(n / t) == pytest.approx(scale.value(r / n), rel=1e-10)

    def test_monotone_in_t(self):
        ns = [subordinated_exponent(PowerLaw(2.0), Stable(0.5), t, 2.0)
              for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(ns, ns[1:]))

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            subordinated_exponent(PowerLaw(0.4), Stable(0.5), 1.0, 1.0)


class TestScalingSlopes:
    def test_log_log_slopes_within_indices(self):
        p = PiecewisePower(1.5, 3.0, 1.0)
        rs = np.geomspace(1e-3, 1e3, 61)
        slopes = np.diff(np.log(p.value(rs))) / np.diff(np.log(rs))
        assert np.all(slopes >= 1.5 - 1e-9)
        assert np.all(slopes <= 3.0 + 1e-9)

    def test_sandwich_ratio_bounds(self):
        # m(T, r)/m(t, r) lies between the power-law envelopes
        scale = PiecewisePower(1.5, 3.0, 1.0)
        r = 2.0
        pairs = [(0.5, 1.0), (1.0, 4.0), (0.25, 8.0)]
        for t, big_t in pairs:
            ratio = (subgaussian_exponent(scale, big_t, r)
                     / subgaussian_exponent(scale, t, r))
            lo = (big_t / t) ** (-1.0 / (1.5 - 1.0))
            hi = (big_t / t) ** (-1.0 / (3.0 - 1.0))
            assert 0.01 * lo <= ratio <= 100.0 * hi
            assert ratio <= 1.0 + 1e-12


@given(t=st.floats(0.01, 100.0), r=st.floats(0.01, 100.0),
       alpha=st.floats(1.1, 4.0))
def test_subgaussian_residual_property(t, r, alpha):
    m = subgaussian_exponent(PowerLaw(alpha), t, r)
    assert t / m == pytest.approx(PowerLaw(alpha).value(r / m), rel=1e-10)


@given(t=st.floats(0.01, 100.0), r=st.floats(0.01, 100.0),
       alpha=st.floats(1.1, 4.0), beta=st.floats(0.1, 0.9))
def test_subordinated_residual_property(t, r, alpha, beta):
    if alpha <= beta:
        return
    exp_ = Stable(beta)
    n = subordinated_exponent(PowerLaw(alpha), exp_, t, r)
    assert 1.0 / exp_.phi(n / t) == pytest.approx(
        PowerLaw(alpha).value(r / n), rel=1e-10)


def test_monotone_root_below_brent_precision():
    # an rtol under the float spacing is not refused: the bisection stops moving
    assert monotone_root(lambda x: x * x - 2.0, rtol=1e-16) == pytest.approx(
        math.sqrt(2.0), rel=1e-15)
