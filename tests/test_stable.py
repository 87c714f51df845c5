"""Oracles for the one-sided stable law.

At beta = 1/2 the law is fully explicit:
    density  g(x) = x**-1.5 * exp(-1/(4x)) / (2 sqrt(pi))
    cdf      F(x) = erfc(1 / (2 sqrt(x)))
and for every beta the negative moments are
    E[S**-s] = Gamma(s/beta) / (beta * Gamma(s)),
which gives an oracle that is independent of the evaluation path.  For
x < 1 at other beta the reference is the Zolotarev integral in mpmath.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, special

from fracheat import DomainError, RngStream
from fracheat import stable


def g_half(x):
    return x ** -1.5 * np.exp(-1.0 / (4.0 * x)) / (2.0 * math.sqrt(math.pi))


def cdf_half(x):
    return special.erfc(1.0 / (2.0 * np.sqrt(x)))


def zolotarev_mp(beta, x, dps=20):
    """(density, cdf) of S at x < 1 from the Zolotarev integral in mpmath.

    The range [0, pi] is split where c * (A - A(0+)) crosses 2**k, found by
    float bisection, so every scale of exp(-c * A) gets its own piece.
    """
    bb = beta / (1.0 - beta)
    a0 = beta ** bb * (1.0 - beta)
    log_c = -bb * math.log(x)
    if log_c + math.log(a0) > math.log(1e4):
        # A * exp(-c * A) <= A(0+) * exp(-c * A(0+)) < exp(-1e4): both are 0
        return 0.0, 0.0
    c = math.exp(log_c)

    def log_a(u):
        return (bb * np.log(np.sin(beta * u)) + np.log(np.sin((1.0 - beta) * u))
                - (1.0 + bb) * np.log(np.sin(u)))

    targets = np.log(a0 + 2.0 ** np.arange(-8, 12) / c)
    lo, hi = np.full(targets.size, 1e-15), np.full(targets.size, np.pi - 1e-15)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = log_a(mid) < targets
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    with mpmath.workdps(dps):
        b, xm = mpmath.mpf(beta), mpmath.mpf(x)
        bm = b / (1 - b)
        cm = xm ** -bm
        pts = [0] + sorted(set(float(v) for v in lo)) + [mpmath.pi]

        def a(u):
            return mpmath.sin(b * u) ** bm * mpmath.sin((1 - b) * u) / mpmath.sin(u) ** (1 + bm)

        dens = mpmath.quad(lambda u: a(u) * mpmath.exp(-cm * a(u)), pts)
        cdf = mpmath.quad(lambda u: mpmath.exp(-cm * a(u)), pts)
        return (float(bm * xm ** (-1 / (1 - b)) * dens / mpmath.pi),
                float(cdf / mpmath.pi))


def survival_series_mp(beta, xs, dps=50):
    """P(S > x) at each x >= 1 from the series
    (1/pi) sum_k (-1)**(k+1) Gamma(k beta)/k! sin(pi k beta) x**(-k beta)
    at dps digits, to the first k whose term bound at x = 1 is below
    10**-dps (about 11,000 terms at beta = 0.999)."""
    with mpmath.workdps(dps):
        b = mpmath.mpf(beta)
        coeffs, k = [], 1
        while (log_c := mpmath.loggamma(k * b) - mpmath.loggamma(k + 1)) >= -dps * mpmath.log(10):
            coeffs.append((-1) ** (k + 1) * mpmath.sin(mpmath.pi * k * b) * mpmath.exp(log_c))
            k += 1
        steps = [mpmath.mpf(float(x)) ** -b for x in xs]
        return np.array([float(mpmath.fsum(c * step ** (i + 1) for i, c in enumerate(coeffs))
                               / mpmath.pi) for step in steps])


class TestClosedFormHalf:
    def test_density_scalar(self):
        xs = np.geomspace(1e-3, 1e3, 200)
        got = np.array([stable.density(0.5, x) for x in xs])
        ref = g_half(xs)
        keep = ref > 1e-300
        assert np.max(np.abs(got[keep] / ref[keep] - 1.0)) < 1e-11

    def test_density_named_points(self):
        assert stable.density(0.5, 1.0) == pytest.approx(
            math.exp(-0.25) / (2.0 * math.sqrt(math.pi)), rel=1e-12)
        assert stable.density(0.5, 0.25) == pytest.approx(
            8.0 * math.exp(-1.0) / (2.0 * math.sqrt(math.pi)), rel=1e-12)

    def test_cdf_scalar(self):
        xs = np.geomspace(1e-4, 1e6, 300)
        got = np.array([stable.cdf(0.5, x) for x in xs])
        assert np.max(np.abs(got - cdf_half(xs))) < 1e-12

    def test_survival_scalar(self):
        xs = np.geomspace(1e-1, 1e6, 100)
        got = np.array([stable.survival(0.5, x) for x in xs])
        ref = 1.0 - cdf_half(xs)
        assert np.max(np.abs(got / ref - 1.0)) < 1e-12

    def test_survival_grid_far_tail(self):
        # the series keeps full relative precision where 1 - cdf cancels
        xs = np.geomspace(1e-3, 1e16, 120)
        got = stable.survival(0.5, xs)
        ref = special.erf(1.0 / (2.0 * np.sqrt(xs)))
        assert np.max(np.abs(got / ref - 1.0)) < 1e-12
        scalar = np.array([stable.survival(0.5, x) for x in xs])
        assert np.max(np.abs(scalar / got - 1.0)) < 1e-14

    def test_log_cdf_deep_tail(self):
        for x in (1e-2, 1e-4, 1e-6, 1e-8):
            y = 1.0 / (2.0 * math.sqrt(x))
            ref = math.log(special.erfcx(y)) - y * y
            assert stable.log_cdf_at(0.5, math.log(x)) == pytest.approx(ref, rel=1e-12)

    def test_grid_matches_scalar(self):
        xs = np.geomspace(5e-3, 5e2, 120)
        dg = stable.density(0.5, xs)
        cg = stable.cdf(0.5, xs)
        assert np.max(np.abs(dg / g_half(xs) - 1.0)) < 1e-8
        assert np.max(np.abs(cg - cdf_half(xs))) < 1e-10


class TestGenericBeta:
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_normalization(self, beta):
        val, _ = integrate.quad(lambda x: stable.density(beta, x), 0, np.inf,
                                limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("beta,s", [(0.3, 0.5), (0.3, 2.0), (0.7, 1.0), (0.9, 0.5)])
    def test_negative_moments(self, beta, s):
        val, _ = integrate.quad(lambda x: x ** -s * stable.density(beta, x),
                                0, np.inf, limit=300)
        target = math.gamma(s / beta) / (beta * math.gamma(s))
        assert val == pytest.approx(target, rel=1e-8)

    @pytest.mark.parametrize("beta", [0.3, 0.55, 0.7, 0.9])
    def test_branch_continuity_at_one(self, beta):
        lo = stable.density(beta, 1.0 - 1e-11)
        hi = stable.density(beta, 1.0 + 1e-11)
        assert lo == pytest.approx(hi, rel=1e-9)
        assert stable.cdf(beta, 1.0 - 1e-11) == pytest.approx(
            stable.cdf(beta, 1.0 + 1e-11), abs=1e-10)

    @pytest.mark.parametrize("beta", [0.3, 0.7, 0.95, 0.99, 0.999])
    def test_grid_against_mpmath(self, beta):
        xs = np.array([0.05, 0.3, 0.9, 0.999])
        dg = stable.density(beta, xs)
        cg = stable.cdf(beta, xs)
        for x, d, c in zip(xs, dg, cg):
            d_ref, c_ref = zolotarev_mp(beta, x)
            assert abs(d - d_ref) <= 1e-11 * d_ref, (x, d, d_ref)
            assert abs(c - c_ref) <= 1e-13, (x, c, c_ref)

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.7, 0.95, 0.99, 0.999])
    def test_survival_series_against_mpmath(self, beta):
        # the x >= 1 survival is the density series divided term by term
        # by k beta; the worst error here is about 4e-14, at beta = 0.999
        xs = np.array([1.0, 1.5, 3.0, 10.0, 1e3, 1e8])
        ref = survival_series_mp(beta, xs)
        assert np.max(np.abs(stable.survival(beta, xs) / ref - 1.0)) <= 1e-13

    def test_left_tail_underflows_to_zero(self):
        assert stable.density(0.5, 1e-8) == 0.0
        assert stable.cdf(0.5, 1e-8) == 0.0
        assert stable.survival(0.5, 1e-8) == 1.0

    def test_high_beta_mass(self):
        total = sum(integrate.quad(lambda x: stable.density(0.999, x), a, b,
                                   limit=300)[0]
                    for a, b in [(0.0, 0.9), (0.9, 1.2), (1.2, np.inf)])
        assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("beta", [0.05, 0.3, 0.7, 0.99])
def test_log_cdf_deep_rows_against_mpmath(beta):
    # x where c A(0+) = w0 in [700, 1e6], so the cdf is below 1e-280 and
    # log_cdf_at takes its shifted ladder:
    # log F = -w0 + log (1/pi) int exp(-c (A(u) - A(0+))) du, c = x**(-beta/(1-beta))
    bb = beta / (1.0 - beta)
    a0 = stable.a_zero(beta)
    log_x = np.array([(math.log(a0) - math.log(w0)) / bb for w0 in (700.0, 5e3, 1e6)])
    got = stable.log_cdf_at(beta, log_x)
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        e = b / (1 - b)
        a0_mp = b ** e * (1 - b)
        for lx, value in zip(log_x.tolist(), got):
            c = mpmath.exp(-e * lx)

            def shifted(u):
                a = mpmath.sin(b * u) ** e * mpmath.sin((1 - b) * u) / mpmath.sin(u) ** (1 + e)
                return mpmath.exp(-c * (a - a0_mp))
            width = 1 / mpmath.sqrt(c)
            pts = [0] + [width * 4 ** j for j in range(40) if width * 4 ** j < mpmath.pi]
            integral = mpmath.quad(shifted, pts + [mpmath.pi]) / mpmath.pi
            ref = float(-c * a0_mp + mpmath.log(integral))
            assert value < -640.0
            assert abs(value - ref) <= 1e-14 * abs(ref)


class TestSampler:
    def test_ks_against_cdf(self):
        for beta in (0.3, 0.5, 0.7):
            gen = RngStream(42, 0).generator
            draws = np.sort(stable.sample(beta, gen, 50_000))
            cdf_vals = stable.cdf(beta, draws)
            ks = np.max(np.abs(np.arange(1, draws.size + 1) / draws.size - cdf_vals))
            assert ks < 0.012, f"beta={beta}: KS={ks}"

    def test_deterministic(self):
        a = stable.sample(0.5, RngStream(7, 3).generator, 1000)
        b = stable.sample(0.5, RngStream(7, 3).generator, 1000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = stable.sample(0.5, RngStream(7, 0).generator, 1000)
        b = stable.sample(0.5, RngStream(7, 1).generator, 1000)
        assert not np.array_equal(a, b)


def _tilted_draws(beta, theta, stream, n):
    """tilted_sample of n Kanter draws X of S and the ratios e/X of n unit
    exponentials e drawn after them from one stream."""
    gen = stream.generator
    x = stable.sample(beta, gen, n)
    return stable.tilted_sample(beta, theta, x, gen.exponential(1.0, n) / x)


class TestTiltedSampler:
    @pytest.mark.parametrize("theta", [0.5, 30.0])
    def test_half_is_inverse_gaussian(self, theta):
        # at beta = 1/2, exp(-theta x + theta**0.5) g_half(x) is the inverse
        # Gaussian law of mean 1/(2 sqrt(theta)) and shape 1/2
        from scipy import stats
        draws = _tilted_draws(0.5, theta, RngStream(31, 0), 200_000)
        assert draws.size > 10_000
        law = stats.invgauss(mu=1.0 / math.sqrt(theta), scale=0.5)
        assert stats.kstest(draws, law.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("beta, theta", [(0.3, 50.0), (0.7, 5.0)])
    def test_laplace_transform(self, beta, theta):
        # E_theta[exp(-lam X)] = exp(theta**beta - (theta + lam)**beta)
        draws = _tilted_draws(beta, theta, RngStream(32, 0), 200_000)
        for lam in (0.5 * theta, 2.0 * theta):
            vals = np.exp(-lam * draws)
            exact = math.exp(theta ** beta - (theta + lam) ** beta)
            assert abs(vals.mean() - exact) < 4.0 * vals.std() / math.sqrt(draws.size)

    def test_budget_and_determinism(self):
        # about budget e**(-theta**beta / m) / m draws, m = ceil(theta**beta),
        # and the same stream gives the same bytes
        a = _tilted_draws(0.5, 100.0, RngStream(33, 2), 50_000)
        b = _tilted_draws(0.5, 100.0, RngStream(33, 2), 50_000)
        assert np.array_equal(a, b)
        assert abs(a.size - 50_000 * math.exp(-1.0) / 10) < 100

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
    def test_matches_the_log_form(self, beta):
        # the reference scales each piece m**(-1/beta) X as exp(log X -
        # log(m)/beta) and tests e > theta * piece: the same pieces are kept
        # and the sums agree to rounding
        gen = RngStream(34, 0).generator
        log_x = stable.log_sample(beta, gen, 100_000)
        e = gen.exponential(1.0, log_x.size)
        x = np.exp(log_x)
        for theta in np.geomspace(0.1, 3000.0, 12):
            m = max(1, math.ceil(theta ** beta))
            pieces = np.exp(log_x - math.log(m) / beta)
            kept = pieces[e > theta * pieces]
            want = kept[:kept.size // m * m].reshape(-1, m).sum(axis=1)
            got = stable.tilted_sample(beta, theta, x, e / x)
            assert got.size == want.size
            assert np.max(np.abs(got / want - 1.0)) <= 1e-14


BLOCK = stable._DRAW_BLOCK


# Sizes at the edges of the block, and the same edges of a 4096-draw block,
# which lie inside one block or straddle several.
@pytest.mark.parametrize("n", sorted({1, 4095, 4096, 4097, 3 * 4096 + 5,
                                      BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5}))
def test_sample_blocks_match_one_shot(n):
    # the blocks change no digit: all of theta, then all of W, from the
    # stream, as one-shot arithmetic on a twin stream
    for beta in (0.05, 0.5, 0.999):
        twin = RngStream(12, n).generator
        theta = twin.uniform(0.0, np.pi, n)
        w = twin.exponential(1.0, n)
        one_shot = np.exp((1.0 - beta) / beta * (stable.log_a(theta, beta) - np.log(w)))
        assert np.array_equal(stable.sample(beta, RngStream(12, n).generator, n), one_shot)


def log_a_mp(theta, beta):
    th, b = mpmath.mpf(float(theta)), mpmath.mpf(beta)
    bb = b / (1 - b)
    return float(bb * mpmath.log(mpmath.sin(b * th)) + mpmath.log(mpmath.sin((1 - b) * th))
                 - (1 + bb) * mpmath.log(mpmath.sin(th)))


# Absolute error bounds on log A: twice the largest errors measured on
# these grids.  Near pi the rounding of beta*theta dominates.
@pytest.mark.parametrize("beta, small_bound, near_pi_bound", [
    (0.5, 1.8e-15, 1.42e-14), (0.9, 8.8e-15, 5.6e-14),
    (0.99, 8.8e-14, 1.82e-12), (0.999, 9.4e-13, 1.42e-10)])
def test_log_a_against_mpmath(beta, small_bound, near_pi_bound):
    regions = ((np.geomspace(1e-8, 1.0, 80), small_bound),
               (np.linspace(0.5, 2.5, 80), 9.2e-13),
               (np.pi - np.geomspace(1e-8, 0.3, 80), near_pi_bound))
    with mpmath.workdps(40):
        for thetas, bound in regions:
            ref = np.array([log_a_mp(th, beta) for th in thetas])
            assert np.max(np.abs(stable.log_a(thetas, beta) - ref)) <= bound


class TestDomain:
    def test_bad_beta(self):
        for beta in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(DomainError):
                stable.density(beta, 1.0)

    def test_bad_x(self):
        with pytest.raises(DomainError):
            stable.density(0.5, 0.0)
        with pytest.raises(DomainError):
            stable.density(0.5, -1.0)


@given(beta=st.floats(0.1, 0.9),
       x1=st.floats(0.01, 100.0), x2=st.floats(0.01, 100.0))
def test_cdf_monotone(beta, x1, x2):
    lo, hi = sorted((x1, x2))
    assert stable.cdf(beta, lo) <= stable.cdf(beta, hi) + 1e-12


@given(beta=st.floats(0.1, 0.9), x=st.floats(0.01, 100.0))
def test_density_nonnegative(beta, x):
    assert stable.density(beta, x) >= 0.0
