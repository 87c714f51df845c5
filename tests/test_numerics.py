"""The package's own Simpson weights, Chebyshev coefficients and root
refinement against the scipy routines they stand in for, its complex E1
against mpmath, the roots over arrays against scalar calls, and a check
that the program loads no scipy module."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import fft, integrate, optimize

from fracheat import BracketError, Stable, cbf_from_scale, solution
from fracheat.bernstein import StableMixture
from fracheat.numerics import (_EXP_FAST, _EXP_ZERO, TINY, _CHEB_X, chebyshev_table, exp1,
                               exp_in_place, monotone_root)
from fracheat.scale import PiecewisePower, PowerLaw, subordinated_exponent

MIXTURE = StableMixture(((1.0, 0.3), (1.0, 0.7)))


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 256, 257, 1024, 1025])
def test_simpson_weights_match_scipy(n, uniform):
    x = (np.linspace(-8.0, 8.0, n) if uniform
         else np.sort(np.random.default_rng(n).uniform(-8.0, 8.0, n)))
    ref = integrate.simpson(np.eye(n), x=x)
    assert np.abs(solution._simpson_weights(x) - ref).max() <= 4e-16 * np.abs(ref).max()


def test_simpson_weights_bitwise_on_weak_form_grid():
    x = np.linspace(-8.0, 8.0, 257)
    assert np.array_equal(solution._simpson_weights(x), integrate.simpson(np.eye(257), x=x))


def _rows(u):
    return np.vstack([np.log(solution.mittag_leffler(0.5, np.exp(u))), np.sin(3.0 * u)])


def test_chebyshev_coefficients_match_dct():
    table = chebyshev_table(_rows, -40.0, 20.0, 1e-15)
    lo, hi = table.edges[:-1], table.edges[1:]
    nodes = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * _CHEB_X
    ref = np.moveaxis(fft.dct(_rows(nodes.ravel()).reshape(2, lo.size, -1), type=2)
                      / _CHEB_X.size, 1, 2)
    ref[:, 0] *= 0.5
    scale = np.abs(ref).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(table.coeffs - ref) <= 1e-15 * scale)


@pytest.mark.parametrize("beta, nodes", [(0.1, 750), (0.5, 750), (0.99, 950)])
def test_ml_table_node_counts(beta, nodes):
    assert solution._ml_table(beta).nodes == nodes


def _brent_root(f, x):
    """scipy's Brent root of f, in log x, on the bracket of width 2 about x."""
    y = optimize.brentq(lambda y: f(math.exp(y)), math.log(x) - 1.0, math.log(x) + 1.0,
                        xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
    return math.exp(y)


def _balance(scale, exponent, t, r):
    return lambda n: np.log(scale.value(r / n)) + np.log(exponent.phi(n / t))


def test_root_matches_brent_on_criterion_8_profiles():
    rng = np.random.default_rng(99)
    for _ in range(100):
        t, r = rng.uniform(0.05, 20.0, 2)
        alpha, beta = rng.uniform(1.2, 4.0), rng.uniform(0.1, 0.9)
        balance = _balance(PowerLaw(alpha), Stable(beta), t, r)
        root = monotone_root(balance)
        assert root == pytest.approx(_brent_root(balance, root), rel=1e-13)


@pytest.mark.parametrize("t, r", [(0.01, 3.0), (1.0, 1.0), (5.0, 0.2), (100.0, 40.0)])
def test_root_matches_brent_on_piecewise_mixture(t, r):
    scale = PiecewisePower(2.5, 3.0, 1.0)
    root = subordinated_exponent(scale, MIXTURE, t, r)
    assert root == pytest.approx(_brent_root(_balance(scale, MIXTURE, t, r), root), rel=1e-13)


@pytest.mark.parametrize("exponent", [Stable(0.5), MIXTURE], ids=["stable", "mixture"])
@pytest.mark.parametrize("y", [1e-6, 0.3, 1.0, 7.0, 1e6])
def test_inverses_match_brent(exponent, y):
    lam = exponent.phi_inverse(y)
    assert lam == pytest.approx(_brent_root(lambda l: exponent.phi(l) - y, lam), rel=1e-13)
    s = exponent.phi_prime_inverse(y)
    assert s == pytest.approx(_brent_root(lambda l: exponent.phi_prime(l) - y, s), rel=1e-13)


def test_program_imports_no_scipy():
    """The CLI module and the weak form, Fourier, root, mixture-root, Cauchy
    contour, constructed-exponent, deep stable cdf and Mittag-Leffler
    series paths, run in a fresh process, load no scipy module: a deferred
    import fails here too."""
    script = """
import sys
import numpy as np
import fracheat.cli
from fracheat import (ExactCauchy, GaussianBump, PowerLaw, Stable, SubordinatorModel,
                      cbf_from_scale, solution, stable)
from fracheat.bernstein import StableMixture
from fracheat.scale import subordinated_exponent
solution.caputo_weak_residual(0.5, GaussianBump(), GaussianBump(), np.array([0.5, 1.0, 2.0]),
                              np.linspace(-8.0, 8.0, 65))
solution.density_fourier(0.5, 2.0, 1.0, 0.5)
Stable(0.5).phi_inverse(2.0)
subordinated_exponent(PowerLaw(2.0), StableMixture(((1.0, 0.3), (1.0, 0.7))), 1.0, 2.0)
assert solution.density_laplace(ExactCauchy(1), SubordinatorModel(Stable(0.5)), 1.0, 2.0).converged
cbf_from_scale(PowerLaw(2.0), 3.0).phi(2.0)
assert stable.log_cdf_at(0.5, -20.0) < -1000.0
solution.mittag_leffler(0.5, 0.5)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _mp_exp1(z):
    """mpmath's E1 at 30 digits, on the side of the cut that the sign of Im z
    picks (mpmath has no signed zero)."""
    with mpmath.workdps(30):
        value = complex(mpmath.e1(mpmath.mpc(z.real, abs(z.imag))))
    return value.conjugate() if math.copysign(1.0, z.imag) < 0.0 else value


def _exp1_points():
    """|z| from 1e-8 to 700 at arguments in [-0.95 pi, 0.95 pi]; both sides
    of each seam: |z| + Re z = 4 (power series, continued fraction) and
    |z| = 40 (asymptotic series); points above, on and below the negative
    real axis; and the points where a series out to |z| = 5 with a fraction
    of depth 60 fails."""
    size = np.geomspace(1e-8, 700.0, 61)
    grid = size[:, None] * np.exp(1j * np.pi * np.linspace(-0.95, 0.95, 39))
    points = list(grid.ravel())
    for r in np.geomspace(2.01, 39.9, 12):
        for x in (4.0 - r - 1e-9, 4.0 - r + 1e-9):
            points += [complex(x, math.sqrt(r * r - x * x)), complex(x, -math.sqrt(r * r - x * x))]
    for r in (40.0 * (1.0 - 1e-12), 40.0 * (1.0 + 1e-12)):
        points += list(r * np.exp(1j * np.pi * np.linspace(-1.0, 1.0, 41)))
    for r in np.geomspace(1e-8, 700.0, 25):
        points += [complex(-r, y) for y in (0.0, -0.0, 1e-300, -1e-300, 1e-9 * r, -1e-9 * r)]
    points += [5.5 * np.exp(0.82j * np.pi), 7.9 * np.exp(-0.84j * np.pi),
               4.6 * np.exp(0.01j), 4.6 * np.exp(-0.01j), complex(4.6, 0.0)]
    return np.array(points)


def test_exp1_against_mpmath():
    z = _exp1_points()
    ref = np.array([_mp_exp1(v) for v in z])
    normal = (np.abs(ref) >= TINY) & (np.abs(ref) <= np.finfo(float).max)
    assert normal.mean() > 0.99
    got = exp1(z)
    err = np.abs(got[normal] - ref[normal]) / np.abs(ref[normal])
    assert err.max() <= 5e-14, z[normal][np.argmax(err)]


def test_exp1_shapes_and_ends():
    assert exp1(np.ones((2, 3))).shape == (2, 3)
    assert exp1(np.zeros(0)).shape == (0,)
    assert isinstance(exp1(1.0), complex)
    assert exp1(0.0) == complex(math.inf, 0.0)
    assert exp1(800.0) == 0.0
    assert not np.isfinite(exp1(-800.0))
    assert exp1(math.inf) == 0.0
    assert np.isnan(exp1(np.array([1.0, math.nan, 50.0])))[1]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_exp_in_place_is_numpy_exp():
    # a dense sweep of [-800, 710] with the floats next to both edges, in
    # order and shuffled, and the ends: every lane is np.exp's own bits
    edges = np.array([_EXP_FAST, _EXP_ZERO])
    neighbours = np.concatenate([edges + k * np.spacing(edges) for k in range(-40, 41)])
    ends = [np.inf, -np.inf, np.nan, 0.0, -0.0]
    sweep = np.concatenate([np.linspace(-800.0, 710.0, 400_001), neighbours,
                            np.linspace(-746.0, -699.0, 20_001), ends])
    shuffled = np.random.default_rng(0).permutation(sweep)
    for x in (sweep, shuffled, shuffled[:1001].reshape(7, 143), shuffled[1001:1004]):
        with np.errstate(over="ignore"):
            want = np.exp(x)
            got = exp_in_place(x.copy())
        assert got.shape == x.shape
        assert np.array_equal(_bits(got), _bits(want))
    assert np.exp(_EXP_ZERO) == 0.0 and np.exp(np.nextafter(_EXP_ZERO, 0.0)) > 0.0


@pytest.mark.parametrize("value", [-1e4, -745.2, -720.0, -700.5, -700.0, -3.0, 0.0, 700.0,
                                   math.inf, -math.inf, math.nan])
def test_exp_in_place_zero_d(value):
    x = np.array(value)
    out = exp_in_place(x)
    assert out is x and out.shape == ()
    assert np.array_equal(_bits(out), _bits(np.exp(value)))


def _elementwise(call, *args):
    """call at each element of the broadcast args, one scalar call each."""
    return np.array([call(*(float(v) for v in vals)) for vals in np.broadcast(*args)]
                    ).reshape(np.broadcast(*args).shape)


@pytest.mark.parametrize("scale", [PowerLaw(2.0), PiecewisePower(2.5, 3.0, 1.0)],
                         ids=["power", "power2"])
def test_subordinated_exponent_arrays_match_scalar_calls(scale):
    t = np.geomspace(0.01, 100.0, 5)[:, None]
    r = np.geomspace(0.2, 40.0, 4)
    got = subordinated_exponent(scale, MIXTURE, t, r)
    ref = _elementwise(lambda a, b: subordinated_exponent(scale, MIXTURE, a, b), t, r)
    assert got.shape == (5, 4)
    assert np.all(np.abs(got / ref - 1.0) <= 1e-13)
    assert type(subordinated_exponent(scale, MIXTURE, 1.0, 2.0)) in (float, np.float64)


@pytest.mark.parametrize("exponent", [Stable(0.5), MIXTURE, cbf_from_scale(PowerLaw(2.0), 3.0)],
                         ids=["stable", "mixture", "cbf"])
def test_inverses_over_arrays_match_scalar_calls(exponent):
    y = np.array([[1e-6, 0.3, 1.0], [7.0, 1e3, 1e6]])
    for inverse in (exponent.phi_inverse, exponent.phi_prime_inverse):
        got = inverse(y)
        assert got.shape == y.shape
        assert np.all(np.abs(got / _elementwise(inverse, y) - 1.0) <= 1e-13)
        assert isinstance(inverse(2.0), float)
    got = exponent.power_ratio_inverse(2.0, y)
    ref = _elementwise(lambda v: exponent.power_ratio_inverse(2.0, v), y)
    assert np.all(np.abs(got / ref - 1.0) <= 1e-13)


def test_monotone_root_refuses_a_target_without_sign_change():
    with pytest.raises(BracketError):
        monotone_root(lambda x: x + 1.0)
    with pytest.raises(BracketError):
        monotone_root(lambda x: x - np.array([2.0, -1.0]))
