"""The package's own Simpson weights, Chebyshev coefficients and root
refinement against the scipy routines they stand in for, the roots over
arrays against scalar calls, and a check that the program loads no scipy
subpackage but scipy.special."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import fft, integrate, optimize

from fracheat import BracketError, Stable, cbf_from_scale, solution
from fracheat.bernstein import StableMixture
from fracheat.numerics import _CHEB_X, chebyshev_table, monotone_root
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


def test_program_imports_only_scipy_special():
    """The CLI module and the weak form, Fourier, root and mixture-root
    paths, run in a fresh process, load no other scipy subpackage that
    stands in for a package routine: a deferred import fails here too."""
    script = """
import sys
import numpy as np
import fracheat.cli
from fracheat import GaussianBump, Stable, solution
from fracheat.bernstein import StableMixture
from fracheat.scale import PowerLaw, subordinated_exponent
solution.caputo_weak_residual(0.5, GaussianBump(), GaussianBump(), np.array([0.5, 1.0, 2.0]),
                              np.linspace(-8.0, 8.0, 65))
solution.density_fourier(0.5, 2.0, 1.0, 0.5)
Stable(0.5).phi_inverse(2.0)
subordinated_exponent(PowerLaw(2.0), StableMixture(((1.0, 0.3), (1.0, 0.7))), 1.0, 2.0)
print(sorted(m for m in sys.modules if m.split(".")[:2] in (
    ["scipy", "optimize"], ["scipy", "integrate"], ["scipy", "fft"])))
"""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
