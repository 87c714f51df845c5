"""One-sided stable law normalized by E[exp(-lam * S)] = exp(-lam**beta).

Evaluation strategy, by argument size:

* ``x >= 1``: the convergent series
  g(x) = (1/pi) * sum_k (-1)**(k+1) Gamma(k*beta + 1)/k! * sin(pi*k*beta)
         * x**(-k*beta - 1),
  whose terms decrease monotonically from k = 1 on this range, so there is
  no cancellation growth.  The survival function has the matching series
  with Gamma(k*beta) and x**(-k*beta).

* ``x < 1``: the Zolotarev integral representation
  g(x) = beta/(1-beta) * x**(-1/(1-beta)) * (1/pi)
         * int_0^pi A(u) * exp(-x**(-beta/(1-beta)) * A(u)) du,
  A(u) = sin(beta*u)**(beta/(1-beta)) * sin((1-beta)*u) / sin(u)**(1/(1-beta)),
  and P(S <= x) = (1/pi) * int_0^pi exp(-x**(-beta/(1-beta)) * A(u)) du.
  A is increasing from A(0+) = beta**(beta/(1-beta)) * (1-beta) to +inf, so
  the integrand is evaluated on Gauss-Legendre panels whose boundaries are
  placed at dyadic levels of the exponent c*A(u); everything is computed in
  log space and clamped below exp(-745) to dodge underflow.

Sampling uses Kanter's representation S = (A(U)/W)**((1-beta)/beta) with
U ~ Uniform(0, pi) and W ~ Exponential(1).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import special

from .errors import DomainError
from .numerics import panel_nodes

_EXP_CUT = 745.0       # |log| beyond which exp() under/overflows float64
_SERIES_KMAX = 300
_GL_ORDER = 20


def _check_beta(beta):
    if not 0.0 < beta < 1.0:
        raise DomainError(f"stability index must lie in (0, 1), got {beta}")


def tilt(beta):
    """The recurring exponent beta / (1 - beta)."""
    return beta / (1.0 - beta)


def a_zero(beta):
    """A(0+) = beta**(beta/(1-beta)) * (1-beta), the minimum of A."""
    return beta ** tilt(beta) * (1.0 - beta)


def log_a(theta, beta):
    """log A(theta) on (0, pi), vectorized; A is strictly increasing."""
    theta = np.asarray(theta, dtype=float)
    bb = tilt(beta)
    return (bb * np.log(np.sin(beta * theta))
            + np.log(np.sin((1.0 - beta) * theta))
            - (1.0 + bb) * np.log(np.sin(theta)))


def _theta_at_levels(beta, log_targets, iters=40):
    """Solve log A(theta) = target for each target by vectorized bisection.

    Only used to place panel boundaries, so moderate precision suffices.
    """
    t = np.asarray(log_targets, dtype=float)
    lo = np.full_like(t, 1e-14)
    hi = np.full_like(t, np.pi - 1e-14)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = log_a(mid, beta) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@lru_cache(maxsize=4096)
def _scalar_boundaries_bucketed(beta, c_bucket):
    """Panel boundaries in theta resolving both scales of w = c * A(theta).

    Dyadic levels are laid both multiplicatively (w0 * 2**j) and additively
    (w0 + 2**j), capped past the underflow level; either ladder alone can be
    too coarse when w0 is small resp. large.  Boundaries are cached per
    octave of c: using the octave representative only shifts levels by at
    most a factor 2, which the dyadic ladders absorb.
    """
    c = 2.0 ** c_bucket
    w0 = c * a_zero(beta)
    cap = 2.0 * (_EXP_CUT + 5.0)
    levels = set()
    lv = 2.0 * w0
    while lv < cap:
        levels.add(lv)
        lv *= 2.0
    lv = 0.25
    while lv < cap:
        if w0 + lv < cap:
            levels.add(w0 + lv)
        lv *= 2.0
    levels.add(cap)
    levels = np.array(sorted(levels))
    thetas = _theta_at_levels(beta, np.log(levels / c))
    return np.concatenate([[0.0], np.unique(thetas)])


def _scalar_boundaries(beta, c):
    return _scalar_boundaries_bucketed(beta, int(np.floor(np.log2(c))))


def _log_w0(beta, x):
    """log of c * A(0+) with c = x**(-beta/(1-beta)), overflow-safe."""
    return -tilt(beta) * np.log(x) + np.log(a_zero(beta))


def density(beta, x):
    """Density of S at x > 0 (scalar)."""
    _check_beta(beta)
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"stable density needs x > 0, got {x}")
    if x >= 1.0:
        return float(_density_series(beta, np.array([x]))[0])
    if _log_w0(beta, x) > np.log(_EXP_CUT):
        return 0.0
    c = x ** -tilt(beta)
    nodes, weights = panel_nodes(_scalar_boundaries(beta, c), order=_GL_ORDER)
    la = log_a(nodes, beta)
    expo = la - c * np.exp(la)
    integral = np.dot(weights, np.exp(np.clip(expo, -_EXP_CUT - 10, None))) / np.pi
    return tilt(beta) * x ** (-1.0 / (1.0 - beta)) * integral


def cdf(beta, x):
    """P(S <= x) for x > 0 (scalar)."""
    _check_beta(beta)
    x = float(x)
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0 - float(_survival_series(beta, np.array([x]))[0])
    if _log_w0(beta, x) > np.log(_EXP_CUT):
        return 0.0
    c = x ** -tilt(beta)
    nodes, weights = panel_nodes(_scalar_boundaries(beta, c), order=_GL_ORDER)
    w = c * np.exp(log_a(nodes, beta))
    return float(np.dot(weights, np.exp(-np.clip(w, None, _EXP_CUT + 10))) / np.pi)


def survival(beta, x):
    """P(S >= x) for x > 0 (scalar)."""
    _check_beta(beta)
    x = float(x)
    if x <= 0.0:
        return 1.0
    if x >= 1.0:
        return float(_survival_series(beta, np.array([x]))[0])
    if _log_w0(beta, x) > np.log(_EXP_CUT):
        return 1.0
    c = x ** -tilt(beta)
    boundaries = _scalar_boundaries(beta, c)
    nodes, weights = panel_nodes(boundaries, order=_GL_ORDER)
    w = c * np.exp(log_a(nodes, beta))
    val = np.dot(weights, -np.expm1(-np.clip(w, None, _EXP_CUT + 10)))
    # beyond the last boundary the integrand equals 1 to machine precision
    val += np.pi - boundaries[-1]
    return float(val / np.pi)


def log_cdf(beta, x):
    """log P(S <= x), stable deep into the left tail."""
    _check_beta(beta)
    x = float(x)
    if x <= 0.0:
        return -np.inf
    f = cdf(beta, x)
    if f > 1e-280:
        return float(np.log(f))
    if _log_w0(beta, x) > 700.0:
        return -np.inf
    # shifted representation: log F = -w0 + log (1/pi) int exp(-(w - w0))
    c = x ** -tilt(beta)
    a0 = a_zero(beta)
    w0 = c * a0
    shifts = 2.0 ** np.arange(-10, 11, dtype=float)
    shifts = shifts[shifts < _EXP_CUT]
    levels = a0 + np.concatenate([shifts, [_EXP_CUT + 5.0]]) / c
    thetas = np.concatenate([[0.0], np.unique(_theta_at_levels(beta, np.log(levels)))])
    nodes, weights = panel_nodes(thetas, order=_GL_ORDER)
    shifted = c * (np.exp(log_a(nodes, beta)) - a0)
    return float(-w0 + special.logsumexp(-shifted, b=weights / np.pi))


@lru_cache(maxsize=32)
def _series_coeffs(beta):
    # term magnitude at x = 1 decays like exp(-(1-beta) k (log k - 1)), so
    # the truncation point must grow as beta -> 1
    kmax = _SERIES_KMAX
    for _ in range(4):
        kmax = 45.0 / ((1.0 - beta) * max(np.log(kmax) - 1.0, 0.5))
    kmax = int(np.clip(kmax, _SERIES_KMAX, 30000))
    k = np.arange(1, kmax + 1, dtype=float)
    sign = np.sin(np.pi * k * beta) * (-1.0) ** (k + 1)
    log_den = special.gammaln(k * beta + 1.0) - special.gammaln(k + 1.0)
    log_sf = special.gammaln(k * beta) - special.gammaln(k + 1.0)
    return k, sign, log_den, log_sf


def _density_series(beta, xs):
    k, sign, log_den, _ = _series_coeffs(beta)
    lx = np.log(xs)[None, :]
    terms = sign[:, None] * np.exp(log_den[:, None] - (k[:, None] * beta + 1.0) * lx)
    return terms.sum(axis=0) / np.pi


def _survival_series(beta, xs):
    k, sign, _, log_sf = _series_coeffs(beta)
    lx = np.log(xs)[None, :]
    terms = sign[:, None] * np.exp(log_sf[:, None] - k[:, None] * beta * lx)
    return terms.sum(axis=0) / np.pi


@lru_cache(maxsize=32)
def _common_grid(beta):
    """Shared theta nodes for batched x < 1 evaluation.

    x < 1 means the exponent scale c >= 1, so the integrand is dead beyond
    the point where A alone reaches the underflow level; the grid ends
    there.  Features near 0 live at theta scales >= (745 * beta)**-0.5 (the
    narrowest representable peak), which the geometric ladder resolves.  The
    grid starts at 0 and the ladder reaches pi/2: a gap at either end cost
    up to 5e-10 relative in the deep tail.
    """
    theta_max = float(_theta_at_levels(beta, [np.log(2.0 * _EXP_CUT)])[0])
    parts = [[0.0], np.geomspace(1e-4, np.pi / 2, 30)]
    if theta_max > np.pi / 2:
        gap = np.pi - theta_max
        right = np.pi - gap * 1.5 ** np.arange(0, 40)
        right = right[right > np.pi / 2]
        parts += [right[::-1], [theta_max]]
    boundaries = np.unique(np.concatenate(parts))
    nodes, weights = panel_nodes(boundaries, order=12)
    la = log_a(nodes, beta)
    return nodes, weights, la, np.exp(la)


def cdf_grid(beta, xs):
    """P(S <= x) vectorized over an array of x > 0."""
    _check_beta(beta)
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape)
    hi = xs >= 1.0
    if hi.any():
        out[hi] = 1.0 - _survival_series(beta, xs[hi])
    lo = (~hi) & (xs > 0.0) & (_log_w0(beta, np.maximum(xs, 1e-300)) <= np.log(_EXP_CUT))
    if lo.any():
        _, weights, _, a_vals = _common_grid(beta)
        c = xs[lo] ** -tilt(beta)
        expo = -c[:, None] * a_vals[None, :]
        np.clip(expo, -_EXP_CUT - 10, None, out=expo)
        out[lo] = np.exp(expo) @ weights / np.pi
    return out


def density_grid(beta, xs):
    """Density vectorized over an array of x > 0."""
    _check_beta(beta)
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape)
    hi = xs >= 1.0
    if hi.any():
        out[hi] = _density_series(beta, xs[hi])
    lo = (~hi) & (xs > 0.0) & (_log_w0(beta, np.maximum(xs, 1e-300)) <= np.log(_EXP_CUT))
    if lo.any():
        _, weights, la, a_vals = _common_grid(beta)
        c = xs[lo] ** -tilt(beta)
        expo = la[None, :] - c[:, None] * a_vals[None, :]
        np.clip(expo, -_EXP_CUT - 10, None, out=expo)
        integ = np.exp(expo) @ weights / np.pi
        out[lo] = tilt(beta) * xs[lo] ** (-1.0 / (1.0 - beta)) * integ
    return out


def sample(beta, generator, n=1):
    """n draws of S via Kanter's method (vectorized)."""
    _check_beta(beta)
    theta = generator.uniform(0.0, np.pi, n)
    w = generator.exponential(1.0, n)
    return np.exp((1.0 - beta) / beta * (log_a(theta, beta) - np.log(w)))
