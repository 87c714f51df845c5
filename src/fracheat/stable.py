"""One-sided stable law normalized by E[exp(-lam * S)] = exp(-lam**beta).

Evaluation strategy, by argument size:

* ``x >= 1``: the convergent series
  g(x) = (1/pi) * sum_k (-1)**(k+1) Gamma(k*beta + 1)/k! * sin(pi*k*beta)
         * x**(-k*beta - 1),
  whose terms decrease monotonically from k = 1 on this range, so there is
  no cancellation growth.  The survival function has the matching series
  with Gamma(k*beta) = Gamma(k*beta + 1)/(k*beta) and x**(-k*beta).

* ``x < 1``: the Zolotarev integral representation
  g(x) = beta/(1-beta) * x**(-1/(1-beta)) * (1/pi)
         * int_0^pi A(u) * exp(-x**(-beta/(1-beta)) * A(u)) du,
  A(u) = sin(beta*u)**(beta/(1-beta)) * sin((1-beta)*u) / sin(u)**(1/(1-beta)),
  and P(S <= x) = (1/pi) * int_0^pi exp(-x**(-beta/(1-beta)) * A(u)) du.
  A is increasing from A(0+) = beta**(beta/(1-beta)) * (1-beta) to +inf.
  Every x < 1 is evaluated on one cached Gauss-Legendre grid per beta
  whose panel boundaries sit at the levels A(0+) * 2**j and A(0+) + 2**k:
  the union of the dyadic ladders of the exponent c*A(u) over all c of
  x < 1, so one grid resolves every x.  Grid nodes where exp(-c*A) has
  underflowed are skipped; only ``log_cdf_at`` lays its own shifted
  ladder, past that level.

One evaluator, ``law_rows``, returns the rows (P(S <= x), P(S > x),
x g(x)) from one matrix of series terms or of grid values.  It starts
from log x, so the scale (a r)**(1/beta) of a subordinator part may lie
far outside float range; the functions of x itself are views of it.

Sampling uses Kanter's representation S = (A(U)/W)**((1-beta)/beta) with
U ~ Uniform(0, pi) and W ~ Exponential(1).  A takes its three sines from
half-angle tangents, sin x = 2 tau/(1 + tau**2) with tau = tan(x/2):
numpy's float64 sin is a scalar libm loop, about 1.6 ms per 100k values
on a 2-vCPU Xeon host (numpy 2.4), against 0.25 ms for its vectorized
tan and 0.15 ms for log.  All of U and then all of W are drawn in stream
order; log S is then formed in blocks of _DRAW_BLOCK draws, so that its
temporaries stay in the L2 cache instead of each paying the page faults
of a fresh array of n floats.  ``tilted_sample`` turns draws X of S and
ratios e/X of unit exponentials e into exact draws of S under an
exponential (Esscher) tilt, by rejection of scaled pieces (Hofert, ACM
TOMACS 22(1), 2011); the tilt sets only the threshold of e/X and the
scale of the kept sums, so one set of X, with no exp, serves every tilt.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .numerics import bisection, panel_nodes

_EXP_CUT = 745.0       # |log| beyond which exp() under/overflows float64
_SERIES_KMAX = 300
_SERIES_CUT = 1e-18    # series terms below this share of the leading one are dropped
_DRAW_BLOCK = 16384    # draws per block of log_sample: 128 kB per temporary, fastest measured


def _check_beta(beta):
    if not 0.0 < beta < 1.0:
        raise DomainError(f"stability index must lie in (0, 1), got {beta}")


def tilt(beta):
    """The recurring exponent beta / (1 - beta)."""
    return beta / (1.0 - beta)


def a_zero(beta):
    """A(0+) = beta**(beta/(1-beta)) * (1-beta), the minimum of A."""
    return beta ** tilt(beta) * (1.0 - beta)


def _sines(theta, beta):
    """sin(beta theta), sin((1-beta) theta) and sin(theta), each as
    2 tau/(1 + tau**2) with tau = tan(x/2) (see the module docstring)."""
    half = 0.5 * theta
    out = []
    for x in (beta * half, (1.0 - beta) * half, half):
        tau = np.tan(x)
        out.append(2.0 * tau / (1.0 + tau * tau))
    return out


def log_a(theta, beta):
    """log A(theta) on (0, pi), vectorized; A is strictly increasing.

    As bb log(s1/s3) + log(s2/s3): both ratios stay near beta and 1-beta
    for small theta, where the three logs of the sines would cancel."""
    s1, s2, s3 = _sines(np.asarray(theta, dtype=float), beta)
    return tilt(beta) * np.log(s1 / s3) + np.log(s2 / s3)


def _theta_at_levels(beta, log_targets, iters=40):
    """Solve log A(theta) = target for each target by vectorized bisection.

    Only used to place panel boundaries, so moderate precision suffices.
    """
    t = np.asarray(log_targets, dtype=float)
    return bisection(lambda mid: log_a(mid, beta) < t, np.full_like(t, 1e-14),
                     np.full_like(t, np.pi - 1e-14), iters)


def _log_w0(beta, log_x):
    """log of c * A(0+) with c = x**(-beta/(1-beta)), from log x."""
    return -tilt(beta) * log_x + np.log(a_zero(beta))


def _law(k, beta, x):
    """Row k of `law_rows` at each x > 0, in the shape of x: a scalar x
    gives a float.  Any x that is not > 0, NaN included, is refused."""
    xs = np.asarray(x, dtype=float)
    if not np.all(xs > 0.0):
        raise DomainError(f"the stable law needs x > 0, got {xs[~(xs > 0.0)][0]}")
    row = law_rows(beta, np.log(xs.ravel()))[k]
    return float(row[0]) if xs.ndim == 0 else row.reshape(xs.shape)


def density(beta, x):
    """Density of S at each x > 0."""
    return _law(2, beta, x) / x


def cdf(beta, x):
    """P(S <= x) at each x > 0."""
    return _law(0, beta, x)


def survival(beta, x):
    """P(S > x) at each x > 0."""
    return _law(1, beta, x)


def log_cdf_at(beta, log_x):
    """log P(S <= x) at each x = exp(log_x), in the shape of log_x, stable
    deep into the left tail: where the cdf falls below 1e-280, by the
    shifted representation log F = -w0 + log (1/pi) int exp(-(w - w0)) on a
    ladder of levels of its own for each x."""
    flat = np.ravel(np.asarray(log_x, dtype=float))
    f = law_rows(beta, flat)[0]  # checks beta
    with np.errstate(divide="ignore"):
        out = np.log(f)
    # past w0 = e**700 the cdf is 0 and its log -inf
    deep = ~(f > 1e-280) & (_log_w0(beta, flat) <= 700.0)
    if deep.any():
        c = np.exp(-tilt(beta) * flat[deep])[:, None]
        a0 = a_zero(beta)
        # the shifts 2**-10 .. 2**9 below 745, then past it
        levels = a0 + np.append(2.0 ** np.arange(-10.0, 10.0), _EXP_CUT + 5.0) / c
        edges = np.concatenate([np.zeros_like(c), _theta_at_levels(beta, np.log(levels))], axis=1)
        nodes, weights = panel_nodes(edges, order=20)
        # log sum (w/pi) e**-shifted about the least shift, the largest term
        shifted = c * (np.exp(log_a(nodes, beta)) - a0)
        least = shifted.min(axis=1)
        terms = weights / np.pi * np.exp(least[:, None] - shifted)
        out[deep] = np.log(terms.sum(axis=1)) - least - c[:, 0] * a0
    return out.reshape(np.shape(log_x))[()]


@lru_cache(maxsize=32)
def _series_coeffs(beta):
    """(k, sign, log |coefficient|) of the x >= 1 series of x g(x).

    The term magnitude at x = 1 decays like exp(-(1-beta) k (log k - 1)),
    so the count needed grows as beta -> 1; that estimate caps it.  The
    series then keeps the terms whose bound at x = 1, the worst case on
    x >= 1, is within _SERIES_CUT of its leading term, a cut that the
    survival terms, these divided by k beta, meet sooner.
    """
    kmax = _SERIES_KMAX
    for _ in range(4):
        kmax = 45.0 / ((1.0 - beta) * max(np.log(kmax) - 1.0, 0.5))
    kmax = int(np.clip(kmax, _SERIES_KMAX, 30000))
    k = np.arange(1, kmax + 1, dtype=float)
    sign = np.sin(np.pi * k * beta) * (-1.0) ** (k + 1)
    log_c = np.array([math.lgamma(v * beta + 1.0) - math.lgamma(v + 1.0) for v in k.tolist()])
    n = np.flatnonzero(log_c >= log_c[0] + np.log(_SERIES_CUT))[-1] + 1
    return k[:n], sign[:n], log_c[:n]


@lru_cache(maxsize=32)
def _common_grid(beta):
    """Theta nodes shared by every x < 1 evaluation at this beta.

    x < 1 means the exponent scale c = x**(-beta/(1-beta)) lies in
    [1, 745/A(0+)] (beyond it everything underflows), and w = c * A(theta)
    must be resolved both multiplicatively and additively around
    w0 = c * A(0+).  Panel boundaries sit at the levels A = A(0+) * 2**j
    and A = A(0+) + 2**k, the union over all such c of the dyadic ladders
    w0 * 2**j and w0 + 2**k, up to the cap 2 * (745 + 5) where the
    integrand is dead for every c >= 1.
    """
    a0 = a_zero(beta)
    cap = 2.0 * (_EXP_CUT + 5.0)
    times = a0 * 2.0 ** np.arange(1, np.ceil(np.log2(cap / a0)))
    k_lo = -np.floor(np.log2(_EXP_CUT / a0)) - 4
    plus = a0 + 2.0 ** np.arange(k_lo, np.log2(cap))
    levels = np.concatenate([times, plus, [cap]])
    thetas = _theta_at_levels(beta, np.log(levels))
    nodes, weights = panel_nodes(np.concatenate([[0.0], np.unique(thetas)]), order=10)
    la = log_a(nodes, beta)
    return weights, la, np.exp(la)


def _live_grid(beta, c):
    """The cached grid up to where min(c) * A passes 745 + 10.

    Past that point exp(log A - c A) < exp(-745) is 0 in every row, so
    the cut changes no value; it skips numpy's slow exp path for
    arguments that underflow.
    """
    weights, la, a_vals = _common_grid(beta)
    n = np.searchsorted(a_vals, (_EXP_CUT + 10.0) / c.min())
    return weights[:n], la[:n], a_vals[:n]


def law_rows(beta, log_x):
    """The rows (P(S <= x), P(S > x), x g(x)) at x = exp(log_x), vectorized.
    x g, the density of log S, stays in float range however far x does not.

    For x >= 1 the series terms, formed from log x so that no x beyond
    float range enters them, give x g, and divided by k beta the survival.
    Below, the grid matrix exp(log A - c A) gives x g, and weighted by 1/A
    the cdf; the survival there is 1 - cdf, above 0.1 for beta <= 0.9999."""
    _check_beta(beta)
    lx = np.asarray(log_x, dtype=float)
    low, high, xg = rows = np.zeros((3,) + lx.shape)
    hi = lx >= 0.0
    if hi.any():
        k, sign, log_c = _series_coeffs(beta)
        terms = sign[:, None] * np.exp(log_c[:, None] - k[:, None] * beta * lx[hi])
        xg[hi] = terms.sum(axis=0) / np.pi
        high[hi] = (1.0 / (k * beta)) @ terms / np.pi
    lo = ~hi & (_log_w0(beta, lx) <= np.log(_EXP_CUT))
    if lo.any():
        c = np.exp(-tilt(beta) * lx[lo])
        weights, la, a_vals = _live_grid(beta, c)
        grid = np.exp(la[None, :] - c[:, None] * a_vals[None, :])
        xg[lo] = tilt(beta) * c * (grid @ weights / np.pi)
        low[lo] = grid @ (weights / a_vals) / np.pi
    np.subtract(1.0, high, out=low, where=hi)
    np.subtract(1.0, low, out=high, where=~hi)
    return rows


def log_sample(beta, generator, n=1):
    """log S of n draws of S via Kanter's method: all of U, then all of W,
    from the generator, combined _DRAW_BLOCK draws at a time.  Block i of
    log S needs only block i of theta = pi U and of W, so it overwrites that
    block of theta, and the theta array is what is returned."""
    _check_beta(beta)
    theta = generator.uniform(0.0, np.pi, n)
    w = generator.exponential(1.0, n)
    k = (1.0 - beta) / beta
    for i in range(0, n, _DRAW_BLOCK):
        block = slice(i, i + _DRAW_BLOCK)
        theta[block] = k * (log_a(theta[block], beta) - np.log(w[block]))
    return theta


def sample(beta, generator, n=1):
    """n draws of S via Kanter's method (vectorized)."""
    return np.exp(log_sample(beta, generator, n))


def tilted_sample(beta, theta, x, ratio):
    """Exact draws of S under the Esscher measure
    exp(-theta S + theta**beta) P(dS), from n draws x of S and the ratios
    e/x of n unit exponentials e, independent of them and of each other.

    S is the sum of m = ceil(theta**beta) independent pieces
    Y = m**(-1/beta) X, and the tilt of a sum is the sum of the tilted
    pieces.  Piece i is kept when e[i] > theta Y, that is when ratio[i] >
    theta m**(-1/beta), with probability exp(-theta Y), whose mean
    exp(-theta**beta / m) is >= 1/e; the kept x, in order, are summed m at
    a time and each sum is scaled by m**(-1/beta), and a remainder of fewer
    than m is dropped.  A pure function of its arrays: the same draws give
    the same bytes for every theta they serve."""
    _check_beta(beta)
    m = max(1, math.ceil(theta ** beta))
    scale = m ** (-1.0 / beta)
    kept = np.compress(ratio > theta * scale, x)  # 5x faster than x[mask] at half density
    count = kept.size // m
    return kept[:count * m].reshape(count, m).sum(axis=1) * scale
