"""The time-changed transition density p(t, z) and its oracles.

p(t, z) = E[q(E_t, z)] = int_0^inf q(s, z) h_t(s) ds, where h_t is the
density of the inverse subordinator E_t.  This is evaluated four
independent ways:

* contour inversion of the Laplace transform in t,
      phi(lam)/lam * R_{phi(lam)}(z),  R_mu the kernel's resolvent,
  for stable and stable-mixture time changes and the 1-d Gaussian and
  Cauchy kernels, whose resolvents are closed forms, by the trapezoid rule
  on one hyperbola lam = mu (1 + sin(i theta - alpha)) (`_hyperbola`) with
  two choices of vertex mu and step h.  The Weideman-Trefethen rule
  (`density_laplace`) fixes them by t alone and sums the terms; off the
  diagonal p is tiny against them and the result comes back flagged.  For
  the 1-d Gaussian the saddle rule puts the vertex at the real saddle lam*
  of lam t - z sqrt(phi(lam)) and the step from the curvature there, so
  the terms near it share one phase, and sums in log space, so log p holds
  where p underflows; near the diagonal lam* nears the branch point at 0
  and the result comes back flagged.  Each rule's error is twice the
  difference of two node counts plus eps times the sum of |terms| (and
  eps |log p| p on the saddle rule), and must meet REL_TOL*|p|,
* quadrature against h_t (`density_quadrature`): a chain of three row
  paths, each taking the z the ones before it flagged: the fixed
  hyperbola, the saddle hyperbola, then one vectorized adaptive
  Gauss-Kronrod panel rule in log s, whose error is the summed |K15 - G7|
  difference plus a rounding bound, and which alone takes a kernel without
  a closed-form resolvent and z = 0.  A p of this rule below the smallest
  normal float has lost digits and is flagged,
* Monte Carlo over inverse-subordinator samples (`density_monte_carlo`),
  one draw set per call shared by every z of the row.  A z whose sample
  of q has an effective size (sum q)**2 / sum q**2 below _MC_MIN_ESS rests
  on a handful of draws, so its stated error means nothing.  A one-part
  time change re-estimates it from exactly Esscher-tilted draws, made by
  rejection from the row's own stable draws and one array of exponentials
  shared by the row, weighted back by exp(theta X - theta**beta), with
  theta set by the saddle of q against the left tail of h_t; a z still
  below the floor, and every such z of several parts, comes back flagged,
* for one-part exponents a lam**beta and 1-d Gaussian/Cauchy kernels, the
  Fourier-Mittag-Leffler representation
      p(t, z) = (1/pi) int_0^inf cos(xi z) E_beta(-xi**alpha t**beta / a) dxi,
  which never touches the subordination path and serves as an oracle.

The contour, the quadrature and Monte Carlo take a scalar z or a 1-d
array of z at one t, through one core: a row of z shares the contour
nodes, the z left to the Gauss-Kronrod rule share one pass, with h_t
evaluated once per node, and Monte Carlo shares its inverse-time draws.

The module also carries the Mittag-Leffler evaluator E_beta(-x), a mass
conservation check (one Gauss-Kronrod pass in log y over that row form),
and the weak-form residual test for the fractional-in-time evolution
driven by the 1-d Laplacian.  The residual's time derivative is exact, and
by the self-similarity E_s = s**beta E_1 each t is one Gauss-Kronrod pass
in log rho whose rows, one per memory time and one for the right side,
share the density of E_1 and read the x integrals from one
piecewise-Chebyshev table in log r per call; the report adds a check that
the Laplacian generates the heat flow, whether every row and the table
converged, the worst row and table errors and the number of heat profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Optional

import numpy as np

from . import stable
from .bernstein import Stable
from .errors import BracketError, DomainError, UnsupportedModelError
from .numerics import (ABS_FLOOR, EPS, REL_TOL, TINY, chebyshev_table, geometric_boundaries,
                       kronrod_quad, monotone_root, panel_nodes)
from .subordinator import SubordinatorModel


@dataclass(frozen=True)
class SolutionEstimate:
    """A value with its error scale and the method that produced it;
    log_value is log p where the method forms it, which stays exact where
    value underflows."""

    value: float
    error: float
    method: str
    converged: bool = True
    log_value: Optional[float] = field(default=None, repr=False)


def _along_z(row_form):
    """Let row_form(kernel, model, t, z, *args) of a 1-d array z, which
    returns one estimate per z in a list, take a scalar z too, which gives
    one estimate."""
    @wraps(row_form)
    def wrapped(kernel, model, t, z, *args):
        zs = np.asarray(z, dtype=float)
        if zs.ndim > 1:
            raise DomainError("z must be a scalar or a 1-d array")
        row = row_form(kernel, model, t, zs.reshape(-1), *args)
        return row if zs.ndim else row[0]
    return wrapped


def _check_point(t, z):
    """A finite t > 0 and every z finite and >= 0, the domain of every
    evaluator of p."""
    if not (0.0 < t < math.inf and np.all((0.0 <= z) & (z < math.inf))):
        raise DomainError("density needs a finite t > 0 and finite z >= 0")


def _check_domain(kernel, t, z):
    """_check_point, and no z = 0 if q(s, 0) ~ s**-gamma with gamma >= 1, as h_t(0) > 0."""
    _check_point(t, z)
    if min(z.tolist(), default=1.0) == 0.0 and kernel.diagonal_power >= 1.0:
        raise DomainError(f"p(t, 0) diverges: q(s, 0) ~ s**-{kernel.diagonal_power:g} as s -> 0")


def _log_panels(kernel, model, t, z):
    """Panel boundaries in log s for the integrands of p along the z row:
    geometric over (s_lo, s_hi), outside which they are negligible or one
    power (`_kronrod_row`'s head), and split at the kernel's time scale at
    each z, at the inverse-subordinator time scale and at the kernel's
    bends (one below 1e-64 s_hi raised to it, so that q stays in float
    range), s_lo 18 decades below the least split, 36 with a z = 0.
    Splits one ulp apart in s, such as the time scale of a piecewise
    profile at Phi(Phi^-1(s)) = s, meet in log s, so equal logs are merged:
    a zero-width panel would divide 0/0 in kronrod_quad."""
    inv_phi, s_hi = 1.0 / model.exponent.phi(1.0 / t), model.inverse_support(t)
    splits = {inv_phi, 2.0 * inv_phi, *map(kernel.time_scale, z.tolist()),
              *(max(bend, 1e-64 * s_hi) for bend in kernel.bends)} - {0.0}
    s_lo = min(min(splits), s_hi) * (1e-18 if z.all() else 1e-36)
    return np.unique(np.log(geometric_boundaries(s_lo, s_hi, per_decade=2,
                                                 extra=sorted(splits))))


@_along_z
def density_quadrature(kernel, model, t, z):
    """p(t, z) by quadrature of q(s, z) against the density of E_t, for a
    scalar z or each z of a 1-d array, as one estimate or a list of them.

    Three row paths run in turn, each on the z left unanswered or flagged
    by those before: `_contour_row`, far the cheapest, `_saddle_row` and
    `_kronrod_row`, which answers every z.  A contour that cannot take the
    kernel or the time change leaves its z to the next path.
    """
    _check_domain(kernel, t, z)
    row = [None] * z.size
    for path in (_contour_row, _saddle_row, _kronrod_row):
        flagged = [i for i, est in enumerate(row) if est is None or not est.converged]
        if not flagged:
            break
        try:
            for i, est in zip(flagged, path(kernel, model, t, z[flagged])):
                row[i] = est
        except UnsupportedModelError:  # no closed-form resolvent, or no stable parts
            if path is _kronrod_row:
                raise
    return row


def _kronrod_row(kernel, model, t, z):
    """The Gauss-Kronrod estimates of p(t, z) at each z of the 1-d array z:
    one composite pass in u = log s with a row per z, sharing the panels,
    split by `_log_panels` for every row, and h_t at each node.  A panel is
    bisected where |K15 - G7| exceeds its share of REL_TOL*|p| in some row;
    a row's error is the sum of those plus a rounding bound, and a p below
    the smallest normal float, zero or subnormal, is flagged.  A z = 0 row
    adds its head below s_lo, q(s_lo, 0) h_t(s_lo) s_lo / (1 - gamma), gamma
    the kernel's `diagonal_power`, and is flagged if s_lo is past a bend."""
    def in_log_s(u):
        s = np.exp(u)
        return model.inverse_density(t, s) * kernel.q(s, z[:, None]) * s

    bounds = _log_panels(kernel, model, t, z)
    total, error, ok = kronrod_quad(in_log_s, bounds, REL_TOL, ABS_FLOOR)
    if not z.all():  # int_0^s_lo q(s, 0) h_t ds: q(s, 0) ~ s**-gamma, h_t flat to O(s_lo)
        s_lo = math.exp(bounds[0])
        total[z == 0.0] += (kernel.q(s_lo, 0.0) * model.inverse_density(t, s_lo) * s_lo
                            / (1.0 - kernel.diagonal_power))
        ok[z == 0.0] &= s_lo < min(kernel.bends, default=math.inf)  # else not one power below s_lo
    ok &= np.abs(total) >= TINY  # an underflowed p meets any tolerance, but is no answer
    return [SolutionEstimate(v, e, "quad", k)
            for v, e, k in zip(total.tolist(), error.tolist(), ok.tolist())]


# the hyperbola lambda(theta) = mu (1 + sin(i theta - alpha)), trapezoid
# steps theta = k h; Weideman & Trefethen (2007) fix mu = _WT_MU * N / t and
# h = _WT_STEP / N on |k| <= N, whose error decays like exp(-2.32 N)
_WT_ALPHA, _WT_MU, _WT_STEP = 1.1721, 4.492, 1.0818
# two node counts whose difference estimates the truncation error; the
# stated error is _LAPLACE_SAFETY times that difference plus the rounding
# bound of both sums
_LAPLACE_NODES = (16, 24)
_LAPLACE_SAFETY = 2.0


@lru_cache(maxsize=None)
def _hyperbola_shape(h, n):
    """1 + sin(i k h - alpha) and cos(i k h - alpha), halved at k = 0, for
    0 <= k <= n along the last axis, h a step or a column of them; cached
    for a float h, the fixed rule's, whose shape is t-free."""
    arg = 1j * h * np.arange(n + 1) - _WT_ALPHA
    shape, slope = 1.0 + np.sin(arg), np.cos(arg)
    slope[..., 0] *= 0.5  # the trapezoid end weight
    shape.flags.writeable = slope.flags.writeable = False  # a cached pair is shared by every caller
    return shape, slope


def _hyperbola(rules):
    """The nodes lambda(k h), 0 <= k <= n, and weights w_k of each rule
    (mu, h, n) of rules, side by side along the last axis: Re sum_k w_k
    F(lambda_k) is the trapezoid rule over |k| <= n for (1/2 pi i) int F
    dlambda, F being real on the real axis, as the k < 0 nodes are the
    conjugates of the k > 0 ones.  mu and h are scalars, or columns with one
    value per row."""
    nodes, weights = [], []
    for mu, h, n in rules:
        shape, slope = (_hyperbola_shape if np.isscalar(h) else _hyperbola_shape.__wrapped__)(h, n)
        nodes.append(mu * shape)
        weights.append((h / np.pi) * mu * slope)
    return np.concatenate(nodes, axis=-1), np.concatenate(weights, axis=-1)


def _rule_sums(vals, n):
    """Re of the sum of the first rule's n + 1 terms and of the second's,
    the rest, along the last axis of vals, and the sum of |terms| of both,
    the scale of their rounding."""
    return (vals[..., :n + 1].sum(axis=-1).real, vals[..., n + 1:].sum(axis=-1).real,
            np.abs(vals).sum(axis=-1))


def _contour_row(kernel, model, t, z):
    """The contour estimates of p(t, z) at each z of the 1-d array z on the
    fixed hyperbola: the transform's z-free factor is formed once on the
    shared nodes, and the resolvent on the (z, node) grid."""
    lam, weights = _hyperbola([(_WT_MU * n / t, _WT_STEP / n, n) for n in _LAPLACE_NODES])
    phi = model.exponent.derivative(lam, 0)
    with np.errstate(all="ignore"):
        first, second, spread = _rule_sums(
            (weights * np.exp(lam * t) * phi / lam) * kernel.resolvent(phi, z[:, None]),
            _LAPLACE_NODES[0])
        error = _LAPLACE_SAFETY * (np.abs(first - second) + EPS * spread)
        ok = (error <= REL_TOL * np.abs(second)) & (second != 0.0)
    return [SolutionEstimate(v, e if math.isfinite(e) else math.inf, "laplace", k)
            for v, e, k in zip(second.tolist(), error.tolist(), ok.tolist())]


# the saddle contour: the hyperbola with its vertex at the real saddle lam*
# of lam t - z sqrt(phi(lam)), on |k| <= n for each n here at step
# _SADDLE_SPAN sigma / n, sigma the width in theta of the Gaussian peak of
# the terms there: both rules span +-12 sigma, at steps sigma/2 and sigma/3
_SADDLE_NODES, _SADDLE_SPAN = (24, 36), 12.0
# the relative width to which a mixture's lam* is bisected: the two rules
# check the sum, so the vertex need not sit on the saddle more closely
_SADDLE_RTOL = 1e-6


def _saddle_row(kernel, model, t, z):
    """The saddle-contour estimates of p(t, z) at each z of the 1-d array
    z, None at z = 0, summed in log space, so that log_value holds where p
    underflows.

    The exponent lam t - z sqrt(phi(lam)) of the transform has one real
    saddle lam*, where t = z phi'/(2 sqrt(phi)): a closed form for one part,
    else one bisection over the row, as phi'/sqrt(phi) decreases in lam.
    The hyperbola with vertex mu = lam* / (1 - sin alpha) leaves it along
    the steepest descent, where the terms share one phase, so nothing
    cancels; the steps come from the curvature f'' of the exponent there.
    log p = m + log Re sum exp(L_k - m), m the largest Re L_k, and the error
    is _LAPLACE_SAFETY |p_h - p_2h/3| plus eps sum |terms| of both rules plus
    eps |log p| p.  Near the diagonal the saddle nears the branch point of
    sqrt(phi) at 0, the two rules part and the z comes back flagged.
    """
    if kernel.fourier_order != 2:  # |xi|**2, whose resolvent is e**(-z sqrt(mu)) / 2 sqrt(mu)
        raise UnsupportedModelError(f"the saddle contour needs the 1-d Gaussian, got {kernel}")
    phi_of = model.exponent.derivative
    row = [None] * z.size
    live = np.flatnonzero(z > 0.0)
    if not live.size:
        return row
    zs = z[live]
    with np.errstate(all="ignore"):  # a non-finite sum is flagged below
        if model.exponent.power is not None:
            a, b = model.exponent.power
            lam = (zs * math.sqrt(a) * b / (2.0 * t)) ** (1.0 / (1.0 - 0.5 * b))
        else:
            try:
                lam = monotone_root(lambda x: zs * phi_of(x, 1) / (2.0 * np.sqrt(phi_of(x, 0))) - t,
                                    _SADDLE_RTOL)
            except BracketError:  # a saddle outside [1e-300, 1e300]: no z is taken here
                return row
        phi, d1, d2 = (phi_of(lam, k) for k in range(3))
        curvature = zs * (d1 * d1 / (4.0 * phi ** 1.5) - d2 / (2.0 * np.sqrt(phi)))
        mu = (lam / (1.0 - math.sin(_WT_ALPHA)))[:, None]
        # |d lambda / d theta| = mu cos alpha at the vertex
        sigma = 1.0 / (mu * math.cos(_WT_ALPHA) * np.sqrt(curvature[:, None]))
        nodes, weights = _hyperbola([(mu, sigma * (_SADDLE_SPAN / n), n) for n in _SADDLE_NODES])
        phis = phi_of(nodes, 0)
        logs = (np.log(weights) + nodes * t + np.log(phis) - np.log(nodes)
                + kernel.log_resolvent(phis, zs[:, None]))
        peak = logs.real.max(axis=1)
        first, second, spread = _rule_sums(np.exp(logs - peak[:, None]), _SADDLE_NODES[0])
        log_p = peak + np.log(second)
        rel = ((_LAPLACE_SAFETY * np.abs(first - second) + EPS * spread) / second
               + EPS * np.abs(log_p))
        ok = (second > 0.0) & (rel <= REL_TOL)
        value = np.exp(log_p)
    for i, v, r, k, lp in zip(live.tolist(), value.tolist(), rel.tolist(), ok.tolist(),
                              log_p.tolist()):
        row[i] = SolutionEstimate(v, r * v if k else math.inf, "saddle", k, lp)
    return row


@_along_z
def density_laplace(kernel, model, t, z):
    """p(t, z) by inverting its Laplace transform in t on a hyperbola, for
    a scalar z or each z of a 1-d array, as one estimate or a list of them.

    The transform is phi(lam)/lam * R_{phi(lam)}(z), with R_mu the
    kernel's resolvent.  The trapezoid rule runs on the Weideman-Trefethen
    contour at two node counts, shared by every z; the error at each z is
    _LAPLACE_SAFETY times their difference plus the rounding bound
    eps * sum |terms|.  Off the diagonal p is tiny against the terms, so
    the error exceeds REL_TOL*|p| and the result comes back flagged, as
    does any non-finite value and p = 0.
    """
    _check_domain(kernel, t, z)
    return _contour_row(kernel, model, t, z)


# a z whose sample of q has an effective size (sum q)**2 / sum q**2 below
# this rests on a few draws: it is tilted, or flagged
_MC_MIN_ESS = 50
# the saddle search in log s: points per grid, grids
_SADDLE_GRID, _SADDLE_LEVELS = 32, 4


def _mc_mean(values, method):
    """The sample mean of values with its standard error, converged when the
    effective sample size (sum v)**2 / sum v**2 reaches _MC_MIN_ESS.  Both
    sums run on values / max(values), so that squares of tiny values do not
    underflow, and give the variance too; an all-zero sample is no answer.
    The sum of squares is einsum's: the BLAS dot's bits follow its thread
    count.  It consumes values: the array is divided by its peak in place."""
    peak = values.max()
    if not peak > 0.0:
        return SolutionEstimate(0.0, 0.0, method, False)
    values /= peak
    n, total, square = values.size, values.sum(), np.einsum("i,i->", values, values)
    variance = max(square - total * total / n, 0.0) / (n - 1)
    return SolutionEstimate(float(peak * (total / n)), float(peak * math.sqrt(variance / n)),
                            method, bool(total * total >= _MC_MIN_ESS * square))


def _saddle_tilt(kernel, model, t, z):
    """The Esscher tilt theta = (b / X*)**(1/(1-b)) of the standard
    b-stable X of the one-part exponent a lam**b, whose tilted mean
    b theta**(b-1) is X* = t (a s*)**(-1/b), the X at which
    E_t = (t/X)**b / a equals s*.  s* maximizes over s
        log q(s, z) - (1-b) b**(b/(1-b)) (a s)**(1/(1-b)) t**(-b/(1-b)),
    log q plus the left-tail exponent of the density of E_t (that of X at
    X = t (a s)**(-1/b)).  The search in log s runs from e**-14 times the
    typical size t**b / a of E_t to the support bound of h_t on a grid of
    _SADDLE_GRID points, then _SADDLE_LEVELS times more on the two cells
    around the best point; where q underflows the objective is +inf."""
    a, b = model.exponent.power
    scale = (1.0 - b) * b ** (b / (1.0 - b)) * t ** (-b / (1.0 - b))

    def minus_log_weight(u):
        s = np.exp(u)
        with np.errstate(divide="ignore", over="ignore"):
            return scale * (a * s) ** (1.0 / (1.0 - b)) - np.log(kernel.q(s, z))

    lo, hi = math.log(t ** b / a) - 14.0, math.log(model.inverse_support(t))
    for _ in range(_SADDLE_LEVELS):
        grid = np.linspace(lo, hi, _SADDLE_GRID)
        k = int(np.argmin(minus_log_weight(grid)))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, _SADDLE_GRID - 1)]
    u = 0.5 * (lo + hi)
    log_x = math.log(t) - (math.log(a) + u) / b
    return math.exp((math.log(b) - log_x) / (1.0 - b))


def _stable_draws(model, t, e_samples, generator):
    """The draws behind e_samples of a one-part exponent a lam**b, for
    `stable.tilted_sample`: X = t (a E)**(-1/b) of each inverse time
    E = (t/X)**b / a, as exp(log t - log(a E) / b), and the ratios e/X of n
    unit exponentials e that continue the stream.  An E that underflowed
    to 0 gives X = inf and a ratio 0, a piece the tilt always rejects."""
    a, b = model.exponent.power
    with np.errstate(divide="ignore", over="ignore"):
        x = np.log(e_samples)
        x += math.log(a)
        x /= -b
        x += math.log(t)
        np.exp(x, out=x)
        ratio = generator.exponential(1.0, e_samples.size)
        ratio /= x
    return x, ratio


def _tilted(kernel, model, t, z, x, ratio):
    """p(t, z) for a one-part exponent a lam**b from the Esscher-tilted X
    that `stable.tilted_sample` makes of the row's draws x and ratios e/x:
    the mean of q((t/X)**b / a, z) exp(theta X - theta**b).  None when fewer
    than two tilted draws came out."""
    a, b = model.exponent.power
    theta = _saddle_tilt(kernel, model, t, z)
    x = stable.tilted_sample(b, theta, x, ratio)
    if x.size < 2:
        return None
    weights = np.exp(theta * x - theta ** b)
    return _mc_mean(kernel.q(np.exp(b * (math.log(t) - np.log(x))) / a, z) * weights,
                    "mc-tilted")


@_along_z
def density_monte_carlo(kernel, model, t, z, n, rng):
    """p(t, z) as the sample mean of q over n inverse-subordinator draws,
    for a scalar z or each z of a 1-d array, as one estimate or a list of
    them.  One draw set is made per call and shared by every z, and so is
    one q buffer: the kernel's row form at the draws fills it one z at a
    time, so no (z, draw) array is built.

    A z whose effective sample size falls below _MC_MIN_ESS is re-estimated
    for a one-part exponent by `_tilted`, from the same stable draws: at the
    first such z the row derives X from its inverse times and draws n unit
    exponentials e after them (`_stable_draws`), and every tilted z reads X
    and e/X, formed once per row.  So a row makes one stable draw set
    plus at most one exponential array, and every z, tilted or not, gets
    the estimate that a scalar call on the same stream gives.  A tilted z
    keeps the method "mc-tilted" and is converged when its own ESS reaches
    the floor.  A collapsed z of several parts comes back flagged."""
    if n < 100:
        raise DomainError(f"need at least 100 samples, got {n}")
    _check_domain(kernel, t, z)
    e_samples = model.sample_inverse(t, rng, n)
    q_of, buf = kernel.at(e_samples), np.empty(n)
    draws, row = None, []
    for zj in z.tolist():
        est = _mc_mean(q_of(zj, out=buf), "mc")
        if not est.converged and model.exponent.power is not None:
            draws = draws or _stable_draws(model, t, e_samples, rng.generator)
            est = _tilted(kernel, model, t, zj, *draws) or est
        row.append(est)
    return row


# --------------------------------------------------------------------------
# Mittag-Leffler E_beta(-x)
# --------------------------------------------------------------------------

_ML_SERIES_EDGE, _ML_ASYMPTOTIC_EDGE = 1.0, 50.0
# series terms below this fraction of the leading one are dropped
_ML_NEGLIGIBLE = 1e-20
# the spectral integral: a power series in 1/x (ratio <= _ML_HEAD) for
# u < _ML_HEAD/x, then _ML_ORDER Gauss-Legendre nodes on each log-v panel
# of width <= _ML_PANEL, v = (ux)**(1/beta), up to e**-v = 3e-20 at _ML_CUT
_ML_HEAD, _ML_CUT, _ML_PANEL, _ML_ORDER = 0.5, 45.0, 1.5, 12
# above this order the pole of the spectral integrand lies within
# pi (1 - beta)/beta < pi/2 of the log-v axis, too close for the shared
# nodes, and is subtracted; E at the pole then has modulus <= 1
_ML_POLE_BETA = 2.0 / 3.0
# rows of x per block of the (x, node) arrays: no temporary passes ~0.3 MB
_ML_ROWS = 256


def _elementwise(kernel):
    """Let kernel(beta, x) of a 1-d x take any x; a scalar gives a float."""
    @wraps(kernel)
    def wrapped(beta, x):
        x = np.asarray(x, dtype=float)
        return kernel(beta, x.ravel()).reshape(x.shape)[()]
    return wrapped


@_elementwise
def mittag_leffler(beta, x):
    """E_beta(-x) for beta in (0, 1), elementwise over x >= 0.

    Power series for x <= 1, the completely monotone spectral
    representation for 1 < x < 50, and the alternating asymptotic series
    with minimal-term truncation for x >= 50.  The branches agree to
    ~1e-15 at both switchover points.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"order must lie in (0, 1), got {beta}")
    if not np.all(x >= 0.0):
        raise DomainError("argument must be >= 0")
    out = np.empty(x.size)
    series, asymptotic = x <= _ML_SERIES_EDGE, x >= _ML_ASYMPTOTIC_EDGE
    spectral = ~(series | asymptotic)
    out[series] = _ml_series(beta, x[series])
    out[spectral] = _ml_integral(beta, x[spectral])
    out[asymptotic] = _ml_asymptotic(beta, x[asymptotic])
    return out


@_elementwise
def _ml_series(beta, x):
    """sum_k (-x)**k / Gamma(1 + beta k) by Horner's rule, down to the
    first coefficient below _ML_NEGLIGIBLE."""
    coef = _rgamma(1.0 + beta * np.arange(math.ceil(25.0 / beta) + 4))
    total = np.zeros(x.size)
    for ck in coef[:4 + int(np.argmax(coef[4:] < _ML_NEGLIGIBLE))][::-1]:
        total = total * -x + ck
    return total


@lru_cache(maxsize=16)
def _ml_spectral_rule(beta):
    """The x-independent parts of `_ml_integral`: the body nodes as
    v**beta, the weights of its two terms and the head coefficients."""
    v_head = _ML_HEAD ** (1.0 / beta)
    lo, hi = math.log(v_head), math.log(_ML_CUT)
    log_v, weights = panel_nodes(
        np.linspace(lo, hi, math.ceil((hi - lo) / _ML_PANEL) + 1), _ML_ORDER)
    v = np.exp(log_v)
    m = np.arange(1, math.ceil(math.log(_ML_NEGLIGIBLE) / math.log(_ML_HEAD)) + 1)
    head = beta * np.sin(m * math.pi * (1.0 - beta)) * _lower_gamma(beta * m, v_head)
    return v ** beta, beta * weights * np.exp(-v), beta * weights, head


def _rgamma(x):
    """1/Gamma at each x of a 1-d array, exactly 0 at the poles 0, -1, -2, ..."""
    return np.array([0.0 if v <= 0.0 and v == math.floor(v) else 1.0 / math.gamma(v)
                     for v in x.tolist()])


def _lower_gamma(a, x):
    """The lower incomplete gamma function int_0^x s**(a-1) e**-s ds at each
    a > 0 of an array, for one x > 0, by its series (DLMF 8.7.1)
    x**a e**-x sum_n x**n / (a (a+1) ... (a+n)), whose terms all have one
    sign, to the first term below eps/4 of every sum."""
    term = 1.0 / a
    total = term.copy()
    n = 0
    while np.any(term > 0.25 * EPS * total):
        n += 1
        term = term * x / (a + n)
        total += term
    return x ** a * math.exp(-x) * total


@_elementwise
def _ml_integral(beta, x):
    """E_beta(-x) = Im int_0^inf E(u) / (u - zeta) du / (beta pi), the
    spectral representation, with E(u) = exp(-(ux)**(1/beta)) and
    zeta = -exp(-i beta pi).

    For u < _ML_HEAD/x, 1/(u - zeta) expands in powers of u and each term
    integrates in closed form: a polynomial in 1/x.  The rest is one
    Gauss-Legendre rule in log v, v = (ux)**(1/beta), shared by every x.
    Above _ML_POLE_BETA, where Im 1/(u - zeta) peaks at u ~ 1 with width
    ~pi(1 - beta), the integrand is (E(u) - E(zeta) k(u))/(u - zeta),
    smooth at the pole, with k(u) = (zeta + 1)/(u + 1); the integral of
    E(zeta) k(u)/(u - zeta) is added back in closed form.
    """
    v_beta, w_exp, w_pole, head = _ml_spectral_rule(beta)
    # cos and sin of beta pi from (1 - beta) pi, which stays accurate as beta -> 1
    c, s = -math.cos(math.pi * (1.0 - beta)), math.sin(math.pi * (1.0 - beta))
    zeta = complex(-c, s)
    inv_x = 1.0 / x
    total = np.zeros(x.size)
    pole = beta > _ML_POLE_BETA
    if pole:
        e_zeta = np.exp(-x ** (1.0 / beta) * np.exp(1j * math.pi * (1.0 - beta) / beta))
        u_head, u_cut = _ML_HEAD * inv_x, _ML_CUT ** beta * inv_x
        total += (e_zeta * (np.log((u_cut - zeta) / (u_cut + 1.0))
                            - np.log((u_head - zeta) / (u_head + 1.0)))).imag
        coef = e_zeta * (zeta + 1.0)
    for blk in (slice(i, i + _ML_ROWS) for i in range(0, x.size, _ML_ROWS)):
        powers = np.cumprod(np.broadcast_to(inv_x[blk, None], (total[blk].size, head.size)), axis=1)
        u = inv_x[blk, None] * v_beta
        den = (u + c) ** 2 + s * s
        total[blk] += powers @ head + (s * u / den) @ w_exp
        if pole:
            total[blk] -= (u * (coef.imag[blk, None] * (u + c) + coef.real[blk, None] * s)
                           / ((u + 1.0) * den)) @ w_pole
    return total / (beta * math.pi)


@lru_cache(maxsize=16)
def _ml_asymptotic_coeffs(beta):
    """(k, (-1)**(k+1) / Gamma(1 - beta k)) for the nonzero terms, k < 120."""
    k = np.arange(1.0, 120.0)
    coef = (-1.0) ** (k + 1) * _rgamma(1.0 - beta * k)
    return k[coef != 0.0], coef[coef != 0.0]


def _up_to_smallest(terms):
    """Rows of asymptotic-series terms with every term from the first one
    that grows on set to 0: minimal-term truncation."""
    grown = np.logical_or.accumulate(np.abs(terms[..., 1:]) > np.abs(terms[..., :-1]), axis=-1)
    return np.concatenate([terms[..., :1], np.where(grown, 0.0, terms[..., 1:])], axis=-1)


@_elementwise
def _ml_asymptotic(beta, x):
    """sum_k (-1)**(k+1) x**-k / Gamma(1 - beta k) up to its smallest term."""
    k, coef = _ml_asymptotic_coeffs(beta)
    # past the first term negligible at the smallest x, each term is
    # negligible at every x or comes after one that grows
    small = np.flatnonzero(np.abs(coef) * x.min(initial=np.inf) ** (1.0 - k)
                           < _ML_NEGLIGIBLE * abs(coef[0]))
    k, coef = (part[:small[0] if small.size else None] for part in (k, coef))
    total = np.empty(x.size)
    for blk in (slice(i, i + _ML_ROWS) for i in range(0, x.size, _ML_ROWS)):
        total[blk] = _up_to_smallest(coef * x[blk, None] ** -k).sum(axis=1)
    return total


# --------------------------------------------------------------------------
# Fourier oracle
# --------------------------------------------------------------------------

# integrations by parts that close the z > 0 tail at xi_end, where
# z xi_end >= 40: each one shrinks the remainder by ~(alpha + j)/(z xi_end)
_FOURIER_PARTS = 8
# a Fourier value is converged where its stated error is at most this times |p|
_FOURIER_REL_TOL = 1e-5
# the table of log E_beta(-e**u) spans u in [_ML_TABLE_LO, _ML_TABLE_HI]:
# below, E = 1 to rounding; above, the asymptotic series takes over; its
# Chebyshev tail is held to _ML_TABLE_TOL of its peak, |log E(-e**20)| ~ 20
_ML_TABLE_LO, _ML_TABLE_HI, _ML_TABLE_TOL = -40.0, 20.0, 1e-15
# log-spaced starting panels of the z > 0 head, per decade from the knee / 100
_FOURIER_PER_DECADE = 4


@lru_cache(maxsize=16)
def _ml_table(beta):
    """Piecewise Chebyshev table of F(u) = log E_beta(-e**u) on
    [_ML_TABLE_LO, _ML_TABLE_HI], built from `mittag_leffler`; its stated
    error is absolute in F, so relative in E."""
    return chebyshev_table(lambda u: np.log(mittag_leffler(beta, np.exp(u)))[None, :],
                           _ML_TABLE_LO, _ML_TABLE_HI, _ML_TABLE_TOL)


def _ml_tabulated(beta, x):
    """E_beta(-x) at x >= 0 from `_ml_table`: 1 below e**_ML_TABLE_LO and the
    asymptotic series above e**_ML_TABLE_HI."""
    with np.errstate(divide="ignore"):
        u = np.log(x)
    out = np.where(u < _ML_TABLE_LO, 1.0,
                   np.exp(_ml_table(beta)(np.clip(u, _ML_TABLE_LO, _ML_TABLE_HI), 0)))
    far = u > _ML_TABLE_HI
    if far.any():
        out[far] = _ml_asymptotic(beta, x[far])
    return out


def density_fourier(beta, spatial_alpha, t, z):
    """p(t, z) = (1/pi) int_0^inf cos(xi z) E_beta(-xi**alpha t**beta) dxi."""
    return _fourier((1.0, beta), spatial_alpha, t, z).value


def _fourier(power, alpha, t, z):
    """p(t, z) by the Fourier-Mittag-Leffler representation for phi = a lam**beta,
    (a, beta) = power, where E_t = (t/X)**beta / a makes t**beta / a the time
    scale, as a `SolutionEstimate` with method "fourier", 1-d only; alpha selects the
    Gaussian (2) or Cauchy (1) spatial generator.

    The head up to xi_end is one adaptive Gauss-Kronrod pass that reads E
    from `_ml_table`, split where xi**alpha t**beta = 1 and, for z > 0, at
    every quarter period of cos(xi z) and _FOURIER_PER_DECADE times per
    decade from a hundredth of that knee.  The tail follows from the
    asymptotic expansion of E_beta, integrated by parts for z > 0 and term
    by term for z = 0.  The error is the Kronrod error, plus the table's
    error times xi_end, which bounds int E over the head as E <= 1, plus
    the size of the last closing term.  It is converged where the head
    converged and the error is at most _FOURIER_REL_TOL |p|.
    """
    if alpha not in (1, 2):
        raise DomainError(f"the Fourier oracle needs gaussian:1 or cauchy:1, got order {alpha}")
    _check_point(t, z)
    if z == 0.0 and alpha == 1:
        raise DomainError("on-diagonal value diverges for spatial order 1")
    a, beta = power
    tb = t ** beta / a
    knee = tb ** (-1.0 / alpha)
    if z == 0.0:
        xi_end = (60.0 / tb) ** (1.0 / alpha)
        bounds = np.append(0.0, geometric_boundaries(knee, xi_end))
    else:
        xi_end = max((30.0 / tb) ** (1.0 / alpha), 40.0 / z)
        bounds = np.unique(np.concatenate([
            np.arange(0.0, xi_end, 0.5 * math.pi / z),
            geometric_boundaries(0.01 * knee, xi_end, _FOURIER_PER_DECADE, (knee,))]))
    head, err, converged = kronrod_quad(
        lambda xi: _ml_tabulated(beta, xi ** alpha * tb) * np.cos(xi * z), bounds,
        rel_tol=1e-11, abs_floor=1e-13)
    err += float(_ml_table(beta).error[0]) * xi_end
    k, coef = _ml_asymptotic_coeffs(beta)
    if z == 0.0:
        terms = _up_to_smallest(coef * (tb * xi_end ** alpha) ** -k * xi_end / (alpha * k - 1.0))
        tail, closing = terms.sum(), abs(terms[terms != 0.0][-1])
    else:
        # with f^(j)(a), a = xi_end, from the asymptotic expansion, n integrations
        # by parts give Re e^{iza} sum_{j<n} f^(j)(a) (i/z)^(j+1) for the tail,
        # with a remainder of at most |f^(n-1)(a)|/z^n: f^(n-1) decays monotonically
        terms = _up_to_smallest(coef * (tb * xi_end ** alpha) ** -k)
        falling = np.cumprod(-(alpha * k[:, None] + np.arange(_FOURIER_PARTS - 1.0)), axis=1)
        derivs = np.append(terms.sum(), terms @ falling / xi_end ** np.arange(1.0, _FOURIER_PARTS))
        tail = (np.exp(1j * z * xi_end)
                * (derivs @ (1j / z) ** np.arange(1, _FOURIER_PARTS + 1))).real
        closing = abs(derivs[-1]) / z ** _FOURIER_PARTS
    value, error = float(head + tail) / math.pi, float(err + closing) / math.pi
    return SolutionEstimate(value, error, "fourier",
                            converged and error <= _FOURIER_REL_TOL * abs(value))


# --------------------------------------------------------------------------
# Mass conservation
# --------------------------------------------------------------------------

# the mass pass runs in log y from _MASS_REACH**-1 to _MASS_REACH times the
# length scale L of p, starting at one panel per two decades with knots
# at L/10, L and 10 L
_MASS_REACH = 1e16


def mass_residual(kernel, model, t):
    """|int_R p(t, |y|) dy - 1| for 1-d exact kernels.

    One Gauss-Kronrod pass in log y whose integrand, p(t, y) y, is the row
    form of `density_quadrature` at the nodes of each round, so one round
    is one contour sum and at most one shared-h_t pass.  L is the kernel's
    length scale at 1/phi(1/t); beyond L * _MASS_REACH the mass of the
    Cauchy tail, the slowest, is of order 1/_MASS_REACH.
    """
    if kernel.fourier_order is None:
        raise DomainError("mass check needs a 1-d exact kernel")
    length = kernel.length_scale(1.0 / model.exponent.phi(1.0 / t))

    def in_log_y(v):
        y = np.exp(v)
        return np.array([est.value for est in density_quadrature(kernel, model, t, y)]) * y

    bounds = np.log(geometric_boundaries(
        length / _MASS_REACH, length * _MASS_REACH, per_decade=0.5,
        extra=(0.1 * length, length, 10.0 * length)))
    half, _, _ = kronrod_quad(in_log_y, bounds, REL_TOL, ABS_FLOOR)
    return abs(2.0 * half - 1.0)


# --------------------------------------------------------------------------
# Weak-form residual for the fractional-in-time evolution
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianBump:
    """amplitude * exp(-((x - center)/width)**2); closed under heat flow."""

    center: float = 0.0
    width: float = 1.0
    amplitude: float = 1.0

    def __call__(self, x):
        u = (np.asarray(x, dtype=float) - self.center) / self.width
        return (self.amplitude * np.exp(-u * u))[()]

    def second_derivative(self, x):
        u = np.asarray(x, dtype=float) - self.center
        w2 = self.width ** 2
        return (self.amplitude * np.exp(-u * u / w2)
                * (4.0 * u * u / w2 ** 2 - 2.0 / w2))[()]

    def heat_evolution(self, r, x):
        """exp(r d^2/dx^2) applied to the bump (broadcasts r against x)."""
        r = np.asarray(r, dtype=float)
        x = np.asarray(x, dtype=float)
        w2 = self.width ** 2 + 4.0 * r
        u = x - self.center
        return (self.amplitude * self.width / np.sqrt(w2)
                * np.exp(-u * u / w2))[()]


@dataclass(frozen=True)
class WeakFormReport:
    residual: float            # max over t of |LHS - RHS| / max(|RHS|, floor)
    rows: tuple                # (t, lhs, rhs) triples
    generator_error: float     # |G(r_hi) - G(r_lo) - int G2 dr| / max(|int G2 dr|, floor)
    initial_error: float       # max |u(0+, x) - f(x)| on the grid
    converged: bool            # every Gauss-Kronrod row and the G table met its tolerance
    quad_error: float          # worst Gauss-Kronrod row error over |row value|
    n_profiles: int            # heat profiles T_r f of the G table and the initial check
    table_error: float         # worst G-table row error over the row's maximum


# Gauss-Legendre nodes of the memory integral in the substituted variable v
_WEAK_NODES = 32
# the rows integrate in log rho from _WEAK_HEAD times the support bound of
# E_1 up to that bound, starting from one panel per two decades
_WEAK_HEAD = 1e-16
# the E-scale s**beta of the time at which the initial check takes u(s, .)
_WEAK_START = 1e-16
# the bound on the last Chebyshev coefficients of the G table, per row maximum
_WEAK_TABLE_TOL = 1e-14
# (r, x) values per block of heat-evolution profiles: each temporary stays
# near 128 kB, which is faster than larger blocks as well as smaller
_WEAK_BLOCK = 1 << 14


def _simpson_weights(x_grid):
    """Simpson's rule (scipy's composite form, in its arithmetic) on x_grid
    as a weight vector: the uneven-spacing three-point rule on each pair of
    intervals, with Cartwright's correction on the last one for even n."""
    h = np.diff(x_grid)
    h0, h1 = h[:-1:2], h[1::2]
    sixth, ratio = (h0 + h1) / 6.0, h0 / h1
    weights = np.zeros_like(x_grid)
    weights[:-2:2] = sixth * (2.0 - 1.0 / ratio)
    weights[1:-1:2] = sixth * ((h0 + h1) * ((h0 + h1) / (h0 * h1)))
    weights[2::2] += sixth * (2.0 - ratio)
    if h.size % 2:
        a, b = h[-2:-1], h[-1:]
        weights[-3:] += np.r_[-b ** 3 / (6 * a * (a + b)), (b ** 2 + 3.0 * a * b) / (6 * a),
                              (2 * b ** 2 + 3 * a * b) / (6 * (b + a))]
    return weights


def _x_integrals(f, r, weights, x_grid):
    """weights.T @ (T_r f on x_grid) at each r of the 1-d array r, a row per
    column of weights, the profiles built a block of r at a time."""
    out = np.empty((weights.shape[1], r.size))
    step = max(1, _WEAK_BLOCK // x_grid.size)
    for i in range(0, r.size, step):
        out[:, i:i + step] = (f.heat_evolution(r[i:i + step, None], x_grid) @ weights).T
    return out


def _self_similar_rows(model, rows):
    """int h_1(rho) row(rho) drho for each row of rows(log rho), an array
    with the rho index last, by one Gauss-Kronrod pass in log rho on which
    every row shares the nodes and h_1, the density of E_1, is evaluated
    once per node.  Returns (total, error, converged) per row."""
    rho_hi = model.inverse_support(1.0)
    bounds = np.log(geometric_boundaries(_WEAK_HEAD * rho_hi, rho_hi, per_decade=0.5))

    def in_log_rho(y):
        rho = np.exp(y)
        return model.inverse_density(1.0, rho) * rho * rows(y)

    return kronrod_quad(in_log_rho, bounds, REL_TOL, ABS_FLOOR)


def _check_weak_grids(beta, t_grid, x_grid):
    if not 0.0 < beta < 1.0:
        raise DomainError(f"order must lie in (0, 1), got {beta}")
    if t_grid.ndim != 1 or t_grid.size == 0 or not np.all((t_grid > 0.0) & np.isfinite(t_grid)):
        raise DomainError("the t grid needs at least one t, each finite and > 0")
    if (x_grid.ndim != 1 or x_grid.size < 3 or not np.all(np.isfinite(x_grid))
            or not np.all(np.diff(x_grid) > 0.0)):
        raise DomainError("the x grid needs at least 3 finite, strictly increasing points")


def caputo_weak_residual(beta, f, g, t_grid, x_grid):
    """Residual of the weak-form identity
        d/dt int g(x) I_t^w u(., x) dx = int u(t, x) g''(x) dx
    where I_t^w u = int_0^t w(t-s)(u(s,.) - f) ds with the fractional kernel
    w(s) = s**(-beta)/Gamma(1-beta), u(s, .) = E[T_{E_s} f] the
    time-changed heat evolution of f, and the spatial generator the 1-d
    Laplacian.

    The x integrals are Simpson's rule (scipy's composite form) on x_grid.  As
    E_s = s**beta E_1 in law, F(s) = int g (u(s, .) - f) dx = E[G(s**beta E_1)] -
    G(0), with G(r) = int g T_r f dx, vanishes at 0, so the left side is exactly
    int_0^t w(t-s) beta s**(beta-1) E[E_1 G2(s**beta E_1)] ds, G2(r) = int g''
    T_r f dx, and the right side E[G2(t**beta E_1)].  On each side of
    t/2, s = (t/2) v**(1/beta) or t - (t/2) v**(1/(1-beta)) makes it smooth
    in v, with _WEAK_NODES Gauss-Legendre nodes.  Each t is one self-similar
    Gauss-Kronrod pass in log rho, a row per memory time and one for the
    right side, all sharing h_1 and reading G2 from one piecewise-Chebyshev
    table of G and G2 in log r, resolved to _WEAK_TABLE_TOL of each row's
    maximum; as int h_1 rho = 1/Gamma(1+beta) >= int h_1, each row's error
    gains G2's times that.  `generator_error`, |G(r_hi) - G(r_lo) - int G2 dr|
    over max(|int G2 dr|, 1e-8) on the table's range, checks d/dr G = G2.
    The initial check u(0+, .) = f takes the same rule with a row per x, at
    the time s0 with s0**beta = _WEAK_START: u(s0, .) - f is of order
    s0**beta, so the check measures the quadrature error at every beta
    rather than the true deviation.  `converged` and `quad_error` report
    the Kronrod rows with the table error, `converged` the table too.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    _check_weak_grids(beta, t_grid, x_grid)
    model = SubordinatorModel(Stable(beta))
    weights = _simpson_weights(x_grid)
    f_vals = f(x_grid)
    wg = weights * g(x_grid)
    wg2 = weights * g.second_derivative(x_grid)

    v_nodes, v_weights = panel_nodes([0.0, 1.0], _WEAK_NODES)
    # memory times s = (t/2) v**(1/beta) below t/2, s = (t/2) q above, q = 2 - v**(1/(1-beta));
    # the weight of E[E_1 G2(s**beta E_1)] in int_0^t w(t-s) F'(s) ds is then
    # (2 - v**(1/beta))**-beta dv below and beta/(1-beta) q**(beta-1) dv above
    upper = 2.0 - v_nodes ** (1.0 / (1.0 - beta))
    log_frac = np.concatenate([np.log(v_nodes) / beta, np.log(upper)]) - math.log(2.0)
    memory_weights = np.tile(v_weights, 2) / math.gamma(1.0 - beta) * np.concatenate([
        (2.0 - v_nodes ** (1.0 / beta)) ** -beta, beta / (1.0 - beta) * upper ** (beta - 1.0)])
    # G and G2 at r = s**beta rho for every rho of the Kronrod passes and every s
    rho_hi = model.inverse_support(1.0)
    table = chebyshev_table(
        lambda y: _x_integrals(f, np.exp(y), np.stack([wg, wg2], 1), x_grid),
        math.log(_WEAK_HEAD * rho_hi) + beta * (math.log(t_grid.min()) + log_frac.min()),
        math.log(rho_hi) + beta * math.log(t_grid.max()), _WEAK_TABLE_TOL)
    table_error = table.error[1] / math.gamma(1.0 + beta)

    rows = []
    passes = []  # (total, error, converged) per row of every Kronrod pass
    max_res = 0.0
    for t in t_grid:
        log_scales = beta * (math.log(t) + log_frac)
        total, error, ok = _self_similar_rows(model, lambda y: np.vstack([
            table(log_scales[:, None] + y, 1) * np.exp(y), table(beta * math.log(t) + y, 1)]))
        error = error + table_error
        tol = np.maximum(REL_TOL * np.abs(total), ABS_FLOOR)
        passes.append((total, error, ok & (error <= tol)))
        lhs, rhs = memory_weights @ total[:-1], total[-1]
        rows.append((float(t), float(lhs), float(rhs)))
        max_res = max(max_res, abs(lhs - rhs) / max(abs(rhs), 1e-8))

    # d/dr G = G2 on the table's range: G(r_hi) - G(r_lo) against int G2 dr
    passes.append(kronrod_quad(lambda y: table(y, 1)[None] * np.exp(y), table.edges,
                               REL_TOL, ABS_FLOOR))
    span = passes[-1][0][0]
    generator_error = abs(np.diff(table(table.edges[[0, -1]], 0))[0] - span) / max(abs(span), 1e-8)
    # u(s0, .) at the E-scale s0**beta = _WEAK_START: E_s0 = s0**beta E_1
    sizes = []  # the rho nodes of this pass, one heat profile each
    passes.append(_self_similar_rows(model, lambda y: sizes.append(y.size) or f.heat_evolution(
        _WEAK_START * np.exp(y), x_grid[:, None])))
    initial_error = float(np.max(np.abs(passes[-1][0] - f_vals)))
    total, error, ok = (np.concatenate(part) for part in zip(*passes))
    with np.errstate(divide="ignore", invalid="ignore"):
        quad_error = float(np.where(error > 0.0, error / np.abs(total), 0.0).max())
    table_ratio = np.divide(table.error, table.peak, out=np.zeros(2), where=table.peak > 0.0)
    return WeakFormReport(float(max_res), tuple(rows), float(generator_error), initial_error,
                          bool(ok.all()) and table.converged, quad_error,
                          table.nodes + sum(sizes), float(table_ratio.max()))
