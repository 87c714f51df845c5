"""Distributions and samplers for a subordinator S and its inverse E.

A stable or stable-mixture exponent phi = sum_i a_i lam**beta_i is one
path, a stable exponent being its one-part case: S_r is the sum of the
independent parts Y_i = (a_i * r)**(1/beta_i) * X_i, X_i standard
beta_i-stable.

* Each part's law is evaluated from the log of its standard argument
  x (a r)**(-1/beta_i), so a scale outside float range costs no digits.
* The law of S_r is the stable law for one part and otherwise a
  convolution conditioned on the first part (`_sum_law`).
* E_t has density h_t(r) = M(t)/r, M = sum_i E[Y_i/beta_i; S_r in dx]/dx,
  as P(E_t <= r) = P(S_r >= t), with M = x f(x)/beta for one part and the
  same conditioning for several, vectorized over r (`_sum_density`).
* For one part E_t = (t / X)**beta / a in distribution, which gives the
  sampler; several parts take a discretized-path sampler with
  first-passage refinement.
* S_r is at least each of its parts, so E_t is at most each part's own
  inverse time: the support bound of E_t is the least of the parts'.
* The integrated-tail identities of a stable exponent integrate that
  convolution over log r in one Gauss-Kronrod pass.

Exponents constructed by quadrature have no stable parts, so only the
estimate-evaluation paths accept them; distribution and sampling calls
raise UnsupportedModelError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import stable
from .bernstein import LaplaceExponent, Stable
from .errors import DomainError, QuadratureError, UnsupportedModelError
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, geometric_boundaries, kronrod_quad
from .rng import RngStream

# path steps one first-passage draw may take before it gives up
_MAX_INCREMENTS = 4_000_000
# convolutions start at this share of the argument, on _CONV_PANELS log
# panels bisected until |K15 - G7| meets _CONV_TOL relative in each row;
# a density of several parts or a tail mean takes _CONV_ROWS values of r a pass
_CONV_HEAD, _CONV_PANELS, _CONV_TOL, _CONV_ROWS = 1e-14, 16, 1e-11, 4


def _generator(rng):
    return rng.generator if isinstance(rng, RngStream) else rng


def _log_arg(b, ar, y):
    """log x, x = y * ar**(-1/b) the standard argument at y of the part
    ar**(1/b) X: the log of the product while that is a normal float, as a
    direct stable-law call takes it, else the difference of the logs."""
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        x = y * ar ** (-1.0 / b)
        return np.where((x >= np.finfo(float).tiny) & (x < np.inf), np.log(x),
                        np.log(y) - np.log(ar) / b)


def _part_law(b, ar, y, upper):
    """P(part > y) if upper else P(part <= y) for the part ar**(1/b) X."""
    return stable.law_at(b, _log_arg(b, ar, y), upper)


def _part_density(b, ar, y):
    """Density at y of the part ar**(1/b) X, ar = a r."""
    return stable.density_of_log(b, _log_arg(b, ar, y)) / y


def _convolve(x, integrand):
    """(foot, int integrand(y, x - y) dy over (foot, x - foot)), foot =
    x * _CONV_HEAD, by one adaptive Gauss-Kronrod pass in log y on the lower
    half and log(x - y) on the upper one, so both ends are resolved and the
    small argument of each pair is exact.  The integrand takes arrays
    (y, x - y) and may return rows, each an integral of its own."""
    def in_log(v):
        small = np.exp(v)
        return (integrand(small, x - small) + integrand(x - small, small)) * small

    ladder = np.linspace(np.log(x * _CONV_HEAD), np.log(x / 2.0), _CONV_PANELS + 1)
    return x * _CONV_HEAD, kronrod_quad(in_log, ladder, _CONV_TOL, 0.0)[0]


def _sum_law(terms, r, xs, upper):
    """P(S_r > x) if upper else P(S_r <= x) at each x of xs, S_r the sum of
    the parts (a * r)**(1/beta) * X of the (a, beta) terms: the stable law
    for one part, else, conditioned on the first part with density f_0,
        P(S_r > x) = P(first > x) + int_0^x f_0(u) P(rest > x - u) du
    (the same without the first term for P(S_r <= x)) by `_convolve`, plus
    the first part's mass below the foot times the rest's law at x."""
    (a, b), rest = terms[0], terms[1:]
    ar = np.float64(a * r)  # a numpy scalar powers like a Python float
    xs = np.asarray(xs, dtype=float)
    if not rest:
        return _part_law(b, ar, xs, upper)
    out = np.empty(xs.shape)
    for i, x in enumerate(xs):
        foot, total = _convolve(x, lambda y, u: _part_density(b, ar, y)
                                * _sum_law(rest, r, u, upper))
        total += _part_law(b, ar, foot, False) * _sum_law(rest, r, [x], upper)[0]
        if upper:
            total += _part_law(b, ar, x, True)
        out[i] = min(total, 1.0)
    return out


def _sum_density(terms, rs, xs):
    """(D, M) at each (r, x) of rs x xs: D the density of S_r and
    M = sum_i E[Y_i/beta_i; S_r in dx]/dx.  One part gives (f, x f/beta);
    several condition on the first part, of density f_1, by `_convolve`:
        D(x) = int f_1(y) D_rest(x - y) dy,
        M(x) = int f_1(y) [(y/beta_1) D_rest(x - y) + M_rest(x - y)] dy,
    plus the mass of each side below the foot: F_1(foot) times the rest's
    (D, M) at x, and F_rest(foot) f_1(x) times (1, x/beta_1).  These
    convolutions share their panels across _CONV_ROWS values of r a pass."""
    (a, b), rest = terms[0], terms[1:]
    ar = a * rs[:, None]
    if not rest:
        f = _part_density(b, ar, xs)
        return np.stack([f, xs * f / b])
    if rs.size > _CONV_ROWS:
        return np.concatenate([_sum_density(terms, rs[i:i + _CONV_ROWS], xs)
                               for i in range(0, rs.size, _CONV_ROWS)], axis=1)

    def integrand(y, u):
        d_rest, m_rest = _sum_density(rest, rs, u)
        return _part_density(b, ar, y) * np.stack([d_rest, y / b * d_rest + m_rest])

    out = np.empty((2, rs.size, xs.size))
    for i, x in enumerate(xs):
        foot, total = _convolve(x, integrand)
        low = _part_law(b, ar[:, 0], foot, False)
        high = _part_density(b, ar[:, 0], x) * [_sum_law(rest, r, [foot], False)[0] for r in rs]
        out[:, :, i] = (total + low * _sum_density(rest, rs, xs[i:i + 1])[:, :, 0]
                        + np.stack([high, high * x / b]))
    return out


@dataclass(frozen=True)
class SubordinatorModel:
    """A subordinator identified by its Laplace exponent."""

    exponent: LaplaceExponent
    quadrature: QuadratureConfig = field(default_factory=lambda: DEFAULT_QUADRATURE)

    def _components(self):
        """(a_i, beta_i): S_r is the sum of the independent (a_i r)**(1/beta_i) X_i."""
        terms = getattr(self.exponent, "terms", None)
        if terms is None:
            raise UnsupportedModelError("distribution paths need a stable or stable-mixture "
                                        f"exponent, got {type(self.exponent).__name__}")
        return terms

    # ----- distribution of S_r ---------------------------------------

    def cdf(self, r, t):
        """P(S_r <= t)."""
        if r <= 0.0 or t <= 0.0:
            raise DomainError("cdf needs r, t > 0")
        return float(_sum_law(self._components(), r, [t], upper=False)[0])

    def survival(self, r, t):
        """P(S_r >= t)."""
        if r <= 0.0 or t <= 0.0:
            raise DomainError("survival needs r, t > 0")
        return float(_sum_law(self._components(), r, [t], upper=True)[0])

    def log_cdf(self, r, t):
        """log P(S_r <= t), stable deep into the small-t tail."""
        comps = self._components()
        if len(comps) == 1:
            (a, b), = comps
            return stable.log_cdf_at(b, float(_log_arg(b, np.float64(a * r), t)))
        f = self.cdf(r, t)
        return float(np.log(f)) if f > 0.0 else -np.inf

    # ----- inverse subordinator ---------------------------------------

    def inverse_density(self, t, r):
        """Density of E_t at r, i.e. d/dr P(S_r >= t)."""
        if t <= 0.0 or r <= 0.0:
            raise DomainError("inverse_density needs t, r > 0")
        return float(self.inverse_density_grid(t, [r])[0])

    def inverse_density_grid(self, t, rs):
        """inverse_density vectorized over an array of r: M(t)/r with M from
        `_sum_density`."""
        rs = np.asarray(rs, dtype=float)
        flat = rs.ravel()
        m = _sum_density(self._components(), flat, np.array([t]))[1, :, 0]
        return (m / flat).reshape(rs.shape)

    def inverse_support(self, t):
        """r beyond which the density of E_t is zero: the least of the parts'
        stable bounds, as E_t is at most each part's E_t(beta_i) / a_i."""
        return min(1.5 * (t / (stable.a_zero(b) / 745.0) ** ((1.0 - b) / b)) ** b / a
                   for a, b in self._components())

    # ----- sampling ----------------------------------------------------

    def sample_subordinator(self, r, rng, n=1):
        """n draws of S_r."""
        comps = self._components()
        if r <= 0.0:
            raise DomainError("sample_subordinator needs r > 0")
        gen = _generator(rng)
        total = np.zeros(n)
        for a, b in comps:
            total += (a * r) ** (1.0 / b) * stable.sample(b, gen, n)
        return total

    def sample_inverse(self, t, rng, n=1, tol=1e-3):
        """n draws of E_t = inf{s : S_s > t}: (t / X)**beta / a for one
        part, a discretized path for several."""
        comps = self._components()
        if t <= 0.0:
            raise DomainError("sample_inverse needs t > 0")
        gen = _generator(rng)
        if len(comps) == 1:
            (a, b), = comps
            return (t / stable.sample(b, gen, n)) ** b / a
        return self._sample_inverse_path(t, gen, n, tol, comps)

    def _sample_inverse_path(self, t, gen, n, tol, comps):
        """Discretized-path first passage with a per-sample pilot pass.

        A coarse pilot run sizes the sample, then the returned draw comes
        from an independent fine path whose step is tol times the pilot
        value, accepted unconditionally.  The step must never be chosen by
        an accept/reject rule on the fine draw itself: accepting only
        paths whose passage index is large conditions on E being large and
        visibly skews the law.
        """
        scale0 = 1.0 / self.exponent.phi_inverse(1.0 / t)
        out = np.empty(n)
        for i in range(n):
            pilot = self._first_passage(t, 0.05 * scale0, comps, gen)
            delta = max(tol * pilot, 1e-9 * scale0)
            out[i] = self._first_passage(t, delta, comps, gen)
        return out

    def _first_passage(self, t, delta, comps, gen, chunk=512):
        """Midpoint estimate of the first passage above t of one path.

        Raises QuadratureError when the path has not passed t after
        _MAX_INCREMENTS steps: a truncated path would bias the draw low.
        """
        cum = 0.0
        increments = []
        while cum < t:
            if len(increments) * chunk >= _MAX_INCREMENTS:
                raise QuadratureError(
                    f"first passage above t={t!r} not reached in {_MAX_INCREMENTS} "
                    f"steps of {delta!r}")
            inc = np.zeros(chunk)
            for a, b in comps:
                inc += (a * delta) ** (1.0 / b) * stable.sample(b, gen, chunk)
            increments.append(inc)
            cum += inc.sum()
        path = np.cumsum(np.concatenate(increments))
        k = int(np.searchsorted(path, t, side="right"))
        return (k + 0.5) * delta


@dataclass(frozen=True)
class TailBoundsReport:
    """Fitted constants for the exponential tail bounds of S over a grid.

    All constants are fitted, not asserted: the report passes when every
    fitted constant is finite and positive.
    """

    concentration_c: float   # P(S_r >= t(1 + e r phi(1/t))) <= c r phi(1/t)
    lower_linear_c: float    # P(S_r >= t) >= 1 - exp(-c r phi(1/t))
    upper_exp_c: float       # P(S_r <= t) <= exp(-c r phi((phi')^-1(t/r)))
    lower_exp_c: float       # P(S_r <= t) >= exp(-c ...) on r phi(1/t) > 1
    ratio_lo: float          # bounds of P(S_r >= t)/(r phi(1/t))
    ratio_hi: float          # ... on the near regime r phi(1/t) <= 1
    passed: bool


def tail_bounds_report(model, rs, ts):
    """Evaluate both sides of the subordinator tail bounds on a grid."""
    exp_ = model.exponent
    conc = 0.0
    lower_lin = np.inf
    upper_exp = np.inf
    lower_exp = 0.0
    ratio_lo, ratio_hi = np.inf, 0.0
    for r in rs:
        for t in ts:
            x = r * exp_.phi(1.0 / t)
            sf = model.survival(r, t)
            logf = model.log_cdf(r, t)
            # concentration at the inflated time t(1 + e * x)
            sf_inflated = model.survival(r, t * (1.0 + np.e * x))
            conc = max(conc, sf_inflated / x)
            if logf > -np.inf:
                lower_lin = min(lower_lin, -logf / x)
            big = r * exp_.phi(exp_.phi_prime_inverse(t / r))
            if np.isfinite(logf) and logf < 0.0:
                upper_exp = min(upper_exp, -logf / big)
            if x > 1.0 and np.isfinite(logf):
                lower_exp = max(lower_exp, -logf / big)
            if x <= 1.0:
                ratio_lo = min(ratio_lo, sf / x)
                ratio_hi = max(ratio_hi, sf / x)
    fitted = [conc, lower_lin, upper_exp, lower_exp, ratio_lo, ratio_hi]
    passed = all(np.isfinite(v) and v > 0.0 for v in fitted)
    return TailBoundsReport(conc, lower_lin, upper_exp, lower_exp,
                            ratio_lo, ratio_hi, bool(passed))


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the integrated-tail balance identities."""

    total_residual: float          # | int_0^inf E[G(t - S_r); S_r <= t] dr - t | / t
    first_identity: dict           # s -> relative residual of the windowed identity


def _truncated_tail_mean(model, rs, t):
    """E[G(t - S_r); S_r <= t] at each r of rs by `_convolve` against the
    density of S_r, plus the mass of S_r below the foot times G(t), on
    panels shared by _CONV_ROWS values of r a pass."""
    if rs.size > _CONV_ROWS:
        return np.concatenate([_truncated_tail_mean(model, rs[i:i + _CONV_ROWS], t)
                               for i in range(0, rs.size, _CONV_ROWS)])
    b, g = model.exponent.beta, model.exponent.integrated_tail
    foot, total = _convolve(t, lambda y, u: _part_density(b, rs[:, None], y) * g(u))
    return total + _part_law(b, rs, foot, False) * g(t)


def integrated_tail_identities(model, t):
    """Check the two balance identities tying G to the law of S.

    Needs a stable exponent (closed-form integrated tail and density).
    Returns relative residuals; both identities hold exactly in the limit.
    """
    if not isinstance(model.exponent, Stable):
        raise UnsupportedModelError("identity checks need a stable exponent")
    if t <= 0.0:
        raise DomainError("identity checks need t > 0")
    b, g, tol = model.exponent.beta, model.exponent.integrated_tail, model.quadrature.rel_tol

    def in_log_r(v):
        return np.exp(v) * _truncated_tail_mean(model, np.exp(v), t)

    # below r_lo the integrand is G(t) to a relative O(r t**-b), so the
    # head int_0^r_lo is r_lo G(t) to about 1e-16 of the total
    r_lo = 1e-8 * t ** b
    bounds = np.log(geometric_boundaries(r_lo, model.inverse_support(t), per_decade=0.5,
                                         extra=(t ** b,)))
    total = r_lo * g(t) + kronrod_quad(in_log_r, bounds, tol, 0.0)[0]
    total_res = abs(total - t) / t

    # windowed identity: int_0^t w(t-r) P(S_s > r) dr
    #                    = G(t) - E[G(t - S_s); S_s <= t]
    # with the endpoint singularity of w removed by r = t(1 - (1 - q)**(1/(1-b))),
    # which leaves pref * int_0^1 P(S_s > r) dq, by one pass in log q from
    # r below about 1e-18 s**(1/b), where P(S_s > r) = 1: the head is q_lo
    pref = t ** (1.0 - b) / ((1.0 - b) * math.gamma(1.0 - b))
    first = {}
    for mult in (0.5, 1.0, 2.0):
        s = mult * t
        q_lo = 1e-20 * min(1.0, s ** (1.0 / b) / t)

        def in_log_q(u):
            q = np.exp(u)
            return q * _part_law(b, np.float64(s), -t * np.expm1(np.log1p(-q) / (1.0 - b)), True)

        bounds = np.log(geometric_boundaries(q_lo, 1.0, per_decade=1))
        lhs = pref * (q_lo + kronrod_quad(in_log_q, bounds, tol, 0.0)[0])
        rhs = g(t) - _truncated_tail_mean(model, np.array([s]), t)[0]
        first[s] = abs(lhs - rhs) / abs(rhs)
    return IdentityReport(float(total_res), first)
