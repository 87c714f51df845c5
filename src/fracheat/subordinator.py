"""Distributions and samplers for a subordinator S and its inverse E.

A stable or stable-mixture exponent phi = sum_i a_i lam**beta_i is one
path, a stable exponent being its one-part case: S_r is the sum of the
independent parts Y_i = (a_i * r)**(1/beta_i) * X_i, X_i standard
beta_i-stable.

* Each part's law is evaluated from the log of its standard argument
  x (a r)**(-1/beta_i), so a scale outside float range costs no digits.
* One recursion, `_sum_rows`, gives the law and the density of S_r and
  M = sum_i E[Y_i/beta_i; S_r in dx]/dx, vectorized over r: the stable law
  with M = x f(x)/beta for one part, else one convolution per level,
  conditioned on the first part.  E_t has density h_t(r) = M(t)/r, as
  P(E_t <= r) = P(S_r >= t).
* For one part E_t = (t / X)**beta / a in distribution, which gives the
  sampler; several parts take a discretized-path sampler with
  first-passage refinement.
* S_r is at least each of its parts, so E_t is at most each part's own
  inverse time: the support bound of E_t is the least of the parts'.
* The integrated-tail identities of a one-part exponent a lam**beta
  integrate that convolution over log r in one Gauss-Kronrod pass.

Exponents constructed by quadrature have no stable parts, so only the
estimate-evaluation paths accept them; distribution and sampling calls
raise UnsupportedModelError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stable
from .bernstein import LaplaceExponent
from .errors import DomainError, QuadratureError, UnsupportedModelError
from .numerics import REL_TOL, geometric_boundaries, kronrod_quad

# path steps one first-passage draw may take before it gives up
_MAX_INCREMENTS = 4_000_000
# convolutions start at this share of the argument, on _CONV_PANELS log
# panels bisected until |K15 - G7| meets _CONV_TOL relative in each row;
# the rows of several parts or a tail mean take _CONV_ROWS values of r a pass,
# refined for the worst row: on a two-part mixture 4 beat 1 and all, one x86-64
# core (257 inverse_density nodes at t = 1: 0.5 s against 0.8 s and 3.0 s;
# density_quadrature at z = 10, 30: 1.8 s against 2.8 s and 9.1 s)
_CONV_HEAD, _CONV_PANELS, _CONV_TOL, _CONV_ROWS = 1e-14, 16, 1e-11, 4
# the fine step of the mixture path sampler, relative to its pilot draw
_PATH_TOL = 1e-3


def _check_draws(name, arg, value, n):
    """A finite value > 0 of t or r and n >= 0 draws, as the samplers need."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} needs a finite {arg} > 0, got {value}")
    if n < 0:
        raise DomainError(f"{name} needs n >= 0 draws, got {n}")


def _log_arg(b, ar, y):
    """log x, x = y * ar**(-1/b) the standard argument at y of the part
    ar**(1/b) X: the log of the product while that is a normal float, as a
    direct stable-law call takes it, else the difference of the logs."""
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        x = np.asarray(y * ar ** (-1.0 / b))
        out = np.log(x, out=np.empty_like(x))
        odd = ~((x >= np.finfo(float).tiny) & (x < np.inf))
        if odd.any():
            y, ar = np.broadcast_arrays(y, ar)
            out[odd] = np.log(y[odd]) - np.log(ar[odd]) / b
    return out


def _part_rows(b, ar, y):
    """(P(part <= y), P(part > y), density at y) of the part ar**(1/b) X."""
    rows = stable.law_rows(b, _log_arg(b, ar, y))
    rows[2] /= y
    return rows


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


def _sum_rows(terms, rs, xs):
    """Rows (F, Fbar, D, M) at each (r, x) of rs x xs: P(S_r <= x),
    P(S_r > x), the density of S_r and M = sum_i E[Y_i/beta_i; S_r in dx]/dx,
    S_r the sum of the parts (a r)**(1/beta) X of the (a, beta) terms.  One
    part gives the stable rows and M = x f/beta; several condition on the
    first part, of law (F_1, Fbar_1, f_1), by one `_convolve` of
        int f_1(y) [F_R, Fbar_R, D_R, (y/beta_1) D_R + M_R](x - y) dy
    plus the mass below the foot: F_1(foot) times the rest's rows at x,
    F_R(foot) f_1(x) times (0, 0, 1, x/beta_1), and Fbar_1(x) on the Fbar
    row; _CONV_ROWS values of r share the panels of a pass."""
    (a, b), rest = terms[0], terms[1:]
    ar = a * rs[:, None]
    if not rest:
        low, high, f = _part_rows(b, ar, xs)
        return np.stack([low, high, f, xs * f / b])
    if rs.size > _CONV_ROWS:
        return np.concatenate([_sum_rows(terms, rs[i:i + _CONV_ROWS], xs)
                               for i in range(0, rs.size, _CONV_ROWS)], axis=1)

    def integrand(y, u):
        low, high, d, m = _sum_rows(rest, rs, u)
        return _part_rows(b, ar, y)[2] * np.stack([low, high, d, y / b * d + m])

    out = np.empty((4, rs.size, xs.size))
    for i, x in enumerate(xs):
        foot, total = _convolve(x, integrand)
        ends = np.array([foot, x])
        low, high, f = _part_rows(b, ar, ends)
        rest_foot, rest_x = np.moveaxis(_sum_rows(rest, rs, ends), 2, 0)
        dens = f[:, 1] * rest_foot[0]
        out[:, :, i] = total + low[:, 0] * rest_x
        out[1, :, i] += high[:, 1]
        out[2:, :, i] += np.stack([dens, dens * x / b])
    out[:2] = np.minimum(out[:2], 1.0)
    return out


@dataclass(frozen=True)
class SubordinatorModel:
    """A subordinator identified by its Laplace exponent."""

    exponent: LaplaceExponent

    def _components(self):
        """(a_i, beta_i): S_r is the sum of the independent (a_i r)**(1/beta_i) X_i."""
        terms = getattr(self.exponent, "terms", None)
        if terms is None:
            raise UnsupportedModelError("distribution paths need a stable or stable-mixture "
                                        f"exponent, got {type(self.exponent).__name__}")
        return terms

    # ----- distribution of S_r ---------------------------------------

    def _law(self, name, r, t):
        """(P(S_r <= t), P(S_r > t)) at each pair of r and t, broadcast, in
        their shape: one part elementwise, several by one `_sum_rows` call
        per pair, as a pass shared by several r costs more than their own.
        NaN fails r, t > 0."""
        r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
        if not (np.all(r > 0.0) and np.all(t > 0.0)):
            raise DomainError(f"{name} needs r, t > 0")
        rs, ts = r.ravel(), t.ravel()
        if self.exponent.power is not None:
            a, b = self.exponent.power
            return _part_rows(b, a * rs, ts)[:2].reshape((2,) + r.shape)
        terms = self._components()
        return np.concatenate([_sum_rows(terms, rs[i:i + 1], ts[i:i + 1])[:2, 0]
                               for i in range(rs.size)], axis=1).reshape((2,) + r.shape)

    def cdf(self, r, t):
        """P(S_r <= t) at each (r, t), broadcast."""
        return self._law("cdf", r, t)[0][()]

    def survival(self, r, t):
        """P(S_r >= t) at each (r, t), broadcast."""
        return self._law("survival", r, t)[1][()]

    def log_cdf(self, r, t):
        """log P(S_r <= t) at each (r, t), broadcast: log1p(-P(S_r > t))
        where that is the smaller row, else the log of the cdf, for one part
        stable deep into the small-t tail."""
        low, high = self._law("log_cdf", r, t)
        power = self.exponent.power
        with np.errstate(divide="ignore"):
            small = np.log(low) if power is None else stable.log_cdf_at(power[1], _log_arg(
                power[1], power[0] * np.asarray(r, dtype=float), np.asarray(t, dtype=float)))
            return np.where(high < low, np.log1p(-high), small)[()]

    # ----- inverse subordinator ---------------------------------------

    def inverse_density(self, t, r):
        """Density of E_t at each r, i.e. d/dr P(S_r >= t): M(t)/r with M
        from `_sum_rows`, in the shape of r; a scalar r gives a float."""
        rs = np.asarray(r, dtype=float)
        if not (t > 0.0 and np.all(rs > 0.0)):
            raise DomainError("inverse_density needs t, r > 0")
        flat = rs.ravel()
        h = _sum_rows(self._components(), flat, np.array([t]))[3, :, 0] / flat
        return float(h[0]) if rs.ndim == 0 else h.reshape(rs.shape)

    def inverse_support(self, t):
        """r beyond which the density of E_t is zero: the least of the parts'
        stable bounds, as E_t is at most each part's E_t(beta_i) / a_i."""
        return min(1.5 * (t / (stable.a_zero(b) / 745.0) ** ((1.0 - b) / b)) ** b / a
                   for a, b in self._components())

    # ----- sampling ----------------------------------------------------

    def sample_subordinator(self, r, rng, n=1):
        """n draws of S_r from the RngStream rng."""
        comps = self._components()
        _check_draws("sample_subordinator", "r", r, n)
        with np.errstate(over="ignore"):
            scales = [np.float64(a * r) ** (1.0 / b) for a, b in comps]
        if not max(scales) < math.inf:
            raise DomainError(f"sample_subordinator needs a finite part scale (a r)**(1/beta), "
                              f"got r={r}")
        total = np.zeros(n)
        for scale, (_, b) in zip(scales, comps):
            total += scale * stable.sample(b, rng.generator, n)
        return total

    def sample_inverse(self, t, rng, n=1):
        """n draws of E_t = inf{s : S_s > t} from the RngStream rng:
        (t / X)**beta / a for one part, formed from log X in place on the
        array of log X, a discretized path for several."""
        _check_draws("sample_inverse", "t", t, n)
        if self.exponent.power is not None:
            a, b = self.exponent.power
            e = stable.log_sample(b, rng.generator, n)
            np.subtract(math.log(t), e, out=e)
            e *= b
            np.exp(e, out=e)
            e /= a
            return e
        return self._sample_inverse_path(t, rng.generator, n, self._components())

    def _sample_inverse_path(self, t, gen, n, comps):
        """Discretized-path first passage with a per-sample pilot pass.

        A coarse pilot run sizes the sample, then the returned draw comes
        from an independent fine path whose step is _PATH_TOL times the
        pilot value, accepted unconditionally.  The step must never be chosen by
        an accept/reject rule on the fine draw itself: accepting only
        paths whose passage index is large conditions on E being large and
        visibly skews the law.
        """
        scale0 = 1.0 / self.exponent.phi_inverse(1.0 / t)
        out = np.empty(n)
        for i in range(n):
            pilot = self._first_passage(t, 0.05 * scale0, comps, gen)
            delta = max(_PATH_TOL * pilot, 1e-9 * scale0)
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
    """Evaluate both sides of the subordinator tail bounds on the grid rs x ts."""
    exp_ = model.exponent
    r, t = np.asarray(rs, dtype=float)[:, None], np.asarray(ts, dtype=float)[None, :]
    x = r * exp_.phi(1.0 / t)
    sf = model.survival(r, t)
    logf = model.log_cdf(r, t)
    big = r * exp_.phi(exp_.phi_prime_inverse(t / r))
    finite, near = np.isfinite(logf), x <= 1.0
    fitted = [
        # concentration at the inflated time t(1 + e * x)
        np.max(model.survival(r, t * (1.0 + np.e * x)) / x, initial=0.0),
        np.min(-logf / x, where=logf > -np.inf, initial=np.inf),
        np.min(-logf / big, where=finite & (logf < 0.0), initial=np.inf),
        np.max(-logf / big, where=finite & ~near, initial=0.0),
        np.min(sf / x, where=near, initial=np.inf),
        np.max(sf / x, where=near, initial=0.0),
    ]
    passed = all(np.isfinite(v) and v > 0.0 for v in fitted)
    return TailBoundsReport(*(float(v) for v in fitted), bool(passed))


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
    (a, b), g = model.exponent.power, model.exponent.integrated_tail
    foot, total = _convolve(t, lambda y, u: _part_rows(b, a * rs[:, None], y)[2] * g(u))
    return total + _part_rows(b, a * rs, foot)[0] * g(t)


def integrated_tail_identities(model, t):
    """Check the two balance identities tying G to the law of S.

    Needs a one-part exponent a lam**b (closed-form tail and density).
    Returns relative residuals; both identities hold exactly in the limit.
    """
    if model.exponent.power is None:
        raise UnsupportedModelError("identity checks need a one-part exponent a lam**b")
    if t <= 0.0:
        raise DomainError("identity checks need t > 0")
    (a, b), g = model.exponent.power, model.exponent.integrated_tail

    def in_log_r(v):
        return np.exp(v) * _truncated_tail_mean(model, np.exp(v), t)

    # below r_lo the integrand is G(t) to a relative O(a r t**-b), so the
    # head int_0^r_lo is r_lo G(t) to about 1e-16 of the total
    r_lo = 1e-8 * t ** b / a
    bounds = np.log(geometric_boundaries(r_lo, model.inverse_support(t), per_decade=0.5,
                                         extra=(t ** b / a,)))
    total = r_lo * g(t) + kronrod_quad(in_log_r, bounds, REL_TOL, 0.0)[0]
    total_res = abs(total - t) / t

    # windowed identity: int_0^t w(t-r) P(S_s > r) dr
    #                    = G(t) - E[G(t - S_s); S_s <= t]
    # with the endpoint singularity of w removed by r = t(1 - (1 - q)**(1/(1-b))),
    # which leaves pref * int_0^1 P(S_s > r) dq, by one pass in log q from
    # r below about 1e-18 (a s)**(1/b), where P(S_s > r) = 1: the head is q_lo
    pref = a * t ** (1.0 - b) / ((1.0 - b) * math.gamma(1.0 - b))
    first = {}
    for mult in (0.5, 1.0, 2.0):
        s = mult * t
        q_lo = 1e-20 * min(1.0, (a * s) ** (1.0 / b) / t)

        def in_log_q(u):
            q = np.exp(u)
            return q * _part_rows(b, np.float64(a * s), -t * np.expm1(np.log1p(-q) / (1.0 - b)))[1]

        bounds = np.log(geometric_boundaries(q_lo, 1.0, per_decade=1))
        lhs = pref * (q_lo + kronrod_quad(in_log_q, bounds, REL_TOL, 0.0)[0])
        rhs = g(t) - _truncated_tail_mean(model, np.array([s]), t)[0]
        first[s] = abs(lhs - rhs) / abs(rhs)
    return IdentityReport(float(total_res), first)
