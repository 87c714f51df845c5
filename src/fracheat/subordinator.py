"""Distributions and samplers for a subordinator S and its inverse E.

For the stable family everything reduces to the normalized law of S_1
through the scaling S_r = r**(1/beta) * S_1 and, for the inverse process,
E_t = (t / S_1)**beta in distribution.  Mixtures phi = sum a_i lam**beta_i
are realized as independent sums of scaled stable subordinators: the
component at elapsed time r has scale (a_i * r)**(1/beta_i); their
distributions are combined by quadrature convolution, and inverse-process
samples come from a discretized path with first-passage refinement.

Exponents constructed by quadrature carry no usable density, so only the
estimate-evaluation paths accept them; distribution and sampling calls
raise UnsupportedModelError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from . import stable
from .bernstein import LaplaceExponent, Stable, StableMixture
from .errors import DomainError, QuadratureError, UnsupportedModelError
from .numerics import DEFAULT_QUADRATURE, QuadratureConfig, panel_nodes
from .rng import RngStream

# path steps one first-passage draw may take before it gives up
_MAX_INCREMENTS = 4_000_000


def _generator(rng):
    return rng.generator if isinstance(rng, RngStream) else rng


@dataclass(frozen=True)
class SubordinatorModel:
    """A subordinator identified by its Laplace exponent."""

    exponent: LaplaceExponent
    quadrature: QuadratureConfig = field(default_factory=lambda: DEFAULT_QUADRATURE)

    def _distribution_kind(self):
        if isinstance(self.exponent, Stable):
            return "stable"
        if isinstance(self.exponent, StableMixture):
            return "mixture"
        raise UnsupportedModelError(
            "distribution paths need a stable or stable-mixture exponent, "
            f"got {type(self.exponent).__name__}")

    def _components(self, r):
        """Per-component (scale, beta) for S_r as an independent sum."""
        return [(((a * r) ** (1.0 / b)), b) for a, b in self.exponent.terms]

    # ----- distribution of S_r ---------------------------------------

    def cdf(self, r, t):
        """P(S_r <= t)."""
        kind = self._distribution_kind()
        if r <= 0.0 or t <= 0.0:
            raise DomainError("cdf needs r, t > 0")
        if kind == "stable":
            b = self.exponent.beta
            return stable.cdf(b, t * r ** (-1.0 / b))
        return self._mixture_cdf(self._components(r), t)

    def survival(self, r, t):
        """P(S_r >= t)."""
        kind = self._distribution_kind()
        if r <= 0.0 or t <= 0.0:
            raise DomainError("survival needs r, t > 0")
        if kind == "stable":
            b = self.exponent.beta
            return stable.survival(b, t * r ** (-1.0 / b))
        return self._mixture_survival(self._components(r), t)

    def log_cdf(self, r, t):
        """log P(S_r <= t), stable deep into the small-t tail."""
        kind = self._distribution_kind()
        if kind == "stable":
            b = self.exponent.beta
            return stable.log_cdf(b, t * r ** (-1.0 / b))
        f = self._mixture_cdf(self._components(r), t)
        return float(np.log(f)) if f > 0.0 else -np.inf

    @staticmethod
    def _conv_nodes(x):
        """Gauss-Legendre nodes on [0, x] refined geometrically toward both
        endpoints, where the convolution factors vary on octave scales."""
        ladder = np.geomspace(x * 1e-14, x / 2.0, 50)
        bounds = np.unique(np.concatenate([ladder, x - ladder[::-1]]))
        return panel_nodes(bounds, order=8)

    def _mixture_cdf(self, comps, x):
        """P(sum of scaled components <= x) by convolution quadrature."""
        if x <= 0.0:
            return 0.0
        (c0, b0), rest = comps[0], comps[1:]
        if not rest:
            return stable.cdf(b0, x / c0)
        nodes, weights = self._conv_nodes(x)
        f0 = stable.density_grid(b0, nodes / c0) / c0
        if len(rest) == 1:
            c1, b1 = rest[0]
            inner = stable.cdf_grid(b1, (x - nodes) / c1)
        else:
            inner = np.array([self._mixture_cdf(rest, x - u) for u in nodes])
        return float(min(np.dot(weights, f0 * inner), 1.0))

    def _mixture_survival(self, comps, x):
        """P(sum > x) = P(first > x) + E[rest-survival at x - first]."""
        if x <= 0.0:
            return 1.0
        (c0, b0), rest = comps[0], comps[1:]
        if not rest:
            return stable.survival(b0, x / c0)
        nodes, weights = self._conv_nodes(x)
        f0 = stable.density_grid(b0, nodes / c0) / c0
        if len(rest) == 1:
            c1, b1 = rest[0]
            inner = 1.0 - stable.cdf_grid(b1, (x - nodes) / c1)
        else:
            inner = np.array([self._mixture_survival(rest, x - u) for u in nodes])
        tail = stable.survival(b0, x / c0)
        return float(min(np.dot(weights, f0 * inner) + tail, 1.0))

    # ----- inverse subordinator ---------------------------------------

    def inverse_density(self, t, r):
        """Density of E_t at r, i.e. d/dr P(S_r >= t)."""
        kind = self._distribution_kind()
        if t <= 0.0 or r <= 0.0:
            raise DomainError("inverse_density needs t, r > 0")
        if kind == "stable":
            return float(self.inverse_density_grid(t, [r])[0])
        h = r * 1e-5
        return (self.survival(r + h, t) - self.survival(r - h, t)) / (2.0 * h)

    def inverse_density_grid(self, t, rs):
        """Vectorized inverse_density over an array of r (stable only)."""
        if self._distribution_kind() != "stable":
            raise UnsupportedModelError("vectorized inverse density needs a stable exponent")
        b = self.exponent.beta
        rs = np.asarray(rs, dtype=float)
        xs = t * rs ** (-1.0 / b)
        g = stable.density_grid(b, xs)
        out = np.zeros_like(rs)
        pos = g > 0.0
        out[pos] = np.exp(np.log(t / b) - (1.0 + 1.0 / b) * np.log(rs[pos]) + np.log(g[pos]))
        return out

    def inverse_support(self, t, tail=1.0):
        """r beyond which the density of E_t has underflowed to zero."""
        if self._distribution_kind() == "stable":
            b = self.exponent.beta
            x_lo = (stable.a_zero(b) / 745.0) ** ((1.0 - b) / b)
            return tail * 1.5 * (t / x_lo) ** b
        # crude but safe bound for mixtures: the fastest component dominates
        return tail * 3.0 / self.exponent.phi_inverse(1.0 / t) * 50.0

    # ----- sampling ----------------------------------------------------

    def sample_subordinator(self, r, rng, n=1):
        """n draws of S_r."""
        self._distribution_kind()
        if r <= 0.0:
            raise DomainError("sample_subordinator needs r > 0")
        gen = _generator(rng)
        total = np.zeros(n)
        for c, b in self._components(r):
            total += c * stable.sample(b, gen, n)
        return total

    def sample_inverse(self, t, rng, n=1, tol=1e-3):
        """n draws of E_t = inf{s : S_s > t}."""
        kind = self._distribution_kind()
        if t <= 0.0:
            raise DomainError("sample_inverse needs t > 0")
        gen = _generator(rng)
        if kind == "stable":
            b = self.exponent.beta
            s1 = stable.sample(b, gen, n)
            return (t / s1) ** b
        return self._sample_inverse_path(t, gen, n, tol)

    def _sample_inverse_path(self, t, gen, n, tol):
        """Discretized-path first passage with a per-sample pilot pass.

        A coarse pilot run sizes the sample, then the returned draw comes
        from an independent fine path whose step is tol times the pilot
        value, accepted unconditionally.  The step must never be chosen by
        an accept/reject rule on the fine draw itself: accepting only
        paths whose passage index is large conditions on E being large and
        visibly skews the law.
        """
        comps = [(a, b) for a, b in self.exponent.terms]
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


def _truncated_tail_mean(model, s, t):
    """E[G(t - S_s); S_s <= t] by quadrature against the density of S_s."""
    b = model.exponent.beta
    c = s ** (1.0 / b)
    g = model.exponent.integrated_tail

    def f(u):
        return g(t - u) * stable.density(b, u / c) / c

    med = min(c * 1.0, 0.5 * t)
    val, _ = integrate.quad(f, 0.0, t, points=[med], epsabs=1e-13, epsrel=1e-10,
                            limit=model.quadrature.max_subdivisions)
    return val


def integrated_tail_identities(model, t, first_at=(0.5, 1.0, 2.0)):
    """Check the two balance identities tying G to the law of S.

    Needs a stable exponent (closed-form integrated tail and density).
    Returns relative residuals; both identities hold exactly in the limit.
    """
    if not isinstance(model.exponent, Stable):
        raise UnsupportedModelError("identity checks need a stable exponent")
    if t <= 0.0:
        raise DomainError("identity checks need t > 0")
    b = model.exponent.beta

    r_hi = model.inverse_support(t)
    total, _ = integrate.quad(lambda r: _truncated_tail_mean(model, r, t),
                              0.0, r_hi, points=[t ** b], epsabs=1e-12, epsrel=1e-8,
                              limit=400)
    total_res = abs(total - t) / t

    # windowed identity: int_0^t w(t-r) P(S_s > r) dr
    #                    = G(t) - E[G(t - S_s); S_s <= t]
    # with the endpoint singularity of w removed by r = t(1 - v**(1/(1-b)))
    nodes, weights = np.polynomial.legendre.leggauss(64)
    v = 0.5 * (nodes + 1.0)
    w_gl = 0.5 * weights
    pref = t ** (1.0 - b) / ((1.0 - b) * math.gamma(1.0 - b))
    first = {}
    for mult in first_at:
        s = mult * t
        rv = t * (1.0 - v ** (1.0 / (1.0 - b)))
        sf = np.array([model.survival(s, r) if r > 0 else 1.0 for r in rv])
        lhs = pref * np.dot(w_gl, sf)
        rhs = model.exponent.integrated_tail(t) - _truncated_tail_mean(model, s, t)
        first[s] = abs(lhs - rhs) / abs(rhs)
    return IdentityReport(float(total_res), first)
