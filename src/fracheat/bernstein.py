"""Laplace exponents of driftless subordinators.

Three model families are supported:

* ``StableMixture``: phi(lam) = sum_i a_i * lam**beta_i with a_i > 0.
* ``Stable(beta)``: phi(lam) = lam**beta, the beta-stable subordinator, its
  one-part case.
* ``ConstructedCBF``: a complete Bernstein function built from a space-time
  scale function Phi so that Phi(r) * phi(r**-alpha3) stays bounded above
  and below, via
      phi(lam) = alpha3 * int_0^inf [lam u**alpha3 / (lam u**alpha3 + 1)]
                 du / (u * Phi(u)).

Every model is immutable and safe to share between threads; all methods are
pure functions of their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy import special

from .errors import DomainError, QuadratureError, UnsupportedModelError
from .numerics import ABS_FLOOR, REL_TOL, kronrod_quad, monotone_root


def _check_positive(name, value):
    if not value > 0.0:
        raise DomainError(f"{name} must be positive, got {value}")


class LaplaceExponent:
    """Common solver-backed operations; subclasses provide phi/phi_prime."""

    beta_lo: float
    beta_hi: float

    def phi(self, lam):
        raise NotImplementedError

    def phi_prime(self, lam):
        raise NotImplementedError

    def phi_inverse(self, y):
        """The unique lam with phi(lam) = y (phi is strictly increasing)."""
        _check_positive("y", y)
        return monotone_root(lambda l: self.phi(l) - y)

    def phi_prime_inverse(self, y):
        """inf{s > 0 : phi'(s) <= y}, computed on the non-increasing phi'."""
        _check_positive("y", y)
        return monotone_root(lambda s: self.phi_prime(s) - y)

    def power_ratio(self, alpha, lam):
        """lam**alpha / phi(lam); strictly increasing when alpha > beta_hi."""
        self._check_alpha(alpha)
        _check_positive("lam", lam)
        return lam ** alpha / self.phi(lam)

    def power_ratio_inverse(self, alpha, y):
        """inf{s > 0 : s**alpha / phi(s) >= y}."""
        self._check_alpha(alpha)
        _check_positive("y", y)
        return monotone_root(lambda s: self.power_ratio(alpha, s) - y)

    def levy_tail(self, s):
        """w(s) = nu(s, inf), the tail of the Levy measure."""
        raise UnsupportedModelError(
            f"{type(self).__name__} does not expose its Levy tail in closed form")

    def integrated_tail(self, x):
        """G(x) = int_0^x w(u) du with G(0) = 0."""
        raise UnsupportedModelError(
            f"{type(self).__name__} does not expose its Levy tail in closed form")

    def _check_alpha(self, alpha):
        if alpha <= self.beta_hi:
            raise DomainError(
                f"power_ratio needs alpha > upper scaling index {self.beta_hi}, got {alpha}")


@dataclass(frozen=True)
class StableMixture(LaplaceExponent):
    """phi(lam) = sum_i a_i lam**beta_i; terms are (weight, index) pairs."""

    terms: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if not self.terms:
            raise DomainError("mixture needs at least one component")
        object.__setattr__(self, "terms", tuple((float(a), float(b)) for a, b in self.terms))
        for a, b in self.terms:
            if not 0.0 < a < math.inf:
                raise DomainError(f"mixture weights must be finite and positive, got {a}")
            if not 0.0 < b < 1.0:
                raise DomainError(f"mixture indices must lie in (0, 1), got {b}")

    @property
    def beta_lo(self):
        return min(b for _, b in self.terms)

    @property
    def beta_hi(self):
        return max(b for _, b in self.terms)

    def phi(self, lam):
        _check_positive("lam", np.min(lam))
        return sum(a * lam ** b for a, b in self.terms)

    def phi_prime(self, lam):
        _check_positive("lam", np.min(lam))
        return sum(a * b * lam ** (b - 1.0) for a, b in self.terms)

    def levy_tail(self, s):
        _check_positive("s", np.min(s))
        return sum(a * s ** -b / math.gamma(1.0 - b) for a, b in self.terms)

    def integrated_tail(self, x):
        if np.min(x) < 0.0:
            raise DomainError(f"integrated tail needs x >= 0, got {x}")
        xa = np.asarray(x, dtype=float)
        total = sum(a * xa ** (1.0 - b) / ((1.0 - b) * math.gamma(1.0 - b))
                    for a, b in self.terms)
        return np.where(xa > 0, total, 0.0)[()]


class Stable(StableMixture):
    """phi(lam) = lam**beta for a fixed beta in (0, 1): the one-part mixture."""

    def __init__(self, beta):
        if not 0.0 < beta < 1.0:
            raise DomainError(f"stable index must lie in (0, 1), got {beta}")
        super().__init__(((1.0, beta),))

    @property
    def beta(self):
        return self.terms[0][1]


@dataclass(frozen=True)
class ConstructedCBF(LaplaceExponent):
    """Complete Bernstein function matched to a scale function.

    ``scale`` must expose value(r) and scaling indices exponent_lo <=
    exponent_hi; alpha3 must exceed exponent_hi for the defining integral
    to converge at 0.
    """

    scale: object
    alpha3: float

    def __post_init__(self):
        if self.alpha3 <= self.scale.exponent_hi:
            raise DomainError(
                f"alpha3 must exceed the scale's upper index "
                f"{self.scale.exponent_hi}, got {self.alpha3}")

    @property
    def beta_lo(self):
        return self.scale.exponent_lo / self.alpha3

    @property
    def beta_hi(self):
        return self.scale.exponent_hi / self.alpha3

    def phi(self, lam):
        """The defining integral in w = log u + log(lam)/alpha3, where it is
        alpha3 int expit(alpha3 w) dw / Phi(u): one Gauss-Kronrod pass on
        panels about 2 wide that do not move with lam, split at w = 0 and
        at the kink of a two-branch Phi, between the points where the
        integrand has fallen below e**-40 of its peak."""
        _check_positive("lam", lam)
        a3, scale = self.alpha3, self.scale
        shift = math.log(lam) / a3
        lo, hi = -40.0 / (a3 - scale.exponent_hi), 40.0 / scale.exponent_lo
        kinks = [0.0, math.log(scale.r_break) + shift] if hasattr(scale, "r_break") else [0.0]
        edges = np.union1d(np.linspace(lo, hi, int((hi - lo) / 2.0) + 2),
                           [k for k in kinks if lo < k < hi])
        total, err, ok = kronrod_quad(
            lambda w: a3 * special.expit(a3 * w) / scale.value(np.exp(w - shift)),
            edges, REL_TOL, ABS_FLOOR)
        if not ok:
            raise QuadratureError(
                f"constructed exponent quadrature did not converge at lam={lam}",
                value=total, error=err)
        return total

    def phi_prime(self, lam):
        _check_positive("lam", lam)
        h = lam * 1e-6
        return (self.phi(lam + h) - self.phi(lam - h)) / (2.0 * h)


def cbf_from_scale(scale, alpha3):
    """Build the complete Bernstein function matched to a scale function."""
    return ConstructedCBF(scale, float(alpha3))


@dataclass(frozen=True)
class ScalingReport:
    """Fitted comparability constants for an exponent over a sample grid."""

    c_scale_lo: float        # largest c with c*kappa**beta_lo <= phi(k l)/phi(l)
    c_scale_hi: float        # smallest c with phi(k l)/phi(l) <= c*kappa**beta_hi
    c_deriv_lo: float        # same for phi'(l)/phi'(k l) vs kappa**(1-beta_hi)
    c_deriv_hi: float        # ... vs kappa**(1-beta_lo)
    c_star: float            # smallest c with phi(l) <= c * l * phi'(l)
    lower_defect: float      # min of (phi - l phi')/phi; >= -1e-9 required
    passed: bool


def scaling_report(exponent, lams=None, kappas=None):
    """Check l*phi'(l) <= phi(l) pointwise and fit comparability constants.

    The lower bound is treated as a hard requirement up to 1e-9 relative
    slack; the fitted constants are reported, never asserted against
    predetermined values.
    """
    if lams is None:
        lams = np.geomspace(1e-6, 1e6, 61)
    if kappas is None:
        kappas = 2.0 ** np.arange(1, 11)
    lams = np.asarray(lams, dtype=float)
    kappas = np.asarray(kappas, dtype=float)
    if lams.size == 0 or kappas.size == 0:
        raise DomainError("scaling_report needs nonempty grids")

    phis = np.array([exponent.phi(l) for l in lams])
    primes = np.array([exponent.phi_prime(l) for l in lams])

    defect = np.min((phis - lams * primes) / phis)
    c_star = float(np.max(phis / (lams * primes)))

    b_lo, b_hi = exponent.beta_lo, exponent.beta_hi
    c_scale_lo, c_scale_hi = np.inf, 0.0
    c_deriv_lo, c_deriv_hi = np.inf, 0.0
    for kappa in kappas:
        phis_k = np.array([exponent.phi(kappa * l) for l in lams])
        primes_k = np.array([exponent.phi_prime(kappa * l) for l in lams])
        ratio = phis_k / phis
        c_scale_lo = min(c_scale_lo, float(np.min(ratio / kappa ** b_lo)))
        c_scale_hi = max(c_scale_hi, float(np.max(ratio / kappa ** b_hi)))
        dratio = primes / primes_k
        c_deriv_lo = min(c_deriv_lo, float(np.min(dratio / kappa ** (1.0 - b_hi))))
        c_deriv_hi = max(c_deriv_hi, float(np.max(dratio / kappa ** (1.0 - b_lo))))

    fitted = [c_scale_lo, c_scale_hi, c_deriv_lo, c_deriv_hi, c_star]
    passed = bool(defect >= -1e-9
                  and all(np.isfinite(v) and v > 0 for v in fitted))
    return ScalingReport(c_scale_lo, c_scale_hi, c_deriv_lo, c_deriv_hi,
                         c_star, float(defect), passed)


def parse_exponent(key):
    """Parse a config value like 'stable:0.5' or 'mixture:1,0.3;1,0.7'."""
    kind, _, rest = key.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "stable":
            beta = float(rest)
        elif kind == "mixture":
            terms = tuple((float(a), float(b))
                          for a, b in (part.split(",") for part in rest.split(";")))
    except ValueError:
        raise DomainError(f"malformed subordinator spec {key!r}") from None
    if kind == "stable":
        return Stable(beta)
    if kind == "mixture":
        return StableMixture(terms)
    raise DomainError(f"unknown subordinator spec {key!r}")
