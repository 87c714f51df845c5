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

from .errors import DomainError, QuadratureError, UnsupportedModelError
from .numerics import ABS_FLOOR, REL_TOL, kronrod_quad, monotone_root


# values of lam per pass of ConstructedCBF, each adding a panel boundary at its kink
_CBF_ROWS = 32


def _check_positive(name, value):
    """Refuse value unless each of its elements is > 0, NaN included."""
    if not np.all(np.greater(value, 0.0)):
        raise DomainError(f"{name} must be positive, got {value}")


def _expit(x):
    """The logistic function 1/(1 + e**-x), as e**x/(1 + e**x) for x < 0, so
    that no exponential overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


class LaplaceExponent:
    """Common solver-backed operations; subclasses provide `derivative`, the
    closed form of phi, or phi and phi_prime.  Each takes a scalar, which
    gives a float, or an array, elementwise."""

    beta_lo: float
    beta_hi: float
    # (a, b) where phi is exactly a lam**b, else None
    power = None

    def phi(self, lam):
        _check_positive("lam", lam)
        return self.derivative(lam, 0)

    def phi_prime(self, lam):
        _check_positive("lam", lam)
        return self.derivative(lam, 1)

    def derivative(self, lam, k=0):
        """The k-th derivative of phi at real lam > 0, and phi (k = 0) at
        complex lam off the negative axis, with no domain check."""
        raise UnsupportedModelError(f"{type(self).__name__} has no closed form for phi")

    def phi_inverse(self, y):
        """The unique lam with phi(lam) = y at each y (phi is strictly increasing)."""
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

    @property
    def power(self):
        return self.terms[0] if len(self.terms) == 1 else None

    def derivative(self, lam, k=0):
        return sum(a * math.prod(b - j for j in range(k)) * lam ** (b - k) for a, b in self.terms)

    def levy_tail(self, s):
        _check_positive("s", s)
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


@dataclass(frozen=True)
class ConstructedCBF(LaplaceExponent):
    """Complete Bernstein function matched to a scale function.

    ``scale`` must expose value(r), its pieces and scaling indices
    exponent_lo <= exponent_hi; alpha3 must exceed exponent_hi for the
    defining integral to converge at 0.
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
        return self._integral(lam, 0)

    def phi_prime(self, lam):
        return self._integral(lam, 1)

    def _integral(self, lam, row):
        """Row `row` of `_pass` at each lam, in the shape of lam."""
        lams = np.asarray(lam, dtype=float)
        _check_positive("lam", lams)
        flat = lams.ravel()
        return np.concatenate([self._pass(flat[i:i + _CBF_ROWS])[row]
                               for i in range(0, flat.size, _CBF_ROWS)]).reshape(lams.shape)[()]

    def _pass(self, lams):
        """(phi, phi') at each lam of a 1-d array: the defining integral in
        w = log u + log(lam)/alpha3, where e**(alpha3 w) = lam u**alpha3 and
            phi  = alpha3 int expit(alpha3 w) dw / Phi(u),
            phi' = (alpha3/lam) int expit(alpha3 w) expit(-alpha3 w) dw / Phi(u).
        One Gauss-Kronrod pass gives both rows from the same values of Phi,
        on panels about 2 wide that do not move with lam, split at w = 0 and
        at each lam's image of a radius where Phi bends, between the points
        where the integrands have fallen below e**-40 of their peaks."""
        a3, scale = self.alpha3, self.scale
        shift = np.log(lams)[:, None] / a3
        lo, hi = -40.0 / (a3 - scale.exponent_hi), 40.0 / scale.exponent_lo
        kinks = np.append(0.0, [math.log(u) + shift for u, _, _ in scale.pieces[1:]])
        edges = np.union1d(np.linspace(lo, hi, int((hi - lo) / 2.0) + 2),
                           kinks[(lo < kinks) & (kinks < hi)])

        def integrands(w):
            head = a3 * _expit(a3 * w) / scale.value(np.exp(w - shift))
            return np.stack([head, head * _expit(-a3 * w)])

        total, err, ok = kronrod_quad(integrands, edges, REL_TOL, ABS_FLOOR)
        if not ok.all():
            raise QuadratureError("constructed exponent quadrature did not converge at "
                                  f"lam={lams[~ok.all(axis=0)]}", value=total, error=err)
        total[1] /= lams
        return total


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
    lams, kappas = np.asarray(lams, dtype=float), np.asarray(kappas, dtype=float)
    if lams.size == 0 or kappas.size == 0:
        raise DomainError("scaling_report needs nonempty grids")

    # row 0 at lams, row i at kappas[i - 1] * lams
    grid = np.append(1.0, kappas)[:, None] * lams
    phis, primes = exponent.phi(grid), exponent.phi_prime(grid)
    defect = float(np.min((phis[0] - lams * primes[0]) / phis[0]))
    ratio, dratio, k = phis[1:] / phis[0], primes[0] / primes[1:], kappas[:, None]
    b_lo, b_hi = exponent.beta_lo, exponent.beta_hi
    fitted = [float(v) for v in (np.min(ratio / k ** b_lo), np.max(ratio / k ** b_hi),
                                 np.min(dratio / k ** (1.0 - b_hi)),
                                 np.max(dratio / k ** (1.0 - b_lo)),
                                 np.max(phis[0] / (lams * primes[0])))]
    passed = bool(defect >= -1e-9 and all(np.isfinite(v) and v > 0 for v in fitted))
    return ScalingReport(*fitted, defect, passed)


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
