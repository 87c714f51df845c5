"""Space-time scale and volume profiles, and the implicit scale solvers.

Both the space-time scale Phi and the volume profile V are strictly
increasing functions vanishing at 0 with power-type weak scaling.  A single
pair of profile classes serves both roles; only the interpretation of the
exponents differs.  Spatial homogeneity is assumed throughout: the volume
of a ball depends on its radius only.

Each profile owns its pieces: ``pieces`` lists, from r = 0 up, where each
power piece starts, with its exact coefficient and exponent, so only this
module knows where a profile bends.

Two implicit equations recur in off-diagonal kernel shapes and are solved
here:

* ``subgaussian_exponent``: the unique m > 0 with t/m = Phi(r/m), the
  chaining exponent of sub-Gaussian bounds.  Closed form
  m = (r**a / t)**(1/(a-1)) for a pure power law Phi(r) = r**a, and
  branch by branch for a two-branch profile.

* ``subordinated_exponent``: the unique n > 0 with
  1/phi(n/t) = Phi(r/n), its analogue after time change by an inverse
  subordinator.  Closed form n = (r * t**(-b/a))**(a/(a-b)) for
  Phi = r**a and phi = lam**b, else one elementwise bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import monotone_root


class _Pieces:
    """A profile's scaling indices are the least and greatest exponent of
    its pieces ((start, coef, exponent), ...), where profile(r) =
    coef * r**exponent from each start radius to the next, the first from 0."""

    @property
    def exponent_lo(self):
        return min(e for _, _, e in self.pieces)

    @property
    def exponent_hi(self):
        return max(e for _, _, e in self.pieces)


@dataclass(frozen=True)
class PowerLaw(_Pieces):
    """profile(r) = r**exponent."""

    exponent: float

    def __post_init__(self):
        if not 0.0 < self.exponent < np.inf:
            raise DomainError(f"exponent must be finite and positive, got {self.exponent}")

    @property
    def pieces(self):
        return ((0.0, 1.0, self.exponent),)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0):
            raise DomainError("profile argument must be >= 0")
        return (r ** self.exponent)[()]

    def inverse(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise DomainError("profile inverse argument must be >= 0")
        return (t ** (1.0 / self.exponent))[()]


@dataclass(frozen=True)
class PiecewisePower(_Pieces):
    """Two power branches glued continuously at r_break.

    profile(r) = r**exp_low for r <= r_break and
    r_break**(exp_low - exp_high) * r**exp_high beyond, so both branches
    agree at the break and bracketing solvers see a continuous function.
    """

    exp_low: float
    exp_high: float
    r_break: float

    def __post_init__(self):
        for name in ("exp_low", "exp_high", "r_break"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if max(self.exp_low, self.exp_high) * abs(np.log(self.r_break)) > 700.0:
            raise DomainError("r_break**exp_low and r_break**exp_high must lie within float range")

    @property
    def _coef_high(self):
        return self.r_break ** (self.exp_low - self.exp_high)

    @property
    def pieces(self):
        return ((0.0, 1.0, self.exp_low), (self.r_break, self._coef_high, self.exp_high))

    def value(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0):
            raise DomainError("profile argument must be >= 0")
        with np.errstate(invalid="ignore"):
            out = np.where(r <= self.r_break,
                           r ** self.exp_low,
                           self._coef_high * r ** self.exp_high)
        return out[()]

    def inverse(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise DomainError("profile inverse argument must be >= 0")
        t_break = self.r_break ** self.exp_low
        with np.errstate(invalid="ignore"):
            out = np.where(t <= t_break,
                           t ** (1.0 / self.exp_low),
                           (t / self._coef_high) ** (1.0 / self.exp_high))
        return out[()]


def parse_profile(key):
    """Parse 'power:2' or 'power2:2,3,1.0' (low exp, high exp, break)."""
    kind, _, rest = key.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "power":
            exponent = float(rest)
        elif kind == "power2":
            lo, hi, brk = (float(v) for v in rest.split(","))
    except ValueError:
        raise DomainError(f"malformed profile spec {key!r}") from None
    if kind == "power":
        return PowerLaw(exponent)
    if kind == "power2":
        return PiecewisePower(lo, hi, brk)
    raise DomainError(f"unknown profile spec {key!r}")


def subgaussian_exponent(scale, t, r):
    """Unique m > 0 with t/m = Phi(r/m); needs lower index > 1.

    Non-increasing in t for fixed r, and equal to 1 at t = Phi(r) for pure
    power laws.  A closed form for both profile classes, vectorized over t
    and r.
    """
    if scale.exponent_lo <= 1.0:
        raise DomainError(
            f"sub-Gaussian exponent needs scale index > 1, got {scale.exponent_lo}")
    if np.any(np.asarray(t) <= 0.0) or np.any(np.asarray(r) <= 0.0):
        raise DomainError("sub-Gaussian exponent needs t, r > 0")
    if isinstance(scale, PowerLaw):
        a = scale.exponent
        return ((np.asarray(r) ** a / np.asarray(t)) ** (1.0 / (a - 1.0)))[()]
    # Phi(x)/x = t/r at x = r/m, a power of x on each branch of Phi
    lo, hi = scale.exp_low, scale.exp_high
    r = np.asarray(r, dtype=float)
    ratio = np.asarray(t, dtype=float) / r
    x = np.where(ratio <= scale.r_break ** (lo - 1.0), ratio ** (1.0 / (lo - 1.0)),
                 (ratio / scale._coef_high) ** (1.0 / (hi - 1.0)))
    return (r / x)[()]


def subordinated_exponent(scale, exponent, t, r):
    """Unique n > 0 with 1/phi(n/t) = Phi(r/n) at each (t, r), broadcast;
    needs alpha_lo > beta_hi.

    Phi(r/(lam t)) * phi(lam) is strictly decreasing in lam = n/t under the
    index condition, so the root of its log is bisected in lam, which keeps
    the argument of phi inside the searched range.
    """
    if scale.exponent_lo <= exponent.beta_hi:
        raise DomainError(
            f"subordinated exponent needs scale index {scale.exponent_lo} "
            f"> subordinator index {exponent.beta_hi}")
    if np.any(np.asarray(t) <= 0.0) or np.any(np.asarray(r) <= 0.0):
        raise DomainError("subordinated exponent needs t, r > 0")
    from .bernstein import Stable  # local import keeps module deps one-way

    t, r = np.asarray(t, dtype=float), np.asarray(r, dtype=float)
    if isinstance(scale, PowerLaw) and isinstance(exponent, Stable):
        a, b = scale.exponent, exponent.beta
        return ((r * t ** (-b / a)) ** (a / (a - b)))[()]
    return (t * monotone_root(
        lambda lam: np.log(scale.value(r / t / lam)) + np.log(exponent.phi(lam))))[()]
