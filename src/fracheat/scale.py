"""Space-time scale and volume profiles, and the implicit scale solvers.

Both the space-time scale Phi and the volume profile V are strictly
increasing functions vanishing at 0 with power-type weak scaling.  A single
pair of profile classes serves both roles; only the interpretation of the
exponents differs.  Spatial homogeneity is assumed throughout: the volume
of a ball depends on its radius only.

Each profile owns its pieces: ``pieces`` lists, from r = 0 up, where each
power piece starts, with its exact coefficient and exponent, so only this
module knows where a profile bends.  Value, inverse and both chaining
exponents are written once over the pieces, each point answered by the
piece that holds there.

Two implicit equations recur in off-diagonal kernel shapes.  With x = r/m
or r/n, each reads Phi(x)/x**k = y, increasing in x, so it has one closed
form on the piece c x**e of Phi that holds at the root:

* ``subgaussian_exponent``: the unique m > 0 with t/m = Phi(r/m), the
  chaining exponent of sub-Gaussian bounds; k = 1,
  m = (c r**e / t)**(1/(e-1)).

* ``subordinated_exponent``: the unique n > 0 with 1/phi(n/t) = Phi(r/n),
  its analogue after an inverse-subordinator time change; for a one-part
  phi = a lam**b, k = b and n = ((a c)**(1/e) r t**(-b/e))**(e/(e-b)).
  Only an exponent of several parts or a constructed one is bisected.
"""

from __future__ import annotations

import math
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

    def _by_piece(self, formula, args, key, edge):
        """formula(coef, exponent, *args) at each point of the broadcast args
        on the piece that holds there: key() is compared with edge(coef,
        exponent, start) of each later start on the piece before it, an
        equal key taking the lower piece.  Each piece sees only its own
        points, so a discarded one can neither overflow nor warn."""
        pieces = self.pieces
        if len(pieces) == 1:
            return formula(*pieces[0][1:], *args)[()]
        args = np.broadcast_arrays(*args)
        at = np.searchsorted([edge(c, e, s) for (_, c, e), (s, _, _) in zip(pieces, pieces[1:])],
                             key())
        out = np.empty(args[0].shape)
        for i, (_, c, e) in enumerate(pieces):
            mask = at == i
            out[mask] = formula(c, e, *(a[mask] for a in args))
        return out[()]

    def value(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0.0):
            raise DomainError("profile argument must be >= 0")
        return self._by_piece(lambda c, e, r: c * r ** e, (r,), lambda: r, lambda c, e, s: s)

    def inverse(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise DomainError("profile inverse argument must be >= 0")
        return self._by_piece(lambda c, e, t: (t / c) ** (1.0 / e), (t,), lambda: t,
                              lambda c, e, s: c * s ** e)


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
    def pieces(self):
        return ((0.0, 1.0, self.exp_low),
                (self.r_break, self.r_break ** (self.exp_low - self.exp_high), self.exp_high))


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


def diagonal_power(volume, scale):
    """The gamma of 1/V(Phi^-1(s)) ~ s**-gamma as s -> 0: V's first exponent over Phi's."""
    return volume.pieces[0][2] / scale.pieces[0][2]


def _chaining_root(scale, k, log_a, formula, t, r):
    """formula(c, e, t, r) on the piece c x**e of Phi that holds at the root x
    of Phi(x)/x**k = (t/r)**k / a, placed in logs so t/r cannot overflow."""
    return scale._by_piece(formula, (t, r), lambda: k * (np.log(t) - np.log(r)) - log_a,
                           lambda c, e, s: math.log(c) + (e - k) * math.log(s))


def subgaussian_exponent(scale, t, r):
    """Unique m > 0 with t/m = Phi(r/m); needs lower index > 1.  Non-increasing
    in t, 1 at t = Phi(r) for pure power laws, and one closed form on the
    piece of Phi that holds at r/m, over arrays of t and r."""
    if scale.exponent_lo <= 1.0:
        raise DomainError(
            f"sub-Gaussian exponent needs scale index > 1, got {scale.exponent_lo}")
    if np.any(np.asarray(t) <= 0.0) or np.any(np.asarray(r) <= 0.0):
        raise DomainError("sub-Gaussian exponent needs t, r > 0")
    t, r = np.asarray(t, dtype=float), np.asarray(r, dtype=float)
    return _chaining_root(scale, 1.0, 0.0,
                          lambda c, e, t, r: (c * r ** e / t) ** (1.0 / (e - 1.0)), t, r)


def subordinated_exponent(scale, exponent, t, r):
    """Unique n > 0 with 1/phi(n/t) = Phi(r/n) at each (t, r), broadcast;
    needs alpha_lo > beta_hi.

    One closed form on the piece of Phi that holds at r/n for a one-part
    exponent.  Otherwise Phi(r/(lam t)) * phi(lam) is strictly decreasing
    in lam = n/t, and the root of its log is bisected in lam.
    """
    if scale.exponent_lo <= exponent.beta_hi:
        raise DomainError(
            f"subordinated exponent needs scale index {scale.exponent_lo} "
            f"> subordinator index {exponent.beta_hi}")
    if np.any(np.asarray(t) <= 0.0) or np.any(np.asarray(r) <= 0.0):
        raise DomainError("subordinated exponent needs t, r > 0")
    t, r = np.asarray(t, dtype=float), np.asarray(r, dtype=float)
    if exponent.power is not None:
        a, b = exponent.power
        return _chaining_root(
            scale, b, math.log(a),
            lambda c, e, t, r: (np.float64(a * c) ** (1.0 / e) * r * t ** (-b / e)) ** (e / (e - b)),
            t, r)
    return (t * monotone_root(
        lambda lam: np.log(scale.value(r / t / lam)) + np.log(exponent.phi(lam))))[()]
