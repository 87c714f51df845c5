"""Closed-form two-sided estimate shapes with regime classification.

The organizing dichotomy is the scalar Phi(z) * phi(1/t): at most one the
point is "near-diagonal" and the estimate is an explicit integral of the
inverse volume profile; beyond one it is "off-diagonal" and the shape
depends on whether the spatial motion is jump-type (a pure power kernel
tail) or diffusion-type (an exponential in the subordinated chaining
exponent n(t, z)).

Off-diagonal diffusion estimates are deliberately returned as a
(prefactor, n) pair rather than one number: the matching upper and lower
bounds carry different constants inside the exponential, so collapsing the
pair would assert a sharpness that does not hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bernstein import LaplaceExponent
from .errors import DomainError, QuadratureError
from .numerics import geometric_boundaries, kronrod_quad
from .scale import PowerLaw, subordinated_exponent


@dataclass(frozen=True)
class EstimateValue:
    regime: str                            # "near" iff scalar <= 1 (inclusive), else "off"
    scalar: float                          # Phi(z) * phi(1/t)
    value: Optional[float] = None          # set for near and off-jump rows
    prefactor: Optional[float] = None      # set for off-diffusion rows
    exponent_arg: Optional[float] = None   # n(t, z) for off-diffusion rows


@dataclass(frozen=True)
class EstimateModel:
    """Exponent + geometry + flavor, with the composite estimate formulas."""

    exponent: LaplaceExponent
    scale: object
    volume: object
    flavor: str  # "jump" | "diffusion"

    def __post_init__(self):
        if self.flavor not in ("jump", "diffusion"):
            raise DomainError(f"flavor must be 'jump' or 'diffusion', got {self.flavor}")
        if self.flavor == "diffusion":
            if self.scale.exponent_lo <= 1.0:
                raise DomainError("diffusion estimates need a scale index > 1")
            if self.scale.exponent_lo <= self.exponent.beta_hi:
                raise DomainError(
                    "diffusion estimates need scale index > subordinator index")

    def _point(self, t, z):
        """(phi(1/t), Phi(z) phi(1/t)) at a finite t > 0 and a scalar z >= 0
        or each z >= 0 of a 1-d row, in the shape of z."""
        zs = np.asarray(z, dtype=float)
        if not (0.0 < t < math.inf and zs.ndim <= 1
                and np.all((0.0 <= zs) & (zs < math.inf))):
            raise DomainError(f"estimates need a finite t > 0 and z >= 0, got t={t}, z={z}")
        phi_t = self.exponent.phi(1.0 / t)
        return phi_t, self.scale.value(zs) * phi_t

    def _near(self, phi_t, a):
        """The integrals of dr / V(Phi^-1(r / phi(1/t))) from each a =
        Phi(z) phi(1/t) <= 1 of a row to 2, part of the normalization.  Closed
        form for pure power laws, else one Gauss-Kronrod pass in log r: the
        integrand does not depend on z, so each a is a row zero below log a,
        split there and at the profiles' kinks.  Infinite at a = 0 when the
        volume grows at least as fast as the scale."""
        if isinstance(self.scale, PowerLaw) and isinstance(self.volume, PowerLaw):
            ratio = self.volume.exponent / self.scale.exponent
            with np.errstate(divide="ignore"):  # a = 0 gives inf
                if abs(ratio - 1.0) < 1e-14:
                    return phi_t * np.log(2.0 / a)
                return phi_t ** ratio / (1.0 - ratio) * (2.0 ** (1.0 - ratio) - a ** (1.0 - ratio))

        # at a = 0 the integrand in log r falls at least like r**(1 - rho),
        # rho = V's upper over Phi's lower index: start where that is e**-40
        rho = self.volume.exponent_hi / self.scale.exponent_lo
        if rho < 1.0:
            a = np.where(a > 0.0, a, 2.0 * math.exp(max(-40.0 / (1.0 - rho), -700.0)))
        out, finite = np.full(a.shape, math.inf), a > 0.0
        if not finite.any():
            return out
        a = a[finite]
        kinks = [phi_t * self.scale.value(p.r_break) for p in (self.scale, self.volume)
                 if hasattr(p, "r_break")]
        lo = np.log(a)
        edges = np.unique(np.log(geometric_boundaries(a.min(), 2.0, per_decade=2,
                                                      extra=[*kinks, *a])))

        def rows(v):
            r = np.exp(v)
            return (v > lo[:, None]) * (r / self.volume.value(self.scale.inverse(r / phi_t)))

        total, err, ok = kronrod_quad(rows, edges, 1e-11, 0.0)
        if not ok.all():
            bad = np.flatnonzero(~ok)[0]
            raise QuadratureError(f"near-diagonal integral did not converge at "
                                  f"Phi(z) phi(1/t) = {a[bad]}, phi(1/t) = {phi_t}",
                                  value=total[bad], error=err[bad])
        out[finite] = total
        return out

    def estimate(self, t, z):
        """The applicable estimate shape at t and a scalar z, with its
        regime and Phi(z) phi(1/t); a list of them over a 1-d row of z, of
        which a scalar is the one-element case.  phi(1/t) and the diffusion
        prefactor are formed once per row, and the near-diagonal integrals
        and the off-diagonal exponents n(t, z) each by one call."""
        phi_t, a = self._point(t, z)
        row, a = np.atleast_1d(np.asarray(z, dtype=float)), np.atleast_1d(a)
        near = a <= 1.0
        value, n = np.full(a.shape, math.nan), np.full(a.shape, math.nan)
        value[near] = self._near(phi_t, a[near])
        far = row[~near]
        if self.flavor == "jump":
            value[~near] = 1.0 / (phi_t * self.volume.value(far) * self.scale.value(far))
        else:
            prefactor = float(1.0 / self.volume.value(self.scale.inverse(1.0 / phi_t)))
            n[~near] = subordinated_exponent(self.scale, self.exponent, t, far)
        shapes = [EstimateValue("near", s, value=v) if s <= 1.0
                  else EstimateValue("off", s, value=v) if self.flavor == "jump"
                  else EstimateValue("off", s, prefactor=prefactor, exponent_arg=m)
                  for s, v, m in zip(a.tolist(), value.tolist(), n.tolist())]
        return shapes if np.ndim(z) else shapes[0]


def explicit_near_diagonal(model, t, z):
    """The three explicit near-diagonal forms, when the indices allow one.

    Returns (tag, value) with tag one of 'time-scale', 'distance-scale',
    'logarithmic' or 'not-applicable' (value None in the last case).
    """
    phi_t, a = model._point(t, z)
    if a > 1.0:
        raise DomainError("explicit near-diagonal forms need Phi(z) phi(1/t) <= 1")
    d1, d2 = model.volume.exponent_lo, model.volume.exponent_hi
    a1, a2 = model.scale.exponent_lo, model.scale.exponent_hi
    if d2 < a1:
        return "time-scale", float(1.0 / model.volume.value(model.scale.inverse(1.0 / phi_t)))
    if d1 > a2:
        if z == 0.0:
            return "distance-scale", math.inf
        return "distance-scale", float(model.scale.value(z) * phi_t / model.volume.value(z))
    if d1 == d2 == a1 == a2:
        if a == 0.0:
            return "logarithmic", math.inf
        front = 1.0 / model.volume.value(model.scale.inverse(1.0 / phi_t))
        return "logarithmic", float(front * math.log(2.0 / a))
    return "not-applicable", None
