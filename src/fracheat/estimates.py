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

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bernstein import LaplaceExponent, Stable
from .errors import DomainError, QuadratureError
from .numerics import geometric_boundaries, kronrod_quad
from .scale import PowerLaw, subordinated_exponent


class Regime(enum.Enum):
    NEAR = "near"
    OFF = "off"


@dataclass(frozen=True)
class RegimeTag:
    regime: Regime
    scalar: float  # Phi(z) * phi(1/t); near-diagonal iff <= 1 (inclusive)


@dataclass(frozen=True)
class EstimateValue:
    regime: RegimeTag
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

    def classify(self, t, z):
        if t <= 0.0 or z < 0.0:
            raise DomainError("classify needs t > 0, z >= 0")
        scalar = float(self.scale.value(z) * self.exponent.phi(1.0 / t))
        regime = Regime.NEAR if scalar <= 1.0 else Regime.OFF
        return RegimeTag(regime, scalar)

    def near_diagonal_integral(self, t, z):
        """int from Phi(z)*phi(1/t) to 2 of dr / V(Phi^-1(r / phi(1/t))).

        The upper limit 2 is part of the estimate's normalization.  Closed
        form for pure power laws; otherwise one Gauss-Kronrod pass in log r
        split at the kinks of two-branch profiles.  Diverges
        (returns inf) at z = 0 when the volume grows at least as fast as
        the scale.
        """
        tag = self.classify(t, z)
        if tag.scalar > 1.0:
            raise DomainError(
                f"near-diagonal integral needs Phi(z) phi(1/t) <= 1, got {tag.scalar}")
        phi_t = self.exponent.phi(1.0 / t)
        a = tag.scalar
        if isinstance(self.scale, PowerLaw) and isinstance(self.volume, PowerLaw):
            ratio = self.volume.exponent / self.scale.exponent
            if abs(ratio - 1.0) < 1e-14:
                if a == 0.0:
                    return math.inf
                return phi_t * math.log(2.0 / a)
            front = phi_t ** ratio / (1.0 - ratio)
            if a == 0.0 and ratio > 1.0:
                return math.inf
            lower = 0.0 if a == 0.0 else a ** (1.0 - ratio)
            return front * (2.0 ** (1.0 - ratio) - lower)

        if a == 0.0 and self.volume.exponent_hi >= self.scale.exponent_lo:
            return math.inf
        # at a = 0 the integrand in log r falls at least like r**(1 - rho),
        # rho = V's upper over Phi's lower index: start where that is e**-40
        rho = self.volume.exponent_hi / self.scale.exponent_lo
        lo = a or 2.0 * math.exp(max(-40.0 / (1.0 - rho), -700.0))
        kinks = tuple(phi_t * self.scale.value(p.r_break) for p in (self.scale, self.volume)
                      if hasattr(p, "r_break"))
        total, err, ok = kronrod_quad(
            lambda v: np.exp(v) / self.volume.value(self.scale.inverse(np.exp(v) / phi_t)),
            np.log(geometric_boundaries(lo, 2.0, per_decade=2, extra=kinks)), 1e-11, 0.0)
        if not ok:
            raise QuadratureError(f"near-diagonal integral did not converge at t={t}, z={z}",
                                  value=total, error=err)
        return total

    def estimate(self, t, z):
        """The applicable estimate shape at (t, z)."""
        tag = self.classify(t, z)
        if tag.regime is Regime.NEAR:
            return EstimateValue(tag, value=self.near_diagonal_integral(t, z))
        phi_t = self.exponent.phi(1.0 / t)
        if self.flavor == "jump":
            val = 1.0 / (phi_t * self.volume.value(z) * self.scale.value(z))
            return EstimateValue(tag, value=float(val))
        prefactor = 1.0 / self.volume.value(self.scale.inverse(1.0 / phi_t))
        n = subordinated_exponent(self.scale, self.exponent, t, z)
        return EstimateValue(tag, prefactor=float(prefactor), exponent_arg=float(n))


def explicit_near_diagonal(model, t, z):
    """The three explicit near-diagonal forms, when the indices allow one.

    Returns (tag, value) with tag one of 'time-scale', 'distance-scale',
    'logarithmic' or 'not-applicable' (value None in the last case).
    """
    rtag = model.classify(t, z)
    if rtag.scalar > 1.0:
        raise DomainError("explicit near-diagonal forms need Phi(z) phi(1/t) <= 1")
    d1, d2 = model.volume.exponent_lo, model.volume.exponent_hi
    a1, a2 = model.scale.exponent_lo, model.scale.exponent_hi
    phi_t = model.exponent.phi(1.0 / t)
    if d2 < a1:
        return "time-scale", float(1.0 / model.volume.value(model.scale.inverse(1.0 / phi_t)))
    if d1 > a2:
        if z == 0.0:
            return "distance-scale", math.inf
        return "distance-scale", float(model.scale.value(z) * phi_t / model.volume.value(z))
    if d1 == d2 == a1 == a2:
        if rtag.scalar == 0.0:
            return "logarithmic", math.inf
        front = 1.0 / model.volume.value(model.scale.inverse(1.0 / phi_t))
        return "logarithmic", float(front * math.log(2.0 / rtag.scalar))
    return "not-applicable", None


@dataclass(frozen=True)
class PowerLawEstimate:
    """d-set specialization: value, or (prefactor, exponent_arg) when local."""

    near: bool
    value: Optional[float] = None
    prefactor: Optional[float] = None
    exponent_arg: Optional[float] = None


def dset_estimate(beta, alpha, d, local, t, z):
    """Estimate shapes on an Ahlfors d-regular space with Phi = r**alpha
    and a beta-stable time change.

    Near-diagonal (z * phi(1/t)**(1/alpha) <= 1): the three-case power /
    log / power-deficit form.  Off-diagonal: t**beta / z**(d+alpha) for
    jump motions; for local (diffusion) motions the pair
    (phi(1/t)**(d/alpha), t * inverse-power-ratio((z/t)**alpha)), whose
    second member feeds exp(-c * arg) with an undetermined constant c.
    The exponential's sign convention is negative.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"stable index must lie in (0, 1), got {beta}")
    if alpha <= 0.0 or d <= 0.0:
        raise DomainError("need alpha > 0 and d > 0")
    if local and alpha < 2.0:
        raise DomainError("local (diffusion) shapes need alpha >= 2")
    if t <= 0.0 or z < 0.0:
        raise DomainError("need t > 0, z >= 0")
    exp_ = Stable(beta)
    phi_t = t ** -beta
    near = z * phi_t ** (1.0 / alpha) <= 1.0
    if near:
        if d < alpha:
            return PowerLawEstimate(True, value=phi_t ** (d / alpha))
        if z == 0.0:
            return PowerLawEstimate(True, value=math.inf)
        if d == alpha:
            return PowerLawEstimate(
                True, value=phi_t * math.log(2.0 / (z * phi_t ** (1.0 / alpha))))
        return PowerLawEstimate(True, value=phi_t / z ** (d - alpha))
    if not local:
        return PowerLawEstimate(False, value=1.0 / (phi_t * z ** (d + alpha)))
    narg = t * exp_.power_ratio_inverse(alpha, (z / t) ** alpha)
    return PowerLawEstimate(False, prefactor=phi_t ** (d / alpha),
                            exponent_arg=float(narg))
