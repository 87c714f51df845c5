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
from .errors import DomainError
from .numerics import TINY
from .scale import subordinated_exponent


@dataclass(frozen=True)
class EstimateValue:
    regime: str                            # "near" iff scalar <= 1 (inclusive), else "off"
    scalar: float                          # Phi(z) * phi(1/t)
    value: Optional[float] = None          # set for near and off-jump rows
    prefactor: Optional[float] = None      # set for off-diffusion rows
    exponent_arg: Optional[float] = None   # n(t, z) for off-diffusion rows


def _normal(v):
    """Where v is a finite float of at least the smallest normal size."""
    size = np.abs(v)
    return (TINY <= size) & (size < np.inf)


def _power_integral_in_logs(log_front, g, hi, x):
    """exp(log_front) / (1 - g) * (hi**(1 - g) - x**(1 - g)) for g != 1 at
    each 0 <= x <= hi, formed in logs so that only the result may leave
    float range, to about eps |log result| relative: the larger power,
    hi**(1 - g) for g < 1 and x**(1 - g) for g > 1, times 1 - (x/hi)**|1 - g|
    from one expm1 (a log of 0 is -inf, which the caller lets pass)."""
    d, log_x = abs(1.0 - g), np.log(x)
    log_big = math.log(hi) if g < 1.0 else log_x
    return np.exp(log_front + (1.0 - g) * log_big - math.log(d)
                  + np.log(-np.expm1(d * (log_x - math.log(hi)))))


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
        Phi(z) phi(1/t) <= 1 of a row to 2, part of the normalization.
        Between the images phi(1/t) Phi(u) of the radii u where either
        profile bends, Phi(u) = c_s u**e_s and V(u) = c_v u**e_v, so the
        integrand is (phi(1/t) c_s)**g / c_v * r**-g with g = e_v / e_s, and
        each integral is a sum of closed-form power integrals (a log where
        g = 1).
        At a = 0 it is finite exactly when the first piece has g < 1; past
        float range it is inf, and a stretch adds only where a is below its top.
        A term one of whose factors leaves float range, though the term need
        not, is taken in logs (`_power_integral_in_logs`)."""
        scale, volume = self.scale.pieces, self.volume.pieces
        diverges = (a == 0.0) & (volume[0][2] / scale[0][2] > 1.0 - 1e-14)
        starts = sorted({u for u, _, _ in scale + volume})
        edges = [0.0, *[phi_t * self.scale.value(u) for u in starts[1:]], 2.0]
        total = np.where(diverges, np.inf, 0.0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for u, lo, hi in zip(starts, edges, edges[1:]):
                hi = min(hi, 2.0)
                if lo >= hi:
                    continue
                _, c_s, e_s = [piece for piece in scale if piece[0] <= u][-1]
                _, c_v, e_v = [piece for piece in volume if piece[0] <= u][-1]
                g = e_v / e_s
                inside = (a < hi) & ~diverges
                x = np.maximum(a[inside], lo)
                if abs(g - 1.0) < 1e-14:
                    total[inside] += phi_t * c_s / c_v * np.log(hi / x)
                else:
                    front = np.float64(phi_t * c_s) ** g
                    at_hi, at_x = hi ** (1.0 - g), x ** (1.0 - g)
                    term = front / c_v / (1.0 - g) * (at_hi - at_x)
                    # where a factor has left float range, a nan or a lost
                    # value is replaced by the term in logs
                    logs = ~(_normal(front) & _normal(at_hi) & (_normal(at_x) | (x == 0.0)))
                    if logs.any():
                        term[logs] = _power_integral_in_logs(
                            g * (np.log(phi_t) + np.log(c_s)) - np.log(c_v), g, hi, x[logs])
                    total[inside] += term
        return total

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
        if near.any():  # a row past the diagonal needs no near-diagonal sum
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
