"""Spatial heat-kernel models q(t, z), z = distance between the two points.

Exact kernels (Gaussian and Cauchy in d dimensions) serve as ground truth
where closed forms exist.  The two surrogate kernels realize the canonical
two-sided estimate shapes for jump-type and diffusion-type processes on a
space with volume profile V and space-time scale Phi:

    jump:      qbar(t, z) = t / (t V(Phi^-1(t)) + Phi(z) V(z))
    diffusion: qbar(t, z) = exp(-m(t, z)) / V(Phi^-1(t)),

with m the sub-Gaussian chaining exponent solving t/m = Phi(z/m).

All kernels are radially symmetric and immutable.  Each has a row form:
``kernel.at(s)`` forms the factors of q(s, .) that do not depend on z once,
for a scalar s or an array of s, and returns ``q_of(z, out=None)``, which
broadcasts z against s.  ``q(t, z)`` is ``at(t)(z)``, so each kernel keeps
one formula.  q_of does every step of that formula in one array: ``out``
when given, else a fresh one of the broadcast shape.  A Monte Carlo row
calls it once per z over the same draws of s, so the row needs one buffer
rather than fresh arrays at every z, and its values are the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedModelError
from .numerics import exp1, exp_in_place
from .scale import diagonal_power, subgaussian_exponent


def _row_out(out, s, z):
    """out, or a fresh array of the broadcast shape of s and z."""
    return np.empty(np.broadcast(s, z).shape) if out is None else out


class SpatialKernel:
    """Base: q(t, z) >= 0, non-increasing in z for fixed t.  Each kernel
    states its `flavor`, "jump" or "diffusion", the shape of its two-sided
    estimate; its `fourier_order`, the alpha of its 1-d symbol |xi|**alpha
    that the Fourier oracle needs, or None; its `diagonal_power`, the gamma
    of q(s, 0) ~ s**-gamma as s -> 0; and its `bends`, the s where q changes piece."""

    flavor: str
    fourier_order = None
    bends = ()

    def q(self, t, z):
        return self.at(t)(z)

    def at(self, s):
        """The row form of q at s: q_of(z, out=None) gives q(s, z), a
        scalar for scalar s and z, else an array of their broadcast shape,
        written into out when one is given."""
        raise NotImplementedError

    def time_scale(self, z):
        """Characteristic diffusion time to distance z (for split points)."""
        raise NotImplementedError

    def length_scale(self, s):
        """Characteristic distance reached in time s (inverse of the above)."""
        raise NotImplementedError

    def resolvent(self, mu, z):
        """R_mu(z) = int_0^inf exp(-mu t) q(t, z) dt for complex mu off
        (-inf, 0], vectorized over mu."""
        raise UnsupportedModelError(
            f"{type(self).__name__} has no closed-form resolvent")


def _check_dim(kernel):
    if not kernel.dim >= 1:
        raise DomainError(f"kernel dimension must be >= 1, got {kernel.dim}")


def _check_one_dimensional(kernel):
    if kernel.dim != 1:
        raise UnsupportedModelError(
            f"closed-form resolvent is 1-d only, got dim={kernel.dim}")


@dataclass(frozen=True)
class ExactGaussian(SpatialKernel):
    """(4 pi t)**(-d/2) * exp(-z**2 / (4t))."""

    dim: int = 1
    __post_init__ = _check_dim
    flavor = "diffusion"
    fourier_order = property(lambda self: 2 if self.dim == 1 else None)
    diagonal_power = property(lambda self: self.dim / 2.0)

    def at(self, s):
        s = np.asarray(s, dtype=float)
        front = (4.0 * np.pi * s) ** (-self.dim / 2.0)
        four_s = 4.0 * s

        def q_of(z, out=None):
            z = np.asarray(z, dtype=float)
            with np.errstate(over="ignore"):  # z * z is inf past 1.3e154, where q is 0
                out = np.divide(-z * z, four_s, out=_row_out(out, s, z))
            exp_in_place(out)
            return np.multiply(front, out, out=out)[()]
        return q_of

    def time_scale(self, z):
        return float(z) * float(z)  # inf past float range, where float ** 2 raises

    def length_scale(self, s):
        return math.sqrt(s)

    def resolvent(self, mu, z):
        """exp(-sqrt(mu) z) / (2 sqrt(mu)) in one dimension."""
        _check_one_dimensional(self)
        root = np.sqrt(np.asarray(mu, dtype=complex))
        return np.exp(-root * z) / (2.0 * root)

    def log_resolvent(self, mu, z):
        """log R_mu(z) = -sqrt(mu) z - log(2 sqrt(mu)) in one dimension,
        which does not underflow off the diagonal."""
        _check_one_dimensional(self)
        root = np.sqrt(np.asarray(mu, dtype=complex))
        return -root * z - np.log(2.0 * root)


@dataclass(frozen=True)
class ExactCauchy(SpatialKernel):
    """Gamma((d+1)/2) / pi**((d+1)/2) * t / (t**2 + z**2)**((d+1)/2)."""

    dim: int = 1
    __post_init__ = _check_dim
    flavor = "jump"
    fourier_order = property(lambda self: 1 if self.dim == 1 else None)
    diagonal_power = property(lambda self: float(self.dim))

    def at(self, s):
        s = np.asarray(s, dtype=float)
        d = self.dim
        const = math.gamma((d + 1) / 2.0) / np.pi ** ((d + 1) / 2.0)
        top, sq = const * s, s * s

        def q_of(z, out=None):
            z = np.asarray(z, dtype=float)
            with np.errstate(over="ignore"):  # an inf denominator, where q is 0
                out = np.add(sq, z * z, out=_row_out(out, s, z))
                if d != 1:
                    out **= (d + 1) / 2.0  # ** 1.0 would leave every bit as it is
            return np.divide(top, out, out=out)[()]
        return q_of

    def time_scale(self, z):
        return float(z)

    def length_scale(self, s):
        return float(s)

    def resolvent(self, mu, z):
        """(e^{iw} E1(iw) + e^{-iw} E1(-iw)) / (2 pi), w = mu z, in one
        dimension, with E1 from `numerics.exp1` (within 5e-14 relative),
        called once on +-iw together.  With the principal E1 this
        form jumps across the imaginary mu axis; on Re mu < 0 the 2 pi i
        term continues it, so the result stays analytic off (-inf, 0].
        e^{+-iw} overflows once |Im w| passes ~709, which leaves a
        non-finite value."""
        _check_one_dimensional(self)
        w = np.asarray(mu, dtype=complex) * z
        iw = 1j * w
        plus, minus = exp1(np.array((iw, -iw)))
        grow, decay = np.exp(iw), np.exp(-iw)
        out = grow * plus + decay * minus
        left = w.real < 0.0
        if left.any():  # e^{i side w} is e^{iw} or e^{-iw}
            side = np.sign(w.imag[left])
            out[left] -= 2j * np.pi * side * np.where(side > 0.0, grow[left], decay[left])
        return out / (2.0 * np.pi)


@dataclass(frozen=True)
class SurrogateKernel(SpatialKernel):
    """A shape on a volume profile V and a space-time scale Phi, whose q(s, 0)
    is 1/V(Phi^-1(s)) and bends at each Phi(u), u where either profile
    bends (inf past float range)."""

    volume: object
    scale: object
    diagonal_power = property(lambda self: diagonal_power(self.volume, self.scale))

    @property
    def bends(self):
        starts = {u for u, _, _ in self.volume.pieces + self.scale.pieces} - {0.0}
        with np.errstate(over="ignore"):
            return tuple(float(self.scale.value(u)) for u in sorted(starts))

    def time_scale(self, z):
        return float(self.scale.value(z))

    def length_scale(self, s):
        return float(self.scale.inverse(s))


@dataclass(frozen=True)
class JumpSurrogate(SurrogateKernel):
    """Two-sided jump estimate shape t / (t V(Phi^-1(t)) + Phi(z) V(z))."""

    flavor = "jump"

    def at(self, s):
        s = np.asarray(s, dtype=float)
        near = s * self.volume.value(self.scale.inverse(s))

        def q_of(z, out=None):
            z = np.asarray(z, dtype=float)
            far = self.scale.value(z) * self.volume.value(z)
            out = np.add(near, far, out=_row_out(out, s, z))
            return np.divide(s, out, out=out)[()]
        return q_of


@dataclass(frozen=True)
class DiffusionSurrogate(SurrogateKernel):
    """Sub-Gaussian estimate shape exp(-m(t, z)) / V(Phi^-1(t))."""

    flavor = "diffusion"

    def __post_init__(self):
        if self.scale.exponent_lo <= 1.0:
            raise DomainError(
                "diffusion surrogate needs a scale index > 1, "
                f"got {self.scale.exponent_lo}")

    def at(self, s):
        s = np.asarray(s, dtype=float)
        front = 1.0 / self.volume.value(self.scale.inverse(s))

        def q_of(z, out=None):
            z = np.asarray(z, dtype=float)
            out = _row_out(out, s, z)
            m = subgaussian_exponent(self.scale, s, np.maximum(z, 1e-300))
            np.negative(np.where(z > 0, m, 0.0), out=out)
            exp_in_place(out)
            return np.multiply(front, out, out=out)[()]
        return q_of


def parse_kernel(key, volume=None, scale=None):
    """Parse 'gaussian:1', 'cauchy:1', 'jump' or 'diffusion' config values."""
    kind, _, rest = key.partition(":")
    kind = kind.strip().lower()
    if kind in ("gaussian", "cauchy"):
        try:
            dim = int(rest or 1)
        except ValueError:
            raise DomainError(f"malformed kernel spec {key!r}") from None
        return ExactGaussian(dim) if kind == "gaussian" else ExactCauchy(dim)
    surrogates = {"jump": JumpSurrogate, "diffusion": DiffusionSurrogate}
    if kind in surrogates:
        return surrogates[kind](volume, scale)
    raise DomainError(f"unknown kernel spec {key!r}")


@dataclass(frozen=True)
class DerivativeReport:
    """Empirical structure of d/dt qbar over a (t, z) grid.

    c_bound is the fitted constant in |d_t qbar| <= c_bound * env / t,
    where env is qbar itself for the jump surrogate and the relaxed
    envelope exp(-m/2) / V(Phi^-1(t)) for the diffusion surrogate (the
    ratio against qbar itself grows like m, so a relaxed exponent is the
    correct uniform bound there).  threshold_lo and threshold_hi are the
    observed sign-change thresholds in s = Phi(z)/t: the derivative is
    negative whenever s <= threshold_lo and positive whenever
    s >= threshold_hi on the grid.
    """

    c_bound: float
    threshold_lo: float
    threshold_hi: float
    passed: bool


def _dq_dt(kernel, t, z, rel_step=1e-5):
    """Central difference in t over [t - h/2, t + h/2], h = t * rel_step."""
    h = t * rel_step
    return (kernel.q(t + h / 2, z) - kernel.q(t - h / 2, z)) / h


def time_derivative_report(kernel, ts=None, zs=None):
    """Verify the derivative structure of a surrogate kernel on a grid."""
    if not isinstance(kernel, SurrogateKernel):
        raise DomainError("derivative report applies to surrogate kernels")
    if ts is None:
        ts = np.geomspace(1e-2, 1e2, 9)
    if zs is None:
        zs = np.geomspace(1e-3, 1e3, 41)
    t, z = np.meshgrid(ts, zs, indexing="ij")
    if not t.size:
        raise DomainError("derivative report needs at least one t and one z")
    q = kernel.q(t, z)
    keep = q >= 1e-250  # below it, underflowed: neither sign nor ratio is meaningful
    if not keep.any():
        return DerivativeReport(math.nan, math.nan, math.nan, False)
    t, z, q = t[keep], z[keep], q[keep]
    d = _dq_dt(kernel, t, z)
    # front * exp(-m/2) for diffusion, the front 1/V(Phi^-1(t)) being q(t, 0)
    envelope = np.sqrt(q * kernel.q(t, 0.0)) if kernel.flavor == "diffusion" else q
    c_bound = np.max(np.abs(d) * t / envelope, initial=0.0)
    s = kernel.scale.value(z) / t
    order = np.argsort(s, kind="stable")
    svals, signs = s[order], np.sign(d[order])
    nonneg = np.nonzero(signs >= 0)[0]
    threshold_lo = svals[nonneg[0] - 1] if nonneg.size and nonneg[0] > 0 else (
        svals[-1] if not nonneg.size else 0.0)
    nonpos = np.nonzero(signs <= 0)[0]
    threshold_hi = svals[nonpos[-1] + 1] if nonpos.size and nonpos[-1] + 1 < svals.size else (
        svals[0] if not nonpos.size else np.inf)
    passed = bool(0.0 < threshold_lo <= threshold_hi < np.inf
                  and np.isfinite(c_bound) and c_bound > 0.0)
    return DerivativeReport(float(c_bound), float(threshold_lo),
                            float(threshold_hi), passed)
