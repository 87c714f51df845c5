"""References for the benchmark's correctness checks.

None of this imports fracheat: each value is computed from a closed form
by scipy or mpmath, so a defect in the timed path cannot hide in its own
reference.

* beta = 1/2 stable time change: E_t has density exp(-s^2/4t)/sqrt(pi t)
  on s > 0, so p(t, z) = int_0^inf q(s, z) h_t(s) ds is one 1-d quad.
* mixture phi(lam) = lam^0.3 + lam^0.7: the Laplace transform of p in t is
  phi(lam)/lam * R_phi(lam)(z), with R_mu the resolvent of the 1-d kernel,
  inverted by Talbot's method in mpmath.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
from scipy import integrate

MIXTURE_TERMS = ((1.0, 0.3), (1.0, 0.7))


def _log_q(kernel, s, z):
    if kernel == "gaussian":
        return -0.5 * math.log(4.0 * math.pi * s) - z * z / (4.0 * s)
    if kernel == "cauchy":
        return math.log(s / (math.pi * (s * s + z * z)))
    raise ValueError(f"no closed form for kernel {kernel!r}")


def half_stable_density(kernel, t, z):
    """p(t, z) for the 1-d Gaussian or Cauchy kernel under E_t with
    phi(lam) = lam^(1/2).

    Integrated in u = log s, which turns the peaks of q(s, z) h_t(s) into
    bumps of width O(1) whose locations are passed to QUADPACK.
    """
    log_norm = -0.5 * math.log(math.pi * t)

    def integrand(u):
        s = math.exp(u)
        expo = _log_q(kernel, s, z) + log_norm - s * s / (4.0 * t) + u
        return math.exp(expo) if expo > -745.0 else 0.0

    # q h_t peaks where the kernel scale (z^2 resp. z) meets the h_t scale
    peak = (z * z * t / 2.0) ** (1.0 / 3.0) if kernel == "gaussian" else z
    marks = sorted({math.log(peak), math.log(math.sqrt(t)), math.log(max(z, 1e-300))})
    lo = min(marks) - 40.0
    hi = 0.5 * math.log(4.0 * t * 800.0)   # s^2 / 4t > 800: h_t underflowed
    pts = [m for m in marks if lo < m < hi]
    val, _ = integrate.quad(integrand, lo, hi, points=pts or None,
                            epsabs=0.0, epsrel=1e-13, limit=400)
    return val


def _resolvent(kernel, mu, z):
    """int_0^inf e^{-mu s} q(s, z) ds, analytic for |arg mu| < pi."""
    if kernel == "gaussian":
        root = mpmath.sqrt(mu)
        return mpmath.exp(-root * z) / (2 * root)
    # (1/pi) int_0^inf cos(xi z)/(mu + xi) dxi
    w = mu * z
    return (-mpmath.ci(w) * mpmath.cos(w)
            - (mpmath.si(w) - mpmath.pi / 2) * mpmath.sin(w)) / mpmath.pi


@lru_cache(maxsize=None)
def mixture_density(kernel, t, z, dps=30):
    """p(t, z) for the mixture phi = lam^0.3 + lam^0.7 by Talbot inversion."""
    with mpmath.workdps(dps):
        def transform(lam):
            mu = sum(a * lam ** b for a, b in MIXTURE_TERMS)
            return mu / lam * _resolvent(kernel, mu, z)
        return float(mpmath.invertlaplace(transform, t, method="talbot"))
