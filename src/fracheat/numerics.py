"""Shared numerical utilities: root finding, panel quadrature, tolerances.

All root targets in this package are monotone on (0, inf), so the one
solver bisects in log x over [1e-300, 1e300], elementwise over an array
of targets.  Panel quadrature builds composite Gauss-Legendre rules on
geometric subdivisions; it is used where an integrand must be evaluated
vectorized for speed.  The adaptive composite Gauss-Kronrod rule, the
package's one adaptive quadrature, does the same with an embedded error
estimate.  A piecewise Chebyshev table, its DCT done by numpy's FFT,
stands in for a costly smooth function.  The complex exponential integral
E1 is numpy code too, so the package needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BracketError


# the relative tolerance of the Gauss-Kronrod passes for p, its mass and weak-form
# checks, the integrated-tail identities and ConstructedCBF.phi; the absolute floor
# of all but the identities
REL_TOL, ABS_FLOOR = 1e-10, 1e-300

# roots are sought in [1e-300, 1e300], in log x
_LOG_LO, _LOG_HI = math.log(1e-300), math.log(1e300)

# numpy's SIMD exp leaves its fast path for any argument below about -707
# (measured on numpy 2.4); at or below log 2**-1075 it rounds to +0.0
_EXP_FAST, _EXP_ZERO = -700.0, -1075.0 * math.log(2.0)


def exp_in_place(x):
    """np.exp(x, out=x) for a float array x, bit for bit, off numpy's slow
    path: the whole array is exponentiated clamped at _EXP_FAST, lanes at or
    below _EXP_ZERO are then multiplied by 0, and the few in between get
    np.exp of their own compacted subset (a random mask of all the low
    lanes is too dear to compact)."""
    low = x < _EXP_FAST
    if not low.any():
        return np.exp(x, out=x)
    live = x > _EXP_ZERO
    band = low & live
    exact = np.exp(x[band])
    np.maximum(x, _EXP_FAST, out=x)
    np.exp(x, out=x)
    np.multiply(x, live, out=x)
    x[band] = exact
    return x


def bisection(below, lo, hi, iters):
    """The midpoint of [lo, hi] after iters halvings, elementwise, toward
    where below(x) turns False."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        left = below(mid)
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def monotone_root(f, rtol=1e-13):
    """Root of a monotone f on (0, inf), increasing or decreasing,
    elementwise over the shape of what f returns: bisection in log x over
    [1e-300, 1e300] to a width of rtol, so rtol relative in x.  Raises
    BracketError where f has the same sign at both ends."""
    with np.errstate(all="ignore"):
        below = np.sign(f(np.exp(_LOG_LO)))
        if not np.all(below * np.sign(f(np.exp(_LOG_HI))) < 0.0):
            raise BracketError("no sign change of target function inside [1e-300, 1e300]")
        ends = np.full(np.shape(below), _LOG_LO), np.full(np.shape(below), _LOG_HI)
        return np.exp(bisection(lambda y: np.sign(f(np.exp(y))) == below, *ends,
                                math.ceil(math.log2((_LOG_HI - _LOG_LO) / rtol))))[()]


@lru_cache(maxsize=64)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(boundaries, order=16):
    """Gauss-Legendre nodes/weights on consecutive [b_i, b_{i+1}] panels,
    along the last axis of the boundaries."""
    b = np.asarray(boundaries, dtype=float)
    x, w = _gl_rule(order)
    mid = 0.5 * (b[..., 1:] + b[..., :-1])
    half = 0.5 * (b[..., 1:] - b[..., :-1])
    shape = mid.shape[:-1] + (-1,)
    return ((mid[..., None] + half[..., None] * x).reshape(shape),
            (half[..., None] * w).reshape(shape))


def geometric_boundaries(lo, hi, per_decade=4, extra=()):
    """Log-spaced panel boundaries from lo to hi with optional knots merged in."""
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    n = max(2, int(np.ceil(per_decade * np.log10(hi / lo))) + 1)
    b = np.geomspace(lo, hi, n)
    if extra:
        pts = [p for p in extra if lo < p < hi]
        if pts:
            b = np.unique(np.concatenate([b, np.asarray(pts, dtype=float)]))
    return b


# QUADPACK qk15 tables: xgk holds the Kronrod abscissae on [0, 1] in
# descending order, the Gauss-7 ones at odd positions; wgk and wg hold the
# K15 and G7 weights of those abscissae
_XGK = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245, 0.0])
_WGK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_K15_X = np.concatenate([-_XGK, _XGK[-2::-1]])
_K15_W = np.concatenate([_WGK, _WGK[-2::-1]])
_G7_W = np.zeros(15)
_G7_W[1::2] = np.concatenate([_WG, _WG[-2::-1]])
# p(t, z) for stable models with beta from 0.1 to 0.99 needs at most ~22
# bisections at rel_tol 1e-10; the cap bounds the work and memory of a
# tolerance that cannot be met
_MAX_BISECTIONS = 128
EPS = float(np.finfo(float).eps)
# the smallest normal float: a value below it has lost digits to underflow
TINY = float(np.finfo(float).tiny)


def _kronrod_panels(f, lo, hi):
    """(K15, |K15 - G7|) on each panel [lo_i, hi_i] from one call of f,
    the panel index last."""
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    vals = f((mid[:, None] + half[:, None] * _K15_X[None, :]).ravel())
    vals = np.reshape(vals, np.shape(vals)[:-1] + (mid.size, _K15_X.size))
    kronrod = half * (vals @ _K15_W)
    return kronrod, np.abs(kronrod - half * (vals @ _G7_W))


def kronrod_quad(f, boundaries, rel_tol, abs_floor):
    """Adaptive composite Gauss-Kronrod (G7/K15) integral of a vectorized f.

    f maps the nodes to values, or to an array of rows of values with the
    node index last, each row an integral with its own tolerance on shared
    panels.  Starts from the panels between consecutive boundaries.  Each
    round calls f once on the nodes of every new panel.  A panel fails when
    its error |K15 - G7| in some row exceeds its width share of
    max(rel_tol*|row total|, abs_floor); failing panels are bisected, worst
    first, until none fails or _MAX_BISECTIONS have been spent.  Returns
    (total, error, converged), per row for rows, with error the sum of the
    panel errors plus the rounding bound eps * sum |panel|, which smooth
    rounding in f hides from |K15 - G7|, and converged whether that error
    meets the tolerance.
    """
    edges = np.asarray(boundaries, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    val, err = _kronrod_panels(f, lo, hi)
    budget = _MAX_BISECTIONS
    while True:
        tol = np.maximum(rel_tol * np.abs(val.sum(axis=-1)), abs_floor)
        excess = err / (hi - lo) - (tol / (edges[-1] - edges[0]))[..., None]
        if excess.ndim > 1:
            excess = excess.reshape(-1, lo.size).max(axis=0)
        fail = np.flatnonzero(excess > 0.0)
        if fail.size == 0 or budget == 0:
            break
        fail = fail[np.argsort(-excess[fail], kind="stable")][:budget]
        budget -= fail.size
        keep = np.setdiff1d(np.arange(lo.size), fail)
        mid = 0.5 * (lo[fail] + hi[fail])
        lo = np.concatenate([lo[keep], lo[fail], mid])
        hi = np.concatenate([hi[keep], mid, hi[fail]])
        new_val, new_err = _kronrod_panels(f, lo[keep.size:], hi[keep.size:])
        val = np.concatenate([val[..., keep], new_val], axis=-1)
        err = np.concatenate([err[..., keep], new_err], axis=-1)
    total, error = val.sum(axis=-1), err.sum(axis=-1) + EPS * np.abs(val).sum(axis=-1)
    ok = error <= np.maximum(rel_tol * np.abs(total), abs_floor)
    return (total, error, ok) if total.ndim else (float(total), float(error), bool(ok))


# piecewise Chebyshev tables: the degree, the starting and the narrowest panel width
_CHEB_DEGREE, _CHEB_WIDTH, _CHEB_MIN_WIDTH = 24, 2.0, 2.0 / 64
# the Chebyshev points of the first kind, in the order of the DCT-II
_CHEB_X = np.cos(np.pi * (np.arange(_CHEB_DEGREE + 1) + 0.5) / (_CHEB_DEGREE + 1))
# Makhoul's DCT-II by one FFT: evens up, then odds down, times 2 exp(-i pi k / 2n)
_DCT_ORDER = np.r_[0:_CHEB_X.size:2, _CHEB_X.size - 2:0:-2]
_DCT_TWIDDLE = 2.0 * np.exp(-0.5j * np.pi * np.arange(_CHEB_X.size) / _CHEB_X.size)


@dataclass(frozen=True, eq=False)
class ChebyshevTable:
    """Rows of Chebyshev series on the panels between `edges`, from
    chebyshev_table; `error` and `peak` are per row."""

    edges: np.ndarray
    coeffs: np.ndarray     # (row, degree, panel)
    error: np.ndarray      # the stated absolute error
    peak: np.ndarray       # the largest |value| at the nodes
    nodes: int             # points at which the rows were evaluated
    converged: bool        # every panel met the tolerance

    def __call__(self, y, row):
        """Row `row` at the points y by Clenshaw's recurrence."""
        flat, coeffs = np.ravel(y), self.coeffs[row]
        k = np.clip(np.searchsorted(self.edges, flat) - 1, 0, self.edges.size - 2)
        lo, hi = self.edges[k], self.edges[k + 1]
        x2 = (4.0 * flat - 2.0 * (lo + hi)) / (hi - lo)
        b1 = b2 = 0.0
        for c in coeffs[:0:-1]:
            b1, b2 = c[k] + x2 * b1 - b2, b1
        return (coeffs[0][k] + 0.5 * x2 * b1 - b2).reshape(np.shape(y))


def chebyshev_table(f, lo, hi, rel_tol):
    """Piecewise Chebyshev table on [lo, hi] of f, which maps a 1-d array of
    points to rows of values, the point index last.  Panels start about
    _CHEB_WIDTH wide and are bisected, down to _CHEB_MIN_WIDTH, until the
    last three coefficients of every row are at most rel_tol times the row's
    peak.  A row's stated error is the worst over its panels of the largest
    of those three, taken as the level of each coefficient, times the number
    of coefficients, plus the rounding bound eps * sum |coefficients|."""
    edges = np.linspace(lo, hi, int(np.ceil((hi - lo) / _CHEB_WIDTH)) + 1)
    todo_lo, todo_hi = edges[:-1], edges[1:]
    kept, peak, nodes = [], 0.0, 0
    while todo_lo.size:
        mid, half = 0.5 * (todo_hi + todo_lo), 0.5 * (todo_hi - todo_lo)
        vals = f((mid[:, None] + half[:, None] * _CHEB_X).ravel())
        vals = vals.reshape(-1, mid.size, _CHEB_X.size)
        nodes, peak = nodes + vals[0].size, np.maximum(peak, np.abs(vals).max(axis=(1, 2)))
        dct = (np.fft.fft(vals[..., _DCT_ORDER]) * _DCT_TWIDDLE).real
        coeffs = np.moveaxis(dct / _CHEB_X.size, 1, 2)
        coeffs[:, 0] *= 0.5
        bad = (np.abs(coeffs[:, -3:]) > rel_tol * peak[:, None, None]).any(axis=(0, 1))
        split = bad & (half >= _CHEB_MIN_WIDTH)
        kept.append((todo_lo[~split], coeffs[..., ~split], bad[~split]))
        todo_lo = np.append(todo_lo[split], mid[split])
        todo_hi = np.append(mid[split], todo_hi[split])
    starts, coeffs, bad = (np.concatenate(part, axis=-1) for part in zip(*kept))
    order = np.argsort(starts)
    coeffs = np.ascontiguousarray(coeffs[..., order])
    error = _CHEB_X.size * np.abs(coeffs[:, -3:]).max(axis=1) + EPS * np.abs(coeffs).sum(axis=1)
    return ChebyshevTable(np.append(starts[order], hi), coeffs, error.max(axis=1), peak,
                          nodes, not bad.any())


# E1: the power series where |z| + Re z <= _E1_WEDGE and |z| < _E1_FAR, whose
# cancellation is then at most e**_E1_WEDGE; the asymptotic series where
# |z| >= _E1_FAR; the continued fraction elsewhere.  The fraction's error
# after n steps is about exp(-4 Re sqrt(n z)), and (Re sqrt z)**2 =
# (|z| + Re z)/2, so n = _E1_DEPTH / (|z| + Re z) + 4 steps reach 1e-16
_E1_WEDGE, _E1_FAR, _E1_DEPTH = 4.0, 40.0, 171.0
# points per block of exp1: the fraction's matrix of a block stays below ~1.6 MB
_E1_BLOCK = 2048
_EULER = 0.57721566490153286061
# (-1)**k / ((k+1) (k+1)!) for k = 0 .. 159, the power series coefficients,
# in rows of sixteen; (-1)**k k! for k = 0 .. 47, the asymptotic ones
_E1_SERIES = np.array([(-1) ** k / ((k + 1) * math.factorial(k + 1))
                       for k in range(160)], dtype=complex).reshape(-1, 16)
_E1_ASYMPTOTIC = np.array([float((-1) ** k * math.factorial(k)) for k in range(48)])


def _polynomial(rows, z):
    """sum_k c_k z**k at each z of a 1-d array, c_{16j+i} = rows[j, i]:
    Horner's rule in z**16 on the sixteen parts of each i at once, then the
    parts joined in pairs by z, z**2, z**4 and z**8 (Estrin's scheme), a
    few array operations in all, in place."""
    powers = [z]
    for _ in range(4):
        powers.append(powers[-1] * powers[-1])
    parts = np.zeros((16, z.size), dtype=complex)
    for row in rows[::-1]:
        parts *= powers[4]
        parts += row[:, None]
    for power in powers[:4]:
        odd = parts[1::2]
        odd *= power
        odd += parts[0::2]
        parts = odd
    return parts[0]


@lru_cache(maxsize=64)
def _series_rows(bound):
    """The rows of _E1_SERIES that |z| <= bound needs: up to the first term,
    at most bound**(n+1) / (n+1)!, below 1e-17 of the least |E1| there."""
    term, n, tol = bound, 0, 1e-17 * math.exp(max(bound - _E1_WEDGE, -bound)) / (bound + 1.0)
    while term > tol:
        n += 1
        term *= bound / (n + 1)
    return -(-n // 16)


def _e1_series(z, largest):
    """E1 = -gamma - log z + z sum_k (-z)**k / ((k+1) (k+1)!) (DLMF 6.6.2),
    with the terms that the largest |z| needs."""
    rows = _E1_SERIES[:_series_rows(math.ceil(largest))]
    return z * _polynomial(rows, z) - (_EULER + np.log(z))


@lru_cache(maxsize=64)
def _laguerre_rule(m):
    """The m-point Gauss-Laguerre rule: numpy's nodes, and the weights
    1 / sum_{k<m} L_k(x)**2, which keep full precision where numpy's lose
    two digits."""
    x = np.polynomial.laguerre.laggauss(m)[0]
    before, last = np.ones_like(x), 1.0 - x
    total = before * before + last * last
    for k in range(1, m - 1):
        before, last = last, ((2 * k + 1 - x) * last - k * before) / (k + 1)
        total += last * last
    return x, 1.0 / total


def _e1_fraction(z, least):
    """E1 = e**-z / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))) (DLMF 6.9.1, even
    part) at the depth n that the least |z| + Re z needs.  That approximant
    is the (n+1)-point Gauss-Laguerre rule for
    e**z E1(z) = int_0^inf e**-s/(z + s) ds, one sum over the rule's nodes."""
    nodes, weights = _laguerre_rule(math.ceil(_E1_DEPTH / least + 4.0) + 1)
    terms = z[:, None] + nodes
    np.divide(weights, terms, out=terms)
    return np.exp(-z) * terms.sum(axis=1)


def _e1_asymptotic(z, least):
    """E1 = (e**-z / z) sum_k (-1)**k k! / z**k (DLMF 6.12.1), up to the
    smallest term at the least |z| or to the first below 1e-17."""
    term, n = 1.0, 0
    while n + 1 <= least and term > 1e-17:
        n += 1
        term *= n / least
    coef = _E1_ASYMPTOTIC[:n + 1]
    rows = np.append(coef, np.zeros(-coef.size % 16)).reshape(-1, 16)
    inv = 1.0 / z
    return np.exp(-z) * inv * _polynomial(rows, inv)


def exp1(z):
    """The principal branch of the exponential integral E1 at complex z,
    elementwise, in the shape of z: on the cut z < 0 the sign of Im z picks
    the side, E1(-x +- 0i) = -Ei(x) -+ i pi.  The power series near 0 and
    along the negative real axis, the asymptotic series with minimal-term
    truncation for |z| >= 40, and the continued fraction elsewhere, after
    Zhang & Jin, Computation of Special Functions (1996), routine E1Z; each
    branch is sized by its own points, a block of _E1_BLOCK points at a
    time.  Within 5e-14 relative of E1 wherever |E1| is a normal float; inf
    where it overflows, with no warning."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    out = np.empty(flat.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, flat.size, _E1_BLOCK):
            block, part = flat[start:start + _E1_BLOCK], out[start:start + _E1_BLOCK]
            size = np.abs(block)
            key = size + block.real
            far = size >= _E1_FAR
            series = (key <= _E1_WEDGE) > far
            fraction = ~(series | far)
            if series.any():
                part[series] = _e1_series(block[series], size[series].max())
            if fraction.any():
                # fmin skips the NaN of a NaN z, which the rule then returns
                part[fraction] = _e1_fraction(block[fraction],
                                              np.fmin.reduce(key[fraction], initial=np.inf))
            if far.any():
                part[far] = _e1_asymptotic(block[far], size[far].min())
    return out.reshape(z.shape)[()]
