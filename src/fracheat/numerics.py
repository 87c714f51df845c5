"""Shared numerical utilities: root bracketing, panel quadrature, config.

All root targets in this package are monotone on (0, inf), so the one
solver brackets the root in log x, with steps that double from log 2 on
both sides of a starting guess, and refines it by Brent's method in log x.
Panel quadrature builds composite Gauss-Legendre rules on geometric
subdivisions; it is used where an integrand must be evaluated vectorized
for speed.  The adaptive composite Gauss-Kronrod rule, the package's one
adaptive quadrature, does the same with an embedded error estimate.  A
piecewise Chebyshev table stands in for a costly smooth function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft, optimize

from .errors import BracketError


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances shared by the adaptive quadratures."""

    rel_tol: float = 1e-10
    abs_floor: float = 1e-300

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")


DEFAULT_QUADRATURE = QuadratureConfig()

# roots are sought in [1e-300, 1e300], in log x
_LOG_LO, _LOG_HI = math.log(1e-300), math.log(1e300)


def monotone_root(f, x0=1.0, rtol=1e-13):
    """Root of a monotone f on (0, inf), increasing or decreasing: steps in
    log x on both sides of x0, doubling from log 2, until f changes sign,
    then Brent's method in log x, to rtol relative in x plus 4 eps relative
    in log x.  Raises BracketError if f keeps its sign on [1e-300, 1e300]."""
    def in_log(y):
        return f(math.exp(y))

    y0, step = math.log(x0), math.log(2.0)
    sign0 = np.sign(in_log(y0))
    if sign0 == 0.0:
        return x0
    while step < 2.0 * (_LOG_HI - _LOG_LO):  # the last step spans the range
        for end in (max(y0 - step, _LOG_LO), min(y0 + step, _LOG_HI)):
            if np.sign(in_log(end)) != sign0:
                a, b = sorted((y0, end))
                return math.exp(optimize.brentq(in_log, a, b, xtol=rtol, rtol=4.0 * EPS))
        step *= 2.0
    raise BracketError("no sign change of target function inside [1e-300, 1e300]")


@lru_cache(maxsize=64)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(boundaries, order=16):
    """Gauss-Legendre nodes/weights on consecutive [b_i, b_{i+1}] panels."""
    b = np.asarray(boundaries, dtype=float)
    x, w = _gl_rule(order)
    mid = 0.5 * (b[1:] + b[:-1])
    half = 0.5 * (b[1:] - b[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


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


# piecewise Chebyshev tables: the degree, the starting and the narrowest
# panel width, and the points per evaluation block (temporaries near 128 kB)
_CHEB_DEGREE, _CHEB_WIDTH, _CHEB_MIN_WIDTH, _CHEB_BLOCK = 24, 2.0, 2.0 / 64, 1 << 14
# the Chebyshev points of the first kind, in the order of the DCT-II
_CHEB_X = np.cos(np.pi * (np.arange(_CHEB_DEGREE + 1) + 0.5) / (_CHEB_DEGREE + 1))


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
        """Row `row` at the points y by Clenshaw's recurrence, a block at a time."""
        flat, out, coeffs = np.ravel(y), np.empty(np.size(y)), self.coeffs[row]
        for i in range(0, flat.size, _CHEB_BLOCK):
            block = flat[i:i + _CHEB_BLOCK]
            k = np.clip(np.searchsorted(self.edges, block) - 1, 0, self.edges.size - 2)
            lo, hi = self.edges[k], self.edges[k + 1]
            x2 = (4.0 * block - 2.0 * (lo + hi)) / (hi - lo)
            b1 = b2 = 0.0
            for c in coeffs[:0:-1]:
                b1, b2 = c[k] + x2 * b1 - b2, b1
            out[i:i + _CHEB_BLOCK] = coeffs[0][k] + 0.5 * x2 * b1 - b2
        return out.reshape(np.shape(y))


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
        coeffs = np.moveaxis(fft.dct(vals, type=2) / _CHEB_X.size, 1, 2)
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
