"""Verification campaigns: grid sweeps certifying the two-sided sandwich.

A campaign computes p(t, z) on a log-spaced grid and compares it against
the closed-form estimate for the configured model.  Jump-flavored and
near-diagonal rows report the plain ratio p / estimate; off-diagonal
diffusion rows report the normalized log-ratio
    L(t, z) = -log(p * V(Phi^-1(1/phi(1/t)))) / n(t, z),
since only two-sided exponential comparability is claimed there.  The
report asserts nothing about the (unknown) comparability constants; it
records finiteness and per-regime spread over the rows whose p converged
and counts the flagged rest, and acceptance thresholds live with the test
suite.

Rows are evaluated in (t-index, z-index) order and Monte Carlo rows use
stream index = row index, so output is byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import solution
from .bernstein import parse_exponent
from .errors import DomainError, FracheatError
from .estimates import EstimateModel
from .kernels import DiffusionSurrogate, ExactGaussian, parse_kernel
from .numerics import DEFAULT_QUADRATURE
from .rng import RngStream
from .scale import parse_profile
from .subordinator import SubordinatorModel

CSV_HEADER_COMMENT = "# fracheat-csv v1"
CSV_COLUMNS = ("t", "z", "regime", "p", "p_err", "estimate", "n",
               "ratio", "log_ratio", "method")


@dataclass(frozen=True)
class VerifyConfig:
    """Model keys plus grid layout for one campaign."""

    subordinator: str = "stable:0.5"
    kernel: str = "cauchy:1"
    phi_scale: str = "power:1"
    volume: str = "power:1"
    t_lo: float = 1e-3
    t_hi: float = 1e3
    t_n: int = 13
    z_lo: float = 1e-3
    z_hi: float = 1e3
    z_n: int = 13
    z_mode: str = "regime"     # 'regime': z chosen so Phi(z) phi(1/t) spans
                               # [z_lo, z_hi]; 'absolute': plain z grid
    method: str = "quad"       # 'quad' | 'mc'
    mc_samples: int = 100_000
    seed: int = 20240801
    out: Optional[str] = None

    def __post_init__(self):
        if self.t_lo <= 0 or self.z_lo <= 0 or self.t_hi < self.t_lo or self.z_hi < self.z_lo:
            raise DomainError("grid ranges must be positive and ordered")
        if self.t_n < 0 or self.z_n < 0:
            raise DomainError("point counts must be >= 0")
        if self.z_mode not in ("regime", "absolute"):
            raise DomainError(f"z_mode must be 'regime' or 'absolute', got {self.z_mode}")
        if self.method not in ("quad", "mc"):
            raise DomainError(f"method must be 'quad' or 'mc', got {self.method}")


_FLOAT_KEYS = {"t_lo", "t_hi", "z_lo", "z_hi"}
_INT_KEYS = {"t_n", "z_n", "mc_samples", "seed"}


def read_config(path):
    """Flat 'key = value' config file; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def config_from_mapping(values, base=None):
    cfg = base or VerifyConfig()
    known = {f.name for f in fields(VerifyConfig)}
    updates = {}
    for key, val in values.items():
        if val is None:
            continue
        if key not in known:
            raise DomainError(f"unknown config key {key!r}")
        if key in _FLOAT_KEYS:
            val = float(val)
        elif key in _INT_KEYS:
            val = int(val)
        updates[key] = val
    return replace(cfg, **updates)


def build_kernel_and_model(cfg):
    """(kernel, subordinator model) for a config; no estimate machinery."""
    exponent = parse_exponent(cfg.subordinator)
    scale = parse_profile(cfg.phi_scale)
    volume = parse_profile(cfg.volume)
    kernel = parse_kernel(cfg.kernel, volume=volume, scale=scale)
    return kernel, SubordinatorModel(exponent, DEFAULT_QUADRATURE)


def build_models(cfg):
    """(kernel, subordinator model, estimate model) for a config."""
    kernel, model = build_kernel_and_model(cfg)
    scale = parse_profile(cfg.phi_scale)
    volume = parse_profile(cfg.volume)
    flavor = "diffusion" if isinstance(kernel, (ExactGaussian, DiffusionSurrogate)) else "jump"
    emodel = EstimateModel(model.exponent, scale, volume, flavor)
    return kernel, model, emodel


@dataclass(frozen=True)
class SandwichRow:
    t: float
    z: float
    regime: str
    p: Optional[float] = None
    p_err: Optional[float] = None
    estimate: Optional[float] = None
    n: Optional[float] = None
    ratio: Optional[float] = None
    log_ratio: Optional[float] = None
    method: str = "quad"
    error: Optional[str] = None
    converged: Optional[bool] = None   # of p; not a CSV column


@dataclass(frozen=True)
class RegimeSummary:
    count: int
    min_ratio: float
    max_ratio: float

    @property
    def spread(self):
        return self.max_ratio / self.min_ratio if self.count else float("nan")


@dataclass(frozen=True)
class SandwichReport:
    rows: tuple
    near_summary: RegimeSummary
    off_summary: RegimeSummary          # ratio-based off rows (jump flavor)
    off_log_lo: float                   # L(t, z) range over diffusion off rows
    off_log_hi: float
    all_finite: bool                    # no row errored, every converged row is finite
    flagged: int                        # rows whose p came back not converged


def _quad_row(kernel, model, t, zs):
    """p(t, z) at every z of one t by one row call of density_quadrature.
    A FracheatError it raises stands for every z, as per-point calls would
    have raised it: density errors do not depend on z > 0."""
    try:
        return solution.density_quadrature(kernel, model, t, np.array(zs))
    except FracheatError as exc:
        return [exc] * len(zs)


def _evaluate_row(kernel, model, emodel, cfg, index, t, z, quad):
    try:
        tag = emodel.classify(t, z)
        if cfg.method == "mc":
            est_p = solution.density_monte_carlo(
                kernel, model, t, z, cfg.mc_samples, RngStream(cfg.seed, index))
        elif isinstance(quad, FracheatError):
            raise quad
        else:
            est_p = quad
        shape = emodel.estimate(t, z)
        if shape.value is not None:
            ratio = est_p.value / shape.value if shape.value > 0 else np.inf
            return SandwichRow(t, z, tag.regime.value, est_p.value, est_p.error,
                               shape.value, None, ratio, None, est_p.method,
                               converged=est_p.converged)
        ratio = est_p.value / shape.prefactor  # an underflowed p = 0 gives L = inf
        log_ratio = -np.log(ratio) / shape.exponent_arg if ratio > 0 else np.inf
        return SandwichRow(t, z, tag.regime.value, est_p.value, est_p.error,
                           shape.prefactor, shape.exponent_arg, None,
                           float(log_ratio), est_p.method, converged=est_p.converged)
    except FracheatError as exc:  # a failed row is recorded, the run continues
        return SandwichRow(t, z, "error", method=cfg.method, error=str(exc))


def verify_sandwich(cfg):
    """Run one campaign and summarize per-regime comparability.  By
    quadrature, p is evaluated a t-row of z at a time."""
    kernel, model, emodel = build_models(cfg)
    t_grid = np.geomspace(cfg.t_lo, cfg.t_hi, cfg.t_n) if cfg.t_n else np.array([])
    v_grid = np.geomspace(cfg.z_lo, cfg.z_hi, cfg.z_n) if cfg.z_n else np.array([])
    rows = []
    for i, t in enumerate(t_grid):
        phi_t = emodel.exponent.phi(1.0 / t)
        zs = [float(emodel.scale.inverse(v / phi_t)) if cfg.z_mode == "regime" else float(v)
              for v in v_grid]
        quad = (_quad_row(kernel, model, float(t), zs) if cfg.method == "quad"
                else [None] * len(zs))
        rows.extend(_evaluate_row(kernel, model, emodel, cfg, i * len(zs) + j, float(t), z, p)
                    for j, (z, p) in enumerate(zip(zs, quad)))
    rows = tuple(rows)

    # a flagged row's p carries no verdict: it is counted in `flagged` only
    kept = [r for r in rows if r.converged]
    near = [r.ratio for r in kept if r.regime == "near" and r.ratio is not None]
    off = [r.ratio for r in kept if r.regime == "off" and r.ratio is not None]
    logs = [r.log_ratio for r in kept if r.log_ratio is not None]

    def summarize(vals):
        finite = [v for v in vals if np.isfinite(v) and v > 0]
        if not finite:
            return RegimeSummary(0, float("nan"), float("nan"))
        return RegimeSummary(len(finite), min(finite), max(finite))

    near_s, off_s = summarize(near), summarize(off)
    ratios_ok = all(np.isfinite(v) and v > 0 for v in near + off)
    logs_ok = all(np.isfinite(v) for v in logs)
    no_errors = all(r.error is None for r in rows)
    all_finite = bool(ratios_ok and logs_ok and no_errors)
    off_log_lo = min(logs) if logs else float("nan")
    off_log_hi = max(logs) if logs else float("nan")
    flagged = sum(not r.converged for r in rows if r.error is None)
    return SandwichReport(rows, near_s, off_s, off_log_lo, off_log_hi, all_finite, flagged)


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def write_report_csv(fh, report):
    fh.write(CSV_HEADER_COMMENT + "\n")
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for row in report.rows:
        vals = (getattr(row, col) for col in CSV_COLUMNS)
        fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in vals) + "\n")
