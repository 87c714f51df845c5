"""Verification campaigns: grid sweeps certifying the two-sided sandwich.

A campaign computes p(t, z) on a log-spaced grid and compares it against
the closed-form estimate for the configured model.  Jump-flavored and
near-diagonal rows report the plain ratio p / estimate; off-diagonal
diffusion rows report the normalized log-ratio
    L(t, z) = -log(p * V(Phi^-1(1/phi(1/t)))) / n(t, z),
since only two-sided exponential comparability is claimed there; where p
underflows, L comes from the log p its evaluator carries, if any.  The
report asserts nothing about the (unknown) comparability constants; it
records finiteness and per-regime spread over the rows whose p converged
and counts the flagged rest, and acceptance thresholds live with the test
suite.

p and the estimate are evaluated a t-row of z at a time, in (t-index,
z-index) order, and a Monte Carlo t-row draws from the stream (seed, t
index), so output is byte-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import solution
from .bernstein import parse_exponent
from .errors import DomainError, FracheatError
from .estimates import EstimateModel
from .kernels import parse_kernel
from .numerics import TINY
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
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int:
                if isinstance(value, str) or not float(value).is_integer():
                    raise DomainError(f"{f.name} must be an integer, got {value!r}")
                object.__setattr__(self, f.name, int(value))
        if not (0.0 < self.t_lo <= self.t_hi < math.inf
                and 0.0 < self.z_lo <= self.z_hi < math.inf):
            raise DomainError("grid ranges must be finite, positive and ordered")
        if self.t_n < 0 or self.z_n < 0:
            raise DomainError("point counts must be >= 0")
        if self.mc_samples < 100:
            raise DomainError(f"mc_samples must be >= 100, got {self.mc_samples}")
        if self.z_mode not in ("regime", "absolute"):
            raise DomainError(f"z_mode must be 'regime' or 'absolute', got {self.z_mode}")
        if self.method not in ("quad", "mc"):
            raise DomainError(f"method must be 'quad' or 'mc', got {self.method}")


def read_config(path):
    """Flat 'key = value' config file; '#' starts a comment."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except FileNotFoundError:
        raise DomainError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from None
    return values


def config_from_mapping(values, base=None):
    """`base` (default: VerifyConfig()) with the keys of `values` set, each
    converted to the type of its field's default (str for `out`); a None
    value is skipped, and a number for an int key is left for VerifyConfig
    to refuse unless it is integral."""
    cfg = base or VerifyConfig()
    kinds = {f.name: str if f.default is None else type(f.default) for f in fields(VerifyConfig)}
    updates = {}
    for key, val in values.items():
        if val is None:
            continue
        if key not in kinds:
            raise DomainError(f"unknown config key {key!r}")
        kind = kinds[key]
        try:
            updates[key] = val if kind is int and not isinstance(val, str) else kind(val)
        except ValueError:
            raise DomainError(f"config key {key!r}: {val!r} is not of type {kind.__name__}") from None
    return replace(cfg, **updates)


def _parse_models(cfg):
    """(exponent, scale, volume, kernel) from the model keys of a config."""
    exponent = parse_exponent(cfg.subordinator)
    scale, volume = parse_profile(cfg.phi_scale), parse_profile(cfg.volume)
    return exponent, scale, volume, parse_kernel(cfg.kernel, volume=volume, scale=scale)


def build_kernel_and_model(cfg):
    """(kernel, subordinator model) for a config; no estimate machinery."""
    exponent, _, _, kernel = _parse_models(cfg)
    return kernel, SubordinatorModel(exponent)


def build_models(cfg):
    """(kernel, subordinator model, estimate model) for a config."""
    exponent, scale, volume, kernel = _parse_models(cfg)
    return kernel, SubordinatorModel(exponent), EstimateModel(exponent, scale, volume, kernel.flavor)


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
    tilted: int                         # rows estimated from tilted Monte Carlo draws


def _sandwich_row(t, z, est_p, shape):
    """The row at (t, z) from p and its estimate shape."""
    if shape.value is not None:
        ratio = est_p.value / shape.value if shape.value > 0 else np.inf
        return SandwichRow(t, z, shape.regime, est_p.value, est_p.error,
                           shape.value, None, ratio, None, est_p.method,
                           converged=est_p.converged)
    if est_p.log_value is not None and not est_p.value >= TINY:  # p underflowed, log p did not
        log_ratio = (math.log(shape.prefactor) - est_p.log_value) / shape.exponent_arg
    else:
        ratio = est_p.value / shape.prefactor  # an underflowed p = 0 gives L = inf
        log_ratio = -np.log(ratio) / shape.exponent_arg if ratio > 0 else np.inf
    return SandwichRow(t, z, shape.regime, est_p.value, est_p.error,
                       shape.prefactor, shape.exponent_arg, None,
                       float(log_ratio), est_p.method, converged=est_p.converged)


def verify_sandwich(cfg):
    """Run one campaign and summarize per-regime comparability; p and the
    estimate are each evaluated a t-row of z at a time, and an error of
    either is recorded on every row of its t."""
    kernel, model, emodel = build_models(cfg)
    t_grid = np.geomspace(cfg.t_lo, cfg.t_hi, cfg.t_n) if cfg.t_n else np.array([])
    v_grid = np.geomspace(cfg.z_lo, cfg.z_hi, cfg.z_n) if cfg.z_n else np.array([])
    rows = []
    for i, t in enumerate(t_grid.tolist()):
        zs = (emodel.scale.inverse(v_grid / emodel.exponent.phi(1.0 / t))
              if cfg.z_mode == "regime" else v_grid)
        try:  # a failed t-row is recorded, the run continues
            # a Monte Carlo row draws from the stream (seed, t index)
            ps = (solution.density_monte_carlo(kernel, model, t, zs, cfg.mc_samples,
                                               RngStream(cfg.seed, i))
                  if cfg.method == "mc" else solution.density_quadrature(kernel, model, t, zs))
            pairs = zip(ps, emodel.estimate(t, zs))
        except FracheatError as exc:
            rows.extend(SandwichRow(t, z, "error", method=cfg.method, error=str(exc))
                        for z in zs.tolist())
        else:
            rows.extend(_sandwich_row(t, z, *pair) for z, pair in zip(zs.tolist(), pairs))
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
    tilted = sum(r.method == "mc-tilted" for r in rows)
    return SandwichReport(rows, near_s, off_s, off_log_lo, off_log_hi, all_finite, flagged,
                          tilted)


def write_csv(fh, columns, rows):
    """The schema comment, the header of `columns`, then one line per row
    of `rows`: a str as it is, None as an empty field, any other value as
    repr(float(v))."""
    fh.write(CSV_HEADER_COMMENT + "\n")
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(v if isinstance(v, str) else "" if v is None else repr(float(v))
                          for v in row) + "\n")


def write_report_csv(fh, report):
    write_csv(fh, CSV_COLUMNS, ([getattr(row, col) for col in CSV_COLUMNS] for row in report.rows))
