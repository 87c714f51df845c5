"""The benchmark's workloads: generated inputs, model building, warm-up and
the calls into fracheat that a timed pass makes.

Every input comes from numpy generators keyed by (workload, seed, pass);
fracheat only ever sees the generated numbers.  Campaign and oracle passes
draw fresh grid shifts and points, so a run averages the cost over several
draws; mixture passes keep their points and draw only the MC seed.
"""

from __future__ import annotations

import hashlib
import io
import zlib
from dataclasses import dataclass

import numpy as np

import fracheat
from fracheat import harness

# Criterion-6 jump grid and criterion-7 diffusion grid (tests/test_acceptance.py).
JUMP_GRID = dict(subordinator="stable:0.5", kernel="cauchy:1", phi_scale="power:1",
                 volume="power:1", t_lo=1e-3, t_hi=1e3, t_n=13,
                 z_lo=1e-3, z_hi=1e3, z_n=13, z_mode="regime")
DIFFUSION_GRID = dict(subordinator="stable:0.5", kernel="gaussian:1", phi_scale="power:2",
                      volume="power:1", t_lo=1e-2, t_hi=1e2, t_n=9,
                      z_lo=4.0, z_hi=900.0, z_n=9, z_mode="regime")
MC_DRAWS_PER_ROW = 100_000
WARM_GRID_POINTS = 3

FOURIER_BETA = 0.5
FOURIER_T = (0.1, 10.0)        # log-stratified, 10 x 10 cells with z
FOURIER_Z = (0.1, 2.0)
FOURIER_CELLS = 10
MASS_CASES = (("gaussian:1", "stable:0.5", 1.0), ("cauchy:1", "stable:0.3", 0.1))
WEAK_BETA = 0.5
WEAK_T = (0.2, 2.0)            # three strata
WEAK_X = np.linspace(-8.0, 8.0, 257)

MIXTURE_KEY = "mixture:1,0.3;1,0.7"
MIXTURE_T, MIXTURE_Z = 1.0, 0.5
MIXTURE_MC_DRAWS = 1000


@dataclass
class Call:
    """One timed call into fracheat: its kind, generated inputs and output."""

    kind: str
    args: dict
    items: int = 1
    start: float = 0.0
    wall_s: float = 0.0
    ref_s: float = 0.0     # wall_s rescaled to the reference host speed (speed.py)
    output: object = None
    error: str = ""


@dataclass
class Workload:
    name: str                      # why each exists: BENCHMARK.json
    build: object                  # () -> models
    warm_up: object                # (models, seed) -> None
    calls: object                  # (seed, pass_index) -> [Call]
    execute: object                # (models, Call) -> output
    layers: tuple                  # layers the traced pass must reach


def _rng(name, seed, pass_index):
    return np.random.default_rng([zlib.crc32(name.encode()), seed, pass_index])


def fingerprint(calls):
    """Short hash of the generated inputs, for the determinism self-check."""
    text = repr([(c.kind, sorted(c.args.items())) for c in calls])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# campaigns
# --------------------------------------------------------------------------

def _shifted(grid, rng):
    """The grid moved by a random fraction of one log cell on each axis."""
    out = dict(grid)
    for axis in ("t", "z"):
        lo, hi, n = grid[f"{axis}_lo"], grid[f"{axis}_hi"], grid[f"{axis}_n"]
        factor = (hi / lo) ** (rng.uniform() / (n - 1))
        out[f"{axis}_lo"], out[f"{axis}_hi"] = lo * factor, hi * factor
    return out


def _campaign_calls(name, method):
    def calls(seed, pass_index):
        rng = _rng(name, seed, pass_index)
        out = []
        for kind, grid in (("jump", JUMP_GRID), ("diffusion", DIFFUSION_GRID)):
            args = _shifted(grid, rng)
            args["method"] = method
            if method == "mc":
                args["mc_samples"] = MC_DRAWS_PER_ROW
                args["seed"] = int(rng.integers(1, 2 ** 31))
            out.append(Call(kind, args, items=grid["t_n"] * grid["z_n"]))
        return out
    return calls


def _campaign_build():
    for grid in (JUMP_GRID, DIFFUSION_GRID):
        harness.build_models(fracheat.VerifyConfig(**grid))
    return None


def _campaign_execute(models, call):
    report = fracheat.verify_sandwich(fracheat.VerifyConfig(**call.args))
    buf = io.StringIO()
    fracheat.write_report_csv(buf, report)
    return buf.getvalue()


def _campaign_warm_up(calls):
    def warm_up(models, seed):
        for call in calls(seed, 0):
            args = dict(call.args, t_n=WARM_GRID_POINTS, z_n=WARM_GRID_POINTS)
            _campaign_execute(models, Call(call.kind, args))
    return warm_up


# --------------------------------------------------------------------------
# single-point oracles
# --------------------------------------------------------------------------

def _oracle_build():
    models = {}
    for kernel_key, sub_key, _ in MASS_CASES:
        models[(kernel_key, sub_key)] = (fracheat.parse_kernel(kernel_key),
                                        fracheat.SubordinatorModel(fracheat.parse_exponent(sub_key)))
    models["bump"] = fracheat.GaussianBump()
    return models


def _oracle_calls(seed, pass_index):
    rng = _rng("oracles", seed, pass_index)
    n = FOURIER_CELLS
    # one point per cell of an n x n log grid, so every seed covers the range
    cell_t = (np.arange(n)[:, None] + rng.uniform(size=(n, n))) / n
    cell_z = (np.arange(n)[None, :] + rng.uniform(size=(n, n))) / n
    ts = FOURIER_T[0] * (FOURIER_T[1] / FOURIER_T[0]) ** cell_t
    zs = FOURIER_Z[0] * (FOURIER_Z[1] / FOURIER_Z[0]) ** cell_z
    out = [Call("fourier", dict(alpha=1 + (i + j) % 2, t=float(ts[i, j]), z=float(zs[i, j])))
           for i in range(n) for j in range(n)]
    for kernel_key, sub_key, t in MASS_CASES:
        out.append(Call("mass", dict(kernel=kernel_key, subordinator=sub_key, t=t)))
    width = (WEAK_T[1] - WEAK_T[0]) / 3.0
    for k in range(3):
        out.append(Call("weak", dict(t=float(WEAK_T[0] + width * (k + rng.uniform())))))
    return out


def _oracle_execute(models, call):
    a = call.args
    if call.kind == "fourier":
        return fracheat.density_fourier(FOURIER_BETA, a["alpha"], a["t"], a["z"])
    if call.kind == "mass":
        kernel, model = models[(a["kernel"], a["subordinator"])]
        return fracheat.mass_residual(kernel, model, a["t"])
    bump = models["bump"]
    return fracheat.caputo_weak_residual(WEAK_BETA, bump, bump, np.array([a["t"]]), WEAK_X)


def _oracle_warm_up(models, seed):
    calls = _oracle_calls(seed, 0)
    firsts = {}
    for call in calls:
        key = (call.kind, call.args.get("alpha"))
        firsts.setdefault(key, call)
    for call in firsts.values():
        _oracle_execute(models, call)


# --------------------------------------------------------------------------
# mixture time change
# --------------------------------------------------------------------------

def _mixture_build():
    return {"model": fracheat.SubordinatorModel(fracheat.parse_exponent(MIXTURE_KEY)),
            "gaussian:1": fracheat.parse_kernel("gaussian:1"),
            "cauchy:1": fracheat.parse_kernel("cauchy:1")}


def _mixture_calls(seed, pass_index):
    # fixed points: one quadrature point costs seconds and its cost moves
    # by +-20% with the point, which would swamp any change under test
    rng = _rng("mixture", seed, pass_index)
    out = [Call("quad", dict(kernel=kernel, t=MIXTURE_T, z=MIXTURE_Z))
           for kernel in ("gaussian:1", "cauchy:1")]
    out.append(Call("mc", dict(kernel="gaussian:1", t=MIXTURE_T, z=MIXTURE_Z,
                               n=MIXTURE_MC_DRAWS, seed=int(rng.integers(1, 2 ** 31)))))
    return out


def _mixture_execute(models, call):
    a = call.args
    kernel = models[a["kernel"]]
    if call.kind == "quad":
        return fracheat.density_quadrature(kernel, models["model"], a["t"], a["z"])
    return fracheat.density_monte_carlo(kernel, models["model"], a["t"], a["z"], a["n"],
                                        fracheat.RngStream(a["seed"]))


def _mixture_warm_up(models, seed):
    # one quadrature point takes seconds; its lazy caches (stable series
    # coefficients and theta grids for both indices) fill from a few
    # inverse-density nodes, and the sampler from a short MC call
    model = models["model"]
    for r in (0.1, 1.0, 10.0):
        model.inverse_density(MIXTURE_T, r)
    mc = _mixture_calls(seed, 0)[-1]
    _mixture_execute(models, Call("mc", dict(mc.args, n=100)))


_CAMPAIGN_LAYERS = ("harness", "solution", "subordinator", "stable", "kernels", "estimates",
                    "scale")
_POINT_LAYERS = ("solution", "subordinator", "stable", "kernels", "numerics")
_QUAD_CALLS = _campaign_calls("campaign-quad", "quad")
_MC_CALLS = _campaign_calls("campaign-mc", "mc")

WORKLOADS = {
    "campaign-quad": Workload("campaign-quad", _campaign_build, _campaign_warm_up(_QUAD_CALLS),
                              _QUAD_CALLS, _campaign_execute, _CAMPAIGN_LAYERS),
    "campaign-mc": Workload("campaign-mc", _campaign_build, _campaign_warm_up(_MC_CALLS),
                            _MC_CALLS, _campaign_execute, _CAMPAIGN_LAYERS),
    "oracles": Workload("oracles", _oracle_build, _oracle_warm_up, _oracle_calls,
                        _oracle_execute, _POINT_LAYERS),
    "mixture": Workload("mixture", _mixture_build, _mixture_warm_up, _mixture_calls,
                        _mixture_execute, _POINT_LAYERS),
}
