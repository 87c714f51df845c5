"""Correctness checks of every timed call against an independent reference.

A call's items either pass, fail softly or fail hard:

* soft: the value is flagged (converged=False) or a Monte Carlo estimate
  misses the reference by more than MC_SIGMAS stated standard errors.
  These count in `failed` but leave the run correct, because seed code
  already misses deep off-diagonal Gaussian MC rows by up to thousands of
  standard errors and that baseline must stay visible.
* hard: an item raised, returned a missing or non-finite value, or a
  deterministic value misses its tolerance.  These count in `failed` and
  make the run incorrect.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import reference

QUAD_REL_TOL = 1e-8        # campaign quadrature rows vs the beta = 1/2 closed form
FOURIER_REL_TOL = 5e-5     # Fourier-Mittag-Leffler points (seed worst ~1e-6)
MIXTURE_REL_TOL = 1e-5     # mixture quadrature: the finite-difference floor
MC_SIGMAS = 4.0
MASS_BOUND = 1e-6          # criterion 14
WEAK_RESIDUAL_BOUND = 0.05  # criterion 13
WEAK_INITIAL_BOUND = 1e-6


@dataclass
class Tally:
    items: int = 0
    soft: int = 0
    hard: int = 0
    worst_rel_err: float = 0.0     # deterministic items
    worst_mc_sigmas: float = 0.0   # Monte Carlo items, |p - ref| / p_err
    first_hard: str = ""

    @property
    def failed(self):
        return self.soft + self.hard

    def hard_fail(self, note):
        self.hard += 1
        self.first_hard = self.first_hard or note

    def deterministic(self, value, ref, tol, note, flagged=False):
        if value is None or not math.isfinite(value):
            self.hard_fail(f"{note}: value {value!r}")
            return
        rel = abs(value - ref) / abs(ref)
        self.worst_rel_err = max(self.worst_rel_err, rel)
        if flagged:
            self.soft += 1
        elif rel > tol:
            self.hard_fail(f"{note}: relative error {rel:.3e} > {tol:g}")

    def monte_carlo(self, value, err, ref, note, flagged=False):
        if value is None or not math.isfinite(value) or err is None or not math.isfinite(err):
            self.hard_fail(f"{note}: value {value!r} +- {err!r}")
            return
        miss = abs(value - ref)
        sigmas = miss / err if err > 0 else (math.inf if miss > 0 else 0.0)
        self.worst_mc_sigmas = max(self.worst_mc_sigmas, sigmas)
        if flagged or sigmas > MC_SIGMAS:
            self.soft += 1


def _float(text):
    return float(text) if text not in ("", None) else None


def _flagged(row):
    return str(row.get("converged", "")).strip().lower() in ("false", "0")


def _campaign(tally, call):
    kernel = call.args["kernel"].split(":")[0]
    lines = [ln for ln in call.output.splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    if len(rows) != call.items:
        tally.hard_fail(f"{call.kind}: {len(rows)} rows, expected {call.items}")
    for row in rows:
        tally.items += 1
        t, z, p = float(row["t"]), float(row["z"]), _float(row["p"])
        note = f"{call.kind} row t={t:.4g} z={z:.4g}"
        if row["regime"] == "error" or p is None:
            tally.hard_fail(f"{note}: row error")
            continue
        ref = reference.half_stable_density(kernel, t, z)
        if call.args["method"] == "mc":
            tally.monte_carlo(p, _float(row["p_err"]), ref, note, _flagged(row))
        else:
            tally.deterministic(p, ref, QUAD_REL_TOL, note, _flagged(row))


def _oracle(tally, call):
    tally.items += 1
    a = call.args
    if call.kind == "fourier":
        kernel = "gaussian" if a["alpha"] == 2 else "cauchy"
        ref = reference.half_stable_density(kernel, a["t"], a["z"])
        tally.deterministic(call.output, ref, FOURIER_REL_TOL,
                            f"fourier alpha={a['alpha']} t={a['t']:.4g} z={a['z']:.4g}")
    elif call.kind == "mass":
        if not call.output < MASS_BOUND:
            tally.hard_fail(f"mass {a}: residual {call.output!r}")
    else:
        rep = call.output
        if not (rep.residual < WEAK_RESIDUAL_BOUND and rep.initial_error < WEAK_INITIAL_BOUND):
            tally.hard_fail(f"weak t={a['t']:.4g}: residual {rep.residual!r}, "
                            f"initial error {rep.initial_error!r}")


def _mixture(tally, call):
    tally.items += 1
    a = call.args
    est = call.output
    kernel = a["kernel"].split(":")[0]
    ref = reference.mixture_density(kernel, a["t"], a["z"])
    note = f"mixture {call.kind} {kernel} t={a['t']:.4g} z={a['z']:.4g}"
    if call.kind == "quad":
        tally.deterministic(est.value, ref, MIXTURE_REL_TOL, note, not est.converged)
    else:
        tally.monte_carlo(est.value, est.error, ref, note, not est.converged)


CHECKERS = {"campaign-quad": _campaign, "campaign-mc": _campaign,
            "oracles": _oracle, "mixture": _mixture}


def check(workload, calls):
    """Tally every item of every call; a call that raised fails all its items."""
    tally = Tally()
    for call in calls:
        if call.error:
            tally.items += call.items
            tally.hard += call.items
            tally.first_hard = tally.first_hard or f"{call.kind} raised {call.error}"
            continue
        CHECKERS[workload](tally, call)
    return tally
