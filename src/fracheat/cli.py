"""Command-line interface.

    fracheat <eval|estimate|verify|sample|residual|selftest> [--config PATH] [flags]

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
non-convergence; verify exits 3 when some row is flagged and no converged
row fails.  All output is CSV on stdout (or --out), with the schema
version in a leading comment line.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import fields

import numpy as np

from . import harness, solution
from .bernstein import parse_exponent
from .errors import BracketError, DomainError, FracheatError, QuadratureError
from .harness import VerifyConfig
from .kernels import ExactGaussian
from .numerics import kronrod_quad
from .rng import RngStream
from .subordinator import SubordinatorModel

# the VerifyConfig keys that name the model; every other key is a grid key
_MODEL_KEYS = ("subordinator", "kernel", "phi_scale", "volume")


def _add_model_flags(p):
    p.add_argument("--subordinator", help="stable:BETA or mixture:a,b;a,b")
    p.add_argument("--beta", type=float, help="shorthand for --subordinator stable:BETA")
    p.add_argument("--kernel", help="gaussian:D | cauchy:D | jump | diffusion")
    p.add_argument("--phi-scale", dest="phi_scale", help="power:A | power2:LO,HI,BREAK")
    p.add_argument("--volume", help="power:D | power2:LO,HI,BREAK")


def _build_parser():
    parser = argparse.ArgumentParser(prog="fracheat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate p(t, z)")
    _add_model_flags(p_eval)
    p_eval.add_argument("--t", type=float, required=True)
    p_eval.add_argument("--z", type=float, required=True)
    p_eval.add_argument("--method", choices=("quad", "mc", "fourier"), default="quad")
    p_eval.add_argument("--n", type=int, default=100_000, help="Monte Carlo samples")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out")

    p_est = sub.add_parser("estimate", help="closed-form estimate at (t, z)")
    _add_model_flags(p_est)
    p_est.add_argument("--t", type=float, required=True)
    p_est.add_argument("--z", type=float, required=True)
    p_est.add_argument("--out")

    p_ver = sub.add_parser("verify", help="run a sandwich campaign")
    p_ver.add_argument("--config", help="flat key = value file")
    _add_model_flags(p_ver)
    # one flag per grid key, checked by harness.config_from_mapping
    for f in fields(VerifyConfig):
        if f.name not in _MODEL_KEYS:
            p_ver.add_argument("--" + f.name.replace("_", "-"), dest=f.name)

    p_sam = sub.add_parser("sample", help="draw subordinator or inverse samples")
    _add_model_flags(p_sam)
    p_sam.add_argument("--dist", choices=("s", "e"), required=True,
                       help="s: subordinator S_r; e: inverse E_t")
    p_sam.add_argument("--r", type=float, help="elapsed time for S_r")
    p_sam.add_argument("--t", type=float, help="inverse level for E_t")
    p_sam.add_argument("--n", type=int, default=1000)
    p_sam.add_argument("--seed", type=int, default=0)
    p_sam.add_argument("--out")

    p_res = sub.add_parser("residual", help="weak-form residual check")
    p_res.add_argument("--beta", type=float, default=0.5)
    p_res.add_argument("--t-lo", type=float, default=0.2, dest="t_lo")
    p_res.add_argument("--t-hi", type=float, default=2.0, dest="t_hi")
    p_res.add_argument("--t-n", type=int, default=10, dest="t_n")
    p_res.add_argument("--x-half", type=float, default=8.0, dest="x_half")
    p_res.add_argument("--x-n", type=int, default=257, dest="x_n")
    p_res.add_argument("--out")

    sub.add_parser("selftest", help="quick invariant battery")
    return parser


def _subordinator_key(args):
    """The --subordinator key, or the --beta shorthand for it; None if neither."""
    if args.subordinator:
        return args.subordinator
    return None if args.beta is None else f"stable:{args.beta}"


def _model_config(args):
    """Campaign config carrying the model flags of eval, estimate or sample."""
    return harness.config_from_mapping({
        **{k: getattr(args, k) or None for k in _MODEL_KEYS},
        "subordinator": _subordinator_key(args)})


@contextlib.contextmanager
def _out_stream(path):
    if path:
        with open(path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _cmd_eval(args):
    kernel, model = harness.build_kernel_and_model(_model_config(args))
    if args.method == "fourier":
        if model.exponent.power is None:
            raise DomainError("the Fourier oracle needs a one-part exponent a lam**beta")
        est = solution._fourier(model.exponent.power, kernel.fourier_order, args.t, args.z)
    elif args.method == "mc":
        est = solution.density_monte_carlo(kernel, model, args.t, args.z,
                                           args.n, RngStream(args.seed, 0))
    else:
        est = solution.density_quadrature(kernel, model, args.t, args.z)
    if not est.converged:
        raise QuadratureError("eval did not converge", est.value, est.error)
    with _out_stream(args.out) as fh:
        harness.write_csv(fh, ("t", "z", "p", "err", "method"),
                          [(args.t, args.z, est.value, est.error, est.method)])
    return 0


def _cmd_estimate(args):
    _, _, emodel = harness.build_models(_model_config(args))
    shape = emodel.estimate(args.t, args.z)
    est = shape.value if shape.value is not None else shape.prefactor
    with _out_stream(args.out) as fh:
        harness.write_csv(fh, ("t", "z", "regime", "estimate", "n"),
                          [(args.t, args.z, shape.regime, est, shape.exponent_arg)])
    return 0


def _cmd_verify(args):
    base = harness.config_from_mapping(harness.read_config(args.config)) if args.config else None
    overrides = {f.name: getattr(args, f.name) for f in fields(VerifyConfig)}
    overrides["subordinator"] = _subordinator_key(args)
    cfg = harness.config_from_mapping(overrides, base=base)
    report = harness.verify_sandwich(cfg)
    with _out_stream(cfg.out) as fh:
        harness.write_report_csv(fh, report)
    print(f"near: n={report.near_summary.count} spread={report.near_summary.spread!r}; "
          f"off: n={report.off_summary.count} spread={report.off_summary.spread!r}; "
          f"off log-ratio: [{report.off_log_lo!r}, {report.off_log_hi!r}]; "
          f"all_finite={report.all_finite}; flagged={report.flagged}; tilted={report.tilted}",
          file=sys.stderr)
    return 1 if not report.all_finite else 3 if report.flagged else 0


def _cmd_sample(args):
    model = SubordinatorModel(parse_exponent(_model_config(args).subordinator))
    rng = RngStream(args.seed, 0)
    if args.dist == "s":
        if args.r is None:
            raise DomainError("sample --dist s needs --r")
        values = model.sample_subordinator(args.r, rng, args.n)
    else:
        if args.t is None:
            raise DomainError("sample --dist e needs --t")
        values = model.sample_inverse(args.t, rng, args.n)
    with _out_stream(args.out) as fh:
        harness.write_csv(fh, ("index", "value"), ((str(i), v) for i, v in enumerate(values)))
    return 0


# the weak-form bounds of acceptance criterion 13; the generator identity takes the residual's
_RESIDUAL_BOUND, _INITIAL_BOUND = 0.05, 1e-6


def _cmd_residual(args):
    if args.t_n < 0 or args.x_n < 0:
        raise DomainError("--t-n and --x-n cannot be negative")
    f = solution.GaussianBump()
    g = solution.GaussianBump()
    t_grid = np.linspace(args.t_lo, args.t_hi, args.t_n)
    x_grid = np.linspace(-args.x_half, args.x_half, args.x_n)
    report = solution.caputo_weak_residual(args.beta, f, g, t_grid, x_grid)
    with _out_stream(args.out) as fh:
        harness.write_csv(fh, ("t", "lhs", "rhs", "residual"),
                          ((t, lhs, rhs, abs(lhs - rhs) / max(abs(rhs), 1e-8))
                           for t, lhs, rhs in report.rows))
    print(f"max residual: {report.residual!r}; initial error: {report.initial_error!r}; "
          f"generator_error={report.generator_error!r}; converged={report.converged}; "
          f"n_profiles={report.n_profiles}; table_error={report.table_error!r}; "
          f"quad_error={report.quad_error!r}", file=sys.stderr)
    passed = (report.residual <= _RESIDUAL_BOUND and report.generator_error <= _RESIDUAL_BOUND
              and report.initial_error <= _INITIAL_BOUND and report.converged)
    return 0 if passed else 1


def _cmd_selftest(args):
    from .bernstein import Stable
    from .scale import PowerLaw, subgaussian_exponent, subordinated_exponent

    checks = []
    s5 = Stable(0.5)
    model = SubordinatorModel(s5)
    checks.append(("phi round-trip", abs(s5.phi_inverse(s5.phi(3.7)) - 3.7) < 1e-9))
    checks.append(("cdf closed form",
                   abs(model.cdf(2.0, 4.0) - math.erfc(0.5)) < 1e-10))
    checks.append(("scale solver m", abs(subgaussian_exponent(PowerLaw(2.0), 1.0, 2.0) - 4.0) < 1e-12))
    checks.append(("scale solver n",
                   abs(subordinated_exponent(PowerLaw(2.0), s5, 1.0, 2.0) - 2.0 ** (4 / 3)) < 1e-12))
    # stable:0.5, gaussian:1, power:2 scale and power:1 volume: off at (1, 2)
    # with n = 2**(4/3), near at (16, 2), where Phi(z) phi(1/t) = 1
    _, _, emodel = harness.build_models(VerifyConfig(kernel="gaussian:1", phi_scale="power:2"))
    off, seam = emodel.estimate(1.0, 2.0), emodel.estimate(16.0, 2.0)
    checks.append(("estimate regimes and shapes", off.regime == "off" and seam.regime == "near"
                   and abs(seam.scalar - 1.0) < 1e-12 and abs(off.prefactor - 1.0) < 1e-12
                   and abs(off.exponent_arg - 2.0 ** (4 / 3)) < 1e-12))
    checks.append(("mittag-leffler identity",
                   abs(solution.mittag_leffler(0.5, 1.0) - math.e * math.erfc(1.0)) < 1e-11))
    target = math.gamma(0.25) / (4.0 ** 0.75 * math.pi)
    est = solution.density_quadrature(ExactGaussian(1), model, 1.0, 0.0)
    checks.append(("fundamental value", abs(est.value - target) < 1e-6))
    checks.append(("fourier fundamental value",
                   abs(solution.density_fourier(0.5, 2, 1.0, 0.0) - target) < 1e-6))
    # for f = g = exp(-x**2), int g'' T_r f dx = -1/2 int lam**(1/2) e**(-lam/2 - lam r) dlam,
    # so the right side at t is that with e**(-lam r) averaged to E_beta(-lam t**beta);
    # lam = mu**2 below, and the integrand is below e**-128 past mu = 16
    bump = solution.GaussianBump()
    weak = solution.caputo_weak_residual(0.5, bump, bump, np.array([1.0]), np.linspace(-8.0, 8.0, 257))
    oracle, _, _ = kronrod_quad(lambda mu: -mu * mu * np.exp(-0.5 * mu * mu)
                                * solution.mittag_leffler(0.5, mu * mu),
                                np.linspace(0.0, 16.0, 17), 1e-13, 0.0)
    checks.append(("weak-form right side equals the Mittag-Leffler integral",
                   abs(weak.rows[0][2] / oracle - 1.0) < 1e-10))
    checks.append(("weak-form generator identity", weak.generator_error < 1e-12))
    checks.append(("mass conservation",
                   solution.mass_residual(ExactGaussian(1), model, 1.0) < 1e-10))
    mix = parse_exponent("mixture:1,0.3;1,0.7")
    mixed = SubordinatorModel(mix)
    checks.append(("mixture inverse density at r->0 equals the Levy tail",
                   abs(mixed.inverse_density(1.0, 1e-8) / mix.levy_tail(1.0) - 1.0) < 1e-6))
    checks.append(("mixture cdf + survival = 1",
                   abs(mixed.cdf(1.0, 0.5) + mixed.survival(1.0, 0.5) - 1.0) < 1e-13))
    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return 0 if ok else 1


_HANDLERS = {
    "eval": _cmd_eval,
    "estimate": _cmd_estimate,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "residual": _cmd_residual,
    "selftest": _cmd_selftest,
}


def run_cli(argv=None):
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _HANDLERS[args.command](args)
    except (QuadratureError, BracketError) as exc:
        print(f"fracheat: numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except FracheatError as exc:
        print(f"fracheat: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
