"""fracheat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of perfbench/workloads.py in this process against the
fracheat sources in ./src, checks every output against an independent
reference (perfbench/checks.py) after the timed region, and prints as its
last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Call times are rescaled to a reference host speed by calibration samples
taken between calls (perfbench/speed.py); diag also gives the raw rate.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the run also replays its first pass under the per-layer tracer
(perfbench/spans.py) and reports the per-layer metrics instead.  Lines
before the result record the environment and ungated diagnostics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_SAMPLES = 3          # fresh interpreters timed for setup_s; median reported
COUNTED_PASSES = 2         # passes whose items make `attempted` and `failed`
PROBE_TIMEOUT_S = 120


def _pin_environment():
    """One process, one BLAS thread, no fracheat worker pool."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("FRACHEAT_THREADS", None)


def setup(name, seed):
    """Import fracheat from ./src, build the workload's models and warm up.

    Returns (workload, models, seconds).  Timed from before the first
    fracheat or numpy import, so every sample pays what a fresh CLI call
    pays.
    """
    start = time.perf_counter()
    if not (SRC / "fracheat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fracheat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fracheat
    if Path(fracheat.__file__).resolve().parent != SRC / "fracheat":
        raise SystemExit(f"perfbench: fracheat imported from {fracheat.__file__}, not {SRC}")
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    models = workload.build()
    workload.warm_up(models, seed)
    return workload, models, time.perf_counter() - start


def _probe_setup(name, seed):
    """setup() in a fresh interpreter; returns its seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(workload, models, calls, speed, tracer=None):
    for call in calls:
        speed.sample_if_due()
        call.start = time.perf_counter()
        try:
            if tracer is None:
                call.output = workload.execute(models, call)
            else:
                call.output = tracer.root(call.kind, workload.execute, models, call)
        except Exception as exc:  # a failing call is a counted failure, not a crash
            call.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        call.wall_s = time.perf_counter() - call.start
    speed.sample()
    for call in calls:
        call.ref_s = call.wall_s * speed.scale(call.start, call.start + call.wall_s)


def timed_passes(workload, models, speed, seed, seconds):
    """Whole passes, fresh inputs each, until `seconds` of call time (at
    least COUNTED_PASSES passes)."""
    passes, busy = [], 0.0
    while len(passes) < COUNTED_PASSES or busy < seconds:
        calls = workload.calls(seed, len(passes))
        run_pass(workload, models, calls, speed)
        passes.append(calls)
        busy += sum(c.wall_s for c in calls)
    return passes


def _percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _item_latencies_ms(calls):
    """Per-item latency; a call returning several items (a campaign) gives
    each item its share of the call's time."""
    return [1e3 * c.ref_s / c.items for c in calls for _ in range(c.items)]


def end_to_end(passes, setup_samples, peak_rss_mb):
    calls = [c for p in passes for c in p]
    busy = sum(c.ref_s for c in calls)
    items = sum(c.items for c in calls)
    # quantiles within each pass, then the median over passes: a pass holds
    # few long calls on some workloads, and the host's speed drifts by
    # tens of percent over seconds
    per_pass = [_item_latencies_ms(p) for p in passes]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "items_per_s": (items / busy, "1/s"),
        "point_p50_ms": (statistics.median(_percentile(v, 0.5) for v in per_pass), "ms"),
        "point_p90_ms": (statistics.median(_percentile(v, 0.9) for v in per_pass), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_kind_ms(calls):
    """Median per-item latency of each kind of call (diagnostic)."""
    kinds = {}
    for c in calls:
        kinds.setdefault(c.kind, []).append(1e3 * c.ref_s / c.items)
    return {kind: statistics.median(v) for kind, v in kinds.items()}


def traced_pass(workload, models, speed, seed, untraced):
    """Replay pass 0 under the tracer; returns (metrics, traced calls, problems)."""
    from spans import Tracer
    calls = workload.calls(seed, 0)
    with Tracer() as tracer:
        run_pass(workload, models, calls, speed, tracer)
    problems = [f"traced {mine.kind} output differs from the untraced one"
                for mine, ref in zip(calls, untraced)
                if not mine.error and not ref.error and mine.output != ref.output]
    problems += [f"layer {layer} recorded no calls on {workload.name}"
                 for layer in workload.layers if tracer.stats[layer].calls == 0]
    metrics = tracer.metrics()
    overhead = sum(c.ref_s for c in calls) / sum(c.ref_s for c in untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    tracer.write(TRACE_DIR / f"{workload.name}-seed{seed}.tsv.gz")
    return metrics, calls, problems


def _finite(value):
    return value if isinstance(value, (int, str)) or math.isfinite(value) else repr(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time setup() and print it (used for setup_s samples)")
    args = parser.parse_args(argv)
    _pin_environment()

    workload, models, first_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": first_setup}))
        return 0

    setup_end = time.perf_counter()
    from speed import Speedometer   # after setup(): its warm-up stays out of setup_s
    speed = Speedometer()
    speed.sample()
    setup_samples = [(first_setup, speed.scale(setup_end - first_setup, setup_end))]
    passes = timed_passes(workload, models, speed, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # imported only now: mpmath (for the references) stays out of setup_s
    # and peak_rss_mb
    import checks
    import mpmath
    import numpy
    import scipy
    from workloads import fingerprint

    timed = [c for p in passes for c in p]
    problems = []
    if args.trace:
        metrics, traced, problems = traced_pass(workload, models, speed, args.seed, passes[0])
    else:
        traced = []
        for _ in range(SETUP_SAMPLES - 1):
            start = time.perf_counter()
            seconds = _probe_setup(args.workload, args.seed)
            end = time.perf_counter()
            speed.sample()
            setup_samples.append((seconds, speed.scale(start, end)))
        metrics = end_to_end(passes, [raw * scale for raw, scale in setup_samples], peak_rss_mb)

    # `attempted` and `failed` count the first COUNTED_PASSES passes, whose
    # inputs depend on the seed alone, so a seed repeats them exactly
    # whatever the host speed; how many more passes fit in `seconds` does
    # not.  Later passes and the traced replay are checked as well: a hard
    # failure there makes the run incorrect, and their tally is in diag.
    counted = [c for p in passes[:COUNTED_PASSES] for c in p]
    tally = checks.check(workload.name, counted)
    extra = checks.check(workload.name, [c for p in passes[COUNTED_PASSES:] for c in p] + traced)
    for problem in problems:
        extra.hard_fail(problem)
    correct = tally.hard == 0 and extra.hard == 0

    env = {"cores": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "mpmath": mpmath.__version__, "blas_threads": os.environ["OMP_NUM_THREADS"],
           "fracheat": str(SRC.relative_to(ROOT) / "fracheat")}
    diag = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "passes": len(passes), "per_kind_ms": per_kind_ms(timed),
            "raw_items_per_s": sum(c.items for c in timed) / sum(c.wall_s for c in timed),
            "host_slowdown": sum(c.wall_s for c in timed) / sum(c.ref_s for c in timed),
            "inputs": fingerprint(passes[0]), "attempted": tally.items,
            "failed_soft": tally.soft, "failed_hard": tally.hard,
            "fail_frac": tally.failed / tally.items,
            "uncounted": {"attempted": extra.items, "failed_soft": extra.soft,
                          "failed_hard": extra.hard},
            "worst_rel_err": max(tally.worst_rel_err, extra.worst_rel_err),
            "worst_mc_sigmas": _finite(max(tally.worst_mc_sigmas, extra.worst_mc_sigmas)),
            "first_hard_failure": tally.first_hard or extra.first_hard}
    if not args.trace:
        diag["setup_samples_raw_s"] = [raw for raw, _ in setup_samples]
    print("env " + json.dumps(env))
    print("diag " + json.dumps(diag))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:>14} {name:<24} {value:>14.6g} {unit}", file=sys.stderr)
    result = {"correct": correct, "attempted": tally.items, "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
