"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py [--seed N] [WORKLOAD ...]

For each workload (default: all), two traced runs with one seed must
report identical per-layer counts, identical `attempted` and `failed` and
identical generated inputs, and a run with the next seed must generate
different inputs.  Each run times only the passes that `attempted` and
`failed` count (--seconds 0).  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent

COUNT_SUFFIXES = (".calls", ".points", ".nodes", ".draws")
RUN_TIMEOUT_S = 300


def traced_run(workload, seed):
    """(counts, input fingerprint, correct) of one traced run of the
    counted passes only."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diag = json.loads(next(ln for ln in lines if ln.startswith("diag "))[len("diag "):])
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if name.endswith(COUNT_SUFFIXES) or name == "solution.nonconverged"}
    counts.update(attempted=result["attempted"], failed=result["failed"])
    return counts, diag["inputs"], result["correct"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS
    names = args.workloads or list(WORKLOADS)
    ok = True
    layer_calls = dict.fromkeys(LAYERS, 0)
    for name in names:
        first, inputs, correct = traced_run(name, args.seed)
        second, inputs_again, _ = traced_run(name, args.seed)
        _, other_inputs, _ = traced_run(name, args.seed + 1)
        problems = []
        if not correct:
            problems.append("traced run reported correct=false")
        if first != second:
            diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
            problems.append(f"counts differ between identical runs: {diff}")
        if inputs != inputs_again:
            problems.append("inputs differ between identical seeds")
        if inputs == other_inputs:
            problems.append(f"seed {args.seed + 1} generated the same inputs as seed {args.seed}")
        missing = [layer for layer in LAYERS if f"{layer}.calls" not in first]
        if missing:
            problems.append(f"layers missing from the trace: {missing}")
        for layer in layer_calls:
            layer_calls[layer] += first.get(f"{layer}.calls", 0)
        ok = ok and not problems
        print(f"{name}: {'ok' if not problems else 'FAIL'} "
              f"({len(first)} counts, inputs {inputs} vs {other_inputs})")
        for problem in problems:
            print(f"  {problem}")
    idle = [layer for layer, calls in layer_calls.items() if calls == 0]
    if idle and set(names) == set(WORKLOADS):
        print(f"layers with no calls on any workload: {idle}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
