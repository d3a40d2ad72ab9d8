#!/usr/bin/env python3
"""Benchmark runner for bmcubic.

Run from the root of a checkout:

    python3 bmbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Each pass runs the workload's operations once, in a fresh interpreter
(one thread, jobs=1) that sets up first; flagship gives every operation
an interpreter of its own.  Passes repeat the same inputs until the next
one would overrun --seconds, and at least one runs.  The outputs of every
pass are checked against reference computations made without bmcubic.
Human-readable lines go first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics (medians over passes) with --trace 0, the per-layer
metrics of traced passes with --trace 1.  A --trace 1 run first makes one
untraced pass, so the tracing overhead is printed beside the traced
figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import LAYER_UNITS, add_totals, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SCRATCH = ".bmbench"
RUN_LIMIT_S = 170  # a run ends within this, however slow the passes are

ONE_INTERPRETER_PER_OP = ("flagship",)

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
             "op_tail_s": "s", "peak_rss_mb": "MB"}


def tail_rank(n: int) -> tuple[int, int]:
    """(percentile, 1-based rank): the highest whole percentile with at
    least ten operations beyond it, by nearest rank; the maximum when a
    pass has eleven operations or fewer."""
    if n <= 10 + 1:
        return 100, n
    pct = math.floor(100 * (n - 10) / n)
    return pct, math.ceil(pct * n / 100)


def _spawn_round(workload, seed, trace, deadline, ops=None):
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("BM_PRECISION_CAP", None)
    spec = {"workload": workload, "seed": seed, "trace": bool(trace),
            "scratch": SCRATCH, "ops": ops, "spawned": time.monotonic()}
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "round.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"bmbench: a {workload} round overran the run limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err)
        raise SystemExit(f"bmbench: a {workload} round exited {proc.returncode}")
    return json.loads(lines[-1])


def run_pass(workload, seed, trace, deadline, n_ops) -> dict:
    """One pass: a single interpreter, or one per operation for flagship,
    whose five operations would otherwise share caches in an order the
    seed decides."""
    if workload in ONE_INTERPRETER_PER_OP:
        parts = [_spawn_round(workload, seed, trace, deadline, [i])
                 for i in range(n_ops)]
    else:
        parts = [_spawn_round(workload, seed, trace, deadline)]
    out = {
        "setups": [p["setup_s"] for p in parts],
        "loops": [p["loop_s"] for p in parts],
        "wall_s": sum(p["wall_s"] for p in parts),
        "latencies": [x for p in parts for x in p["latencies"]],
        "outputs": [x for p in parts for x in p["outputs"]],
        "errors": [x for p in parts for x in p["errors"]],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    if trace:
        out["layers"] = layer_metrics(add_totals(p["layer_totals"] for p in parts))
        out["spans"] = sum(p["spans"] for p in parts)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "bmcubic", "__init__.py")):
        print("bmbench: run from the root of a bmcubic checkout (src/bmcubic "
              "is missing)", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)

    import numpy
    print(f"bmbench {args.workload} seed {args.seed}: nproc {os.cpu_count()}, "
          f"python {platform.python_version()}, numpy {numpy.__version__}")

    inputs = make_inputs(args.workload, args.seed)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    plan = [False] if args.trace else []   # untraced pass for the overhead
    passes, traced = [], []
    longest = 0.0
    while True:
        trace = plan.pop(0) if plan else bool(args.trace)
        t0 = time.monotonic()
        r = run_pass(args.workload, args.seed, trace, deadline, len(inputs))
        longest = max(longest, time.monotonic() - t0)
        (traced if trace else passes).append(r)
        print(f"  {'traced pass' if trace else 'pass'} {len(passes) + len(traced)}: "
              f"setup {statistics.median(r['setups']):.3f} s, host loop "
              f"{' '.join(f'{x:.4f}' for x in r['loops'])} s, "
              f"pass {r['wall_s']:.3f} s, peak RSS {r['peak_rss_mb']:.1f} MB"
              + (f", {r['spans']} spans" if trace else ""))
        if trace != bool(args.trace) or plan:
            continue
        if time.monotonic() - started + longest > min(args.seconds, RUN_LIMIT_S - 10):
            break

    problems, attempted, failed = [], 0, 0
    for r in passes + traced:
        attempted += len(r["latencies"])
        failed += len(r["errors"])
        problems += checks.check(args.workload, inputs, r["outputs"])
    for msg in sorted(set(e for r in passes + traced for e in r["errors"])):
        print(f"  failed: {msg}")
    for msg in sorted(set(problems))[:20]:
        print(f"  WRONG: {msg}")

    if args.trace:
        base = passes[0]["wall_s"]
        over = statistics.median(r["wall_s"] for r in traced) - base
        print(f"  tracing overhead: {over:+.3f} s on a {base:.3f} s pass "
              f"({100 * over / base:+.1f}%)")
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                          "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        n = len(passes[0]["latencies"])
        pct, rank = tail_rank(n)
        print(f"  op_tail_s is p{pct} of {n} operations per pass "
              f"({n - rank} beyond it), median over {len(passes)} passes")
        per_pass = {
            "setup_s": [s for r in passes for s in r["setups"]],
            "wall_s": [r["wall_s"] for r in passes],
            "op_p50_s": [statistics.median(r["latencies"]) for r in passes],
            "op_tail_s": [sorted(r["latencies"])[rank - 1] for r in passes],
            "peak_rss_mb": [r["peak_rss_mb"] for r in passes],
        }
        metrics = {name: {"value": statistics.median(vals), "unit": E2E_UNITS[name]}
                   for name, vals in per_pass.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
