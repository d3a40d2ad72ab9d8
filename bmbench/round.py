"""One round of a workload in a fresh interpreter: set up, then one pass.

Usage (from the root of a checkout, with src/ on PYTHONPATH):

    python3 bmbench/round.py '{"workload": "census", "seed": 1,
        "trace": false, "spawned": <time.monotonic() before the spawn>,
        "scratch": ".bmbench", "ops": null}'

`ops`, when given, lists the indices of the operations to run; the rest
of the pass is skipped.

Prints one JSON line: set-up time (from the spawn until the first operation
is ready), the host-loop time, the pass's wall time, per-operation
latencies and outputs, the errors of operations that raised, the peak RSS
and, when traced, the additive per-layer totals.  The spans of a traced
pass are written to the scratch directory.
"""

import json
import os
import resource
import sys
import time


def host_loop() -> float:
    """A fixed pure-Python loop; its time shows the machine's speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i * i % 7
    return time.perf_counter() - t0


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload, seed = spec["workload"], spec["seed"]

    import importlib
    import pkgutil
    import bmcubic
    import workloads
    modules = [bmcubic] + [importlib.import_module(f"bmcubic.{m.name}")
                           for m in pkgutil.iter_modules(bmcubic.__path__)
                           if m.name != "__main__"]
    inputs = workloads.make_inputs(workload, seed)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(modules)
    ops = workloads.operations(workload, inputs, spec["scratch"])
    selected = spec.get("ops")
    if selected is None:
        selected = range(len(ops))
    setup_s = time.monotonic() - spec["spawned"]

    loop_s = host_loop()

    latencies, outputs, errors = [], [], []
    t_pass = time.perf_counter()
    for i in selected:
        name, thunk = ops[i]
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            outputs.append(thunk())
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(None)
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - t_pass

    result = {
        "setup_s": setup_s, "loop_s": loop_s, "wall_s": wall_s,
        "latencies": latencies, "outputs": outputs, "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        from tracer import layer_totals
        result["layer_totals"] = layer_totals(tracer.spans)
        result["spans"] = len(tracer.spans)
        tracer.dump(os.path.join(
            spec["scratch"], f"trace-{workload}-seed{seed}-{os.getpid()}.jsonl"))
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
