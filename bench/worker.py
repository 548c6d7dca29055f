"""One pass of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --mode pass|setup|traced
                            [--check 1] [--ref-wall S] [--pool-overhead S]

Set-up is timed from the first line of this file: importing kaccycles with
its numpy/scipy stack, a fixed BLAS warm-up and making the inputs.  The
pass that follows is timed on its own, with the CPU time and peak resident
memory of the processes that ran it.  The result is the last line of
standard output, as JSON.  bench/run.py starts this script; it is not meant
to be run by hand except to debug one pass.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


WARMUP_N = 512
WARMUP_GEMMS = 40


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    ap.add_argument("--check", type=int, default=0)
    ap.add_argument("--ref-wall", type=float, default=0.0)
    ap.add_argument("--pool-overhead", type=float, default=0.0)
    args = ap.parse_args()

    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    # BLAS runs 2-4x slower for its first few hundred milliseconds on a
    # machine that was idle; keep that ramp out of the pass
    a = np.full((WARMUP_N, WARMUP_N), 1.0 / WARMUP_N)   # a @ a == a
    for _ in range(WARMUP_GEMMS):
        a = a @ a
    inputs = wl.setup(args.seed)
    result = {"setup_s": time.perf_counter() - T_START}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    outputs = wl.run(inputs)
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None and hasattr(wl, "traced_extra"):
        wl.traced_extra(inputs, outputs)
    if tracer is not None:
        tracer.uninstall()
    attempted, failed = wl.tally(outputs)
    result.update({
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "attempted": attempted, "failed": failed,
        "digest": wl.digest(outputs),
        "checks": [], "ctx": {},
    })
    if tracer is not None:
        from spans import LAYER_UNITS
        layers = tracer.metrics(wall, args.ref_wall, args.pool_overhead)
        result["layers"] = {k: [v, LAYER_UNITS[k]] for k, v in layers.items()}
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(workloads.OUT_DIR,
                                 f"trace-{wl.name}-seed{args.seed}.json"),
                    {"workload": wl.name, "seed": args.seed, "wall_s": wall,
                     "layers": layers})
    if args.check:
        result["checks"] = [list(c) for c in wl.check(inputs, outputs, result["ctx"])]
    if hasattr(wl, "cleanup"):
        wl.cleanup(inputs)
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
