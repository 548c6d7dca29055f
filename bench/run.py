"""Benchmark entry point: one workload, one seed, a few fresh-process passes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  With --trace 0 it repeats whole passes,
each in a fresh process (bench/worker.py), until S seconds of pass time are
measured, sets up at least three times, and prints the medians of the
end-to-end metrics.  With --trace 1 it runs one untraced pass and then one
traced pass, and prints the per-layer metrics of the traced pass with its
overhead against the untraced one.  The first pass of a run also runs the
workload's correctness checks; every later pass must reproduce its output
digest.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Diagnostics go to standard error.  The exit code is 0 when a result was
printed, 2 on a usage error or a missing source tree, 1 when a pass failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# a run must end well inside three minutes: no new pass starts after this
BUDGET_S = 150.0
MIN_SETUPS = 3


class PassFailed(RuntimeError):
    pass


def _worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # BLAS may use every core this process may run on, and no more
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _worker(args, env, deadline: float, mode: str, check: bool = False,
            ref_wall: float = 0.0, pool_overhead: float = 0.0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--check", str(int(check)), "--ref-wall", repr(ref_wall),
           "--pool-overhead", repr(pool_overhead)]
    # own process group, so a timeout also ends the CLI and its pool workers
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"{mode} pass ran past the run's time limit")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # strays left by the pass
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited {proc.returncode}")
    lines = out.decode(errors="replace").strip().splitlines()
    return json.loads(lines[-1])


def _report(res: dict, label: str):
    keys = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
    sys.stderr.write(label + " " + " ".join(f"{k}={res[k]:.4f}" for k in keys
                                            if k in res) + "\n")
    for name, ok, detail in res.get("checks", []):
        sys.stderr.write(f"  {'PASS' if ok else 'FAIL'} {name}: {detail}\n")


def _run(args) -> dict:
    root = os.getcwd()
    env = _worker_env(root)
    start = time.monotonic()
    deadline = start + 170.0
    passes, setups = [], []
    if args.trace:
        a = _worker(args, env, deadline, "pass", check=True)
        _report(a, "untraced pass")
        pool = a["ctx"]["pool_wall_s"] - a["wall_s"] if "pool_wall_s" in a["ctx"] else 0.0
        b = _worker(args, env, deadline, "traced", ref_wall=a["wall_s"],
                    pool_overhead=pool)
        _report(b, "traced pass")
        passes = [a, b]
        metrics = {k: tuple(vu) for k, vu in b["layers"].items()}
    else:
        measured = 0.0
        while True:
            t = time.monotonic()
            res = _worker(args, env, deadline, "pass", check=not passes)
            _report(res, f"pass {len(passes)}")
            passes.append(res)
            setups.append(res["setup_s"])
            measured += res["wall_s"]
            took = time.monotonic() - t
            if measured >= args.seconds or time.monotonic() - start + took > BUDGET_S:
                break
        while len(setups) < MIN_SETUPS:
            res = _worker(args, env, deadline, "setup")
            sys.stderr.write(f"setup {res['setup_s']:.4f}\n")
            setups.append(res["setup_s"])
        metrics = {"setup_s": (statistics.median(setups), "s")}
        for k, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
            metrics[k] = (statistics.median(p[k] for p in passes), unit)
    checks_ok = all(ok for _n, ok, _d in passes[0]["checks"])
    same = len({p["digest"] for p in passes}) == 1
    if not same:
        sys.stderr.write("FAIL passes on the same inputs gave different outputs\n")
    return {
        "correct": bool(checks_ok and same),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "kaccycles", "__init__.py")):
        sys.stderr.write("bench/run.py: no src/kaccycles here; run it from the "
                         "root of a kaccycles checkout\n")
        return 2
    try:
        result = _run(args)
    except PassFailed as exc:
        sys.stderr.write(f"bench/run.py: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
