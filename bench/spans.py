"""Spans around the public calls into each kaccycles module.

The tracer replaces a function at every name its callers look it up by (the
defining module and each module that imported it by name), so the program
itself is unchanged.  Each call records a span (name, start, end, parent,
outcome) in memory; the spans are written out once, when the traced pass
ends, and folded into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("philox", "sampler", "rootcount", "kacrice", "coeffs", "melnikov",
           "experiment", "cli")

# (defining module, function, span name).  The span name's first part is the
# layer the time is charged to: write_outputs lives in experiment but is the
# CLI's output stage.
TARGETS = (
    ("kaccycles.philox", "variates_block", "philox.variates_block"),
    ("kaccycles.philox", "variates_at", "philox.variates_at"),
    ("kaccycles.sampler", "melnikov_noise_from_perturbation", "sampler.reduction"),
    ("kaccycles.rootcount", "sweep_count_batch", "rootcount.sweep_count_batch"),
    ("kaccycles.rootcount", "power_matrix", "rootcount.power_matrix"),
    ("kaccycles.rootcount", "real_roots", "rootcount.real_roots"),
    ("kaccycles.kacrice", "adaptive_gauss_kronrod", "kacrice.adaptive_gauss_kronrod"),
    ("kaccycles.coeffs", "coeff_vector", "coeffs.coeff_vector"),
    ("kaccycles.melnikov", "poincare_return", "melnikov.poincare_return"),
    ("kaccycles.melnikov", "verify_cycles_ode", "melnikov.verify_cycles_ode"),
    ("kaccycles.melnikov", "count_bifurcating_cycles",
     "melnikov.count_bifurcating_cycles"),
    ("kaccycles.experiment", "run_experiment", "experiment.run_experiment"),
    ("kaccycles.experiment", "write_outputs", "cli.write_outputs"),
    ("kaccycles.cli", "dispatch", "cli.dispatch"),
)

# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "philox.variates_s": "s", "philox.variates": "count",
    "philox.ns_per_variate": "ns",
    "sampler.reduction_self_s": "s",
    "rootcount.sweep_s": "s", "rootcount.sweep_rows": "count",
    "rootcount.sweep_gflop": "GFLOP", "rootcount.sweep_gflop_per_s": "GFLOP/s",
    "rootcount.power_matrix_s": "s", "rootcount.power_matrix_mb": "MB",
    "rootcount.companion_s": "s", "rootcount.companion_calls": "count",
    "kacrice.quad_s": "s", "kacrice.density_evals": "count",
    "kacrice.ms_per_eval": "ms",
    "coeffs.coeff_vector_s": "s",
    "melnikov.returns": "count", "melnikov.return_s": "s",
    "melnikov.ms_per_return": "ms", "melnikov.no_returns": "count",
    "melnikov.no_return_s": "s", "melnikov.escapes": "count",
    "melnikov.eps_levels": "count", "melnikov.count_s": "s",
    "melnikov.verify_self_s": "s",
    "experiment.self_s": "s", "experiment.pool_overhead_s": "s",
    "cli.write_s": "s",
    **{f"{m}.module_self_s": "s" for m in MODULES},
    "trace.spans": "count", "trace.wall_s": "s", "trace.overhead_pct": "%",
}


def _work(name: str, args) -> dict:
    """Work counted at the call boundary, from the arguments alone."""
    if name == "philox.variates_block":
        return {"variates": int(args[2])}
    if name == "philox.variates_at":
        return {"variates": len(args[2])}
    if name == "rootcount.sweep_count_batch":
        shape = np.shape(args[0])
        rows, width = shape if len(shape) == 2 else (1, shape[0])
        points = len(args[1])
        return {"rows": rows, "flop": 4.0 * rows * width * points}
    if name == "rootcount.power_matrix":
        return {"mb": (int(args[0]) + 1) * len(args[1]) * 8 / 2**20}
    return {}


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, outcome, work]
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.eps_levels = 0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, "ok",
                   _work(name, args)]
            spans.append(rec)
            stack.append(sid)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import kaccycles  # noqa: F401  (loads every submodule)
        from kaccycles import kacrice, melnikov

        loaded = [m for k, m in sys.modules.items()
                  if k == "kaccycles" or k.startswith("kaccycles.")]
        for mod_name, attr, span_name in TARGETS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span_name, orig)
            for mod in loaded:
                if mod.__dict__.get(attr) is orig:
                    self._patch(mod, attr, wrapper)
        self._patch(kacrice.KacRiceIntegrand, "density_t",
                    self._wrap("kacrice.density_t",
                               kacrice.KacRiceIntegrand.density_t))
        replace = melnikov.replace

        def count_level(*args, **kwargs):
            # verify_cycles_ode rebuilds the system once per eps level
            self.eps_levels += 1
            return replace(*args, **kwargs)

        self._patch(melnikov, "replace", count_level)

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- folding spans into metrics ------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _o, _w in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def metrics(self, wall_s: float, untraced_wall_s: float,
                pool_overhead_s: float) -> dict:
        dur = defaultdict(float)
        calls = defaultdict(int)
        self_by_name = defaultdict(float)
        work = defaultdict(float)
        power_mb = 0.0
        fail_dur = defaultdict(float)
        fail_calls = defaultdict(int)
        for (name, start, end, _p, outcome, w), own in zip(self.spans,
                                                          self.self_times()):
            if outcome == "ok":
                dur[name] += end - start
                calls[name] += 1
            else:
                fail_dur[(name, outcome)] += end - start
                fail_calls[(name, outcome)] += 1
            self_by_name[name] += own
            for k, v in w.items():
                if k == "mb":
                    power_mb = max(power_mb, v)
                else:
                    work[k] += v
        module_self = defaultdict(float)
        for name, v in self_by_name.items():
            module_self[name.split(".", 1)[0]] += v

        def ratio(num, den, scale):
            return num / den * scale if den else 0.0

        philox_s = dur["philox.variates_block"] + dur["philox.variates_at"]
        sweep_s = dur["rootcount.sweep_count_batch"]
        density_s = dur["kacrice.density_t"]
        pr = "melnikov.poincare_return"
        out = {
            "philox.variates_s": philox_s,
            "philox.variates": work["variates"],
            "philox.ns_per_variate": ratio(philox_s, work["variates"], 1e9),
            "sampler.reduction_self_s": self_by_name["sampler.reduction"],
            "rootcount.sweep_s": sweep_s,
            "rootcount.sweep_rows": work["rows"],
            "rootcount.sweep_gflop": work["flop"] / 1e9,
            "rootcount.sweep_gflop_per_s": ratio(work["flop"] / 1e9, sweep_s, 1.0),
            "rootcount.power_matrix_s": dur["rootcount.power_matrix"],
            "rootcount.power_matrix_mb": power_mb,
            "rootcount.companion_s": dur["rootcount.real_roots"],
            "rootcount.companion_calls": calls["rootcount.real_roots"],
            "kacrice.quad_s": dur["kacrice.adaptive_gauss_kronrod"],
            "kacrice.density_evals": calls["kacrice.density_t"],
            "kacrice.ms_per_eval": ratio(density_s, calls["kacrice.density_t"], 1e3),
            "coeffs.coeff_vector_s": dur["coeffs.coeff_vector"],
            "melnikov.returns": calls[pr],
            "melnikov.return_s": dur[pr],
            "melnikov.ms_per_return": ratio(dur[pr], calls[pr], 1e3),
            "melnikov.no_returns": fail_calls[(pr, "NoReturnError")],
            "melnikov.no_return_s": fail_dur[(pr, "NoReturnError")],
            "melnikov.escapes": fail_calls[(pr, "EscapeError")],
            "melnikov.eps_levels": self.eps_levels,
            "melnikov.count_s": dur["melnikov.count_bifurcating_cycles"],
            "melnikov.verify_self_s": self_by_name["melnikov.verify_cycles_ode"],
            "experiment.self_s": self_by_name["experiment.run_experiment"],
            "experiment.pool_overhead_s": pool_overhead_s,
            "cli.write_s": dur["cli.write_outputs"],
            **{f"{m}.module_self_s": module_self[m] for m in MODULES},
            "trace.spans": len(self.spans),
            "trace.wall_s": wall_s,
            "trace.overhead_pct": ratio(wall_s - untraced_wall_s, untraced_wall_s,
                                        100.0),
        }
        return {k: float(v) for k, v in out.items()}

    def dump(self, path: str, meta: dict):
        """Write the spans, with each one's self time, as one JSON file."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [{"id": i, "name": s[0], "start_s": s[1] - origin,
                 "end_s": s[2] - origin, "parent": s[3], "outcome": s[4],
                 "self_s": own, **s[5]}
                for i, (s, own) in enumerate(zip(self.spans, self.self_times()))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "spans": rows}, fh)
            fh.write("\n")
