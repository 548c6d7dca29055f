"""The benchmark's five workloads.

Each workload is built only from the public kaccycles API or its CLI, and
provides
    setup(seed)          -> inputs, made from the seed alone;
    run(inputs)          -> outputs of one pass, the part that is timed;
    tally(outputs)       -> (attempted, failed) operations;
    digest(outputs)      -> text that two passes on the same inputs must share;
    check(inputs, outputs, ctx) -> [(name, ok, detail)], computed outside the
                            program or from a property the method must have.

Calls into kaccycles go through module attributes (``rootcount.power_matrix``
rather than an imported name), so the tracer's wrappers see them.  The
checks import ``oracles`` (and with it scipy.integrate) themselves, so that
set-up time covers only the program's own imports.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np

from kaccycles import cli, coeffs, experiment, kacrice, melnikov, rootcount, sampler
from kaccycles.errors import QuadratureFailureError

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEMO_CFG = os.path.join("configs", "demo.cfg")
OUTPUT_FILES = ("estimates.csv", "moments.csv")
GAUSS = sampler.NoiseDistribution.GAUSSIAN
CENTER = coeffs.CoeffScheme.perturbed_center()

# Monte Carlo means are held to the Kac-Rice value at this many standard
# errors.  At 3 se a working program misses on 0.27% of rows, i.e. on about
# one seed in forty for demo's nine rows; 5 se keeps the chance of a false
# alarm over every row of every run below 1e-4 and still flags a counting
# bias of a few hundredths of a root.
Z_GATE = 5.0
# independent quadrature vs the program's kr_value (both target 1e-7)
KR_ABS_TOL = 1e-6
# m <= this: squared center weights checked against the exact rational oracle
EXACT_WEIGHT_M = 40


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


def _exact_weight_check(values: np.ndarray):
    """c_m^2 of the program's center weights against the big-rational oracle."""
    worst = 0.0
    for m in range(min(EXACT_WEIGHT_M, len(values) - 1) + 1):
        want = math.pi * float(coeffs.variance_center_exact(m))
        worst = max(worst, abs(values[m] ** 2 / want - 1.0))
    return ("center weights vs exact oracle", worst <= 1e-12,
            f"m<={EXACT_WEIGHT_M}: worst rel {worst:.1e} (<=1e-12)")


def _row_checks(rows, tag: str):
    """Monte Carlo vs Kac-Rice, and Kac-Rice vs an independent quadrature."""
    out = []
    by_n = {}
    for r in rows:
        by_n.setdefault(r["n"], []).append(r)
    import oracles

    worst_z, beyond_3se, worst_kr = 0.0, 0, 0.0
    for n, sub in sorted(by_n.items()):
        cv = coeffs.coeff_vector(CENTER, n)
        if n == min(by_n):
            out.append(_exact_weight_check(cv.values))
        ref = oracles.expected_zeros_regions(cv.values)
        for r in sub:
            z = abs(r["mc_mean"] - r["kr_value"]) / r["mc_stderr"]
            worst_z = max(worst_z, z)
            beyond_3se += z > 3.0
            worst_kr = max(worst_kr, abs(r["kr_value"] - ref[r["region"]]))
    out.append((f"{tag}: |mc-kr| <= {Z_GATE:g} se", worst_z <= Z_GATE,
                f"worst |mc-kr|/se = {worst_z:.2f} over {len(rows)} rows; "
                f"{beyond_3se} rows beyond 3 se"))
    out.append((f"{tag}: kr_value vs independent quadrature", worst_kr <= KR_ABS_TOL,
                f"worst |diff| = {worst_kr:.1e} (<= {KR_ABS_TOL:g})"))
    return out


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_estimates(path: str):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    head = lines[0].split(",")
    for line in lines[1:]:
        rec = dict(zip(head, line.split(",")))
        rows.append({"n": int(rec["n"]), "region": rec["region"],
                     "mc_mean": float(rec["mc_mean"]),
                     "mc_stderr": float(rec["mc_stderr"]),
                     "kr_value": float(rec["kr_value"]),
                     "trials": int(rec["trials"]), "failures": int(rec["failures"])})
    return rows


def _rows_tally(rows):
    """Polynomials sampled and polynomials that gave NaN (per degree, once)."""
    attempted = failed = 0
    for n in sorted({r["n"] for r in rows}):
        first = next(r for r in rows if r["n"] == n)
        attempted += first["trials"] + first["failures"]
        failed += first["failures"]
    return attempted, failed


# ---------------------------------------------------------------------------
# demo: configs/demo.cfg through the CLI's experiment command
# ---------------------------------------------------------------------------

class Demo:
    """The shipped preset, run by the CLI in this process with one worker.

    The preset asks for a pool of 2 workers.  That run is not timed: its wall
    time swings between 4.5 s and 9.6 s from one run to the next on two
    cores (each pool process starts nproc BLAS threads), too wide for any
    bound.  The check runs it once per benchmark run, as shipped, compares
    its bytes with the timed run and reports its time.
    """

    name = "demo"

    def setup(self, seed):
        if not os.path.isfile(DEMO_CFG):
            raise FileNotFoundError(DEMO_CFG)
        return {"seed": seed, "out": os.path.join(OUT_DIR, f"demo-{seed}-{os.getpid()}")}

    def _argv(self, inputs, out):
        return ["experiment", "--config", DEMO_CFG, "--out", out,
                "--seed", str(inputs["seed"])]

    def run(self, inputs):
        out = inputs["out"]
        code = cli.dispatch(self._argv(inputs, out) + ["--workers", "1"])
        if code != 0:
            raise RuntimeError(f"kaccycles experiment exited {code}")
        return {"files": {f: _read_bytes(os.path.join(out, f)) for f in OUTPUT_FILES},
                "rows": _read_estimates(os.path.join(out, "estimates.csv"))}

    def tally(self, outputs):
        return _rows_tally(outputs["rows"])

    def digest(self, outputs):
        return _sha(*sorted(outputs["files"].items()))

    def check(self, inputs, outputs, ctx):
        res = _row_checks(outputs["rows"], "demo")
        out = inputs["out"] + "-pool"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "kaccycles.cli",
                               *self._argv(inputs, out)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=120)
        ctx["pool_wall_s"] = time.perf_counter() - t0
        same = proc.returncode == 0 and all(
            _read_bytes(os.path.join(out, f)) == outputs["files"][f]
            for f in OUTPUT_FILES)
        res.append(("demo: pool run (workers=2, as shipped) bytes == workers=1",
                    same, f"exit {proc.returncode}; estimates.csv and moments.csv; "
                          f"pool run {ctx['pool_wall_s']:.2f} s"))
        return res

    def cleanup(self, inputs):
        for suffix in ("", "-pool"):
            shutil.rmtree(inputs["out"] + suffix, ignore_errors=True)


# ---------------------------------------------------------------------------
# sweep-3e4: run_experiment in-process, degree 3e4, all four sweep families
# ---------------------------------------------------------------------------

class Sweep:
    name = "sweep-3e4"
    trials = 256

    def setup(self, seed):
        return {"config": experiment.ExperimentConfig(
            scheme=CENTER, dist=GAUSS, degrees=[30000],
            regions=["01", "1inf", "sym", "R"], trials=self.trials,
            master_seed=seed, workers=1)}

    def run(self, inputs):
        res = experiment.run_experiment(inputs["config"])
        rows = [{"n": r.n, "region": r.region, "mc_mean": r.mc_mean,
                 "mc_stderr": r.mc_stderr, "kr_value": r.kr_value,
                 "trials": r.trials, "failures": r.failures} for r in res.rows]
        return {"rows": rows, "counts": res.counts}

    def tally(self, outputs):
        return _rows_tally(outputs["rows"])

    def digest(self, outputs):
        return _sha(outputs["rows"], *(v.tobytes() for _k, v in
                                       sorted(outputs["counts"].items())))

    def check(self, inputs, outputs, ctx):
        res = _row_checks(outputs["rows"], "sweep-3e4")
        c = {r: v for (_n, r), v in outputs["counts"].items()}
        # every region is a union of disjoint pieces, per trial
        nested = bool(np.all(c["sym"] >= c["01"]) and
                      np.all(c["R"] >= c["sym"] + c["1inf"]))
        res.append(("sweep-3e4: per-trial region nesting", nested,
                    "sym >= 01 and R >= sym + 1inf on every trial"))
        return res


# ---------------------------------------------------------------------------
# cycles-2001: degree-2001 center perturbations -> Melnikov counts
# ---------------------------------------------------------------------------

class Cycles:
    name = "cycles-2001"
    d = 2001
    trials = 32
    recount = 2

    def setup(self, seed):
        return {"seeds": [sampler.SeedSpec(seed, trial=t) for t in range(self.trials)],
                "seed": seed}

    def run(self, inputs):
        n = (self.d - 1) // 2
        grid = rootcount.sweep_grid(n)
        powers = rootcount.power_matrix(n, grid)
        rows = np.empty((len(inputs["seeds"]), n + 1))
        for i, s in enumerate(inputs["seeds"]):
            pc = sampler.PerturbationCoefficients.sample_full(self.d, GAUSS, s)
            rows[i] = sampler.melnikov_noise_from_perturbation(pc)
        c01 = rootcount.sweep_count_batch(rows, grid, powers=powers)[:, 0]
        c1i = rootcount.sweep_count_batch(np.ascontiguousarray(rows[:, ::-1]), grid,
                                          powers=powers)[:, 0]
        return {"counts": c01 + c1i + (rows.sum(axis=1) == 0.0)}

    def tally(self, outputs):
        return len(outputs["counts"]), 0

    def digest(self, outputs):
        return _sha(outputs["counts"].tobytes())

    def traced_extra(self, inputs, outputs):
        # the companion recount is timed apart from the pass, but traced
        self._recount(inputs, outputs["counts"])

    def _recount(self, inputs, counts):
        picks = [(inputs["seed"] + k * 7919) % self.trials for k in range(self.recount)]
        got = []
        for t in picks:
            pc = sampler.PerturbationCoefficients.sample_full(
                self.d, GAUSS, inputs["seeds"][t])
            rep = melnikov.count_bifurcating_cycles(melnikov.PerturbedSystem("center", pc))
            got.append((t, rep.count, int(counts[t])))
        return got

    def check(self, inputs, outputs, ctx):
        counts = outputs["counts"]
        got = self._recount(inputs, counts)
        res = [("cycles-2001: sweep count == companion count",
                all(a == b for _t, a, b in got),
                "; ".join(f"trial {t}: companion {a}, sweep {b}" for t, a, b in got))]
        import oracles

        n = (self.d - 1) // 2
        kr = oracles.expected_zeros_regions(coeffs.coeff_vector(CENTER, n).values)["pos"]
        mean = float(counts.mean())
        se = float(counts.std(ddof=1) / math.sqrt(len(counts)))
        res.append(("cycles-2001: mean vs independent Kac-Rice on (0,inf)",
                    abs(mean - kr) <= Z_GATE * se,
                    f"mean {mean:.4f}, KR {kr:.4f}, |d|/se = {abs(mean - kr) / se:.2f} "
                    f"(<= {Z_GATE:g})"))
        return res


# ---------------------------------------------------------------------------
# ode-verify: the return-map cross-check
# ---------------------------------------------------------------------------

class OdeVerify:
    name = "ode-verify"
    # the acceptance-12 family; its seed is fixed so that the one system the
    # stopping-rule fault gets wrong (trial 4) is the same in every run
    family_seed = 70812
    last_trial = 4

    def setup(self, seed):
        two_sqrt_pi = 2.0 * math.sqrt(math.pi)
        vdp = melnikov.PerturbedSystem("lienard", sampler.PerturbationCoefficients.lienard(
            np.array([-two_sqrt_pi, 0.0, two_sqrt_pi / 3.0])), epsilon=1e-3)
        systems = []
        for t in range(self.last_trial + 1):
            d = (3, 5, 7)[t % 3]
            s = sampler.SeedSpec(self.family_seed, trial=t)
            if t % 2 == 0:
                pc = sampler.PerturbationCoefficients.sample_full(d, GAUSS, s)
                systems.append(melnikov.PerturbedSystem("center", pc))
            else:
                pc = sampler.PerturbationCoefficients.sample_lienard(d, GAUSS, s)
                systems.append(melnikov.PerturbedSystem("lienard", pc))
        return {"vdp": vdp, "systems": systems}

    def run(self, inputs):
        vdp = melnikov.verify_cycles_ode(inputs["vdp"], eps_start=1e-3)
        results = []
        for s in inputs["systems"]:
            mel = melnikov.count_bifurcating_cycles(s)
            ode = melnikov.verify_cycles_ode(s)
            results.append((mel, ode))
        return {"vdp": vdp, "results": results}

    def tally(self, outputs):
        failed = sum(mel.count != ode.count for mel, ode in outputs["results"])
        return 1 + len(outputs["results"]), failed

    def digest(self, outputs):
        return _sha(outputs["vdp"].radii.tobytes(),
                    *((m.count, o.count, m.radii.tobytes(), o.radii.tobytes())
                      for m, o in outputs["results"]))

    def check(self, inputs, outputs, ctx):
        vdp = outputs["vdp"]
        res = [("ode-verify: van der Pol amplitude",
                vdp.count == 1 and abs(vdp.radii[0] - 2.0) <= 0.05,
                f"count {vdp.count}, radii {np.round(vdp.radii, 4).tolist()} (1 at 2 +- 0.05)")]
        # each Melnikov radius is a sign change of the circle flux, an
        # independent quadrature of the perturbation
        bad = []
        for t, (s, (mel, ode)) in enumerate(zip(inputs["systems"], outputs["results"])):
            for r in mel.radii:
                lo = melnikov.melnikov_flux_quadrature(s, float(r) * (1 - 1e-4))
                hi = melnikov.melnikov_flux_quadrature(s, float(r) * (1 + 1e-4))
                if lo * hi >= 0.0:
                    bad.append((t, float(r)))
            if mel.count != ode.count:
                sys.stderr.write(f"ode-verify: trial {t} melnikov {mel.count} "
                                 f"ode {ode.count} (failed)\n")
        res.append(("ode-verify: Melnikov radii are flux sign changes", not bad,
                    f"{bad or 'all'}"))
        return res


# ---------------------------------------------------------------------------
# kacrice-1e5: the expected-count quadrature at n = 1e5
# ---------------------------------------------------------------------------

class KacRice:
    """n = 1e5 keeps each O(n) evaluation's temporaries in L2 cache.

    At n = 1e6 a pass takes 19-31 s and ten runs spread 22% in wall time and
    27% in CPU time: every density evaluation allocates about 40 MB, which
    makes the pass follow the memory traffic of whatever else the host runs.
    """

    name = "kacrice-1e5"
    n = 10**5
    tol = 1e-7
    jobs = (("center", "01"), ("center", "1inf"), ("center", "R"), ("power:0", "01"))

    def setup(self, seed):
        # no random input: the seed is accepted and the quadratures are fixed
        return {"jobs": [(coeffs.CoeffScheme.parse(s), r) for s, r in self.jobs]}

    def run(self, inputs):
        vectors, values, failed = {}, {}, 0
        for scheme, region in inputs["jobs"]:
            if scheme not in vectors:
                vectors[scheme] = coeffs.coeff_vector(scheme, self.n)
            try:
                values[(scheme.label(), region)] = kacrice.expected_roots_region(
                    vectors[scheme], region, self.tol)
            except QuadratureFailureError:
                failed += 1
        return {"values": values, "failed": failed, "vectors": vectors}

    def tally(self, outputs):
        return len(self.jobs), outputs["failed"]

    def digest(self, outputs):
        return _sha(sorted(outputs["values"].items()))

    def check(self, inputs, outputs, ctx):
        import oracles

        v = outputs["values"]
        ln = math.log(self.n)
        ref = oracles.load_reference()["kac_flat_01"]
        if ref["n"] != self.n:
            raise ValueError(f"bench/reference.json holds n={ref['n']}, not {self.n}; "
                             "recompute it with python3 bench/oracles.py")
        ref = float(ref["value"])
        flat = coeffs.CoeffScheme.parse("power:0")
        flat01 = v[("power:0", "01")][0]
        flat1inf = kacrice.expected_roots_region(
            outputs["vectors"][flat], "1inf", self.tol)[0]
        c01, c1i, cr = (v[("center", r)][0] for r in ("01", "1inf", "R"))
        r01 = c01 / (math.sqrt(ln) / math.pi)
        r1i = c1i / (ln / (2.0 * math.pi))
        # the program holds each integrated piece to tol and sums the
        # pieces' estimates: R is four pieces, the others one
        pieces = {"01": 1, "1inf": 1, "R": 4}
        worst_err = max(e / pieces[r] for (_s, r), (_v, e) in v.items())
        return [
            ("kacrice-1e5: flat 01 vs Kac closed form (mpmath)",
             abs(flat01 - ref) <= self.tol, f"{flat01!r} vs {ref!r}"),
            ("kacrice-1e5: flat 01 == flat 1inf (reversal)",
             abs(flat01 - flat1inf) <= self.tol, f"{flat01!r} vs {flat1inf!r}"),
            ("kacrice-1e5: error estimate per piece <= tol", worst_err <= self.tol,
             f"worst {worst_err:.2e}"),
            ("kacrice-1e5: center 01 ratio in [0.7,1.3]", 0.7 <= r01 <= 1.3,
             f"{r01:.4f} to sqrt(log n)/pi"),
            ("kacrice-1e5: center 1inf ratio in [0.8,1.2]", 0.8 <= r1i <= 1.2,
             f"{r1i:.4f} to log(n)/(2 pi)"),
            ("kacrice-1e5: R == 2 (01 + 1inf)", abs(cr - 2 * (c01 + c1i)) <= 4 * self.tol,
             f"{cr!r} vs {2 * (c01 + c1i)!r}"),
        ]


WORKLOADS = {w.name: w for w in (Demo(), Sweep(), Cycles(), OdeVerify(), KacRice())}
