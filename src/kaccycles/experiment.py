"""Monte Carlo orchestration over (scheme, distribution, degree, region) grids.

Per (degree, region) the harness samples independent polynomials on
per-trial counter streams, counts real roots, and aggregates means with
standard errors next to the Gaussian Kac-Rice value and the closed-form
asymptotic predictor.  Counting goes through the batched sweep counter
(degree > companion cutoff) or the companion matrix.  On the sweep path
every region is cut by ``kacrice.split_interval`` into pieces of four axis
families (direct, reversed, and their mirrors) plus the points 0, 1, -1;
the families share one evaluation grid per degree, so every region preset
is assembled from the same per-trial counts and region additivity holds
exactly per trial.  A family and its mirror are one sweep: f(x) and f(-x)
come from the same even/odd half-size products.  The Kac-Rice column reads
the same split, and integrates each distinct piece once per degree.

Trials run in one process, in fixed-size batches merged in index order.
Every draw is addressed by (seed, trial, index), so the output does not
depend on the batch size; parallelism comes from the BLAS threads of the
sweep GEMMs and the eigenvalue solves (``OPENBLAS_NUM_THREADS``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import philox
from .coeffs import CoeffScheme, coeff_vector
from .errors import DomainError, InsufficientDataError
from .kacrice import REGIONS, asymptotic_prediction, expected_roots_regions, \
    region_interval, split_interval
from .rootcount import power_matrix, real_roots, sweep_count_batch, sweep_grid
from .sampler import NoiseDistribution

# families of one-sided sweeps (see kacrice.split_interval), in mirror
# pairs; each pair is counted by one sweep
_MIRROR_PAIRS = (("dir", "mdir"), ("rev", "mrev"))

COMPANION_CUTOFF = 64
DEFAULT_BATCH = 64
_RATIO_FLOOR = 0.1


@dataclass
class ExperimentConfig:
    """One Monte Carlo grid.  ``workers`` is accepted and ignored: trials run
    in one process, and the output does not depend on it."""

    scheme: CoeffScheme
    dist: NoiseDistribution
    degrees: list[int]
    regions: list[str]
    trials: int
    master_seed: int
    workers: int = 1
    experiment_id: int = 0
    moments: tuple[int, ...] = ()
    method: str = "auto"          # "auto" | "companion" | "sweep"
    quad_tol: float = 1e-7
    batch: int = DEFAULT_BATCH
    band_lo: float = 0.7
    band_hi: float = 1.3

    def __post_init__(self):
        if self.trials < 2:
            raise DomainError("need at least 2 trials")
        if not self.degrees:
            raise DomainError("degrees must be nonempty")
        for r in self.regions:
            if r not in REGIONS:
                raise DomainError(f"unknown region {r!r}")
        if self.method not in ("auto", "companion", "sweep"):
            raise DomainError(f"unknown method {self.method!r}")
        if self.batch < 1:
            raise DomainError(f"batch must be at least 1, got {self.batch}")
        # master_seed may stay None until the CLI injects --seed; run_experiment
        # refuses to draw without one (no silent entropy)


@dataclass
class EstimateRow:
    n: int
    region: str
    mc_mean: float
    mc_stderr: float
    trials: int
    failures: int
    valid: bool
    kr_value: float | None = None
    asymptotic: float | None = None
    ratio_mc_over_asymptotic: float | None = None
    ratio_mc_over_kr: float | None = None


@dataclass
class MomentRow:
    n: int
    region: str
    order: int
    value: float
    stderr: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[EstimateRow]
    moment_rows: list[MomentRow]
    counts: dict = field(default_factory=dict)   # (n, region) -> per-trial array


@lru_cache(maxsize=8)
def _grid_for(n: int, pinned: tuple) -> np.ndarray:
    return sweep_grid(n, extra_points=pinned)


@lru_cache(maxsize=1)
def _powers_for(n: int, pinned: tuple) -> np.ndarray:
    return power_matrix(n, _grid_for(n, pinned))


def _t_of_x(x: float) -> float:
    return -math.log(1.0 - x)


# ---------------------------------------------------------------------------
# batched counting
# ---------------------------------------------------------------------------

def _count_batch_sweep(scheme: CoeffScheme, dist: NoiseDistribution,
                       n: int, regions, master_seed, experiment_id,
                       t0: int, t1: int) -> dict:
    """Counts for trials [t0, t1) through the shared sweep families.

    Each region is the sum of its ``split_interval`` pieces, one family span
    each, and of its exact-root indicators at the points; the pieces' inner
    bounds are pinned on the grid.
    """
    splits = {r: split_interval(region_interval(r, n)) for r in regions}
    pinned = tuple(sorted({_t_of_x(x) for pieces, _ in splits.values()
                           for _, a, b in pieces for x in (a, b) if 0.0 < x < 1.0}))
    grid = _grid_for(n, pinned)
    if (n + 1) * len(grid) > 2 * 10**8:
        raise DomainError(
            f"sweep counting at degree {n} would need a {(n + 1) * len(grid):.1e}"
            "-element power matrix; Monte Carlo is sized for degrees up to ~1e5 "
            "(expected counts at larger n come from the Kac-Rice quadrature)")
    powers = _powers_for(n, pinned)
    nt = t1 - t0
    realized = _realized_batch(scheme, dist, n, master_seed, experiment_id, t0, t1)

    def index(x):
        # u = 1 is the end of the sweep, whose last span reaches on to 1
        return len(grid) - 1 if x == 1.0 else int(np.searchsorted(grid, _t_of_x(x)))

    # each region as (family, grid-index span) terms, and each family's spans
    plans = {}
    fam_spans: dict[str, list] = {}
    for r, (pieces, pts) in splits.items():
        terms = [(fam, (index(a), index(b))) for fam, a, b in pieces]
        for fam, span in terms:
            if span not in fam_spans.setdefault(fam, []):
                fam_spans[fam].append(span)
        plans[r] = terms, pts

    # the mirror of the reversed rows is (-1)^n times mrev's rows
    # (c_m (-1)^m reversed): a whole-row sign that moves no root
    fam_counts: dict[str, dict] = {}
    for fam, mfam in _MIRROR_PAIRS:
        spans, mspans = fam_spans.get(fam, []), fam_spans.get(mfam, [])
        if not spans and not mspans:
            continue
        rows = realized if fam == "dir" else realized[:, ::-1]
        got = sweep_count_batch(rows, grid, powers=powers, spans=spans,
                                mirror_spans=mspans)
        cols = iter(got.T)
        for f, sps in ((fam, spans), (mfam, mspans)):
            fam_counts[f] = {span: next(cols) for span in sps}

    sign = np.ones(n + 1)
    sign[1::2] = -1.0
    points = {
        0.0: (realized[:, 0] == 0.0).astype(int),
        1.0: (realized.sum(axis=1) == 0.0).astype(int),
        -1.0: ((realized * sign[None, :]).sum(axis=1) == 0.0).astype(int),
    }
    zero_rows = ~realized.any(axis=1)

    out = {}
    for r, (terms, pts) in plans.items():
        tot = np.zeros(nt, dtype=int)
        for fam, span in terms:
            tot = tot + fam_counts[fam][span]
        for p in pts:
            tot = tot + points[p]
        out[r] = tot.astype(float)
        # no count: the zero polynomial's is undefined
        out[r][zero_rows] = math.nan
    return out


def _realized_batch(scheme: CoeffScheme, dist: NoiseDistribution, n: int,
                    master_seed, experiment_id, t0: int, t1: int) -> np.ndarray:
    """(t1 - t0, n + 1) realized coefficients c_m xi_m, one row per trial.

    The noise of the whole batch is one multi-key draw, row i from the
    stream of trial t0 + i.
    """
    keys = np.array([philox.stream_key(master_seed, experiment_id, trial,
                                       philox.LANE_XI) for trial in range(t0, t1)],
                    dtype=np.uint64)
    noise = philox.variates_block(dist.value, keys, n + 1)
    return noise * _coeffs_cached(scheme, n).values[None, :]


@lru_cache(maxsize=8)
def _coeffs_cached(scheme: CoeffScheme, n: int):
    return coeff_vector(scheme, n)


def _count_batch_companion(scheme: CoeffScheme, dist: NoiseDistribution, n: int,
                           regions, master_seed, experiment_id,
                           t0: int, t1: int) -> dict:
    intervals = {r: region_interval(r, n) for r in regions}
    realized = _realized_batch(scheme, dist, n, master_seed, experiment_id, t0, t1)
    out = {r: np.empty(t1 - t0) for r in regions}
    for i, row in enumerate(realized):
        try:
            rep = real_roots(row)
        except np.linalg.LinAlgError:
            # the eigenvalue iteration did not converge
            rep = None
        for r in regions:
            iv = intervals[r]
            if rep is None or rep.zero_polynomial:
                # no count: the zero polynomial's is undefined
                out[r][i] = math.nan
            else:
                keep = [iv.contains(x) for x in rep.roots]
                out[r][i] = int(rep.multiplicities[keep].sum())
    return out


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _jackknife_stderr(x: np.ndarray) -> float:
    t = len(x)
    if t < 2:
        return math.nan
    s = x.sum()
    leave = (s - x) / (t - 1)
    return float(math.sqrt((t - 1) / t * np.sum((leave - leave.mean()) ** 2)))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Sample, count, and aggregate the full (degree, region) grid."""
    if config.master_seed is None:
        raise DomainError("a master seed is required (no silent entropy)")
    rows: list[EstimateRow] = []
    moment_rows: list[MomentRow] = []
    counts_store: dict = {}
    for n in config.degrees:
        use_sweep = n >= 1 and (config.method == "sweep" or (
            config.method == "auto" and n > COMPANION_CUTOFF))
        count_batch = _count_batch_sweep if use_sweep else _count_batch_companion
        results = [count_batch(config.scheme, config.dist, n, config.regions,
                               config.master_seed, config.experiment_id,
                               t0, min(t0 + config.batch, config.trials))
                   for t0 in range(0, config.trials, config.batch)]
        per_region = {r: np.concatenate([res[r] for res in results])
                      for r in config.regions}
        # one call for all regions, which share their integrated pieces
        kr_all = None
        if config.dist is NoiseDistribution.GAUSSIAN and n >= 1:
            kr_all = expected_roots_regions(_coeffs_cached(config.scheme, n),
                                            config.regions, config.quad_tol)

        for region in config.regions:
            counts = per_region[region]
            counts_store[(n, region)] = counts
            ok = counts[~np.isnan(counts)]
            failures = int(np.sum(np.isnan(counts)))
            mean = float(ok.mean()) if len(ok) else math.nan
            stderr = float(ok.std(ddof=1) / math.sqrt(len(ok))) if len(ok) > 1 else math.nan
            kr = None if kr_all is None else float(kr_all[region][0])
            asym = None
            if n >= 3:
                pred = asymptotic_prediction(config.scheme.effective_rho, region, n)
                asym = pred.value
            row = EstimateRow(
                n=n, region=region, mc_mean=mean, mc_stderr=stderr,
                trials=len(ok), failures=failures,
                valid=failures <= max(1, config.trials) * 0.01,
                kr_value=kr, asymptotic=asym,
                ratio_mc_over_asymptotic=(mean / asym if asym and asym > _RATIO_FLOOR else None),
                ratio_mc_over_kr=(mean / kr if kr and kr > _RATIO_FLOOR else None),
            )
            rows.append(row)
            for order in config.moments:
                vals = ok ** order
                moment_rows.append(MomentRow(n=n, region=region, order=order,
                                             value=float(vals.mean()),
                                             stderr=_jackknife_stderr(vals)))
    return ExperimentResult(config=config, rows=rows, moment_rows=moment_rows,
                            counts=counts_store)


# ---------------------------------------------------------------------------
# theory comparison
# ---------------------------------------------------------------------------

@dataclass
class RegionFit:
    region: str
    best_basis: str              # "log", "sqrtlog", or "constant"
    coefficient: float | None
    intercept: float
    sse: float


@dataclass
class TheoryReport:
    fits: list[RegionFit]
    row_checks: list[dict]
    all_passed: bool


def _fit_basis(ns: np.ndarray, ys: np.ndarray, basis: str):
    if basis == "constant":
        c = float(ys.mean())
        return None, c, float(np.sum((ys - c) ** 2)) / max(1, len(ys) - 1)
    x = np.log(ns) if basis == "log" else np.sqrt(np.log(ns))
    a_mat = np.stack([x, np.ones_like(x)], axis=1)
    sol, *_ = np.linalg.lstsq(a_mat, ys, rcond=None)
    resid = ys - a_mat @ sol
    return float(sol[0]), float(sol[1]), float(np.sum(resid ** 2)) / max(1, len(ys) - 2)


def compare_to_theory(rows: list[EstimateRow], band_lo: float = 0.7,
                      band_hi: float = 1.3) -> TheoryReport:
    """Growth-law fit per region plus per-row band checks.

    Fits mc_mean against {log n, sqrt(log n), constant} and reports the
    best-fitting basis; checks each row's Monte Carlo mean against the
    Kac-Rice value (3 standard errors, when present) and its asymptotic
    ratio against [band_lo, band_hi] (when the predictor is usable).
    """
    regions = sorted({r.region for r in rows})
    degrees = sorted({r.n for r in rows})
    if len(degrees) < 3:
        raise InsufficientDataError("growth fitting needs at least 3 degrees")
    fits = []
    for region in regions:
        sub = sorted([r for r in rows if r.region == region], key=lambda r: r.n)
        ns = np.array([r.n for r in sub], dtype=float)
        ys = np.array([r.mc_mean for r in sub])
        best = None
        for basis in ("log", "sqrtlog", "constant"):
            coeff, intercept, sse = _fit_basis(ns, ys, basis)
            if best is None or sse < best[3]:
                best = (basis, coeff, intercept, sse)
        fits.append(RegionFit(region, best[0], best[1], best[2], best[3]))
    checks = []
    for r in rows:
        passed = True
        why = []
        if r.kr_value is not None and not math.isnan(r.mc_stderr):
            ok = abs(r.mc_mean - r.kr_value) <= 3.0 * r.mc_stderr
            passed &= ok
            why.append(f"|mc-kr|={abs(r.mc_mean - r.kr_value):.4f} vs 3se={3 * r.mc_stderr:.4f}")
        if r.ratio_mc_over_asymptotic is not None:
            ok = band_lo <= r.ratio_mc_over_asymptotic <= band_hi
            passed &= ok
            why.append(f"ratio={r.ratio_mc_over_asymptotic:.3f} in [{band_lo},{band_hi}]")
        checks.append({"n": r.n, "region": r.region, "passed": bool(passed),
                       "detail": "; ".join(why) or "no reference available"})
    return TheoryReport(fits=fits, row_checks=checks,
                        all_passed=all(c["passed"] for c in checks))


# ---------------------------------------------------------------------------
# config files and output
# ---------------------------------------------------------------------------

def parse_config_file(path: str) -> ExperimentConfig:
    """Plain key-value config: `key = value`, '#' comments.

    Keys: scheme, dist, degrees, regions, trials, master_seed, workers
    (accepted and ignored), moments, method, quad_tol, batch, band_lo,
    band_hi, experiment_id.
    """
    kv = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            for sep in ("=", ":", None):
                if sep is None:
                    parts = line.split(None, 1)
                elif sep in line:
                    parts = line.split(sep, 1)
                else:
                    continue
                if len(parts) == 2:
                    kv[parts[0].strip().lower()] = parts[1].strip()
                    break
    def want(key):
        if key not in kv:
            raise DomainError(f"config file is missing {key!r}")
        return kv[key]
    return ExperimentConfig(
        scheme=CoeffScheme.parse(want("scheme")),
        dist=NoiseDistribution.parse(want("dist")),
        degrees=[int(x) for x in want("degrees").replace(",", " ").split()],
        regions=[x for x in want("regions").replace(",", " ").split()],
        trials=int(want("trials")),
        master_seed=int(kv["master_seed"]) if "master_seed" in kv else None,
        workers=int(kv.get("workers", "1")),
        experiment_id=int(kv.get("experiment_id", "0")),
        moments=tuple(int(x) for x in kv.get("moments", "").replace(",", " ").split()),
        method=kv.get("method", "auto"),
        quad_tol=float(kv.get("quad_tol", "1e-7")),
        batch=int(kv.get("batch", str(DEFAULT_BATCH))),
        band_lo=float(kv.get("band_lo", "0.7")),
        band_hi=float(kv.get("band_hi", "1.3")),
    )


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_outputs(result: ExperimentResult, out_dir: str) -> TheoryReport | None:
    """estimates.csv, moments.csv, report.json, and plot-data files."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.config
    header = (f"# kaccycles experiment scheme={cfg.scheme.label()} dist={cfg.dist.value} "
              f"seed={cfg.master_seed} trials={cfg.trials} method={cfg.method}\n")
    with open(os.path.join(out_dir, "estimates.csv"), "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write("n,region,mc_mean,mc_stderr,kr_value,asymptotic,"
                 "ratio_mc_over_asymptotic,ratio_mc_over_kr,trials,failures,valid\n")
        for r in result.rows:
            fh.write(",".join(_fmt(v) for v in (
                r.n, r.region, r.mc_mean, r.mc_stderr, r.kr_value, r.asymptotic,
                r.ratio_mc_over_asymptotic, r.ratio_mc_over_kr, r.trials,
                r.failures, r.valid)) + "\n")
    with open(os.path.join(out_dir, "moments.csv"), "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write("n,region,order,value,stderr\n")
        for m in result.moment_rows:
            fh.write(",".join(_fmt(v) for v in (m.n, m.region, m.order, m.value,
                                                m.stderr)) + "\n")
    theory = None
    theory_payload = None
    if len(set(r.n for r in result.rows)) >= 3:
        theory = compare_to_theory(result.rows, cfg.band_lo, cfg.band_hi)
        theory_payload = {
            "fits": [vars(f) for f in theory.fits],
            "row_checks": theory.row_checks,
            "all_passed": theory.all_passed,
        }
    payload = {
        "config": {
            "scheme": cfg.scheme.label(), "dist": cfg.dist.value,
            "degrees": cfg.degrees, "regions": list(cfg.regions),
            "trials": cfg.trials, "master_seed": cfg.master_seed,
            "workers": cfg.workers, "method": cfg.method,
            "moments": list(cfg.moments), "quad_tol": cfg.quad_tol,
            "batch": cfg.batch,
        },
        "rows": [vars(r) for r in result.rows],
        "moments": [vars(m) for m in result.moment_rows],
        "theory": theory_payload,
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for region in {r.region for r in result.rows}:
        sub = sorted((r for r in result.rows if r.region == region),
                     key=lambda r: r.n)
        for tag, xf in (("logn", lambda n: math.log(n)),
                        ("sqrtlogn", lambda n: math.sqrt(math.log(n)))):
            path = os.path.join(out_dir, f"plot_{region}_{tag}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"x_{tag},mc_mean\n")
                for r in sub:
                    fh.write(f"{_fmt(xf(r.n))},{_fmt(r.mc_mean)}\n")
    return theory
