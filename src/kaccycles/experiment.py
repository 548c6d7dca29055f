"""Monte Carlo orchestration over (scheme, distribution, degree, region) grids.

Per (degree, region) the harness samples independent polynomials on
per-trial counter streams, counts real roots, and aggregates means with
standard errors next to the Gaussian Kac-Rice value and the closed-form
asymptotic predictor.  Every region is cut by ``kacrice.split_interval``
into pieces of four axis families (direct, reversed, and their mirrors)
plus the points 0, 1, -1.  The certified sweep counts the pieces at every
degree, and the exact roots at the points are counted once, so every region
preset is assembled from the same per-trial counts and region additivity
holds exactly per trial.  Each degree has one plan (``_sweep_plan``), which
its batches read: the evaluation grid that the sweep families share, with
the pieces' bounds pinned on it, the grid's power matrix, and every
region's pieces as spans of grid indices.  The power matrix holds the even
powers x^(2j) alone, n/2 + 1 rows: the odd coefficients' products with it,
scaled by x, give the odd part.  A family and its mirror are one sweep:
f(x) and f(-x) come from the same even/odd half-size products.  The
coefficient vector is built once per degree; the Kac-Rice column reads it
and the same split, and integrates each distinct piece once per degree.

Trials run in one process, in batches merged in index order.  A batch is
sized by its working set (``_batch_rows``): as many rows as a 3 MiB
budget holds, never fewer than 64 up to degree 65535 and never more than
2^22 coefficients.  The sweep holds the rows and half a row more per row
(``rootcount._sweep_cells``), so memory stays bounded at every degree.
Every draw is addressed by (seed, trial, index), so the output does not
depend on the batch size.  Parallelism comes from the one thread pool of
:mod:`kaccycles.philox`, a share per core in the process's affinity set:
a degree whose sweep products reach ``rootcount._ONE_THREAD_MADDS``
(from n = 7800 on) deals it whole batches of 1/shares of the rows, and
its Kac-Rice column; each share draws and sweeps its own batches.  Below
that, the pool fills Philox blocks of more than one tile.  Every sweep
holds the BLAS to one thread (``rootcount._one_blas_thread``), a hold the
shares share, so ``OPENBLAS_NUM_THREADS`` does not set it.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import philox, rootcount
from .coeffs import CoeffScheme, CoeffVector, coeff_vector
from .errors import DomainError, InsufficientDataError
from .kacrice import REGIONS, asymptotic_prediction, expected_roots_regions, \
    region_interval, split_interval
from .rootcount import EXACT_POINTS, exact_roots, power_matrix, \
    sweep_count_batch, sweep_grid
from .sampler import NoiseDistribution, noise_rows

# families of one-sided sweeps (see kacrice.split_interval), in mirror
# pairs; each pair is counted by one sweep
_MIRROR_PAIRS = (("dir", "mdir"), ("rev", "mrev"))

_RATIO_FLOOR = 0.1

# tolerance of the Kac-Rice column's quadrature
_QUAD_TOL = 1e-7

# bytes of one batch's working set beside the power matrix (``_batch_rows``)
_BATCH_BYTES = 3 * 2 ** 20


@dataclass
class ExperimentConfig:
    """One Monte Carlo grid, counted by the certified sweep at every degree.
    ``workers`` is accepted and ignored: trials run in one process, and the
    output does not depend on it."""

    scheme: CoeffScheme
    dist: NoiseDistribution
    degrees: list[int]
    regions: list[str]
    trials: int
    master_seed: int
    workers: int = 1
    moments: tuple[int, ...] = ()
    band_lo: float = 0.7
    band_hi: float = 1.3

    def __post_init__(self):
        if self.trials < 2:
            raise DomainError("need at least 2 trials")
        if not self.degrees:
            raise DomainError("degrees must be nonempty")
        if min(self.degrees) < 0:
            raise DomainError("degrees must be nonnegative")
        for r in self.regions:
            if r not in REGIONS:
                raise DomainError(f"unknown region {r!r}")
        # an order below 1 would write 0 ** order (inf) or a constant row
        if self.moments and min(self.moments) < 1:
            raise DomainError("moment orders must be at least 1")
        # an empty or non-finite band fails every row's check
        if not (math.isfinite(self.band_lo) and math.isfinite(self.band_hi)
                and self.band_lo <= self.band_hi):
            raise DomainError("need finite band limits with band_lo <= band_hi")
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


def _t_of_x(x: float) -> float:
    return -math.log(1.0 - x)


# ---------------------------------------------------------------------------
# batched counting
# ---------------------------------------------------------------------------

def _sweep_plan(regions, n: int) -> tuple:
    """What every batch of degree n reads: the sweep grid, with the regions'
    inner piece bounds pinned on it, its power matrix (the even powers,
    ``power_matrix``), and per region its ``split_interval`` pieces as
    (family, lo, hi) grid spans with the exact points it holds."""
    splits = {r: split_interval(region_interval(r, n)) for r in regions}
    pinned = sorted({_t_of_x(x) for ps, _ in splits.values() for _, a, b in ps
                     for x in (a, b) if 0.0 < x < 1.0})
    grid = sweep_grid(n, extra_points=pinned)
    # the power matrix holds the even powers alone (rootcount.power_matrix)
    nbytes = 8 * (n // 2 + 1) * len(grid)
    if nbytes > 16 * 10**8:
        raise DomainError(
            f"sweep counting at degree {n} would need a {nbytes / 1e9:.1f} GB power "
            "matrix; Monte Carlo is sized for degrees up to ~2e6 (expected counts "
            "at larger n come from the Kac-Rice quadrature)")

    def index(x):
        # u = 1 is the end of the sweep, whose last span reaches on to 1
        return len(grid) - 1 if x == 1.0 else int(np.searchsorted(grid, _t_of_x(x)))

    spans = {r: ([(f, index(a), index(b)) for f, a, b in ps], pts)
             for r, (ps, pts) in splits.items()}
    return grid, power_matrix(n, grid), spans


def _batch_rows(n: int) -> int:
    """Trials per batch at degree n: as many as fit in _BATCH_BYTES, but
    never fewer than 64, and never more than 2^22 coefficients (so fewer
    than 64 above degree 65535).

    A row is charged 8 bytes for each of 2 (n + 1) coefficients and of 9
    values per grid cell.  Of the coefficients, the row holds one, its half
    row in the sweep's GEMM buffer a half (``rootcount._sweep_cells``), and
    the last half is headroom for the arrays of one row's length that a
    batch holds beside them.  The cell values are the products, the
    certificate and its bisection.  The cells weigh most below n ~ 500,
    where a batch holds hundreds of rows; 64 rows fill the budget near
    n = 3000, and at n = 3e4 they hold 1.7 times their coefficients' bytes
    (split among the shares of a dealt degree, ``run_experiment``).
    """
    per_row = 8 * (2 * (n + 1) + 9 * len(sweep_grid(n)))
    return max(1, min(2 ** 22 // (n + 1), max(64, _BATCH_BYTES // per_row)))


def _count_batch(plan: tuple, cv: CoeffVector, dist: NoiseDistribution,
                 master_seed: int, t0: int, t1: int) -> dict:
    """Counts for trials [t0, t1) of the coefficients ``cv`` in every region
    of ``plan`` (``_sweep_plan``).

    Each region is the sum of the sweep's counts on its spans and of the
    exact roots at the points it holds.  The sweep counts the rows, and
    then the reversed rows, with the quotients of ``exact_roots`` written
    over the rows it changes, so it finds no exact root to divide out.  The
    zero polynomial, whose count is undefined, is NaN.
    """
    grid, powers, regions = plan
    realized = noise_rows(dist, cv.n, master_seed, t0, t1)
    realized *= cv.values
    failed = ~realized.any(axis=1)
    hit, direct, rev, at = exact_roots(realized)
    realized[hit] = direct
    # the mirror of the reversed rows is (-1)^n times mrev's rows
    # (c_m (-1)^m reversed): a whole-row sign that moves no root
    counts = {}
    for pair in _MIRROR_PAIRS:
        fam_spans = [list(dict.fromkeys(s[1:] for spans, _ in regions.values()
                                        for s in spans if s[0] == f)) for f in pair]
        if not any(fam_spans):
            continue
        if pair[0] == "rev":
            realized[hit, ::-1] = rev
        got = sweep_count_batch(realized if pair[0] == "dir" else realized[:, ::-1], grid,
                                powers=powers, spans=fam_spans[0], mirror_spans=fam_spans[1])
        keys = [(f, *s) for f, sps in zip(pair, fam_spans) for s in sps]
        counts.update(zip(keys, got.T))
    out = {}
    for r, (spans, pts) in regions.items():
        tot = sum([counts[s] for s in spans] + [at[:, EXACT_POINTS.index(p)] for p in pts],
                  np.zeros(len(realized), dtype=int))
        out[r] = np.where(failed, math.nan, tot)
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
        cv = coeff_vector(config.scheme, n)
        plan = _sweep_plan(config.regions, n)
        batch = min(_batch_rows(n), config.trials)
        dealt = (batch + 4) * ((n + 2) // 2) * len(plan[0]) >= rootcount._ONE_THREAD_MADDS
        if dealt:       # the shares hold as many rows at once as one batch
            batch = -(-batch // philox._THREADS)
        # the batches by their first trial, and None for the Kac-Rice column:
        # one call for all regions, which share their integrated pieces
        items, done = [*range(0, config.trials, batch)], {}
        if config.dist is NoiseDistribution.GAUSSIAN and n >= 1:
            items.append(None)

        def work(share):
            for t0 in share:
                done[t0] = (expected_roots_regions(cv, config.regions, _QUAD_TOL)
                            if t0 is None else
                            _count_batch(plan, cv, config.dist, config.master_seed, t0,
                                         min(t0 + batch, config.trials)))

        if dealt:
            philox.deal(work, items)
        else:
            work(items)
        del plan        # the power matrix goes before the next degree's is built
        kr_all = done.pop(None, None)
        per_region = {r: np.concatenate([done[t0][r] for t0 in sorted(done)])
                      for r in config.regions}

        for region in config.regions:
            counts = per_region[region]
            counts_store[(n, region)] = counts
            ok = counts[~np.isnan(counts)]
            failures = int(np.sum(np.isnan(counts)))
            mean = float(ok.mean()) if len(ok) else math.nan
            stderr = float(ok.std(ddof=1) / math.sqrt(len(ok))) if len(ok) > 1 else math.nan
            kr = None if kr_all is None else float(kr_all[region][0])
            asym = asymptotic_prediction(config.scheme.effective_rho, region, n)
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

    Fits mc_mean against {log n, sqrt(log n), constant} over the rows with
    n >= 1, where log n is defined, and reports the best-fitting basis;
    checks each row's Monte Carlo mean against the Kac-Rice value (3
    standard errors, when present) and its asymptotic ratio against
    [band_lo, band_hi] (when the predictor is usable).
    """
    fit_rows = [r for r in rows if r.n >= 1]
    if len({r.n for r in fit_rows}) < 3:
        raise InsufficientDataError("growth fitting needs at least 3 degrees n >= 1")
    fits = []
    for region in sorted({r.region for r in fit_rows}):
        sub = sorted([r for r in fit_rows if r.region == region], key=lambda r: r.n)
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

def _ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


# the optional keys besides master_seed, with their parsers; an absent key
# keeps its ExperimentConfig default
_OPTIONAL_KEYS = {
    "workers": int, "moments": lambda v: tuple(_ints(v)), "band_lo": float,
    "band_hi": float}
_CONFIG_KEYS = frozenset(("scheme", "dist", "degrees", "regions", "trials",
                          "master_seed", *_OPTIONAL_KEYS))


def parse_config_file(path: str) -> ExperimentConfig:
    """Plain key-value config: `key = value`, '#' comments.

    The separator is whichever of '=', ':' and whitespace comes first in the
    line, with the whitespace around an '=' or ':', so a value may hold a
    ':' (``scheme power:-0.5``).  Keys: scheme, dist, degrees, regions,
    trials, master_seed, workers (accepted and ignored), moments, band_lo,
    band_hi.  Any other key, and a key with no value, is a
    ``DomainError``.
    """
    kv = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = re.split(r"\s*[=:]\s*|\s+", line, maxsplit=1)
            if len(parts) != 2 or not parts[1].strip():
                raise DomainError(f"config line {lineno} ({line!r}) has no value")
            kv[parts[0].strip().lower()] = parts[1].strip()
    unknown = sorted(set(kv) - _CONFIG_KEYS)
    if unknown:
        raise DomainError("unknown config key " + ", ".join(map(repr, unknown)))
    def want(key):
        if key not in kv:
            raise DomainError(f"config file is missing {key!r}")
        return kv[key]
    return ExperimentConfig(
        scheme=CoeffScheme.parse(want("scheme")),
        dist=NoiseDistribution.parse(want("dist")),
        degrees=_ints(want("degrees")),
        regions=want("regions").replace(",", " ").split(),
        trials=int(want("trials")),
        master_seed=int(kv["master_seed"]) if "master_seed" in kv else None,
        **{k: parse(kv[k]) for k, parse in _OPTIONAL_KEYS.items() if k in kv})


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
              f"seed={cfg.master_seed} trials={cfg.trials}\n")
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
    if len({r.n for r in result.rows if r.n >= 1}) >= 3:
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
            "workers": cfg.workers, "moments": list(cfg.moments),
        },
        "rows": [vars(r) for r in result.rows],
        "moments": [vars(m) for m in result.moment_rows],
        "theory": theory_payload,
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for region in {r.region for r in result.rows}:
        sub = sorted((r for r in result.rows if r.region == region and r.n >= 1),
                     key=lambda r: r.n)
        for tag, xf in (("logn", lambda n: math.log(n)),
                        ("sqrtlogn", lambda n: math.sqrt(math.log(n)))):
            path = os.path.join(out_dir, f"plot_{region}_{tag}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"x_{tag},mc_mean\n")
                for r in sub:
                    fh.write(f"{_fmt(xf(r.n))},{_fmt(r.mc_mean)}\n")
    return theory
