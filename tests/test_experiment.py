import dataclasses
import hashlib
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import run_experiment_on_one_core
from kaccycles import experiment, kacrice, philox
from kaccycles.coeffs import CoeffScheme, coeff_vector
from kaccycles.errors import DomainError, InsufficientDataError
from kaccycles.experiment import (EstimateRow, ExperimentConfig,
                                  compare_to_theory, parse_config_file,
                                  run_experiment, write_outputs)
from kaccycles.kacrice import expected_roots_region, region_interval
from kaccycles.rootcount import count_in_interval
from kaccycles.sampler import NoiseDistribution


def small_config(**over):
    base = dict(scheme=CoeffScheme.perturbed_center(),
                dist=NoiseDistribution.GAUSSIAN,
                degrees=[120], regions=["01", "1inf"], trials=256,
                master_seed=424242)
    base.update(over)
    return ExperimentConfig(**base)


def test_run_experiment_requires_a_master_seed():
    with pytest.raises(DomainError, match="master seed is required"):
        run_experiment(small_config(master_seed=None))


def test_constant_polynomial_has_no_roots():
    cfg = small_config(scheme=CoeffScheme.power_law(0.0), degrees=[0],
                       regions=["R"], trials=64)
    res = run_experiment(cfg)
    assert res.rows[0].mc_mean == 0.0 and res.rows[0].failures == 0


def test_sweep_zero_row_is_a_failure(monkeypatch):
    # the zero polynomial has no root count: its trial is NaN, not 0, and the
    # point checks at 0, 1 and -1 must not count it
    drawn = experiment.noise_rows

    def zero_first_row(*args):
        noise = drawn(*args)
        noise[0] = 0.0
        return noise

    monkeypatch.setattr(experiment, "noise_rows", zero_first_row)
    monkeypatch.setattr(experiment, "_batch_rows", lambda n: 4)
    res = run_experiment(small_config(degrees=[20], regions=["01", "pos", "neg", "R"],
                                      trials=8))
    for row in res.rows:
        assert row.failures == 2 and row.trials == 6
        counts = res.counts[(20, row.region)]
        assert np.isnan(counts[[0, 4]]).all() and not np.isnan(counts[[1, 2, 3, 5]]).any()


@pytest.mark.parametrize("root_at_zero", [False, True], ids=["drawn", "c0_zero"])
def test_small_degree_counts_equal_the_companion_oracle(monkeypatch, root_at_zero):
    # per trial in every region, the sweep's count is the companion count on
    # the same row.  With c_0 = 0 every row has a root at x = 0, which the
    # point check counts once and no span does; at degree 0 that row is the
    # zero polynomial, NaN in every region
    drawn = experiment.noise_rows
    if root_at_zero:
        def drawn_with_c0_zero(*args):
            noise = drawn(*args)
            noise[:, 0] = 0.0
            return noise

        monkeypatch.setattr(experiment, "noise_rows", drawn_with_c0_zero)
        cases = [(CoeffScheme.perturbed_center(), NoiseDistribution.GAUSSIAN)]
    else:
        cases = [(scheme, dist) for scheme in (CoeffScheme.perturbed_center(),
                                               CoeffScheme.power_law(-1.0))
                 for dist in (NoiseDistribution.GAUSSIAN, NoiseDistribution.UNIFORM_SYM)]
    degrees, regions = [0, 1, 2, 3, 5, 16, 64], list(kacrice.REGIONS)
    for scheme, dist in cases:
        cfg = small_config(scheme=scheme, dist=dist, degrees=degrees,
                           regions=regions, trials=64)
        res = run_experiment(cfg)
        for n in degrees:
            rows = experiment.noise_rows(dist, n, cfg.master_seed, 0, cfg.trials) \
                * coeff_vector(scheme, n).values
            for r in regions:
                want = []
                for row in rows:
                    rep = count_in_interval(row, region_interval(r, n))
                    want.append(math.nan if rep.zero_polynomial else rep.count)
                np.testing.assert_array_equal(res.counts[(n, r)], want,
                                              err_msg=f"{scheme.label()} {dist} {n} {r}")
        # the core interval is empty below n = 11: the sweep and the Kac-Rice
        # column give 0
        for row in res.rows:
            if 1 <= row.n < 11 and row.region in ("In", "In_inv"):
                assert row.mc_mean == 0.0 and row.failures == 0, vars(row)
                assert row.kr_value == (0.0 if dist is NoiseDistribution.GAUSSIAN
                                        else None), vars(row)


def test_kacrice_column_integrates_each_piece_once(monkeypatch):
    calls = []
    quad = kacrice.adaptive_gauss_kronrod

    def counted(*args, **kw):
        calls.append(args[1:3])
        return quad(*args, **kw)

    monkeypatch.setattr(kacrice, "adaptive_gauss_kronrod", counted)
    res = run_experiment(small_config(degrees=[20, 100], trials=4,
                                      regions=["01", "1inf", "sym", "R"]))
    assert len(calls) == 4
    for row in res.rows:
        assert row.kr_value == expected_roots_region(
            coeff_vector(CoeffScheme.perturbed_center(), row.n), row.region,
            1e-7)[0]


def test_monte_carlo_matches_kacrice_both_paths():
    cfg = small_config(degrees=[40, 200], trials=1500,
                       regions=["01", "1inf", "pos", "neg", "R"])
    res = run_experiment(cfg)
    for row in res.rows:
        assert row.valid
        assert abs(row.mc_mean - row.kr_value) <= 3.0 * row.mc_stderr, vars(row)


def test_region_additivity_per_trial():
    cfg = small_config(degrees=[150], trials=300, regions=["pos", "neg", "R"])
    res = run_experiment(cfg)
    R = res.counts[(150, "R")]
    assert np.array_equal(R, res.counts[(150, "pos")] + res.counts[(150, "neg")])


def test_mirror_symmetry_of_means():
    cfg = small_config(degrees=[150], trials=2000, regions=["pos", "neg"])
    res = run_experiment(cfg)
    pos = next(r for r in res.rows if r.region == "pos")
    neg = next(r for r in res.rows if r.region == "neg")
    pooled = math.hypot(pos.mc_stderr, neg.mc_stderr)
    assert abs(pos.mc_mean - neg.mc_mean) <= 3.0 * pooled


def test_worker_invariance(monkeypatch, tmp_path):
    # the counts do not depend on the batch (the sweep's majorants weigh
    # each batch's largest coefficients), nor on the BLAS threads and the
    # cores that the draw is dealt to: batches of 1, 64 and all rows, and a
    # child process with one thread on one core
    cfg = ExperimentConfig(scheme=CoeffScheme.power_law(0.0),
                           dist=NoiseDistribution.RADEMACHER, degrees=[120],
                           regions=["01", "1inf"], trials=300, master_seed=5)
    runs = [run_experiment(cfg)]
    for rows in (1, cfg.trials):
        monkeypatch.setattr(experiment, "_batch_rows", lambda n, rows=rows: rows)
        runs.append(run_experiment(cfg))
    one_core = run_experiment_on_one_core(cfg, tmp_path / "one-core")
    for b in runs[1:]:
        for ra, rb in zip(runs[0].rows, b.rows):
            assert ra.mc_mean == rb.mc_mean and ra.mc_stderr == rb.mc_stderr
    for counts in [b.counts for b in runs[1:]] + [one_core]:
        assert counts.keys() == runs[0].counts.keys()
        for k in counts:
            assert np.array_equal(runs[0].counts[k], counts[k])


def test_batch_rows_bound_the_batch_coefficients():
    # as many rows as the working-set budget holds, never fewer than 64 up
    # to degree 65535, then at most 2^22 coefficients a batch
    ns = (0, 100, 300, 1000, 3000, 30000, 65535, 65536, 200000, 400000, 10**7)
    rows = [experiment._batch_rows(n) for n in ns]
    assert rows == [1881, 462, 285, 135, 64, 64, 64, 63, 20, 10, 1]
    assert all(r * (n + 1) <= 2 ** 22 or r == 1 for r, n in zip(rows, ns))


def test_sweep_plan_guards_the_even_power_matrix(monkeypatch):
    # the 1.6 GB guard reads the even power matrix's shape, (n//2 + 1) x
    # grid: degree 2e6 plans, 2.05e6 does not, and raises before any
    # power matrix is built or anything of its size allocated
    regions = ["01", "1inf", "sym", "R"]
    built = []
    monkeypatch.setattr(experiment, "power_matrix", lambda n, t: built.append(n))
    experiment._sweep_plan(regions, 2 * 10**6)
    assert built == [2 * 10**6]
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="up to ~2e6"):
            experiment._sweep_plan(regions, 2_050_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == [2 * 10**6] and peak < 2**20


def _batch_peak(monkeypatch, n, rows):
    """tracemalloc peak of one _count_batch of ``rows`` trials at degree n
    in all four sweep families, its plan built beforehand, with the Philox
    draw on the calling thread (the pool would add buffers per core, not
    per row)."""
    monkeypatch.setattr(philox, "_THREADS", 1)
    plan = experiment._sweep_plan(["01", "1inf", "sym", "R"], n)
    cv = coeff_vector(CoeffScheme.perturbed_center(), n)
    tracemalloc.start()
    try:
        experiment._count_batch(plan, cv, NoiseDistribution.GAUSSIAN, 5, 0, rows)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_batch_holds_its_rows_and_half_a_row_each(monkeypatch):
    # at n = 3e4 the rows, one half-size GEMM operand and what does not
    # scale with them; no copy of the batch
    assert _batch_peak(monkeypatch, 30000, 64) <= 1.7 * 8 * 64 * 30001


@pytest.mark.parametrize("n", [0, 100, 1000, 3000])
def test_batch_working_set_stays_within_the_budget(monkeypatch, n):
    assert _batch_peak(monkeypatch, n, experiment._batch_rows(n)) <= experiment._BATCH_BYTES


def test_power_scheme_keeps_its_exponent():
    # the coefficients come from the scheme, not from its 6-digit label
    scheme = CoeffScheme.power_law(-0.1234567)
    res = run_experiment(small_config(scheme=scheme, degrees=[20], regions=["01"],
                                      trials=4))
    want = expected_roots_region(coeff_vector(scheme, 20), "01", 1e-7)[0]
    assert res.rows[0].kr_value == float(want)


def test_batches_run_in_the_calling_process(monkeypatch):
    # workers is accepted and ignored: every batch is counted here
    pids = []
    count = experiment._count_batch

    def recording(*args):
        pids.append(os.getpid())
        return count(*args)

    monkeypatch.setattr(experiment, "_count_batch", recording)
    monkeypatch.setattr(experiment, "_batch_rows", lambda n: 16)
    run_experiment(small_config(workers=4, trials=40))
    assert pids == [os.getpid()] * 3


def test_outputs_reproducible(tmp_path):
    cfg = small_config(trials=128)
    res = run_experiment(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_outputs(res, str(d1))
    write_outputs(run_experiment(cfg), str(d2))
    for name in ("estimates.csv", "moments.csv", "report.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert (d1 / "plot_01_logn.csv").exists()
    assert (d1 / "plot_01_sqrtlogn.csv").exists()


def test_moment_rows():
    cfg = small_config(degrees=[100], regions=["sym"], trials=400, moments=(2, 3))
    res = run_experiment(cfg)
    orders = sorted(m.order for m in res.moment_rows)
    assert orders == [2, 3]
    for m in res.moment_rows:
        assert m.value >= 0.0 and m.stderr >= 0.0


def test_in_region_subset_of_01():
    cfg = small_config(degrees=[500], regions=["01", "In"], trials=200)
    res = run_experiment(cfg)
    assert np.all(res.counts[(500, "In")] <= res.counts[(500, "01")])


def test_config_validation():
    with pytest.raises(DomainError):
        small_config(trials=1)
    with pytest.raises(DomainError):
        small_config(degrees=[])
    with pytest.raises(DomainError):
        small_config(regions=["everywhere"])
    # degree 0 is the constant polynomial; below it there is no polynomial
    with pytest.raises(DomainError, match="nonnegative"):
        small_config(degrees=[5, -1])
    small_config(degrees=[0])
    # a moment of order 0 is the constant 1, and a negative order is inf
    # wherever a trial counts no root
    for moments in ((-1, 0), (2, 0), (-2,)):
        with pytest.raises(DomainError, match="moment"):
            small_config(moments=moments)
    small_config(moments=(1, 2))
    # an empty or non-finite band fails every row's check
    for lo, hi in ((1.3, 0.7), (math.nan, 1.3), (0.7, math.nan),
                   (-math.inf, 1.3), (0.7, math.inf)):
        with pytest.raises(DomainError, match="band"):
            small_config(band_lo=lo, band_hi=hi)
    small_config(band_lo=1.0, band_hi=1.0)


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "scheme = center\n"
        "dist: gauss\n"
        "degrees = 100, 1000\n"
        "regions = 01 1inf\n"
        "trials 500\n"
        "master_seed = 99\n"
        "workers = 2\n"
        "moments = 2,3\n")
    cfg = parse_config_file(str(path))
    assert cfg.scheme.kind == "center" and cfg.dist is NoiseDistribution.GAUSSIAN
    assert cfg.degrees == [100, 1000] and cfg.regions == ["01", "1inf"]
    assert cfg.trials == 500 and cfg.master_seed == 99 and cfg.workers == 2
    assert cfg.moments == (2, 3)
    # a value may hold a ':' when whitespace separates it from its key
    path.write_text("scheme power:-0.5\ndist gauss\ndegrees 10\nregions 01\n"
                    "trials 4\n")
    cfg = parse_config_file(str(path))
    assert cfg.scheme.kind == "power" and cfg.scheme.effective_rho == -0.5
    bad = tmp_path / "bad.cfg"
    bad.write_text("scheme = center\n")
    with pytest.raises(DomainError):
        parse_config_file(str(bad))


@pytest.mark.parametrize("line", ["moment = 2", "band_low = 0.1", "method = companion",
                                  "moment", "band_lo =", "band_lo", "batch = 64",
                                  "quad_tol = 1e-7", "experiment_id = 1"])
def test_parse_config_file_rejects_unknown_keys(tmp_path, line):
    # a misspelt or retired key, or one whose value was deleted, would
    # otherwise leave its default in place
    path = tmp_path / "exp.cfg"
    path.write_text("scheme = center\ndist = gauss\ndegrees = 100\nregions = 01\n"
                    f"trials = 8\nworkers = 2\n{line}\n")
    key = line.split(" = ")[0]
    with pytest.raises(DomainError, match=repr(key)):
        parse_config_file(str(path))


_CONFIGS = Path(__file__).parent.parent / "configs"


@pytest.mark.parametrize("preset", sorted(_CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_presets_parse(preset):
    cfg = parse_config_file(str(preset))
    assert cfg.master_seed is not None and cfg.degrees and cfg.regions


# SHA-256 of the per-trial counts of configs/demo.cfg at its own seed; the
# counts depend on numpy's float kernels, so CI pins the numpy version
_DEMO_COUNTS_SHA256 = "2b6033cb39fa62d0214f9af3fa88c2496d61ec9526cdeeaca37ac658e145b4ad"


def test_demo_preset_counts_are_pinned():
    cfg = dataclasses.replace(parse_config_file(str(_CONFIGS / "demo.cfg")), workers=1)
    assert cfg.master_seed == 20250808
    res = run_experiment(cfg)
    h = hashlib.sha256()
    for key in sorted(res.counts):
        counts = res.counts[key]
        assert not np.isnan(counts).any(), key
        h.update(repr(key).encode())
        h.update(counts.astype(np.int64).tobytes())
    assert h.hexdigest() == _DEMO_COUNTS_SHA256


def _rows_from(ns, values, region="01", stderrs=None, asym=None):
    rows = []
    for i, (n, v) in enumerate(zip(ns, values)):
        rows.append(EstimateRow(
            n=n, region=region, mc_mean=v,
            mc_stderr=stderrs[i] if stderrs else 0.01,
            trials=100, failures=0, valid=True,
            asymptotic=asym[i] if asym else None,
            ratio_mc_over_asymptotic=(v / asym[i] if asym else None)))
    return rows


def test_compare_to_theory_basis_selection():
    ns = [10**2, 10**3, 10**4, 10**5]
    log_rows = _rows_from(ns, [0.5 * math.log(n) + 0.3 for n in ns])
    rep = compare_to_theory(log_rows)
    assert rep.fits[0].best_basis == "log"
    assert abs(rep.fits[0].coefficient - 0.5) < 1e-9
    sqrt_rows = _rows_from(ns, [2.0 * math.sqrt(math.log(n)) - 0.1 for n in ns])
    assert compare_to_theory(sqrt_rows).fits[0].best_basis == "sqrtlog"
    const_rows = _rows_from(ns, [0.4001, 0.3999, 0.4, 0.4])
    assert compare_to_theory(const_rows).fits[0].best_basis == "constant"


def test_compare_to_theory_band_checks():
    ns = [10**2, 10**3, 10**4]
    asym = [math.log(n) / (2 * math.pi) for n in ns]
    good = _rows_from(ns, [a * 1.05 for a in asym], asym=asym)
    rep = compare_to_theory(good, band_lo=0.8, band_hi=1.2)
    assert rep.all_passed
    bad = _rows_from(ns, [a * 1.5 for a in asym], asym=asym)
    rep = compare_to_theory(bad, band_lo=0.8, band_hi=1.2)
    assert not rep.all_passed


def test_empty_core_interval_has_no_band_check():
    # up to degree 10 the core interval is empty: In and In_inv count no
    # root, and no asymptotic value claims otherwise
    res = run_experiment(small_config(degrees=[4, 7, 10], regions=["In", "In_inv"],
                                      trials=64))
    assert all(r.mc_mean == 0.0 and r.asymptotic is None
               and r.ratio_mc_over_asymptotic is None for r in res.rows)
    assert compare_to_theory(res.rows).all_passed


def test_compare_to_theory_needs_three_degrees():
    rows = _rows_from([10, 100], [1.0, 2.0])
    with pytest.raises(InsufficientDataError):
        compare_to_theory(rows)
