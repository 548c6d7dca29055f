import math
import os
from pathlib import Path

import numpy as np
import pytest

from kaccycles import experiment, kacrice
from kaccycles.coeffs import CoeffScheme, coeff_vector
from kaccycles.errors import DomainError, InsufficientDataError
from kaccycles.experiment import (EstimateRow, ExperimentConfig,
                                  compare_to_theory, parse_config_file,
                                  run_experiment, write_outputs)
from kaccycles.kacrice import expected_roots_region
from kaccycles.sampler import NoiseDistribution


def small_config(**over):
    base = dict(scheme=CoeffScheme.perturbed_center(),
                dist=NoiseDistribution.GAUSSIAN,
                degrees=[120], regions=["01", "1inf"], trials=256,
                master_seed=424242)
    base.update(over)
    return ExperimentConfig(**base)


def test_constant_polynomial_has_no_roots():
    cfg = small_config(scheme=CoeffScheme.power_law(0.0), degrees=[0],
                       regions=["R"], trials=64)
    res = run_experiment(cfg)
    assert res.rows[0].mc_mean == 0.0 and res.rows[0].failures == 0


def test_companion_zero_row_is_a_failure(monkeypatch):
    # the zero polynomial has no root count: its trial is NaN, not 0
    drawn = experiment._realized_batch

    def zero_first_row(*args):
        realized = drawn(*args)
        realized[0] = 0.0
        return realized

    monkeypatch.setattr(experiment, "_realized_batch", zero_first_row)
    res = run_experiment(small_config(degrees=[20], regions=["01", "R"], trials=8,
                                      batch=4, method="companion"))
    for row in res.rows:
        assert row.failures == 2 and row.trials == 6
        counts = res.counts[(20, row.region)]
        assert np.isnan(counts[[0, 4]]).all() and not np.isnan(counts[[1, 2, 3, 5]]).any()


def test_sweep_zero_row_is_a_failure(monkeypatch):
    # the sweep's point checks at 0, 1 and -1 must not count the zero polynomial
    drawn = experiment._realized_batch

    def zero_first_row(*args):
        realized = drawn(*args)
        realized[0] = 0.0
        return realized

    monkeypatch.setattr(experiment, "_realized_batch", zero_first_row)
    res = run_experiment(small_config(degrees=[20], regions=["01", "pos", "neg", "R"],
                                      trials=8, batch=4, method="sweep"))
    for row in res.rows:
        assert row.failures == 2 and row.trials == 6
        counts = res.counts[(20, row.region)]
        assert np.isnan(counts[[0, 4]]).all() and not np.isnan(counts[[1, 2, 3, 5]]).any()


def test_empty_core_interval_counts_zero_on_both_paths():
    # the core interval is empty below n = 11: both paths and the Kac-Rice
    # column give 0
    got = {}
    for method in ("sweep", "companion"):
        res = run_experiment(small_config(degrees=[1, 10], regions=["In", "In_inv"],
                                          trials=4, method=method))
        got[method] = res.counts
        for row in res.rows:
            assert row.mc_mean == 0.0 and row.failures == 0 and row.kr_value == 0.0
    for key, counts in got["sweep"].items():
        assert np.array_equal(counts, got["companion"][key])


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


def test_sweep_counts_a_root_at_zero_once(monkeypatch):
    # a row with c_0 = 0 has a root at x = 0: the point check counts it, and
    # no span does; both paths agree
    drawn = experiment._realized_batch

    def root_at_zero(*args):
        realized = drawn(*args)
        realized[:, 0] = 0.0
        return realized

    monkeypatch.setattr(experiment, "_realized_batch", root_at_zero)
    got = {}
    for method in ("sweep", "companion"):
        res = run_experiment(small_config(degrees=[30], trials=16, method=method,
                                          regions=["01", "sym", "neg", "R"]))
        got[method] = res.counts
    for key, counts in got["sweep"].items():
        assert np.array_equal(counts, got["companion"][key]), key


def test_companion_errors_propagate(monkeypatch):
    def broken(_row):
        raise RuntimeError("not a counting failure")

    monkeypatch.setattr(experiment, "real_roots", broken)
    with pytest.raises(RuntimeError):
        run_experiment(small_config(degrees=[20], trials=4, method="companion"))


def test_companion_eigensolver_failure_is_nan_in_every_region(monkeypatch):
    # a row whose eigenvalue iteration does not converge has no count: its
    # trial is NaN in every region, and the other trials are counted
    cfg = small_config(degrees=[20], trials=8, method="companion",
                       regions=list(kacrice.REGIONS))
    want = run_experiment(cfg).counts
    bad = experiment._realized_batch(cfg.scheme, cfg.dist, 20, cfg.master_seed,
                                     0, 0, cfg.trials)[3]
    roots = experiment.real_roots

    def fails_on_one_row(row):
        if np.array_equal(row, bad):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return roots(row)

    monkeypatch.setattr(experiment, "real_roots", fails_on_one_row)
    res = run_experiment(cfg)
    for key, counts in res.counts.items():
        assert np.isnan(counts[3]), key
        rest = np.delete(counts, 3)
        assert not np.isnan(rest).any(), key
        assert np.array_equal(rest, np.delete(want[key], 3)), key
    assert all(row.failures == 1 and row.trials == cfg.trials - 1 for row in res.rows)


def test_monte_carlo_matches_kacrice_both_paths():
    # n=40 runs through the companion path, n=200 through the sweep
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


def test_worker_invariance():
    kw = dict(scheme=CoeffScheme.power_law(0.0), dist=NoiseDistribution.RADEMACHER,
              degrees=[120], regions=["01", "1inf"], trials=300, master_seed=5)
    res1 = run_experiment(ExperimentConfig(workers=1, **kw))
    res4 = run_experiment(ExperimentConfig(workers=4, **kw))
    res16 = run_experiment(ExperimentConfig(workers=16, **kw))
    for a, b in ((res1, res4), (res1, res16)):
        for ra, rb in zip(a.rows, b.rows):
            assert ra.mc_mean == rb.mc_mean and ra.mc_stderr == rb.mc_stderr
        for k in a.counts:
            assert np.array_equal(a.counts[k], b.counts[k])


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
    run_experiment(small_config(workers=4, trials=40, batch=16))
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
    for batch in (0, -3):
        with pytest.raises(DomainError):
            small_config(batch=batch)


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
    bad = tmp_path / "bad.cfg"
    bad.write_text("scheme = center\n")
    with pytest.raises(DomainError):
        parse_config_file(str(bad))


@pytest.mark.parametrize("preset", sorted(
    (Path(__file__).parent.parent / "configs").glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_presets_parse(preset):
    cfg = parse_config_file(str(preset))
    assert cfg.master_seed is not None and cfg.degrees and cfg.regions


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


def test_compare_to_theory_needs_three_degrees():
    rows = _rows_from([10, 100], [1.0, 2.0])
    with pytest.raises(InsufficientDataError):
        compare_to_theory(rows)
