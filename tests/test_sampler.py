import hashlib
import math

import numpy as np
import pytest

from kaccycles import philox, sampler
from kaccycles.coeffs import (trig_moment, trig_moment_even_row, variance_center_many,
                              variance_lienard_many)
from kaccycles.errors import DomainError
from kaccycles.sampler import (NoiseDistribution, PerturbationCoefficients,
                               SeedSpec, melnikov_noise_from_lienard,
                               melnikov_noise_from_perturbation, noise_rows,
                               pair_count, pair_rank)

G = NoiseDistribution.GAUSSIAN
R = NoiseDistribution.RADEMACHER
U = NoiseDistribution.UNIFORM_SYM


def test_draw_supports_and_determinism():
    # xi_index of a trial is entry `index` of its noise row
    def draw(dist, seed, index):
        return noise_rows(dist, index, seed.master_seed, seed.trial, seed.trial + 1)[0, index]

    s = SeedSpec(99, trial=5)
    assert draw(R, s, 3) in (-1.0, 1.0)
    assert abs(draw(U, s, 3)) <= math.sqrt(3.0)
    assert draw(G, s, 3) == draw(G, s, 3)
    assert draw(G, s, 3) != draw(G, s, 4)
    assert draw(G, s, 3) == philox.variates_at("gaussian", s.key(philox.LANE_XI), np.array([3]))[0]


def test_noise_rows_deterministic_and_prefix_stable():
    a = noise_rows(G, 50, 7, 2, 3)
    b = noise_rows(G, 50, 7, 2, 3)
    assert a.shape == (1, 51) and np.array_equal(a, b)
    # same stream prefix independent of the requested degree
    c = noise_rows(G, 20, 7, 2, 3)
    assert np.array_equal(a[:, :21], c)


@pytest.mark.parametrize("dist", [G, R, U], ids=lambda d: d.value)
@pytest.mark.parametrize("t0,t1", [(0, 1), (0, 5), (3, 4), (17, 29), (1000, 1003)])
def test_noise_rows_equal_one_trial_draws(dist, t0, t1):
    # row i of a batch is the one-trial draw of trial t0 + i, the LANE_XI
    # block of that trial's stream
    n = 40
    rows = noise_rows(dist, n, 2025, t0, t1)
    assert rows.shape == (t1 - t0, n + 1)
    for i, row in enumerate(rows):
        one = noise_rows(dist, n, 2025, t0 + i, t0 + i + 1)[0]
        assert row.tobytes() == one.tobytes()
        key = SeedSpec(2025, trial=t0 + i).key(philox.LANE_XI)
        assert row.tobytes() == philox.variates_block(dist.value, key, n + 1).tobytes()


def test_rademacher_degree_zero_support():
    assert noise_rows(R, 0, 3, 0, 1)[0, 0] in (-1.0, 1.0)


def test_realized_variance_bands():
    # Kac scheme: Var(realized[m]) = 1; 1e4 trials, 3 sigma band ~ [0.95, 1.05]
    trials, n = 10**4, 1000
    picks = np.array([0, 500, 1000])
    acc = np.empty((trials, len(picks)))
    for t in range(trials):
        acc[t] = noise_rows(G, n, 404, t, t + 1)[0, picks]
    v = acc.var(axis=0)
    assert np.all(v > 0.95) and np.all(v < 1.05), v


def test_melnikov_entry_degree_one_hand_value():
    # only alpha_{1,0} and beta_{0,1} survive at d=1:
    # entry_0 = (8 pi)^{-1/2} (alpha_{1,0} a_{0,0} + beta_{0,1} a_{2,0})
    pc = PerturbationCoefficients.from_maps(
        1, {(1, 0): 2.0, (0, 1): 5.0}, {(1, 0): 7.0, (0, 1): 3.0})
    got = melnikov_noise_from_perturbation(pc)
    want = (8 * math.pi) ** -0.5 * (2.0 * trig_moment(0, 0) + 3.0 * trig_moment(2, 0))
    assert got.shape == (1,)
    assert abs(got[0] - want) < 1e-14


def test_melnikov_zero_perturbation():
    pc = PerturbationCoefficients.from_maps(5, {}, {})
    assert np.all(melnikov_noise_from_perturbation(pc) == 0.0)


def test_melnikov_variance_identity_full():
    # Var(c_m xi_m) must equal the perturbed-center variance (3 sigma band)
    d, trials = 201, 10**4
    n = (d - 1) // 2
    acc = np.empty((trials, n + 1))
    for t in range(trials):
        pc = PerturbationCoefficients.sample_full(d, G, SeedSpec(1234, trial=t))
        acc[t] = melnikov_noise_from_perturbation(pc)
    emp = acc.var(axis=0, ddof=1)
    theo = variance_center_many(np.arange(n + 1))
    for m in (1, 10, 50):
        assert 0.9 <= emp[m] / theo[m] <= 1.1, (m, emp[m] / theo[m])
    # distinct entries use disjoint perturbation indices: near-zero correlation
    for (a, b) in ((1, 10), (10, 50), (3, 17)):
        corr = np.corrcoef(acc[:, a], acc[:, b])[0, 1]
        assert abs(corr) <= 0.05, (a, b, corr)


def test_melnikov_lazy_matches_materialized():
    pc = PerturbationCoefficients.sample_full(9, G, SeedSpec(5))
    assert np.allclose(melnikov_noise_from_perturbation(pc),
                       melnikov_noise_from_perturbation(pc.materialized()),
                       rtol=0, atol=0)


# SHA-256 of seeded perturbations: the materialized alpha and beta, and the
# Melnikov reduction of the seeded and the materialized form.  It follows
# the Philox golden streams (tests/test_philox.py), and was pinned again with
# their Gaussian digests when the Box-Muller finish stopped calling the libm.
_PERTURBATION_SHA256 = "33ca4da533af0c056d1fb3bb52e9c005528f6c6c3e716c2810525ae557547ea0"


def test_perturbation_draw_is_pinned():
    h = hashlib.sha256()
    for dist in (G, R, U):
        for d in (1, 2, 3, 5, 7, 21):
            for trial in range(6):
                pc = PerturbationCoefficients.sample_full(d, dist, SeedSpec(70812, trial=trial))
                full = pc.materialized()
                for a in (full.alpha, full.beta, melnikov_noise_from_perturbation(pc),
                          melnikov_noise_from_perturbation(full)):
                    h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert h.hexdigest() == _PERTURBATION_SHA256


def test_lienard_entries():
    pc = PerturbationCoefficients.lienard(np.array([1.0, 0.0, 0.0]))
    got = melnikov_noise_from_lienard(pc)
    assert abs(got[0] - math.sqrt(math.pi) / 2.0) < 1e-14
    assert got[1] == 0.0
    assert np.all(melnikov_noise_from_lienard(
        PerturbationCoefficients.lienard(np.zeros(7))) == 0.0)


def test_lienard_even_indices_never_enter():
    base = PerturbationCoefficients.sample_lienard(11, G, SeedSpec(21))
    modified = np.array(base.alpha)
    modified[1::2] = 123.456  # alpha_2, alpha_4, ... (even indices)
    other = PerturbationCoefficients.lienard(modified)
    assert np.array_equal(melnikov_noise_from_lienard(base),
                          melnikov_noise_from_lienard(other))


def test_lienard_variance_identity():
    d, trials = 201, 10**4
    n = (d - 1) // 2
    acc = np.empty((trials, n + 1))
    for t in range(trials):
        pc = PerturbationCoefficients.sample_lienard(d, G, SeedSpec(77, trial=t))
        acc[t] = melnikov_noise_from_lienard(pc)
    emp = acc.var(axis=0, ddof=1)
    theo = variance_lienard_many(np.arange(n + 1))
    for m in (1, 10, 50):
        assert 0.9 <= emp[m] / theo[m] <= 1.1, (m, emp[m] / theo[m])


def test_pair_bookkeeping():
    assert pair_rank(1, 0) == 0 and pair_rank(0, 1) == 1
    assert pair_rank(2, 0) == 2 and pair_rank(0, 2) == 4
    assert pair_count(1) == 2 and pair_count(2) == 5
    ranks = [pair_rank(s - k, k) for s in range(1, 6) for k in range(s + 1)]
    assert ranks == list(range(pair_count(5)))


def test_perturbation_validation():
    with pytest.raises(DomainError):
        PerturbationCoefficients.from_maps(2, {(3, 0): 1.0}, {})
    with pytest.raises(DomainError):
        PerturbationCoefficients(d=0, kind="full", dist=G, seed=SeedSpec(1))
    with pytest.raises(DomainError):
        melnikov_noise_from_lienard(PerturbationCoefficients.from_maps(1, {}, {}))


def _reduction_weights_by_rows(d):
    # the weights as they were built before the odd double factorial table:
    # one trig_moment_even_row per Melnikov index
    n = (d - 1) // 2
    w = np.empty((n + 1) * (n + 2))
    offsets = np.empty(n + 1, dtype=np.int64)
    for m in range(n + 1):
        start = m * (m + 1)
        offsets[m] = start
        row = trig_moment_even_row(m)
        w[start:start + m + 1] = row[:m + 1]
        w[start + m + 1:start + 2 * (m + 1)] = row[1:m + 2]
    return w, offsets


@pytest.mark.parametrize("d", [1, 2, 3, 7, 2001, 2002])
def test_reduction_weights_equal_the_row_by_row_build(d):
    w, offsets = sampler._reduction_weights(d)
    w_ref, offsets_ref = _reduction_weights_by_rows(d)
    assert w.tobytes() == w_ref.tobytes()
    assert np.array_equal(offsets, offsets_ref)
