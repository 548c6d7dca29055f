import math

import numpy as np
import pytest

from kaccycles import rootcount
from kaccycles.coeffs import CoeffScheme, coeff_vector
from kaccycles.errors import DegreeTooLargeError, DomainError, ZeroPolynomialError
from kaccycles.rootcount import (Interval, count_in_interval, real_roots,
                                 reversed_poly, sturm_count, sweep_count)
from kaccycles.sampler import NoiseDistribution, SeedSpec, sample_polynomial


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

def test_interval_parse_and_contains():
    iv = Interval.parse("0,1")
    assert not iv.closed_lo and not iv.closed_hi
    assert iv.contains(0.5) and not iv.contains(0.0) and not iv.contains(1.0)
    iv = Interval.parse("[0, 1]")
    assert iv.contains(0.0) and iv.contains(1.0)
    iv = Interval.parse("-inf,inf")
    assert iv.contains(-1e300)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(-math.inf, 0.0, closed_lo=True)


# ---------------------------------------------------------------------------
# companion path
# ---------------------------------------------------------------------------

def test_real_roots_trivial_cases():
    rep = real_roots([-1.0, 0.0, 1.0])           # x^2 - 1
    assert rep.count == 2
    assert np.allclose(rep.roots, [-1.0, 1.0], atol=1e-12)
    assert real_roots([1.0, 0.0, 1.0]).count == 0  # x^2 + 1
    rep = real_roots([5.0])
    assert rep.count == 0 and not rep.zero_polynomial


def test_zero_polynomial_is_flagged_not_raised():
    rep = real_roots([0.0, 0.0, 0.0])
    assert rep.count == 0 and rep.zero_polynomial


def test_roots_at_origin_from_trailing_zeros():
    rep = real_roots([0.0, 0.0, 1.0])            # x^2
    assert rep.count == 2
    assert np.allclose(rep.roots, [0.0])
    assert rep.multiplicities.tolist() == [2]


def test_count_in_interval_examples():
    c = np.array([1 / 8, -3 / 4, 1.0])           # (x-1/2)(x-1/4)
    assert count_in_interval(c, Interval(0, 1)).count == 2
    c = np.array([-6.0, 1.0, 1.0])               # (x-2)(x+3)
    assert count_in_interval(c, Interval(0, 1)).count == 0


def test_endpoint_membership_after_polish():
    c = np.array([-1.0, 0.0, 1.0])               # roots exactly +-1
    assert count_in_interval(c, Interval(0, 1)).count == 0
    assert count_in_interval(c, Interval(0, 1, closed_hi=True)).count == 1
    assert count_in_interval(c, Interval(1, math.inf)).count == 0


def test_residual_bound(rng):
    for _ in range(50):
        c = rng.integers(-100, 101, rng.integers(3, 30)).astype(float)
        if not np.any(c):
            continue
        rep = real_roots(np.trim_zeros(c, "b"))
        assert rep.max_residual <= 1e-6


def test_mirror_symmetry_exact(rng):
    for _ in range(25):
        c = rng.standard_normal(rng.integers(2, 40))
        neg = count_in_interval(c, Interval(-math.inf, 0.0)).count
        mirrored = c * (-1.0) ** np.arange(len(c))
        pos = count_in_interval(mirrored, Interval(0.0, math.inf)).count
        assert neg == pos


# ---------------------------------------------------------------------------
# Sturm oracle
# ---------------------------------------------------------------------------

def test_sturm_examples():
    assert sturm_count([0, -1, 0, 1], Interval(-2, 2)) == 3          # x^3 - x
    assert sturm_count([1, -2, 1], Interval(0, 2)) == 2              # (x-1)^2
    assert sturm_count([1, -3, 0, 0, 0, 1], Interval.reals()) == 3   # x^5 - 3x + 1


def test_sturm_endpoint_and_multiplicity_semantics():
    assert sturm_count([1, -2, 1], Interval(1, 2)) == 0
    assert sturm_count([1, -2, 1], Interval(1, 2, closed_lo=True)) == 2
    assert sturm_count([1, -2, 1], Interval(0, 1)) == 0
    assert sturm_count([1, -2, 1], Interval(0, 1, closed_hi=True)) == 2
    assert sturm_count([0, -1, 0, 1], Interval(-1, 1)) == 1
    assert sturm_count([0, -1, 0, 1],
                       Interval(-1, 1, closed_lo=True, closed_hi=True)) == 3
    # (x-1)^2 (x-3) with multiplicity
    assert sturm_count([-3, 7, -5, 1], Interval.reals()) == 3


def test_sturm_guards():
    with pytest.raises(ZeroPolynomialError):
        sturm_count([0, 0], Interval(0, 1))
    with pytest.raises(DegreeTooLargeError):
        sturm_count([1] * 70, Interval(0, 1))


def test_companion_agrees_with_sturm(rng):
    intervals = [Interval.reals(), Interval(0, 1), Interval(1, math.inf),
                 Interval(-1, 0)]
    for _ in range(150):
        deg = int(rng.integers(1, 51))
        c = rng.integers(-100, 101, deg + 1)
        if not np.any(c):
            continue
        cf = np.trim_zeros(c.astype(float), "b")
        if len(cf) < 2:
            continue
        ci = [int(x) for x in cf]
        for iv in intervals:
            assert count_in_interval(cf, iv).count == sturm_count(ci, iv), (ci, iv)


# ---------------------------------------------------------------------------
# reversal
# ---------------------------------------------------------------------------

def test_reversal_examples():
    rev = reversed_poly([1.0, 0.0, -4.0])        # roots +-1/2 -> +-2
    rep = real_roots(rev)
    assert np.allclose(np.sort(rep.roots), [-2.0, 2.0], atol=1e-10)
    pal = np.array([2.0, -5.0, 2.0])             # palindromic
    assert np.allclose(reversed_poly(pal), pal)


def test_reversal_bijection_and_involution(rng):
    for _ in range(30):
        c = rng.standard_normal(21)
        a = count_in_interval(c, Interval(1.0, math.inf)).count
        b = count_in_interval(reversed_poly(c), Interval(0.0, 1.0)).count
        assert a == b
        back = reversed_poly(reversed_poly(c))
        for iv in (Interval(0.25, 0.75), Interval(1.5, 4.0), Interval(-2.0, -0.5)):
            assert (count_in_interval(back, iv).count
                    == count_in_interval(c, iv).count)


def test_reversed_coeff_vector_normalized():
    cv = coeff_vector(CoeffScheme.perturbed_center(), 6)
    rev = reversed_poly(cv)
    assert abs(rev[-1] - cv.values[0] / cv.values[-1]) < 1e-15
    assert abs(rev[0] - 1.0) < 1e-15


def test_reversed_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        reversed_poly([0.0, 0.0])


# ---------------------------------------------------------------------------
# sweep counter
# ---------------------------------------------------------------------------

def _companion_counts(c, *intervals):
    """count_in_interval over several intervals from one eigenvalue solve."""
    rep = real_roots(c)
    return [int(sum(m for r, m in zip(rep.roots, rep.multiplicities)
                    if iv.contains(r))) for iv in intervals]


def test_sweep_matches_companion_on_realized_ensembles():
    # exact agreement on both sides for the scheme the Monte Carlo runs use
    scheme = CoeffScheme.perturbed_center()
    for trial in range(120):
        p = sample_polynomial(scheme, NoiseDistribution.GAUSSIAN, 400,
                              SeedSpec(31415, trial=trial))
        in01, in1inf = _companion_counts(p.realized, Interval(0, 1),
                                         Interval(1, math.inf))
        assert sweep_count(p.realized, "01") == in01, trial
        assert sweep_count(p.realized, "1inf") == in1inf, trial


def test_sweep_matches_companion_other_schemes():
    for scheme, dist in ((CoeffScheme.power_law(0.0), NoiseDistribution.RADEMACHER),
                         (CoeffScheme.power_law(-1.0), NoiseDistribution.GAUSSIAN),
                         (CoeffScheme.power_law(0.5), NoiseDistribution.UNIFORM_SYM)):
        for trial in range(40):
            p = sample_polynomial(scheme, dist, 300, SeedSpec(27182, trial=trial))
            in01, in1inf = _companion_counts(p.realized, Interval(0, 1),
                                             Interval(1, math.inf))
            assert sweep_count(p.realized, "01") == in01
            assert sweep_count(p.realized, "1inf") == in1inf


def test_sweep_root_at_zero_is_outside_the_spans():
    # f = x (x/2 - 1): f(0) = 0 and f < 0 on (0, 1); the sign right of 0 is
    # that of the lowest nonzero coefficient, so (0, 1) holds no root
    c = np.array([0.0, -1.0, 0.5])
    assert count_in_interval(c, Interval(0, 1)).count == 0
    assert sweep_count(c, "01") == 0
    # the mirror: f = x (x/2 + 1) has f(-x) < 0 on (0, 1), and no root in (-1, 0)
    c = np.array([0.0, 1.0, 0.5])
    assert count_in_interval(c, Interval(-1, 0)).count == 0
    t = rootcount.sweep_grid(2)
    got = rootcount.sweep_count_batch(c, t, mirror_spans=[(0, len(t) - 1)])
    assert got.tolist() == [[0, 0]]
    # a root of order 2 at 0 with a simple root at 1/2 beside it
    c = np.array([0.0, 0.0, -0.5, 1.0])
    assert sweep_count(c, "01") == count_in_interval(c, Interval(0, 1)).count == 1


def test_sweep_counts_root_beyond_last_grid_point():
    # the grid stops at t = log(100) + 9, i.e. x = 1 - 1.2e-6; a root at
    # x = 0.999999 lies past it and is seen only through the sign of f(1)
    rng = np.random.default_rng(5)
    q = coeff_vector(CoeffScheme.perturbed_center(), 99).values * rng.standard_normal(100)
    c = np.polynomial.polynomial.polymul([-0.999999, 1.0], q)
    assert len(c) == 101
    companion = count_in_interval(c, Interval(0, 1))
    assert np.any(np.abs(companion.roots - 0.999999) < 1e-9)
    assert sweep_count(c, "01") == companion.count


def test_extremum_bisection_finds_hidden_pair():
    # f = (x - 1/2)^2 - delta: a like-signed cell around x = 1/2 holds two
    # roots when delta > 0 and none when delta < 0
    t = -np.log1p(-np.array([0.4, 0.6]))
    for delta, want in ((1e-8, 2), (-1e-8, 0)):
        c = np.array([0.25 - delta, -1.0, 1.0])
        deriv = np.array([-1.0, 2.0])
        assert rootcount._extremum_exact(c, deriv, t, 1, -1, 0) == want


def _center_rows(n, count, seed):
    rng = np.random.default_rng(seed)
    values = coeff_vector(CoeffScheme.perturbed_center(), n).values
    return values[None, :] * rng.standard_normal((count, n + 1))


def _mirror(c):
    return c * (-1.0) ** np.arange(c.shape[-1])


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 400])
def test_sweep_mirror_columns_count_the_mirrored_rows(n):
    c = _center_rows(n, 40, 100 + n)
    # a pinned inner span, as the core-interval regions use
    t = rootcount.sweep_grid(n, extra_points=[0.7, 2.3])
    lo, hi = int(np.searchsorted(t, 0.7)), int(np.searchsorted(t, 2.3))
    spans = [(0, len(t) - 1), (lo, hi), (hi, len(t) - 1)]
    got = rootcount.sweep_count_batch(c, t, spans=spans[:2], mirror_spans=spans)
    assert got.shape == (40, 5)
    assert np.array_equal(got[:, :2],
                          rootcount.sweep_count_batch(c, t, spans=spans[:2]))
    assert np.array_equal(got[:, 2:],
                          rootcount.sweep_count_batch(_mirror(c), t, spans=spans))
    for row, count in zip(c[:16], got[:16, 2]):
        assert count == count_in_interval(row, Interval(-1.0, 0.0)).count


def test_sweep_mirror_counts_root_beyond_last_grid_point():
    # the mirror of test_sweep_counts_root_beyond_last_grid_point: the root
    # at x = -0.999999 is seen only through the sign of f(-1)
    t = rootcount.sweep_grid(100)
    for seed in range(5, 11):
        rng = np.random.default_rng(seed)
        q = (coeff_vector(CoeffScheme.perturbed_center(), 99).values
             * rng.standard_normal(100))
        c = np.polynomial.polynomial.polymul([0.999999, 1.0], q)
        companion = count_in_interval(c, Interval(-1.0, 0.0))
        assert np.any(np.abs(companion.roots + 0.999999) < 1e-9)
        got = rootcount.sweep_count_batch(c, t, spans=[],
                                          mirror_spans=[(0, len(t) - 1)])
        assert got.shape == (1, 1)
        assert got[0, 0] == companion.count, seed


@pytest.mark.parametrize("n", [1, 3, 65, 401])
def test_sweep_reversed_mirror_matches_mirror_then_reverse(n):
    # at odd n the mirror of the reversed rows is -1 times the reversed mirror
    c = _center_rows(n, 40, 200 + n)
    t = rootcount.sweep_grid(n)
    spans = [(0, len(t) - 1)]
    rev_mirror = rootcount.sweep_count_batch(c[:, ::-1], t, spans=[],
                                             mirror_spans=spans)
    mirror_rev = rootcount.sweep_count_batch(_mirror(c)[:, ::-1], t, spans=spans)
    assert np.array_equal(rev_mirror, mirror_rev)


def test_sweep_counts_do_not_see_a_row_sign():
    for n in (2, 64, 65, 400):
        c = _center_rows(n, 40, 300 + n)
        t = rootcount.sweep_grid(n, extra_points=[0.7, 2.3])
        spans = [(0, len(t) - 1), (int(np.searchsorted(t, 0.7)),
                                   int(np.searchsorted(t, 2.3)))]
        assert np.array_equal(
            rootcount.sweep_count_batch(c, t, spans=spans, mirror_spans=spans),
            rootcount.sweep_count_batch(-c, t, spans=spans, mirror_spans=spans))
