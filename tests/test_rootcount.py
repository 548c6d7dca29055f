import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from kaccycles import experiment, kacrice, philox, rootcount
from kaccycles.coeffs import CoeffScheme, coeff_vector
from kaccycles.errors import DegreeTooLargeError, DomainError, ZeroPolynomialError
from kaccycles.experiment import ExperimentConfig, run_experiment
from kaccycles.kacrice import REGIONS, _reversed_values, region_interval
from kaccycles.rootcount import (Interval, count_in_interval, real_roots,
                                 sturm_count, sweep_roots)
from kaccycles.sampler import NoiseDistribution, noise_rows


@pytest.mark.parametrize("module", [kacrice, rootcount], ids=lambda m: m.__name__)
def test_all_lists_only_names_that_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


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
    # (x - 1/2)(x - 1) has two roots in (0, 2); a non-integral coefficient
    # is refused, not truncated
    for bad in ([0.5, -1.5, 1], [math.nan, 1], [1, math.inf]):
        with pytest.raises(DomainError):
            sturm_count(bad, Interval(0, 2))
    assert sturm_count([1, -3, 2], Interval(0, 2)) == 2
    assert sturm_count([1.0, np.int64(-3), 2.0], Interval(0, 2)) == 2


def test_sturm_counts_known_dyadic_factors():
    """Products of (q x - u)^k with q in {1, 2, 4, 8}, some times a root-free
    x^2 + a, counted on intervals whose float ends sit on roots and off them;
    the expected count is read from the factor list."""
    rng = np.random.default_rng(32)
    for _ in range(48):
        poly, roots = [1], []
        if rng.random() < 0.3:
            poly = [int(rng.integers(1, 10)), 0, 1]
        for _ in range(int(rng.integers(1, 17))):
            q, k = int(rng.choice([1, 2, 4, 8])), int(rng.integers(1, 5))
            u = int(rng.integers(-3 * q, 3 * q + 1))
            if len(poly) - 1 + k > 64:
                break
            roots.append((u / q, k))
            for _ in range(k):
                poly = [q * b - u * a for a, b in zip(poly + [0], [0] + poly)]
        ends = [r for r, _ in roots] + [r + d for r, _ in roots for d in (-1 / 16, 3 / 8)]
        ends += [float(x) for x in rng.uniform(-4, 4, 3)] + [-math.inf, math.inf]
        for _ in range(12):
            lo, hi = sorted(float(x) for x in rng.choice(ends, 2))
            closed_lo, closed_hi = (bool(b) for b in rng.integers(0, 2, 2))
            iv = Interval(lo, hi, closed_lo and math.isfinite(lo),
                          closed_hi and math.isfinite(hi))
            want = sum(k for r, k in roots if iv.contains(r))
            assert sturm_count(poly, iv) == want, (roots, iv)


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
# reversal d_m = c_{n-m} / c_n, as the Kac-Rice pieces in (1, inf) take it
# ---------------------------------------------------------------------------

def test_reversal_examples():
    rev = _reversed_values(np.array([1.0, 0.0, -4.0]))   # roots +-1/2 -> +-2
    rep = real_roots(rev)
    assert np.allclose(np.sort(rep.roots), [-2.0, 2.0], atol=1e-10)
    pal = np.array([2.0, -5.0, 2.0])             # palindromic
    assert np.allclose(_reversed_values(pal), pal / 2.0)
    # trailing zeros lower the degree
    assert np.array_equal(_reversed_values(np.array([1.0, 0.5, 0.0])), [1.0, 2.0])


def test_reversal_bijection_and_involution(rng):
    for _ in range(30):
        c = rng.standard_normal(21)
        a = count_in_interval(c, Interval(1.0, math.inf)).count
        b = count_in_interval(_reversed_values(c), Interval(0.0, 1.0)).count
        assert a == b
        back = _reversed_values(_reversed_values(c))
        for iv in (Interval(0.25, 0.75), Interval(1.5, 4.0), Interval(-2.0, -0.5)):
            assert (count_in_interval(back, iv).count
                    == count_in_interval(c, iv).count)


def test_reversed_coeff_vector_normalized():
    cv = coeff_vector(CoeffScheme.perturbed_center(), 6)
    rev = _reversed_values(cv.values)
    assert abs(rev[-1] - cv.values[0] / cv.values[-1]) < 1e-15
    assert abs(rev[0] - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# sweep counter
# ---------------------------------------------------------------------------

def _companion_counts(c, *intervals):
    """count_in_interval over several intervals from one eigenvalue solve."""
    rep = real_roots(c)
    return [int(sum(m for r, m in zip(rep.roots, rep.multiplicities)
                    if iv.contains(r))) for iv in intervals]


def _realized(scheme, dist, n, seed, t0, t1):
    """Realized coefficient rows c_m xi_m of trials [t0, t1)."""
    return noise_rows(dist, n, seed, t0, t1) * coeff_vector(scheme, n).values


def _sides(c):
    """sweep_roots' counts in (0, 1) and in (1, inf)."""
    x = sweep_roots(c)[0]
    return int(np.sum(x < 1.0)), int(np.sum(x > 1.0))


def test_sweep_matches_companion_on_realized_ensembles():
    # exact agreement on both sides for the scheme the Monte Carlo runs use
    scheme = CoeffScheme.perturbed_center()
    rows = _realized(scheme, NoiseDistribution.GAUSSIAN, 400, 31415, 0, 120)
    for trial, realized in enumerate(rows):
        in01, in1inf = _companion_counts(realized, Interval(0, 1), Interval(1, math.inf))
        assert _sides(realized) == (in01, in1inf), trial


def test_sweep_matches_companion_other_schemes():
    for scheme, dist in ((CoeffScheme.power_law(0.0), NoiseDistribution.RADEMACHER),
                         (CoeffScheme.power_law(-1.0), NoiseDistribution.GAUSSIAN),
                         (CoeffScheme.power_law(0.5), NoiseDistribution.UNIFORM_SYM)):
        for realized in _realized(scheme, dist, 300, 27182, 0, 40):
            in01, in1inf = _companion_counts(realized, Interval(0, 1),
                                             Interval(1, math.inf))
            assert _sides(realized) == (in01, in1inf)


def test_sweep_root_at_zero_is_outside_the_spans():
    # f = x (x/2 - 1): f(0) = 0 and f < 0 on (0, 1); the sign right of 0 is
    # that of the lowest nonzero coefficient, so (0, 1) holds no root
    c = np.array([0.0, -1.0, 0.5])
    assert count_in_interval(c, Interval(0, 1)).count == 0
    assert _sides(c)[0] == 0
    # the mirror: f = x (x/2 + 1) has f(-x) < 0 on (0, 1), and no root in (-1, 0)
    c = np.array([0.0, 1.0, 0.5])
    assert count_in_interval(c, Interval(-1, 0)).count == 0
    t = rootcount.sweep_grid(2)
    got = rootcount.sweep_count_batch(c, t, mirror_spans=[(0, len(t) - 1)])
    assert got.tolist() == [[0, 0]]
    # a root of order 2 at 0 with a simple root at 1/2 beside it
    c = np.array([0.0, 0.0, -0.5, 1.0])
    assert _sides(c)[0] == count_in_interval(c, Interval(0, 1)).count == 1


def test_sweep_counts_root_beyond_last_grid_point():
    # the last finite grid point is t = log(100) + 9, i.e. x = 1 - 1.2e-6; a
    # root at x = 0.999999 lies past it, in the last cell, which runs on to 1
    rng = np.random.default_rng(5)
    q = coeff_vector(CoeffScheme.perturbed_center(), 99).values * rng.standard_normal(100)
    c = np.polynomial.polynomial.polymul([-0.999999, 1.0], q)
    assert len(c) == 101
    companion = count_in_interval(c, Interval(0, 1))
    assert np.any(np.abs(companion.roots - 0.999999) < 1e-9)
    assert _sides(c)[0] == companion.count


def test_sweep_certifies_a_root_near_zero_without_deep_bisection(monkeypatch):
    # f = -1e-7 + 1e-5 x + sum_{m >= 500} x^m rises through one root at
    # x = 0.01, where f' = 1e-5 and the terms from x^500 on vanish; a bound
    # ||m c||_1 (1 + 1/x) u (n + 22) = 1.5e-4 on the rounding of f' there
    # would certify no piece around the root at any scale.  The bounds
    # follow f down to x = 0.
    c = np.ones(3001)
    c[:500] = 0.0
    c[:2] = -1e-7, 1e-5
    points = []
    evaluate = rootcount._point_values

    def counted(c, rows, r, x):
        points.append(len(r))
        return evaluate(c, rows, r, x)

    monkeypatch.setattr(rootcount, "_point_values", counted)
    for row in (c, -c):
        x, simple = sweep_roots(row)
        assert len(x) == 1 and abs(x[0] - 0.01) < 1e-12 and simple[0]
    assert sum(points) <= 64, points


def test_sweep_roots_flags_a_double_root():
    # (1 - 4x)^2: a double root at 1/4, which the sweep counts twice, as a
    # cluster; the reversed row (x - 4)^2 has no root in (0, 1)
    x, simple = sweep_roots([1.0, -8.0, 16.0])
    assert np.allclose(x, [0.25, 0.25], rtol=1e-7, atol=0.0)
    assert not simple.any()


def test_sweep_roots_exact_root_at_one():
    # x^2 - 1 = (x - 1)(x + 1): the root at 1 is exact and simple;
    # -(x - 1)^2 (x + 1) has a double root there
    assert [v.tolist() for v in sweep_roots([-1.0, 0.0, 1.0])] == [[1.0], [True]]
    assert [v.tolist() for v in sweep_roots([-1.0, 1.0, 1.0, -1.0])] == [[1.0, 1.0],
                                                                       [False, False]]
    with pytest.raises(ZeroPolynomialError):
        sweep_roots([0.0, 0.0])


def test_sweep_counts_hidden_pair():
    # f = (x - 1/2)^2 - delta: the cell around x = 1/2 has f > 0 at both
    # ends and holds two simple roots 1/2 +- 1e-4 when delta = 1e-8, none
    # when delta < 0
    for delta, want in ((1e-8, [0.5 - 1e-4, 0.5 + 1e-4]), (-1e-8, [])):
        c = np.array([0.25 - delta, -1.0, 1.0])
        for row in (c, -c):
            x, simple = sweep_roots(row)
            assert np.allclose(x, want, rtol=1e-10, atol=0.0), (delta, row)
            assert simple.all()


@pytest.mark.parametrize("t0", [0.7, 1.2, 2.0, 4.0])
def test_sweep_counts_a_bump_inside_one_cell(t0):
    # f = eps - D (1 - u^2)^2, u = (x - mid)/w, dips inside the SWEEP_STEP
    # wide cell that holds t0 (narrower than the degree-4 grid's tail cells):
    # f(mid) < 0, f(mid +- w) = eps > 0 and f < 0 beyond, so exact rational
    # values change sign four times
    t = rootcount.sweep_grid(4)
    cells = np.arange(0.0, t0 + 2.0 * rootcount.SWEEP_STEP, rootcount.SWEEP_STEP)
    x = 1.0 - np.exp(-cells)
    cell = int(np.searchsorted(cells, t0, side="right")) - 1
    mid, w = 0.5 * (x[cell] + x[cell + 1]), 0.4 * (x[cell + 1] - x[cell])
    u = np.polynomial.Polynomial([-mid / w, 1.0 / w])
    c = (1e-6 - 1e-3 * (1.0 - u ** 2) ** 2).coef
    exact = [sum(Fraction(v) * Fraction(p) ** m for m, v in enumerate(c))
             for p in (mid - 1.1 * w, mid - w, mid, mid + w, mid + 1.1 * w)]
    assert sum((a > 0) != (b > 0) for a, b in zip(exact, exact[1:])) == 4
    x, simple = sweep_roots(c)
    assert len(x) == 4 and np.all(x < 1.0)
    pts = (mid - 1.1 * w, mid - w, mid, mid + w, mid + 1.1 * w)
    if t0 == 4.0:
        # the float coefficients reach 6e10 there, and their rounding bound
        # covers the 1e-6 bump: two clusters, one in each half of the dip
        assert not simple.any()
        assert x[0] == x[1] and pts[0] < x[0] < pts[2]
        assert x[2] == x[3] and pts[2] < x[2] < pts[4]
    else:
        # one simple root between each pair of points where f changes sign
        assert simple.all()
        assert all(a < r < b for r, a, b in zip(x, pts, pts[1:])), x
    got = rootcount.sweep_count_batch(_mirror(c), t, spans=[],
                                      mirror_spans=[(0, len(t) - 1)])
    assert got.tolist() == [[4]]


@pytest.mark.parametrize("t0", [0.7, 1.2])
@pytest.mark.parametrize("shape", ["pair", "inflection"])
def test_sweep_certificate_bounds_the_hermite_remainder(shape, t0):
    # f = H + c4 (x - a)^2 (x - b)^2 on the cell [a, b] of the degree-4 grid
    # that holds t0, H the cubic Hermite interpolant of f at a and b.  For
    # "pair", H = 1 and f(mid) = -1: two roots inside a cell with f > 0 at
    # both ends.  For "inflection", H rises through the cell and f has three
    # roots in it.  The cubic model alone calls the first cell zero-free
    # and the second monotone; the remainder bounds m4 dx^4/384 on f and
    # m4 dx^3/24 on f' keep both open
    t = rootcount.sweep_grid(4)
    x = 1.0 - np.exp(-t)
    cell = int(np.searchsorted(t, t0, side="right")) - 1
    a, b = x[cell], x[cell + 1]
    h = 0.5 * (b - a)
    bump = P.polyfromroots([a, a, b, b])
    if shape == "pair":
        c, inside = P.polysub([1.0], 2.0 / h ** 4 * bump), 2
    else:
        c, inside = P.polyadd([h / 200.0 - b, 1.0], 4.0 / h ** 3 * bump), 3
    want = real_roots(c).roots
    assert len(want) == 4 and np.all((0.0 < want) & (want < 1.0))
    assert np.sum((a < want) & (want < b)) == inside
    for row in (c, -c):
        got, simple = sweep_roots(row)
        assert np.allclose(got, want, rtol=1e-6, atol=0.0) and simple.all(), got
        assert rootcount.sweep_count_batch(row, t).tolist() == [[4]]


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
    # at x = -0.999999 lies in the mirror's last cell, which runs on to -1
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
    # a double root at x = 1/2, which floating point cannot split: +-(2x-1)^2
    # and +-(2x-1)^2 (x-2) count it twice on (0, 1), as Sturm does
    for c in ([1, -4, 4], [-2, 9, -12, 4]):
        want = sturm_count(c, Interval(0, 1))
        assert want == 2
        for row in (np.array(c, dtype=float), -np.array(c, dtype=float)):
            assert _sides(row)[0] == want, row


def _uniform_grid(n, extra_points=()):
    """The sweep grid without its doubling tail: steps of SWEEP_STEP out to
    log n + SWEEP_TAIL, the pinned points, and t = inf."""
    t_hi = math.log(max(n, 2)) + rootcount.SWEEP_TAIL
    base = np.arange(0.0, t_hi + rootcount.SWEEP_STEP, rootcount.SWEEP_STEP)
    pts = np.unique(np.concatenate([base, extra_points, [0.0, t_hi]]))
    return np.append(pts[pts <= t_hi], np.inf)


@pytest.mark.parametrize("dist", list(NoiseDistribution), ids=lambda d: d.value)
def test_sweep_counts_do_not_depend_on_the_grid_step(monkeypatch, dist):
    # every cell is certified or bisected on its row, so the grid spacing
    # sets the cost of a count, not the count.  Four more rows carry a root
    # pair around t = 0.78, a point of the 0.02 grid alone: on the coarser
    # grids one cell holds both roots, and f has one sign at its ends.  The
    # last reference keeps the 0.08 step out to log n + SWEEP_TAIL, where
    # the shipped grid doubles its steps past log n + 1/2
    sweep_grid = rootcount.sweep_grid
    for n in (1, 4, 100, 30000):
        log_n = math.log(max(n, 2))
        t = sweep_grid(n)
        assert t[0] == 0.0 and np.all(np.diff(t) > 0.0), n
        assert t[-2] == log_n + rootcount.SWEEP_TAIL and t[-1] == np.inf, n
        assert np.count_nonzero(t > log_n + 0.5) <= 8, n
        pinned = [0.7, 2.3, log_n + 2.0]
        assert np.isin(pinned, sweep_grid(n, extra_points=pinned)).all(), n
    scheme = CoeffScheme.perturbed_center()
    x0 = 1.0 - math.exp(-0.78)
    pair = P.polyfromroots([x0 - 1e-3, x0 + 1e-3])
    got = {}
    for step, grid in ((0.02, sweep_grid), (0.04, sweep_grid), (0.08, sweep_grid),
                       (0.16, sweep_grid), (0.08, _uniform_grid)):
        monkeypatch.setattr(rootcount, "SWEEP_STEP", step)
        monkeypatch.setattr(rootcount, "sweep_grid", grid)
        for n in (10, 64, 1000):
            c = _realized(scheme, dist, n, 41, 0, 12)
            c = np.concatenate([c, [P.polymul(row, pair) for row in c[:4, :-2]]])
            t = rootcount.sweep_grid(n, extra_points=[0.7, 2.3])
            lo, hi = int(np.searchsorted(t, 0.7)), int(np.searchsorted(t, 2.3))
            spans = [(0, len(t) - 1), (lo, hi), (hi, len(t) - 1)]
            roots = [sweep_roots(row) for row in c]
            got.setdefault(n, []).append((
                [rootcount.sweep_count_batch(rows, t, spans=spans, mirror_spans=spans)
                 for rows in (c, c[:, ::-1])],
                [len(x) for x, _ in roots], [simple.tolist() for _, simple in roots]))
    for n, runs in got.items():
        for batch, count, simple in runs[1:]:
            assert all(np.array_equal(u, v) for u, v in zip(batch, runs[0][0])), n
            assert (count, simple) == runs[0][1:], n


@pytest.mark.parametrize("n", [0, 1, 2, 3, 100, 30000])
def test_power_matrix_holds_the_even_powers_flushed(n):
    t = rootcount.sweep_grid(n, extra_points=[0.7])
    pw = rootcount.power_matrix(n, t)
    assert pw.shape == (n // 2 + 1, len(t)) and pw.flags.c_contiguous
    x = 1.0 - np.exp(-t)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.exp(2.0 * np.arange(n // 2 + 1)[:, None] * np.log(x))
    want[want < 1e-300] = 0.0
    want[0] = 1.0
    assert np.array_equal(pw, want)
    # exact 1 in row 0 and at t = inf (x = 1), exact 0 at t = 0 below row 0,
    # and nothing left in (0, 1e-300)
    assert np.all(pw[0] == 1.0) and np.all(pw[:, -1] == 1.0) and not pw[1:, 0].any()
    assert not np.any((pw > 0.0) & (pw < 1e-300))


def test_odd_powers_from_the_even_ones_stay_within_the_rounding_bound():
    # x times the stored x^(2j) against exp((2j + 1) log x) in extended
    # precision: within 8.01u + 9.02u m |log x| relatively, m = 2j + 1, plus
    # the u of the product with x (sweep_count_batch's rounding paragraph),
    # and 1e-300 where x^(2j) was flushed
    n, u = 30000, 2.0 ** -53
    t = rootcount.sweep_grid(n)[1:]          # x > 0, so that log x is finite
    x = 1.0 - np.exp(-t)
    pw = rootcount.power_matrix(n, t)
    j = np.random.default_rng(9).choice(n // 2, 200, replace=False)
    m = 2.0 * j[:, None] + 1.0
    exact = np.exp(m.astype(np.longdouble) * np.log(x.astype(np.longdouble)))
    bound = (9.01 * u + 9.02 * u * m * np.abs(np.log(x))) * exact + 1e-300
    err = np.abs((x * pw[j]).astype(np.longdouble) - exact)
    assert np.all(err <= bound)
    assert np.count_nonzero(pw[j]) > len(j)      # not every entry is flushed


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_sweep_parity_edges_equal_sturm_on_integer_rows(n):
    # every integer row with entries in -2..2 but zero: c_0 = 0, a zero top
    # coefficient, exact roots at 1 and -1, no odd coefficient at n = 0 and
    # one odd coefficient only at n = 1 and 2
    rows = np.array(np.meshgrid(*[np.arange(-2.0, 3.0)] * (n + 1))).reshape(n + 1, -1).T
    rows = rows[rows.any(axis=1)]
    assert n == 0 or np.any(rows[:, 0] == 0.0)
    t = rootcount.sweep_grid(n, extra_points=[0.7])
    k = int(np.searchsorted(t, 0.7))
    spans = [(0, len(t) - 1), (0, k), (k, len(t) - 1)]
    x = 1.0 - math.exp(-0.7)
    ivs = [Interval(0.0, 1.0), Interval(0.0, x), Interval(x, 1.0)]
    got = rootcount.sweep_count_batch(rows, t, spans=spans, mirror_spans=spans)
    for row, counts in zip(rows, got):
        want = [sturm_count(row, iv) for iv in ivs]
        want += [sturm_count(row, Interval(-iv.hi, -iv.lo)) for iv in ivs]
        assert counts.tolist() == want, row
    # the majorants weigh the batch maximum of |c_m|; alone, the row's own
    for i in range(0, len(rows), 7):
        alone = rootcount.sweep_count_batch(rows[i], t, spans=spans, mirror_spans=spans)
        assert np.array_equal(alone[0], got[i]), rows[i]


# ---------------------------------------------------------------------------
# exact roots at +-1, counted with multiplicity by both methods
# ---------------------------------------------------------------------------

_POINT_REGIONS = ["01", "pos", "sym", "R"]


def _deflate_with_powers(c, r):
    # reference: the synthetic division with the signs r^m taken as powers
    mult = 0
    while len(c) > 1:
        sign = r ** np.arange(len(c))
        cs = c * sign
        if cs.sum() != 0.0:
            break
        c = sign[1:] * np.cumsum(cs[:0:-1])[::-1]
        mult += 1
    return c, mult


def test_deflate_exact_root_matches_the_power_form():
    x1, xm = np.array([-1.0, 1.0]), np.array([1.0, 1.0])
    rng = np.random.default_rng(11)
    rows = [P.polymul(P.polymul(x1, x1), P.polymul(xm, [2.0, -3.0, 5.0])),
            P.polymul(P.polymul(xm, xm), P.polymul(xm, x1)),
            rng.choice([-1.0, 1.0], size=22), rng.normal(size=9), np.array([4.0])]
    rows += [rng.choice([-1.0, 1.0], size=n) for n in range(2, 30)]
    for c in rows:
        for r in (1.0, -1.0):
            got, want = rootcount.deflate_exact_root(c, r), _deflate_with_powers(c, r)
            assert got[1] == want[1] and np.array_equal(got[0], want[0]), (c, r)
    shifted = np.concatenate([[0.0, 0.0], rows[0]])
    hit, rests, _, mult = rootcount.exact_roots(np.stack([shifted, np.zeros(8), shifted[::-1]]))
    assert mult.tolist() == [[2, 2, 1], [0, 0, 0], [0, 2, 1]] and hit.tolist() == [0, 1, 2]
    assert np.array_equal(rests[0], [2.0, -3.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_exact_roots_of_integer_rows_in_row_blocks(monkeypatch):
    # integer rows of degree 8 with exact roots at 0, 1 and -1, the zero
    # row among them, 7 rows in blocks of 3: the last block is partial.
    # Each row's multiplicities and quotients are those of the row alone
    monkeypatch.setattr(rootcount, "_BLOCK", 3 * 9)
    free = [2, 0, 1]        # 2 + x^2: no root at 0, 1 or -1
    want = [(0, 1, 1), (1, 2, 1), (0, 0, 3), (2, 1, 2), (0, 0, 0), (3, 1, 0), (0, 3, 2)]
    rows = []
    for z, a, b in want:
        c = P.polymul(free, P.polyfromroots([1] * a + [-1] * b + [0] * z)) if a + b + z else free
        rows.append(np.pad(np.rint(c).astype(np.int64), (0, 9 - len(c))))
    rows[4] = np.zeros(9, dtype=np.int64)
    rows = np.stack(rows)
    assert rows.dtype == np.int64 and len(rows) % 3 != 0
    hit, direct, rev, mult = rootcount.exact_roots(rows)
    assert mult.tolist() == [list(w) for w in want] and hit.tolist() == list(range(len(rows)))
    for i, row in enumerate(rows):
        h1, d1, r1, m1 = rootcount.exact_roots(row[None, :])
        assert h1.tolist() == [0]
        assert np.array_equal(d1[0], direct[i]) and np.array_equal(r1[0], rev[i])
        assert np.array_equal(m1[0], mult[i])
        if i != 4:
            assert np.array_equal(np.trim_zeros(direct[i], "b"), free)
    # the sweep's screen for exact roots runs in the same blocks and has
    # them divided out: what is left, 2 + x^2, has no real root
    t = rootcount.sweep_grid(8)
    got = rootcount.sweep_count_batch(rows.astype(float), t, mirror_spans=[(0, len(t) - 1)])
    assert got.tolist() == [[0, 0]] * len(rows)


def test_mirror_resolves_one_row_of_a_batch(monkeypatch):
    # the mirror of row 2 dips four times inside one cell (as in
    # test_sweep_counts_a_bump_inside_one_cell); the other rows leave no
    # cell open in either family.  Only row 2's mirror cells reach
    # _resolve, and the batch's counts equal those of the mirrored rows
    # counted directly
    t = rootcount.sweep_grid(4)
    cells = np.arange(0.0, 1.2 + 2.0 * rootcount.SWEEP_STEP, rootcount.SWEEP_STEP)
    x = 1.0 - np.exp(-cells)
    cell = int(np.searchsorted(cells, 1.2, side="right")) - 1
    mid, w = 0.5 * (x[cell] + x[cell + 1]), 0.4 * (x[cell + 1] - x[cell])
    u = np.polynomial.Polynomial([-mid / w, 1.0 / w])
    bump = (1e-6 - 1e-3 * (1.0 - u ** 2) ** 2).coef
    rows = np.stack([[2.0, 1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0, 1.0], _mirror(bump),
                     [3.0, -1.0, 0.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0, 1.0]])
    seen = []
    resolve = rootcount._resolve

    def spy(c, weights, items):
        seen.append((np.ndim(weights[2]), sorted(set(items[0].astype(int).tolist()))))
        return resolve(c, weights, items)

    monkeypatch.setattr(rootcount, "_resolve", spy)
    spans = [(0, len(t) - 1)]
    got = rootcount.sweep_count_batch(rows, t, spans=spans, mirror_spans=spans)
    assert seen == [(0, []), (1, [2])]
    monkeypatch.setattr(rootcount, "_resolve", resolve)
    want = rootcount.sweep_count_batch(_mirror(rows), t, spans=spans)
    assert np.array_equal(got[:, 1:], want) and got[2, 1] == 4
    for row, count in zip(rows, got[:, 1]):
        assert count == count_in_interval(row, Interval(-1.0, 0.0)).count


def test_double_root_at_one_counts_as_sturm(monkeypatch):
    # -(x - 1)^2 (x + 1): a double root at 1 and a simple one at -1
    row = np.array([-1.0, 1.0, 1.0, -1.0])
    rep = real_roots(row)
    assert list(rep.roots) == [-1.0, 1.0] and list(rep.multiplicities) == [1, 2]
    monkeypatch.setattr(experiment, "noise_rows", lambda *args: row[None, :].copy())
    swept = experiment._count_batch(experiment._sweep_plan(_POINT_REGIONS, 3),
                                    coeff_vector(CoeffScheme.power_law(0.0), 3),
                                    NoiseDistribution.RADEMACHER, 1, 0, 1)
    for r in _POINT_REGIONS:
        iv = region_interval(r, 3)
        want = sturm_count([-1, 1, 1, -1], iv)
        assert count_in_interval(row, iv).count == want, r
        assert swept[r][0] == want, r


@pytest.mark.parametrize("counter", ["companion", "sweep"])
@pytest.mark.parametrize("n", [3, 8, 9, 20, 21, 64])
def test_flat_rademacher_counts_equal_sturm_per_trial(counter, n):
    # +-1 rows of odd degree often vanish at 1 or -1, some to second order;
    # the Monte Carlo counts (the sweep) and the companion oracle both give
    # the Sturm count of every row
    scheme, dist = CoeffScheme.power_law(0.0), NoiseDistribution.RADEMACHER
    trials = 64
    rows = _realized(scheme, dist, n, 7, 0, trials)
    if counter == "sweep":
        res = run_experiment(ExperimentConfig(scheme=scheme, dist=dist, degrees=[n],
                                              regions=list(REGIONS), trials=trials,
                                              master_seed=7))
    for r in REGIONS:
        iv = region_interval(r, n)
        want = [sturm_count(row, iv) for row in rows]
        got = (list(res.counts[(n, r)]) if counter == "sweep"
               else [count_in_interval(row, iv).count for row in rows])
        assert got == want, r


# ---------------------------------------------------------------------------
# sweeps run on one BLAS thread; degrees from the mark on deal whole batches
# ---------------------------------------------------------------------------

class _FakeBlas:
    """A (get, set) pair of a BLAS thread count that logs its calls."""

    def __init__(self, threads=3):
        self.threads, self.calls = threads, []

    def get(self):
        self.calls.append("get")
        return self.threads

    def set(self, k):
        self.calls.append(("set", k))
        self.threads = k


def _spy_threads(monkeypatch, blas):
    """Record the thread count each sweep stage sees when it is called."""
    seen = []
    for name in ("_parity_products", "_resolve", "_narrow"):
        def spy(*args, _name=name, _real=getattr(rootcount, name)):
            seen.append((_name, blas.threads))
            return _real(*args)
        monkeypatch.setattr(rootcount, name, spy)
    return seen


def _gauss_rows(n, trials):
    return _realized(CoeffScheme.perturbed_center(), NoiseDistribution.GAUSSIAN, n, 5, 0, trials)


def test_sweeps_run_on_one_blas_thread(monkeypatch):
    # the count is 1 for every call of a sweep, and restored after
    blas = _FakeBlas()
    monkeypatch.setattr(rootcount, "_blas_threads", lambda: (blas.get, blas.set))
    seen = _spy_threads(monkeypatch, blas)
    rows, t = _gauss_rows(100, 8), rootcount.sweep_grid(100)
    rootcount.sweep_count_batch(rows, t, mirror_spans=[(0, len(t) - 1)])
    assert blas.calls == ["get", ("set", 1), ("set", 3)]
    assert set(seen) == {("_parity_products", 1), ("_resolve", 1)}
    blas.calls, seen[:] = [], []
    sweep_roots(rows[0])
    assert blas.calls == ["get", ("set", 1), ("set", 3)]
    assert set(seen) == {("_parity_products", 1), ("_resolve", 1), ("_narrow", 1)}


def test_one_blas_thread_is_restored_when_the_sweep_raises(monkeypatch):
    blas = _FakeBlas(2)
    monkeypatch.setattr(rootcount, "_blas_threads", lambda: (blas.get, blas.set))

    def boom(*args):
        assert blas.threads == 1
        raise RuntimeError("boom")

    monkeypatch.setattr(rootcount, "_parity_products", boom)
    rows, t = _gauss_rows(100, 4), rootcount.sweep_grid(100)
    for sweep in (lambda: rootcount.sweep_count_batch(rows, t), lambda: sweep_roots(rows[0])):
        blas.calls = []
        with pytest.raises(RuntimeError, match="boom"):
            sweep()
        assert blas.calls == ["get", ("set", 1), ("set", 2)] and blas.threads == 2
    assert rootcount._blas_held[0] == 0


def test_overlapping_small_sweeps_share_one_hold(monkeypatch):
    # more sweeping threads than cores, switching every few microseconds:
    # the count is read only while no sweep holds it, and the last sweep
    # to end restores it, so no thread can save the held count and put it
    # back for good
    blas = _FakeBlas()
    lock = threading.Lock()
    read = []

    def get():
        with lock:
            read.append(blas.threads)
        return blas.threads

    monkeypatch.setattr(rootcount, "_blas_threads", lambda: (get, blas.set))
    rows, t = _gauss_rows(100, 8), rootcount.sweep_grid(100)
    want = rootcount.sweep_count_batch(rows, t)
    got = []

    def sweep():
        for _ in range(5):
            got.append(rootcount.sweep_count_batch(rows, t))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runners = [threading.Thread(target=sweep) for _ in range(6)]
        for r in runners:
            r.start()
        for r in runners:
            r.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(r.is_alive() for r in runners)
    assert len(got) == 30 and all(np.array_equal(g, want) for g in got)
    assert set(read) == {3} and blas.threads == 3 and rootcount._blas_held[0] == 0


def test_no_blas_library_leaves_the_sweep_as_it_is(monkeypatch, tmp_path):
    class _Untouched:
        def __enter__(self):
            raise AssertionError("the thread count was touched")

    lookup = rootcount._blas_threads.__wrapped__
    rows, t = _gauss_rows(100, 4), rootcount.sweep_grid(100)
    want = rootcount.sweep_count_batch(rows, t)
    monkeypatch.setattr(rootcount, "_blas_threads", lambda: None)
    monkeypatch.setattr(rootcount, "_BLAS_GATE", _Untouched())
    assert np.array_equal(rootcount.sweep_count_batch(rows, t), want)
    sweep_roots(rows[0])
    # the lookup finds nothing where no library, or no loadable one, is there
    monkeypatch.setattr(rootcount.glob, "glob", lambda pattern: [])
    assert lookup() is None
    fake = tmp_path / "libscipy_openblas64_-0.so"
    fake.write_text("not a library")
    monkeypatch.setattr(rootcount.glob, "glob", lambda pattern: [str(fake)])
    assert lookup() is None


def test_bundled_openblas_thread_count_is_found(monkeypatch):
    # numpy's scipy-openblas wheels export these symbols; a numpy whose
    # library renames them must fail here, not quietly lose the gate
    name = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    blas = rootcount._blas_threads()
    assert blas is not None or name != "scipy-openblas", name
    if blas is not None:
        get = blas[0]
        prev, seen, real = get(), [], rootcount._parity_products
        monkeypatch.setattr(rootcount, "_parity_products",
                            lambda *args: seen.append(get()) or real(*args))
        rootcount.sweep_count_batch(_gauss_rows(100, 4), rootcount.sweep_grid(100))
        assert prev >= 1 and seen == [1] and get() == prev


def _rademacher_rows_with_exact_roots(n, trials):
    """Flat +-1 rows: a root at 0 in every other row, and where it is, a
    balanced rest, so a root at 1 too."""
    rows = noise_rows(NoiseDistribution.RADEMACHER, n, 9, 0, trials)
    rng = np.random.default_rng(n)
    for row in rows[::2]:
        row[0] = 0.0
        row[1:] = rng.permutation(np.resize([1.0, -1.0], n))
    return rows


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
def test_sweep_counts_and_roots_do_not_depend_on_the_gate(monkeypatch, n, kind):
    # from the mark on, run_experiment deals batches of half the rows over
    # two shares, each row's exact roots divided out in its own batch:
    # forced on and forced off, the counts of every region are the same
    rows = _gauss_rows(n, 24) if kind == "gaussian" else _rademacher_rows_with_exact_roots(n, 24)
    if kind == "rademacher":
        assert (rootcount.exact_roots(rows)[3][::2, :2] > 0).all()
    monkeypatch.setattr(experiment, "noise_rows", lambda *args: rows[args[-2]:args[-1]].copy())
    monkeypatch.setattr(philox, "_THREADS", 2)
    batches, count = [], experiment._count_batch
    monkeypatch.setattr(experiment, "_count_batch",
                        lambda *args: batches.append(args[-2:]) or count(*args))
    cfg = ExperimentConfig(scheme=CoeffScheme.power_law(0.0), dist=NoiseDistribution.RADEMACHER,
                           degrees=[n], regions=list(REGIONS), trials=len(rows), master_seed=1)
    got = []
    for gate, want in ((0, [(0, 12), (12, 24)]), (math.inf, [(0, 24)])):  # forced on, off
        monkeypatch.setattr(rootcount, "_ONE_THREAD_MADDS", gate)
        batches.clear()
        res = run_experiment(cfg)
        assert sorted(batches) == want
        got.append([res.counts[(n, r)].tobytes() for r in REGIONS])
    assert got[0] == got[1]
