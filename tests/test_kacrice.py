import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from kaccycles import kacrice as K
from kaccycles import philox
from kaccycles.coeffs import CoeffScheme, coeff_vector
from kaccycles.errors import DomainError, QuadratureFailureError
from kaccycles.rootcount import Interval


# ---------------------------------------------------------------------------
# quadrature core
# ---------------------------------------------------------------------------

def test_gk_weights_sum_to_two():
    assert abs(K._WK_FULL.sum() - 2.0) < 1e-14
    assert abs(K._WG_FULL.sum() - 2.0) < 1e-14


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_quadrature_rejects_tolerance_outside_open_half_line(tol):
    # no panel count meets a tolerance of 0 (or NaN): the call is refused
    # before the first panel, not after the panel limit
    calls = []

    def f(t):
        calls.append(t)
        return 1.0

    with pytest.raises(DomainError, match="tolerance"):
        K.adaptive_gauss_kronrod(f, 0.0, 1.0, tol)
    assert calls == []


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_region_counts_reject_tolerance_at_every_degree(tol):
    # In is empty at degree 5, so no piece of it reaches the quadrature; the
    # tolerance is refused before the split there as at degree 100
    assert K.split_interval(K.region_interval("In", 5))[0] == []
    for n in (5, 100):
        cv = coeff_vector(CoeffScheme.perturbed_center(), n)
        with pytest.raises(DomainError, match="tolerance"):
            K.expected_roots_region(cv, "In", tol)
        with pytest.raises(DomainError, match="tolerance"):
            K.expected_roots_regions(cv, [], tol)
        with pytest.raises(DomainError, match="tolerance"):
            K.expected_roots_gaussian_with_error(cv, Interval(0.5, 0.5), tol)


def test_quadrature_known_integrals():
    v, e = K.adaptive_gauss_kronrod(math.exp, 0.0, 1.0, 1e-12)
    assert abs(v - (math.e - 1.0)) < 1e-12 and e < 1e-10
    v, _ = K.adaptive_gauss_kronrod(lambda t: t**9 - 3 * t**4, -1.0, 2.0, 1e-12)
    want = (2.0**10 - 1.0) / 10.0 - 3.0 * (2.0**5 + 1.0) / 5.0
    assert abs(v - want) < 1e-11


def test_quadrature_convergence_and_failure():
    f = lambda t: 1.0 / math.sqrt(abs(t) + 1e-12)
    v1, e1 = K.adaptive_gauss_kronrod(f, 0.0, 1.0, 1e-4)
    v2, e2 = K.adaptive_gauss_kronrod(f, 0.0, 1.0, 5e-5)
    assert abs(v2 - v1) <= e1 + e2
    with pytest.raises(QuadratureFailureError):
        K.adaptive_gauss_kronrod(f, 0.0, 1.0, 1e-14, max_panels=8)


# ---------------------------------------------------------------------------
# P, Q, R
# ---------------------------------------------------------------------------

def _pqr(kr, x):
    # P = S0, Q = S2 / x^2 and R = S1 / x from the moments Sk = sum i^k c_i^2 x^2i
    s0, s1, s2 = kr.moments(x)
    return s0, s2 / (x * x), s1 / x


def test_pqr_flat_coefficients():
    kac = coeff_vector(CoeffScheme.power_law(0.0), 100)
    assert K.KacRiceIntegrand(kac.values).moments(0.0) == (1.0, 0.0, 0.0)
    p, q, r = _pqr(K.KacRiceIntegrand(np.ones(2001)), 0.5)
    assert abs(p - 4.0 / 3.0) < 1e-12   # geometric series in x^2


def test_pqr_truncation_matches_direct_sum(rng):
    cv = coeff_vector(CoeffScheme.perturbed_center(), 5000)
    kr = K.KacRiceIntegrand(cv.values)
    i = np.arange(5001, dtype=float)
    for x in (0.3, -0.7, 0.99, 0.9999):
        p, q, r = _pqr(kr, x)
        w = cv.values**2 * x ** (2 * i)
        assert abs(p / np.sum(w) - 1.0) < 1e-12
        assert abs(q / (np.sum(i**2 * w) / x**2) - 1.0) < 1e-11
        assert abs(r / (np.sum(i * w) / x) - 1.0) < 1e-11


def test_cauchy_schwarz_positivity(rng):
    for scheme in (CoeffScheme.perturbed_center(), CoeffScheme.power_law(-1.0),
                   CoeffScheme.power_law(0.5)):
        kr = K.KacRiceIntegrand(coeff_vector(scheme, 800).values)
        for x in rng.uniform(-0.9999, 0.9999, 10**4):
            p, q, r = _pqr(kr, float(x))
            assert p * q - r * r >= -1e-12 * p * q


def test_center_scheme_log_singularity():
    # over the core interval P approaches -log(1-x^2), Q and R their
    # (1-x^2)-power laws
    cv = coeff_vector(CoeffScheme.perturbed_center(), 10**6)
    ci = K.core_interval(10**6)
    t_mid = -0.5 * (math.log(1.0 - ci.lo) + math.log(1.0 - ci.hi))
    x = 1.0 - math.exp(-t_mid)
    p, q, r = _pqr(K.KacRiceIntegrand(cv.values), x)
    assert abs(p / (-math.log(1.0 - x * x)) - 1.0) <= 0.05
    assert abs(q * (1.0 - x * x) ** 2 - 1.0) <= 0.05
    assert abs(r * (1.0 - x * x) / x - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# expected counts
# ---------------------------------------------------------------------------

def _expected(coeffs, interval, quad_tol):
    return K.expected_roots_gaussian_with_error(coeffs, interval, quad_tol)[0]


def test_linear_polynomial_halves():
    c = np.array([1.0, 1.0])
    v = _expected(c, Interval(0.0, math.inf), 1e-10)
    assert abs(v - 0.5) < 1e-8
    v = _expected(c, Interval(-math.inf, 0.0), 1e-10)
    assert abs(v - 0.5) < 1e-8
    assert abs(_expected(c, Interval.reals(), 1e-10) - 1.0) < 1e-8


def test_interval_additivity():
    cv = coeff_vector(CoeffScheme.perturbed_center(), 500)
    tol = 1e-10
    whole = _expected(cv, Interval(0.1, 0.9), tol)
    parts = (_expected(cv, Interval(0.1, 0.6), tol)
             + _expected(cv, Interval(0.6, 0.9), tol))
    assert abs(whole - parts) < 1e-9


def test_palindrome_reversal_symmetry():
    kac = coeff_vector(CoeffScheme.power_law(0.0), 300)
    inner = _expected(kac, Interval(0.0, 1.0), 1e-9)
    outer = _expected(kac, Interval(1.0, math.inf), 1e-9)
    assert abs(inner - outer) < 1e-8


def test_mirrored_regions_equal():
    cv = coeff_vector(CoeffScheme.power_law(-1.0), 400)
    a = _expected(cv, Interval(0.0, 1.0), 1e-9)
    b = _expected(cv, Interval(-1.0, 0.0), 1e-9)
    assert abs(a - b) < 1e-12


def test_split_interval_families_and_points():
    want = {
        "01": (["dir"], ()),
        "1inf": (["rev"], ()),
        "sym": (["dir", "mdir"], (0.0,)),
        "neg1inf": (["mrev"], ()),
        "pos": (["dir", "rev"], (1.0,)),
        "neg": (["mdir", "mrev"], (-1.0,)),
        "R": (["dir", "rev", "mdir", "mrev"], (0.0, 1.0, -1.0)),
        "In": (["dir"], ()),
        "In_inv": (["rev"], ()),
    }
    assert K.REGIONS == tuple(want)
    for n in (100, 1000, 30000):
        for region, (families, points) in want.items():
            pieces, pts = K.split_interval(K.region_interval(region, n))
            assert [p[0] for p in pieces] == families and pts == points, region
            assert all(0.0 <= a < b <= 1.0 for _, a, b in pieces), region
    # a general interval: x in (-4, -1) is -1/x in (1/4, 1)
    pieces, pts = K.split_interval(Interval(-4.0, 0.5, closed_hi=True))
    assert pieces == [("dir", 0.0, 0.5), ("mdir", 0.0, 1.0), ("mrev", 0.25, 1.0)]
    assert pts == (0.0, -1.0)
    assert K.split_interval(Interval(0.5, 0.5)) == ([], ())


def test_mirror_pieces_share_one_quadrature(monkeypatch):
    cv = coeff_vector(CoeffScheme.perturbed_center(), 300)
    v01, e01 = K.expected_roots_region(cv, "01", 1e-7)
    v1i, e1i = K.expected_roots_region(cv, "1inf", 1e-7)
    calls = []
    quad = K.adaptive_gauss_kronrod

    def counted(*args, **kw):
        calls.append(args[1:3])
        return quad(*args, **kw)

    monkeypatch.setattr(K, "adaptive_gauss_kronrod", counted)
    # every piece is summed in order, the mirrored ones included
    assert K.expected_roots_region(cv, "R", 1e-7) == (
        v01 + v1i + v01 + v1i, e01 + e1i + e01 + e1i)
    assert len(calls) == 2
    assert K.expected_roots_region(cv, "sym", 1e-7) == (v01 + v01, e01 + e01)
    assert len(calls) == 3
    calls.clear()
    got = K.expected_roots_regions(cv, ["01", "1inf", "sym", "R"], 1e-7)
    assert len(calls) == 2
    assert got["R"] == (v01 + v1i + v01 + v1i, e01 + e1i + e01 + e1i)


def test_leading_zero_coefficients():
    # c_0 = 0: x (xi_1 + xi_2 x / 2) has one random root -2 xi_1 / xi_2, a
    # scaled Cauchy variable, so E N(0, 1) = atan(1/2) / pi and E N(R) = 1
    c = np.array([0.0, 1.0, 0.5])
    v = _expected(c, Interval(0.0, 1.0), 1e-10)
    assert abs(v - math.atan(0.5) / math.pi) < 1e-12
    assert abs(_expected(c, Interval.reals(), 1e-10) - 1.0) < 1e-12
    assert _pqr(K.KacRiceIntegrand([0.0, 1.0, 1.0]), 0.5) == (0.3125, 2.0, 0.75)
    # x^k f(x) has the zeros of f away from 0, and the sums of x^k f
    # start at its first nonzero term
    cv = coeff_vector(CoeffScheme.perturbed_center(), 400)
    for k in (1, 300):
        shifted = np.concatenate([np.zeros(k), cv.values])
        for region in ("01", "1inf", "R"):
            want = K.expected_roots_region(cv, region, 1e-10)[0]
            got = K.expected_roots_region(shifted, region, 1e-10)[0]
            assert abs(got - want) < 1e-9, (k, region)
        p, q, r = _pqr(K.KacRiceIntegrand(shifted), 0.5)
        i = np.arange(k, k + 401, dtype=float)
        w = cv.values**2 * 0.25**i
        assert abs(p / np.sum(w) - 1.0) < 1e-12
        assert abs(q / (np.sum(i**2 * w) / 0.25) - 1.0) < 1e-12
        assert abs(r / (np.sum(i * w) / 0.5) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        K.KacRiceIntegrand([0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        K.expected_roots_region(np.zeros(4), "1inf")


def test_density_with_leading_zero_coefficients():
    # away from x = 0, x g(x) has the zero density of g = 1 + x / 2, which
    # is 0.5 / (pi (1 + x^2 / 4)) in x; at t = 0 it is |c_2| / (pi |c_1|)
    shifted = K.KacRiceIntegrand(np.array([0.0, 1.0, 0.5]))
    plain = K.KacRiceIntegrand(np.array([1.0, 0.5]))
    assert shifted.density_t(0.0) == 0.5 / math.pi
    for t in (0.0, 1e-9, 1e-6, 0.1):
        x = -math.expm1(-t)
        want = 0.5 * math.exp(-t) / (math.pi * (1.0 + 0.25 * x * x))
        assert shifted.density_t(t) == plain.density_t(t), t
        assert abs(shifted.density_t(t) / want - 1.0) < 1e-14, t


def test_trailing_zero_coefficients_lower_the_degree():
    # c_n = 0: (1, inf) reverses the polynomial of degree n - 1
    got = K.expected_roots_gaussian_with_error([1.0, 0.5, 0.0], Interval(1.0, math.inf))
    assert got == K.expected_roots_gaussian_with_error([1.0, 0.5], Interval(1.0, math.inf))
    assert got[0] == 0.3524163823495668


def test_quad_tol_controls_error():
    cv = coeff_vector(CoeffScheme.perturbed_center(), 2000)
    v1, e1 = K.expected_roots_gaussian_with_error(cv, Interval(0.0, 1.0), 1e-6)
    v2, e2 = K.expected_roots_gaussian_with_error(cv, Interval(0.0, 1.0), 5e-7)
    assert abs(v1 - v2) <= e1 + e2
    assert e2 <= 5e-7 + 1e-12


# ---------------------------------------------------------------------------
# panels split between the calling thread and the pool
# ---------------------------------------------------------------------------

def _regions_bits(monkeypatch, cv, threads):
    monkeypatch.setattr(philox, "_THREADS", threads)
    got = K.expected_roots_regions(cv, K.REGIONS, 1e-7)
    return {r: (repr(v), repr(e)) for r, (v, e) in got.items()}


@pytest.mark.parametrize("scheme", [CoeffScheme.perturbed_center(),
                                    CoeffScheme.power_law(0.0)])
def test_split_panels_do_not_change_a_bit(monkeypatch, scheme):
    cv = coeff_vector(scheme, 10**5)
    assert cv.n + 1 > K._POOL_TERMS
    serial = _regions_bits(monkeypatch, cv, 1)
    for threads in (2, 3):
        assert _regions_bits(monkeypatch, cv, threads) == serial


class _NoPool:
    def submit(self, *args, **kwargs):
        raise AssertionError("a short series submitted to the pool")


def test_short_series_stay_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(philox, "_THREADS", 4)
    monkeypatch.setattr(philox, "_POOL", _NoPool())
    for n in (1000, K._POOL_TERMS - 1):
        K.expected_roots_regions(coeff_vector(CoeffScheme.perturbed_center(), n),
                                 K.REGIONS)
    with pytest.raises(AssertionError, match="pool"):
        K.expected_roots_region(
            coeff_vector(CoeffScheme.perturbed_center(), K._POOL_TERMS), "01")


class _ThreadAware(K.KacRiceIntegrand):
    """Records the threads that evaluate it; may fail on all but the main one."""

    def __init__(self, values, fail_on_pool=False):
        super().__init__(values)
        self.fail_on_pool = fail_on_pool
        self.threads = set()

    def density_t(self, t):
        thread = threading.current_thread()
        self.threads.add(thread.name)
        if self.fail_on_pool and thread is not threading.main_thread():
            raise ZeroDivisionError("node on the pool")
        return super().density_t(t)


def test_pool_node_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(philox, "_THREADS", 2)
    values = coeff_vector(CoeffScheme.perturbed_center(), K._POOL_TERMS).values
    with pytest.raises(ZeroDivisionError, match="node on the pool"):
        K.adaptive_gauss_kronrod(_ThreadAware(values, True).density_t, 0.0, 5.0, 1e-7)
    # the pool still takes a share of the next panel's nodes
    kr = _ThreadAware(values)
    threaded = K._gk_panel(kr.density_t, 0.0, 5.0)
    assert len(kr.threads) == 2
    monkeypatch.setattr(philox, "_THREADS", 1)
    assert K._gk_panel(kr.density_t, 0.0, 5.0) == threaded


def test_concurrent_density_calls_use_their_own_buffers():
    kr = K.KacRiceIntegrand(coeff_vector(CoeffScheme.perturbed_center(), 50000).values)
    ts = np.linspace(0.5, 12.0, 40)
    want = [repr(kr.density_t(t)) for t in ts]
    got = [None] * 3

    def run(slot):
        got[slot] = [repr(kr.density_t(t)) for t in ts]

    # more threads than cores, and a thread switch every few microseconds
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runners = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        for r in runners:
            r.start()
        for r in runners:
            r.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(r.is_alive() for r in runners)
    assert got == [want] * 3


def test_moments_hold_one_row_per_thread():
    n = 10**5
    kr = K.KacRiceIntegrand(coeff_vector(CoeffScheme.perturbed_center(), n).values)
    row = 8 * (n + 1)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a thread's first call allocates its row of n + 1 terms, and its later
    # calls nothing of that size, at every cutoff
    assert row <= peak(lambda: kr.moments(0.9999)) < 1.25 * row
    assert peak(lambda: kr.moments(0.5)) < 0.25 * row
    assert peak(lambda: kr.moments(0.9999)) < 0.25 * row
    other = threading.Thread(target=kr.moments, args=(0.9999,))
    assert row <= peak(lambda: (other.start(), other.join(timeout=60))) < 1.25 * row
    assert not other.is_alive()


# ---------------------------------------------------------------------------
# core interval and predictions
# ---------------------------------------------------------------------------

def test_core_interval_exact_form():
    n = int(round(math.exp(32.0)))
    ci = K.core_interval(n)
    assert abs(ci.lo - (1.0 - math.exp(-2.0))) < 1e-12
    assert abs(ci.hi - (1.0 - math.exp(2.0) / n)) < 1e-12
    assert not ci.empty


def test_core_interval_monotone_and_degenerate():
    los = [K.core_interval(n).lo for n in (10**3, 10**4, 10**5)]
    assert los[0] < los[1] < los[2]
    assert K.core_interval(2).empty
    with pytest.raises(DomainError):
        K.core_interval(1)


def test_asymptotic_prediction_values():
    a = K.asymptotic_prediction(0.0, "1inf", 10**4)
    assert abs(a - math.log(10**4) / (2 * math.pi)) < 1e-12
    assert abs(a - 1.4659) < 1e-3
    a = K.asymptotic_prediction(-0.5, "01", 10**4)
    assert abs(a - math.sqrt(math.log(10**4)) / math.pi) < 1e-12
    assert abs(a - 0.9662) < 1e-3
    assert K.asymptotic_prediction(-1.0, "01", 10**4) is None
    a = K.asymptotic_prediction(0.0, "R", 10**5)
    assert abs(a - 2.0 / math.pi * math.log(10**5)) < 1e-12
    a = K.asymptotic_prediction(0.5, "01", 10**5)
    assert abs(a - math.sqrt(2.0) * math.log(10**5) / (2 * math.pi)) < 1e-12
    with pytest.raises(DomainError):
        K.asymptotic_prediction(0.0, "nowhere", 100)
    # no prediction below n = 3, in any region; an unknown region is still an error
    for n in (0, 1, 2):
        assert all(K.asymptotic_prediction(0.0, r, n) is None for r in K.REGIONS)
        with pytest.raises(DomainError):
            K.asymptotic_prediction(0.0, "nowhere", n)


# both sides of the critical weight -1/2, and within its 1e-12 tolerance
_RHOS = (-2.0, -1.0, -0.75, -0.5 - 1e-9, -0.5 - 1e-13, -0.5, -0.5 + 1e-13,
         -0.5 + 1e-9, -0.25, 0.0, 0.5, 2.0)
_DEGREES = (2, 3, 10, 11, 100, 1000, 10**4, 10**5)


def test_asymptotic_prediction_adds_up_by_region():
    # a region's prediction is the sum of its pieces' leading terms, so the
    # presets add up as their intervals do, wherever both sides are defined
    def close(a, b):
        return abs(a - b) <= 1e-12 * abs(b)

    for rho in _RHOS:
        for n in _DEGREES:
            a = {r: K.asymptotic_prediction(rho, r, n) for r in K.REGIONS}
            if a["01"] is not None:
                assert close(a["pos"], a["01"] + a["1inf"]), (rho, n)
                assert close(a["sym"], 2.0 * a["01"]), (rho, n)
            assert a["neg"] == a["pos"] and a["neg1inf"] == a["1inf"], (rho, n)
            if a["pos"] is not None:
                assert close(a["R"], 2.0 * a["pos"]), (rho, n)
            # the core interval is empty up to degree 10
            if 3 <= n <= 10:
                assert a["In"] is None and a["In_inv"] is None, (rho, n)


def test_kacrice_against_asymptotic_prediction_at_the_critical_weight():
    # the center scheme at the critical weight: Kac-Rice over (0, inf) lies
    # above log(n)/(2 pi) + sqrt(log n)/pi and approaches it, Kac-Rice over
    # (0, 1) lies below sqrt(log n)/pi and approaches it
    scheme = CoeffScheme.perturbed_center()
    ratios = {"pos": [], "01": []}
    for n in (10**2, 10**3, 10**4, 10**5):
        kr = K.expected_roots_regions(coeff_vector(scheme, n), list(ratios), 1e-7)
        for r in ratios:
            ratios[r].append(kr[r][0] / K.asymptotic_prediction(scheme.effective_rho, r, n))
    pos, inner = ratios["pos"], ratios["01"]
    assert pos == pytest.approx([1.1185, 1.0893, 1.0722, 1.0606], abs=1e-4)
    assert inner == pytest.approx([0.8372, 0.8542, 0.8668, 0.8765], abs=1e-4)
    assert all(1.0 < b < a for a, b in zip(pos, pos[1:]))
    assert all(a < b < 1.0 for a, b in zip(inner, inner[1:]))
