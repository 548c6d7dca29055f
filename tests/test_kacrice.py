import math

import numpy as np
import pytest

from kaccycles import kacrice as K
from kaccycles.coeffs import CoeffScheme, coeff_vector
from kaccycles.errors import DomainError, QuadratureFailureError
from kaccycles.rootcount import Interval


# ---------------------------------------------------------------------------
# quadrature core
# ---------------------------------------------------------------------------

def test_gk_weights_sum_to_two():
    assert abs(K._WK_FULL.sum() - 2.0) < 1e-14
    assert abs(K._WG_FULL.sum() - 2.0) < 1e-14


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

def test_pqr_flat_coefficients():
    kac = coeff_vector(CoeffScheme.power_law(0.0), 100)
    assert K.pqr(kac, 0.0) == (1.0, 1.0, 0.0)
    p, q, r = K.pqr(coeff_vector(CoeffScheme.power_law(0.0), 2000), 0.5)
    assert abs(p - 4.0 / 3.0) < 1e-12   # geometric series in x^2


def test_pqr_domain_error():
    kac = coeff_vector(CoeffScheme.power_law(0.0), 10)
    with pytest.raises(DomainError):
        K.pqr(kac, 1.0)
    with pytest.raises(DomainError):
        K.pqr(kac, -1.5)


def test_pqr_truncation_matches_direct_sum(rng):
    cv = coeff_vector(CoeffScheme.perturbed_center(), 5000)
    i = np.arange(5001, dtype=float)
    for x in (0.3, -0.7, 0.99, 0.9999):
        p, q, r = K.pqr(cv, x)
        w = cv.values**2 * x ** (2 * i)
        assert abs(p / np.sum(w) - 1.0) < 1e-12
        assert abs(q / (np.sum(i**2 * w) / x**2) - 1.0) < 1e-11
        assert abs(r / (np.sum(i * w) / x) - 1.0) < 1e-11


def test_cauchy_schwarz_positivity(rng):
    for scheme in (CoeffScheme.perturbed_center(), CoeffScheme.power_law(-1.0),
                   CoeffScheme.power_law(0.5)):
        cv = coeff_vector(scheme, 800)
        for x in rng.uniform(-0.9999, 0.9999, 10**4):
            p, q, r = K.pqr(cv, float(x))
            assert p * q - r * r >= -1e-12 * p * q


def test_center_scheme_log_singularity():
    # over the core interval P approaches -log(1-x^2), Q and R their
    # (1-x^2)-power laws
    cv = coeff_vector(CoeffScheme.perturbed_center(), 10**6)
    ci = K.core_interval(10**6)
    t_mid = 0.5 * (ci.t_lo + ci.t_hi)
    x = 1.0 - math.exp(-t_mid)
    p, q, r = K.pqr(cv, x)
    assert abs(p / (-math.log(1.0 - x * x)) - 1.0) <= 0.05
    assert abs(q * (1.0 - x * x) ** 2 - 1.0) <= 0.05
    assert abs(r * (1.0 - x * x) / x - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# expected counts
# ---------------------------------------------------------------------------

def test_linear_polynomial_halves():
    c = np.array([1.0, 1.0])
    v = K.expected_roots_gaussian(c, Interval(0.0, math.inf), 1e-10)
    assert abs(v - 0.5) < 1e-8
    v = K.expected_roots_gaussian(c, Interval(-math.inf, 0.0), 1e-10)
    assert abs(v - 0.5) < 1e-8
    assert abs(K.expected_roots_gaussian(c, Interval.reals(), 1e-10) - 1.0) < 1e-8


def test_interval_additivity():
    cv = coeff_vector(CoeffScheme.perturbed_center(), 500)
    tol = 1e-10
    whole = K.expected_roots_gaussian(cv, Interval(0.1, 0.9), tol)
    parts = (K.expected_roots_gaussian(cv, Interval(0.1, 0.6), tol)
             + K.expected_roots_gaussian(cv, Interval(0.6, 0.9), tol))
    assert abs(whole - parts) < 1e-9


def test_palindrome_reversal_symmetry():
    kac = coeff_vector(CoeffScheme.power_law(0.0), 300)
    inner = K.expected_roots_gaussian(kac, Interval(0.0, 1.0), 1e-9)
    outer = K.expected_roots_gaussian_reversed(kac, 1e-9)
    assert abs(inner - outer) < 1e-8
    outer2 = K.expected_roots_gaussian(kac, Interval(1.0, math.inf), 1e-9)
    assert abs(outer - outer2) < 1e-8


def test_mirrored_regions_equal():
    cv = coeff_vector(CoeffScheme.power_law(-1.0), 400)
    a = K.expected_roots_gaussian(cv, Interval(0.0, 1.0), 1e-9)
    b = K.expected_roots_gaussian(cv, Interval(-1.0, 0.0), 1e-9)
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


def test_quad_tol_controls_error():
    cv = coeff_vector(CoeffScheme.perturbed_center(), 2000)
    v1, e1 = K.expected_roots_gaussian_with_error(cv, Interval(0.0, 1.0), 1e-6)
    v2, e2 = K.expected_roots_gaussian_with_error(cv, Interval(0.0, 1.0), 5e-7)
    assert abs(v1 - v2) <= e1 + e2
    assert e2 <= 5e-7 + 1e-12


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
    assert abs(a.value - math.log(10**4) / (2 * math.pi)) < 1e-12
    assert abs(a.value - 1.4659) < 1e-3
    a = K.asymptotic_prediction(-0.5, "01", 10**4)
    assert abs(a.value - math.sqrt(math.log(10**4)) / math.pi) < 1e-12
    assert abs(a.value - 0.9662) < 1e-3
    a = K.asymptotic_prediction(-1.0, "01", 10**4)
    assert a.bounded and a.value is None
    a = K.asymptotic_prediction(0.0, "R", 10**5)
    assert abs(a.value - 2.0 / math.pi * math.log(10**5)) < 1e-12
    a = K.asymptotic_prediction(0.5, "01", 10**5)
    assert abs(a.value - math.sqrt(2.0) * math.log(10**5) / (2 * math.pi)) < 1e-12
    with pytest.raises(DomainError):
        K.asymptotic_prediction(0.0, "nowhere", 100)
