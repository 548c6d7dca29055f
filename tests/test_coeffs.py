import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kaccycles import coeffs as C
from kaccycles import sampler
from kaccycles.errors import DomainError


# ---------------------------------------------------------------------------
# trigonometric moments
# ---------------------------------------------------------------------------

def _moment_quadrature(k: int, m: int) -> float:
    # independent oracle: trapezoid on the periodic integrand (spectrally exact)
    th = np.linspace(0.0, 2.0 * math.pi, 8 * (m + 2) + 9, endpoint=False)
    vals = np.cos(th) ** (2 * m + 2 - k) * np.sin(th) ** k
    return float(vals.mean() * 2.0 * math.pi)


def test_trig_moment_examples():
    assert C.trig_moment(1, 3) == 0.0
    assert abs(C.trig_moment(0, 0) - _moment_quadrature(0, 0)) < 1e-12
    assert abs(C.trig_moment(0, 0) - math.pi) < 1e-13
    assert abs(C.trig_moment(2, 1) - _moment_quadrature(2, 1)) < 1e-12
    assert abs(C.trig_moment(2, 1) - math.pi / 4.0) < 1e-13


@pytest.mark.parametrize("m", [0, 1, 2, 5, 11])
def test_trig_moment_quadrature_oracle(m):
    for k in range(0, 2 * m + 3):
        got = C.trig_moment(k, m)
        want = _moment_quadrature(k, m)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), (k, m)


def test_trig_moment_domain_errors():
    with pytest.raises(DomainError):
        C.trig_moment(9, 3)
    with pytest.raises(DomainError):
        C.trig_moment(-1, 3)


@pytest.mark.parametrize("m", [0, 1, 5, 40, 200, 600, 1100])
def test_trig_moments_against_exact_double_factorial_ratios(m):
    # a_{2l,m} = 2 pi (2m-2l+1)!! (2l-1)!! / (2m+2)!!; Python's int / int is
    # correctly rounded, so `exact` is the ratio to half an ulp.  Near the
    # middle of a row with m > ~1020 the ratio is below the normal float
    # range, and there the error is measured against the smallest normal float.
    den = C.exact_double_factorial(2 * m + 2)
    exact = np.array([2.0 * math.pi * (C.exact_double_factorial(2 * m - 2 * l + 1)
                                       * C.exact_double_factorial(2 * l - 1) / den)
                      for l in range(m + 2)])
    scale = 1e-14 * np.maximum(exact, np.finfo(float).tiny)
    row = C.trig_moment_even_row(m)
    assert np.all(np.abs(row - exact) <= scale)
    # the Melnikov reduction weights of degree 2201 (rows m = 0..1100):
    # alpha a_{2i,m}, then beta a_{2i+2,m}
    w, offsets = sampler._reduction_weights(2201)
    start = offsets[m]
    assert np.all(np.abs(w[start:start + m + 1] - exact[:m + 1]) <= scale[:m + 1])
    assert np.all(np.abs(w[start + m + 1:start + 2 * m + 2] - exact[1:]) <= scale[1:])


def test_trig_moment_extremal_structure():
    # even-k moments peak exactly at the two ends k=0 and k=2m+2, which agree
    for m in (1, 2, 7, 20):
        row = C.trig_moment_even_row(m)
        assert abs(row[0] - row[-1]) < 1e-15 * row[0]
        assert np.all(row[1:-1] < row[0])
        assert row[0] + row[-1] < 2.0 * math.pi


# ---------------------------------------------------------------------------
# variances
# ---------------------------------------------------------------------------

def test_variance_center_m0_exact():
    # direct hand evaluation of the double sum at m=0 with (-1)!! = 1
    assert abs(C.variance_center_many(0) - math.pi / 4.0) < 1e-15
    assert C.variance_center_exact(0) == Fraction(1, 4)


def test_variance_center_against_exact_oracle():
    for m in list(range(0, 30)) + [50, 79, 80, 81, 128, 199, 200]:
        want = math.pi * float(C.variance_center_exact(m))
        got = C.variance_center_many(m)
        assert abs(got / want - 1.0) < 1e-12, m


def test_variance_center_asymptotics():
    v10 = C.variance_center_many(10)
    assert abs(10 * v10 - 1.0) <= 0.25
    v = C.variance_center_many(10**5)
    assert abs(10**5 * v - 1.0) <= 1e-3


def test_variance_center_envelope():
    m = np.arange(50, 100001)
    v = C.variance_center_many(m)
    assert np.all(np.abs(m * v - 1.0) <= 2.0 / m)


# c_m^2 pinned bit for bit: the SHA-256 of m = 0..200000 and the float hex
# of single m on both sides of the sums' edges.  They come from + - * / and
# sequential cumulative products alone, so they do not depend on the CPU's
# exp or log.
_CENTER_SHA256 = "ee2f34addb9f5fccc0d132d13a4497594636e0a7cb8ee1c7cf497497884012f6"
_CENTER_HEX = {
    26: "0x1.2cd373eaaa310p-5",
    27: "0x1.2229cd0be3ec8p-5",
    28: "0x1.183b26e9e5ca2p-5",
    79: "0x1.985ab4c317d80p-7",
    80: "0x1.9353e2e5c93dbp-7",
    10**6: "0x1.0c6f640de17fep-20",
    2 * 10**6: "0x1.0c6f6f0c9f838p-21",
}


def test_variance_center_golden_bits():
    v = C.variance_center_many(np.arange(200_001))
    assert hashlib.sha256(v.tobytes()).hexdigest() == _CENTER_SHA256
    got = C.variance_center_many(np.array(list(_CENTER_HEX)))
    assert [float(x).hex() for x in got] == list(_CENTER_HEX.values())
    for m, want in _CENTER_HEX.items():
        assert float(C.variance_center_many(m)).hex() == want, m


@pytest.mark.parametrize("many", [C.variance_center_many, C.variance_lienard_many])
def test_variances_of_no_index_are_empty(many):
    out = many(np.array([], dtype=int))
    assert out.shape == (0,) and out.dtype == np.float64


def test_variance_lienard_values():
    assert abs(C.variance_lienard_many(0) - math.pi / 4.0) < 1e-15
    assert abs(C.variance_lienard_many(1) - 9.0 * math.pi / 64.0) < 1e-15
    v = C.variance_lienard_many(10**4)
    assert abs(10**4 * v - 1.0) <= 1e-2


# ---------------------------------------------------------------------------
# coefficient vectors and schemes
# ---------------------------------------------------------------------------

def test_scheme_parse_and_validation():
    assert C.CoeffScheme.parse("center").kind == "center"
    assert C.CoeffScheme.parse("power:-0.5").rho == -0.5
    assert C.CoeffScheme.parse("lienard").effective_rho == -0.5
    with pytest.raises(DomainError):
        C.CoeffScheme.parse("weird")
    with pytest.raises(DomainError):
        C.CoeffScheme("power", float("inf"))
    with pytest.raises(DomainError):
        C.CoeffScheme("center", 1.0)


@pytest.mark.parametrize("rho", [0.0, -0.5, 1 / 3, -0.1234567, 1e-7])
def test_scheme_label_round_trips(rho):
    s = C.CoeffScheme.power_law(rho)
    assert C.CoeffScheme.parse(s.label()) == s


def test_scheme_label_keeps_short_text():
    # output headers and result keys are written with these labels
    assert C.CoeffScheme.power_law(0.0).label() == "power:0"
    assert C.CoeffScheme.power_law(-0.5).label() == "power:-0.5"
    assert C.CoeffScheme.power_law(1e-7).label() == "power:1e-07"
    assert C.CoeffScheme.power_law(-0.1234567).label() == "power:-0.1234567"
    assert C.CoeffScheme.perturbed_center().label() == "center"


def test_coeff_vector_power_law():
    cv = C.coeff_vector(C.CoeffScheme.power_law(0.0), 5)
    assert np.array_equal(cv.values, np.ones(6))
    cv = C.coeff_vector(C.CoeffScheme.power_law(-0.5), 4)
    want = [1.0, 1.0, 2**-0.5, 3**-0.5, 0.5]
    assert np.allclose(cv.values, want, rtol=1e-15)


def test_coeff_vector_center_matches_variances():
    cv = C.coeff_vector(C.CoeffScheme.perturbed_center(), 2)
    want = [math.sqrt(math.pi / 4.0),
            math.sqrt(math.pi * float(C.variance_center_exact(1))),
            math.sqrt(math.pi * float(C.variance_center_exact(2)))]
    assert np.allclose(cv.values, want, rtol=1e-13)
    assert len(cv.values) == 3
    assert np.all(cv.values > 0) and np.all(np.isfinite(cv.values))


def test_coeff_vector_rejects_negative_degree():
    with pytest.raises(DomainError):
        C.coeff_vector(C.CoeffScheme.lienard(), -1)


def test_center_coeff_vector_peaks_below_four_outputs():
    # the anchors' table, the output and one block's temporaries at a time
    tracemalloc.start()
    try:
        cv = C.coeff_vector(C.CoeffScheme.perturbed_center(), 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * cv.values.nbytes
