"""Expected real-zero counts of Gaussian random polynomials.

For independent Gaussian coefficients the expected number of real zeros in an
interval is

    (1/pi) * integral sqrt(P(x) Q(x) - R(x)^2) / P(x) dx,

with P = sum c_i^2 x^{2i}, Q = sum i^2 c_i^2 x^{2i-2}, R = sum i c_i^2 x^{2i-1}.
Real zeros of these ensembles cluster at the unit circle, so the integral is
taken in the substituted variable t = -log(1-x), where the zero density is
slowly varying, and (1, inf) is always reached through the reversed
polynomial d_m = c_{n-m}/c_n on the mirrored subinterval of (0, 1).  Negative
intervals reduce to positive ones because only squared coefficients enter,
so a mirrored piece reuses the integral of its positive twin.

Every interval is cut at -1, 0 and 1 by ``split_interval``, which the
sweep counter of the Monte Carlo harness reads as well; the named region
presets live in ``REGIONS``.

The quadrature is adaptive Gauss-Kronrod (G7, K15) with QUADPACK-style error
estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoeffVector
from .errors import DomainError, QuadratureFailureError
from .rootcount import Interval

__all__ = [
    "KacRiceIntegrand", "CoreInterval", "AsymptoticPrediction",
    "pqr", "core_interval", "asymptotic_prediction",
    "expected_roots_gaussian", "expected_roots_gaussian_with_error",
    "expected_roots_gaussian_reversed", "expected_roots_region",
    "expected_roots_regions", "region_interval", "split_interval", "REGIONS",
    "adaptive_gauss_kronrod",
]

# 7-point Gauss / 15-point Kronrod nodes and weights (QUADPACK dqk15).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Nodes ordered symmetric: +-xgk[0..6], 0; build full 15-point arrays.
_NODES = np.concatenate([_XGK[:7], -_XGK[:7], [0.0]])
_WK_FULL = np.concatenate([_WGK[:7], _WGK[:7], [_WGK[7]]])
_WG_FULL = np.zeros(15)
_WG_FULL[1:7:2] = _WG[:3]          # xgk[1], xgk[3], xgk[5] are Gauss nodes
_WG_FULL[8:14:2] = _WG[:3]
_WG_FULL[14] = _WG[3]

_MAX_PANELS = 8192
_T_SAT_PAD = 45.0   # beyond t = log n + pad the integrand is below 1e-18
_TAIL_REL = 1e-18


@dataclass
class CoreInterval:
    """Subinterval of (0,1) where almost all real zeros concentrate."""

    n: int
    lo: float
    hi: float
    empty: bool

    @property
    def t_lo(self) -> float:
        return math.log(max(self.n, 2)) ** 0.2

    @property
    def t_hi(self) -> float:
        return math.log(max(self.n, 2)) - math.log(max(self.n, 2)) ** 0.2


def core_interval(n: int) -> CoreInterval:
    """[1 - exp(-(log n)^{1/5}),  1 - exp((log n)^{1/5}) / n]."""
    if n < 2:
        raise DomainError("core interval needs n >= 2")
    u = math.log(n) ** 0.2
    lo = 1.0 - math.exp(-u)
    hi = 1.0 - math.exp(u) / n
    return CoreInterval(n=n, lo=lo, hi=hi, empty=not (0.0 < lo < hi < 1.0))


@dataclass
class AsymptoticPrediction:
    """Closed-form leading-order expected count for a region and regime."""

    regime: str           # "supercritical" | "critical" | "subcritical"
    region: str
    value: float | None   # None when only boundedness is known
    bounded: bool
    formula: str


def _regime(rho: float) -> str:
    if abs(rho + 0.5) <= 1e-12:
        return "critical"
    return "supercritical" if rho > -0.5 else "subcritical"


def asymptotic_prediction(rho: float, region: str, n: int) -> AsymptoticPrediction:
    """Leading-order expected-count formulas (natural logarithm).

    Regions: "01", "1inf", "pos" (0,inf), "neg" (-inf,0), "neg1inf",
    "sym" (-1,1), "R".  The subcritical inner regions are Theta(1) with no
    constant available; those come back flagged bounded with value None.
    """
    if n < 3:
        raise DomainError("asymptotic prediction needs n >= 3")
    ln = math.log(n)
    reg = _regime(rho)
    root = math.sqrt(2.0 * rho + 1.0) if reg == "supercritical" else 1.0

    def point(v, formula):
        return AsymptoticPrediction(reg, region, v, False, formula)

    def bounded():
        return AsymptoticPrediction(reg, region, None, True, "Theta(1)")

    if region in ("1inf", "neg1inf"):
        return point(ln / (2 * math.pi), "log(n)/(2 pi)")
    if region == "01":
        if reg == "supercritical":
            return point(root * ln / (2 * math.pi), "sqrt(2 rho + 1) log(n)/(2 pi)")
        if reg == "critical":
            return point(math.sqrt(ln) / math.pi, "sqrt(log n)/pi")
        return bounded()
    if region == "sym":
        if reg == "supercritical":
            return point(root * ln / math.pi, "sqrt(2 rho + 1) log(n)/pi")
        if reg == "critical":
            return point(2.0 * math.sqrt(ln) / math.pi, "2 sqrt(log n)/pi")
        return bounded()
    if region in ("pos", "neg"):
        if reg == "supercritical":
            return point((root + 1.0) * ln / (2 * math.pi),
                         "(sqrt(2 rho + 1) + 1) log(n)/(2 pi)")
        return point(ln / (2 * math.pi), "log(n)/(2 pi)")
    if region == "R":
        if reg == "supercritical":
            return point((root + 1.0) * ln / math.pi,
                         "(sqrt(2 rho + 1) + 1) log(n)/pi")
        return point(ln / math.pi, "log(n)/pi")
    if region in ("In", "In_inv"):
        # the core interval carries the leading term of its parent region
        parent = "01" if region == "In" else "1inf"
        p = asymptotic_prediction(rho, parent, n)
        return AsymptoticPrediction(p.regime, region, p.value, p.bounded, p.formula)
    raise DomainError(f"unknown region {region!r}")


# ---------------------------------------------------------------------------
# integrand
# ---------------------------------------------------------------------------

class KacRiceIntegrand:
    """Evaluator for P, Q, R of one coefficient vector.

    Series are truncated once the positive geometric tail falls below
    1e-18 of the running sum; near x = 1 the full length is forced.
    """

    def __init__(self, coeff_values: np.ndarray):
        v = np.asarray(coeff_values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DomainError("coefficient vector must be one-dimensional")
        self.sq = v * v
        self.n = len(v) - 1
        self.i = np.arange(self.n + 1, dtype=float)
        mx = float(np.max(self.sq))
        mn = float(self.sq[0])
        # terms i^2 c_i^2 y^i: log-margin covers the coefficient spread and
        # the i^2 factor at the largest retained index
        self._log_margin = (-math.log(_TAIL_REL) + max(0.0, math.log(mx / mn))
                            + 2.0 * math.log(self.n + 2.0))

    def _cutoff(self, y: float) -> int:
        if y <= 0.0:
            return 1
        lny = math.log(y)
        if lny >= -1e-12:
            return self.n + 1
        need = int(self._log_margin / (-lny)) + 64
        return min(self.n + 1, need)

    def moments(self, x: float):
        """(S0, S1, S2) with Sk = sum i^k c_i^2 x^{2i}."""
        y = x * x
        if y == 0.0:
            return float(self.sq[0]), 0.0, 0.0
        top = self._cutoff(y)
        i = self.i[:top]
        w = np.exp(i * math.log(y)) * self.sq[:top]
        s0 = float(np.sum(w))
        iw = i * w
        s1 = float(np.sum(iw))
        s2 = float(np.sum(i * iw))
        return s0, s1, s2

    def pqr(self, x: float):
        """(P, Q, R) at x; |x| must be < 1."""
        if abs(x) >= 1.0:
            raise DomainError("pqr is defined for |x| < 1; use the reversed "
                              "polynomial for (1, inf)")
        y = x * x
        if y == 0.0:
            q = float(self.sq[1]) if self.n >= 1 else 0.0
            return float(self.sq[0]), q, 0.0
        s0, s1, s2 = self.moments(x)
        return s0, s2 / y, s1 / x

    def density_t(self, t: float) -> float:
        """Zero density in t = -log(1-x); integrand of the expected count."""
        x = 1.0 - math.exp(-t)
        if x <= 0.0:
            if self.n < 1:
                return 0.0
            return (math.sqrt(self.sq[1]) / math.sqrt(self.sq[0])) / math.pi
        y = x * x
        s0, s1, s2 = self.moments(x)
        disc = (s0 * s2 - s1 * s1) / y
        if disc <= 0.0:
            return 0.0
        return math.sqrt(disc) / (math.pi * s0) * math.exp(-t)


def pqr(coeffs, x: float):
    """P, Q, R of the Gaussian covariance at x (|x| < 1)."""
    values = coeffs.values if isinstance(coeffs, CoeffVector) else np.asarray(coeffs, float)
    return KacRiceIntegrand(values).pqr(x)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod
# ---------------------------------------------------------------------------

def _gk_panel(f, a: float, b: float):
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid + h * _NODES
    fx = np.array([f(x) for x in xs])
    resk = float(np.dot(_WK_FULL, fx))
    resg = float(np.dot(_WG_FULL, fx))
    resabs = float(np.dot(_WK_FULL, np.abs(fx)))
    reskh = resk * 0.5
    resasc = float(np.dot(_WK_FULL, np.abs(fx - reskh)))
    integral = resk * h
    err = abs(resk - resg) * h
    resasc_s = resasc * h
    if resasc_s != 0.0 and err != 0.0:
        err = resasc_s * min(1.0, (200.0 * err / resasc_s) ** 1.5)
    err = max(err, 50.0 * np.finfo(float).eps * resabs * h)
    return integral, err


def adaptive_gauss_kronrod(f, a: float, b: float, tol: float,
                           max_panels: int = _MAX_PANELS):
    """Adaptive G7K15 on [a, b]; returns (integral, error_estimate)."""
    if b <= a:
        return 0.0, 0.0
    panels = [(a, b, *_gk_panel(f, a, b))]
    while True:
        total = sum(p[2] for p in panels)
        err = sum(p[3] for p in panels)
        if err <= max(tol, abs(total) * 1e-15):
            return total, err
        if len(panels) >= max_panels:
            raise QuadratureFailureError(
                f"quadrature error {err:.3e} above tolerance {tol:.3e} "
                f"after {len(panels)} panels on [{a}, {b}]")
        worst = max(range(len(panels)), key=lambda k: panels[k][3])
        pa, pb, _, _ = panels[worst]
        pm = 0.5 * (pa + pb)
        panels[worst] = (pa, pm, *_gk_panel(f, pa, pm))
        panels.append((pm, pb, *_gk_panel(f, pm, pb)))


# ---------------------------------------------------------------------------
# expected counts
# ---------------------------------------------------------------------------

def _coeff_values(coeffs) -> np.ndarray:
    if isinstance(coeffs, CoeffVector):
        return coeffs.values
    return np.asarray(coeffs, dtype=float)


def _t_of_x(x: float, n: int) -> float:
    if x >= 1.0:
        return math.log(max(n, 2)) + _T_SAT_PAD
    return -math.log(1.0 - x)


def _count_01(values: np.ndarray, x_lo: float, x_hi: float, quad_tol: float):
    """Expected zeros in (x_lo, x_hi) within [0, 1]."""
    n = len(values) - 1
    if n < 1:
        return 0.0, 0.0
    kr = KacRiceIntegrand(values)
    t_lo = _t_of_x(x_lo, n)
    t_hi = min(_t_of_x(x_hi, n), math.log(max(n, 2)) + _T_SAT_PAD)
    if t_hi <= t_lo:
        return 0.0, 0.0
    return adaptive_gauss_kronrod(kr.density_t, t_lo, t_hi, quad_tol)


def _reversed_values(values: np.ndarray) -> np.ndarray:
    return values[::-1] / values[-1]


def _sum_pieces(values: np.ndarray, pieces, quad_tol: float, done: dict):
    """Value and error estimate summed over split pieces, in order.

    ``done`` maps (family, a, b) to the integrals already taken.  A mirror
    piece reads its family's entry: f(-x) has the same c_m^2 as f(x).
    """
    total = err = 0.0
    for fam, a, b in pieces:
        key = (fam.removeprefix("m"), a, b)
        if key not in done:
            rows = values if key[0] == "dir" else _reversed_values(values)
            done[key] = _count_01(rows, a, b, quad_tol)
        v, e = done[key]
        total += v
        err += e
    return total, err


def expected_roots_gaussian_with_error(coeffs, interval, quad_tol: float = 1e-8):
    """Expected count plus quadrature error estimate for one interval.

    The interval is cut by ``split_interval``; pieces inside (1, inf)
    evaluate the reversed coefficients d_m = c_{n-m}/c_n, and each distinct
    piece is integrated once.
    """
    return _sum_pieces(_coeff_values(coeffs), split_interval(interval)[0],
                       quad_tol, {})


def expected_roots_gaussian(coeffs, interval, quad_tol: float = 1e-8) -> float:
    """Expected number of real zeros in an interval (Gaussian noise)."""
    return expected_roots_gaussian_with_error(coeffs, interval, quad_tol)[0]


def expected_roots_gaussian_reversed(coeffs, quad_tol: float = 1e-8) -> float:
    """Expected zeros in (1, inf) via the reversed coefficient vector."""
    values = _coeff_values(coeffs)
    v, _ = _count_01(_reversed_values(values), 0.0, 1.0, quad_tol)
    return v


# Region presets by name.  "In" is the core interval and "In_inv" its image
# under x -> 1/x; both depend on the degree.
_REGION_INTERVALS = {
    "01": (0.0, 1.0),
    "1inf": (1.0, math.inf),
    "sym": (-1.0, 1.0),
    "neg1inf": (-math.inf, -1.0),
    "pos": (0.0, math.inf),
    "neg": (-math.inf, 0.0),
    "R": (-math.inf, math.inf),
    "In": None,
    "In_inv": None,
}
REGIONS = tuple(_REGION_INTERVALS)


def region_interval(region: str, n: int) -> Interval:
    """Interval preset for a region name.

    "In" and "In_inv" need the degree; where the core interval is empty
    (n < 11) they are the empty open interval (1, 1).
    """
    if region not in _REGION_INTERVALS:
        raise DomainError(f"unknown region {region!r}")
    if _REGION_INTERVALS[region] is not None:
        return Interval(*_REGION_INTERVALS[region])
    if n < 2 or core_interval(n).empty:
        return Interval(1.0, 1.0)
    ci = core_interval(n)
    if region == "In":
        return Interval(ci.lo, ci.hi, closed_lo=True, closed_hi=True)
    return Interval(1.0 / ci.hi, 1.0 / ci.lo, closed_lo=True, closed_hi=True)


def split_interval(iv: Interval):
    """Cut an interval at -1, 0 and 1; returns (pieces, points).

    Each piece (family, a, b) is the open range a < u < b, 0 <= a < b <= 1,
    of its family's variable: u = x for "dir", 1/x for "rev", -x for
    "mdir" and -1/x for "mrev", in that order.  The points are those of
    0, 1 and -1 that the interval contains.
    """
    pieces = []
    for fam, rev, lo, hi in (("dir", "rev", iv.lo, iv.hi),
                             ("mdir", "mrev", -iv.hi, -iv.lo)):
        lo = max(lo, 0.0)
        if min(hi, 1.0) > lo:
            pieces.append((fam, lo, min(hi, 1.0)))
        if hi > max(lo, 1.0):
            # x in (lo, hi) within (1, inf)  <->  1/x in (1/hi, 1/lo)
            pieces.append((rev, 1.0 / hi, 1.0 / max(lo, 1.0)))
    points = tuple(p for p in (0.0, 1.0, -1.0) if iv.contains(p))
    return pieces, points


def expected_roots_regions(coeffs, regions, quad_tol: float = 1e-8) -> dict:
    """(value, error) for each named region preset.

    The regions share their pieces: each distinct piece is integrated once
    for all of them.
    """
    values = _coeff_values(coeffs)
    n = len(values) - 1
    done: dict = {}
    return {r: _sum_pieces(values, split_interval(region_interval(r, n))[0],
                           quad_tol, done)
            for r in regions}


def expected_roots_region(coeffs, region: str, quad_tol: float = 1e-8):
    """Expected count over a named region preset; returns (value, error)."""
    return expected_roots_regions(coeffs, [region], quad_tol)[region]
