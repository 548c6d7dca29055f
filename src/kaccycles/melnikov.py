"""Limit cycles of randomly perturbed planar centers.

A degree-d perturbation of the linear center,

    x' = y + eps p(x,y),   y' = -x + eps q(x,y),

bifurcates limit cycles at the nondegenerate positive zeros of the radial
Melnikov polynomial M(r) = sqrt(8 pi) r^2 f_n(r^2), n = (d-1)//2, whose
coefficients come out of :func:`kaccycles.sampler.melnikov_noise_from_perturbation`.
The single-variable variant x' = y - eps p(x), y' = -x carries M(r) =
r^2 f_n(r^2) under the 1/(2 sqrt(pi)) normalization folded into p.

Orientation note: the forward-time flow of these systems is clockwise, while
M is the flux through the circle with its counterclockwise parametrization.
The first-order displacement of the return map on the positive x-axis is

    P(r) - r = eps * s * M(r) / r + O(eps^2),

with s = +1 for the full center and s = -1 for the single-variable system
(whose perturbation enters x' negated).  Zero sets, hence cycle counts, do
not depend on s.

The cross-validator writes the flow in the clockwise polar angle
phi = -theta and integrates dr/dphi over phi in [0, 2 pi] with an embedded
Dormand-Prince 5(4) pair, so P(r0) is r at phi = 2 pi and no section
crossing has to be located.  Every radius of a grid is one lane of a single
vector integration; the sign changes of P(r) - r are refined together by
the Illinois variant of regula falsi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import (DomainError, EscapeError, NoReturnError,
                     NonConvergentError)
from .rootcount import Interval, count_in_interval
from .sampler import (PerturbationCoefficients, melnikov_noise_from_lienard,
                      melnikov_noise_from_perturbation)

SQRT_8PI = math.sqrt(8.0 * math.pi)

# nondegeneracy: |M'(r)| must exceed this times prefactor * ||f_n||_2
NONDEGENERATE_RTOL = 1e-8


@dataclass
class PerturbedSystem:
    """A perturbed center ready for both pipelines."""

    kind: str                      # "center" | "lienard"
    pc: PerturbationCoefficients
    epsilon: float = 1e-3

    def __post_init__(self):
        if self.kind not in ("center", "lienard"):
            raise DomainError(f"unknown system kind {self.kind!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError("epsilon must lie in (0, 1)")
        if self.kind == "center" and self.pc.kind != "full":
            raise DomainError("center systems need a full bivariate perturbation")
        if self.kind == "lienard" and self.pc.kind != "lienard":
            raise DomainError("lienard systems need a single-variable perturbation")


@dataclass
class MelnikovPoly:
    """M(r) = prefactor * r^2 * f_n(r^2)."""

    fn_coeffs: np.ndarray
    n: int
    prefactor: float
    ode_sign: float    # orientation factor s in P(r) - r ~ eps s M(r) / r

    def f(self, x):
        return polyval(x, self.fn_coeffs)

    def f_prime(self, x):
        deriv = np.arange(1, self.n + 1) * self.fn_coeffs[1:]
        return polyval(x, deriv if self.n else [0.0])

    def value(self, r: float) -> float:
        return self.prefactor * r * r * self.f(r * r)

    def derivative(self, r: float) -> float:
        x = r * r
        return self.prefactor * (2.0 * r * self.f(x) + 2.0 * r * x * self.f_prime(x))


@dataclass
class LimitCycleReport:
    """Bifurcating limit cycles: count, radii, nondegeneracy flags."""

    count: int
    radii: np.ndarray
    nondegenerate: np.ndarray
    method: str
    zero_polynomial: bool = False


def build_melnikov(sys: PerturbedSystem) -> MelnikovPoly:
    """Melnikov polynomial coefficients for one perturbed system."""
    if sys.kind == "center":
        coeffs = melnikov_noise_from_perturbation(sys.pc)
        return MelnikovPoly(coeffs, len(coeffs) - 1, SQRT_8PI, +1.0)
    coeffs = melnikov_noise_from_lienard(sys.pc)
    return MelnikovPoly(coeffs, len(coeffs) - 1, 1.0, -1.0)


# ---------------------------------------------------------------------------
# flux quadrature
# ---------------------------------------------------------------------------

def _coefficient_grids(pc: PerturbationCoefficients):
    """(d+1, d+1) arrays A, B with p = sum A[j, k] x^j y^k, q likewise.

    Materializes a seeded pc once; the flat arrays are in canonical pair
    rank order, which runs over s = j + k, then k.
    """
    mat = pc.materialized()
    s = np.repeat(np.arange(1, pc.d + 1), np.arange(2, pc.d + 2))
    k = np.arange(len(s)) - (s - 1) * (s + 2) // 2
    grids = np.zeros((2, pc.d + 1, pc.d + 1))
    grids[0, s - k, k] = mat.alpha
    grids[1, s - k, k] = mat.beta
    return grids[0], grids[1]


def melnikov_flux_quadrature(sys: PerturbedSystem, r: float) -> float:
    """Flux of the perturbation through the circle of radius r.

    Trapezoid rule in the angle; the integrand is a trigonometric polynomial
    of degree d+1, so node count 4d+8 integrates it exactly up to roundoff.
    Matches prefactor * r^2 * f_n(r^2).
    """
    if r <= 0.0:
        raise DomainError("flux radius must be positive")
    d = sys.pc.d
    nodes = 4 * d + 8
    th = np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False)
    x = r * np.cos(th)
    y = r * np.sin(th)
    if sys.kind == "center":
        alpha, beta = _coefficient_grids(sys.pc)
        xp = np.vander(x, d + 1, increasing=True)
        yp = np.vander(y, d + 1, increasing=True)
        p = ((xp @ alpha) * yp).sum(axis=1)
        q = ((xp @ beta) * yp).sum(axis=1)
        integrand = p * x + q * y
    else:
        px = polyval(x, sys.pc.alpha)
        px *= x / (2.0 * math.sqrt(math.pi))   # p(x) = (1/(2 sqrt pi)) sum alpha_k x^k
        integrand = px * x
    return float(integrand.mean() * 2.0 * math.pi)


def count_bifurcating_cycles(sys: PerturbedSystem) -> LimitCycleReport:
    """Cycle count and radii from the positive zeros of M.

    Radii are sqrt of the positive roots of f_n; a root is flagged
    nondegenerate when |M'(r)| exceeds NONDEGENERATE_RTOL times the
    coefficient scale.  An identically-zero M comes back as a flagged zero
    count (the one-to-one correspondence assumes M not identically zero).
    """
    mp = build_melnikov(sys)
    if not np.any(mp.fn_coeffs != 0.0):
        return LimitCycleReport(0, np.empty(0), np.empty(0, dtype=bool),
                                "melnikov", zero_polynomial=True)
    rep = count_in_interval(mp.fn_coeffs, Interval(0.0, math.inf))
    radii = np.sqrt(rep.roots)
    scale = mp.prefactor * float(np.linalg.norm(mp.fn_coeffs))
    nd = np.array([abs(mp.derivative(r)) > NONDEGENERATE_RTOL * scale
                   for r in radii], dtype=bool)
    # multiplicity > 1 is degenerate by definition
    nd &= rep.multiplicities == 1
    count = int(rep.multiplicities.sum())
    return LimitCycleReport(count, radii, nd, "melnikov")


# ---------------------------------------------------------------------------
# polar return map: Dormand-Prince 5(4) in the angle, one lane per radius
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4

_RTOL = 1e-10
_ATOL = 1e-12
_H_MAX = 0.2
_H_MIN = 1e-10       # a lane whose step falls below this never completes the turn
_MAX_TRIES = 10_000  # step attempts per lane
_R_CAP = 10.0        # escape radius, in units of the start radius
_TWO_PI = 2.0 * math.pi
# verify_cycles_ode: the eps schedule stops below _EPS_FLOOR; without a
# Melnikov radius the grid spans _ODE_WINDOW with _ODE_GRID radii
_EPS_FLOOR = 1e-5
_ODE_WINDOW = (0.05, 5.0)
_ODE_GRID = 48

# lane fates
_RETURNED, _ESCAPED, _NO_RETURN = 0, 1, 2


class _PolarField:
    """dr/dphi of a perturbed system in the clockwise angle phi = -theta.

    With x = r cos(phi), y = -r sin(phi) and the system written as
    x' = y + eps P(x, y), y' = -x + eps Q(x, y),

        r'   = eps (cos(phi) P - sin(phi) Q),
        phi' = 1 - eps (cos(phi) Q + sin(phi) P) / r.

    The perturbation is materialized once; eps is an argument, so one field
    serves every level of an eps schedule.
    """

    def __init__(self, sys: PerturbedSystem):
        if sys.kind == "center":
            alpha, beta = _coefficient_grids(sys.pc)
            self.pq = np.hstack([alpha, beta])         # (d+1, 2(d+1))
            self.a = None
        else:
            # x' = y - eps p(x): P = -p(x), Q = 0, p(x) = x * polyval(x, a)
            self.pq = None
            self.a = sys.pc.alpha / (2.0 * math.sqrt(math.pi))

    def __call__(self, phi: np.ndarray, r: np.ndarray, eps: float):
        """(dr/dphi, ok); ok is False where phi' <= 0, r <= 0 or the rate is not finite."""
        c, s = np.cos(phi), np.sin(phi)
        x, y = r * c, -r * s
        if self.pq is not None:
            d1 = self.pq.shape[0]
            xp, yp = np.split(np.vander(np.concatenate([x, y]), d1, increasing=True), 2)
            p, q = np.einsum("lkj,lj->kl", (xp @ self.pq).reshape(len(r), 2, d1), yp)
        else:
            p = -x * polyval(x, self.a)
            q = 0.0
        phidot = 1.0 - eps * (c * q + s * p) / r
        rate = eps * (c * p - s * q) / phidot
        return rate, (phidot > 0.0) & (r > 0.0) & np.isfinite(rate)


def _returns(field: _PolarField, eps: float, r0: np.ndarray):
    """(P(r0), fate) for every start radius (r0, 0) at once.

    Integrates dr/dphi from phi = 0 to 2 pi, so P is r at the end and needs
    no section-crossing search.  Each lane keeps its own angle, step size and
    accept/reject decision.  A lane that leaves radius 10 r0 is _ESCAPED; one
    whose phi' loses its sign (the step collapses below _H_MIN) is
    _NO_RETURN; both come back NaN.
    """
    r0 = np.asarray(r0, dtype=float)
    out = np.full(r0.size, np.nan)
    fate = np.full(r0.size, _RETURNED)
    with np.errstate(all="ignore"):
        r = r0.copy()
        f, ok = field(np.zeros_like(r), r, eps)
        fate[~ok] = _NO_RETURN
        lane = np.flatnonzero(ok)
        r, f, cap = r[lane], f[lane], _R_CAP * r0[lane]
        phi = np.zeros_like(r)
        h = np.full_like(r, 1e-3)
        tries = np.zeros(r.size, dtype=int)
        while lane.size:
            rem = _TWO_PI - phi
            h = np.minimum(np.minimum(h, _H_MAX), rem)
            last = h == rem
            ks = np.empty((7, lane.size))
            ks[0] = f
            bad = np.zeros(lane.size, dtype=bool)
            for i in range(1, 7):
                ri = r + h * (_DP_A[i] @ ks[:i])
                ks[i], ok = field(phi + _DP_C[i] * h, ri, eps)
                bad |= ~ok
            # ri is the fifth-order solution; stage 7 is the rate there (FSAL)
            err = np.abs(h * (_DP_E @ ks)) / (_ATOL + _RTOL * np.maximum(np.abs(r), np.abs(ri)))
            acc = (err <= 1.0) & ~bad
            phi = np.where(acc, np.where(last, _TWO_PI, phi + h), phi)
            r = np.where(acc, ri, r)
            f = np.where(acc, ks[6], f)
            h *= np.where(bad, 0.2, np.clip(0.9 * err ** -0.2, 0.2, 5.0))
            tries += 1
            esc = acc & (r > cap)
            fin = acc & last & ~esc
            lost = ~(esc | fin) & ((h < _H_MIN) | (tries >= _MAX_TRIES))
            out[lane[fin]] = r[fin]
            fate[lane[esc]] = _ESCAPED
            fate[lane[lost]] = _NO_RETURN
            keep = ~(esc | fin | lost)
            if not keep.all():
                lane, r, f, cap, phi, h, tries = (v[keep] for v in
                                                  (lane, r, f, cap, phi, h, tries))
    return out, fate


def poincare_return(sys: PerturbedSystem, r0: float) -> float:
    """First return of the trajectory from (r0, 0) to the positive x-axis.

    One lane of the polar return map: adaptive Dormand-Prince 5(4) on
    dr/dphi over one clockwise turn, relative tolerance 1e-10.  Raises
    Escape past radius 10 r0 and NoReturn when the angle stops advancing.
    """
    if r0 <= 0.0:
        raise DomainError("return map needs r0 > 0")
    out, fate = _returns(_PolarField(sys), sys.epsilon, np.array([r0]))
    if fate[0] == _ESCAPED:
        raise EscapeError(f"trajectory escaped past {_R_CAP * r0:g}")
    if fate[0] == _NO_RETURN:
        raise NoReturnError("the angle stopped advancing before one full turn")
    return float(out[0])


def _fixed_points(field: _PolarField, eps: float, rs: np.ndarray,
                  gv: np.ndarray) -> np.ndarray:
    """One fixed point of the return map per sign change of gv on the grid rs.

    All brackets are refined together by the Illinois variant of regula
    falsi (an end kept twice in a row has its g halved).  A bracket stops
    at a point where g is exactly zero, which it reports; or when it is
    narrower than 1e-10 max(1, b), or when g is NaN inside it, and then it
    reports its midpoint.
    """
    ga, gb = gv[:-1], gv[1:]
    with np.errstate(invalid="ignore"):
        sel = ~np.isnan(ga) & ~np.isnan(gb) & (ga != 0.0) & ~(ga * gb > 0.0)
    a, b, ga, gb = rs[:-1][sel], rs[1:][sel], ga[sel], gb[sel]
    root = np.full(a.size, np.nan)
    side = np.zeros(a.size, dtype=int)       # -1: a moved last, +1: b moved last
    act = np.arange(a.size)
    for _ in range(40):
        if not act.size:
            break
        aa, bb, fa, fb, sd = a[act], b[act], ga[act], gb[act], side[act]
        c = (aa * fb - bb * fa) / (fb - fa)
        c = np.where((c > aa) & (c < bb), c, 0.5 * (aa + bb))
        gc = _returns(field, eps, c)[0] - c
        nan, zero = np.isnan(gc), gc == 0.0
        root[act[nan]] = 0.5 * (aa + bb)[nan]
        root[act[zero]] = c[zero]
        left = (gc > 0.0) == (fa > 0.0)
        fb = np.where(left & (sd == -1), 0.5 * fb, fb)
        fa = np.where(~left & (sd == 1), 0.5 * fa, fa)
        a[act] = np.where(left, c, aa)
        b[act] = np.where(left, bb, c)
        ga[act] = np.where(left, gc, fa)
        gb[act] = np.where(left, fb, gc)
        side[act] = np.where(left, -1, 1)
        narrow = (b[act] - a[act] < 1e-10 * np.maximum(1.0, b[act])) & ~(nan | zero)
        root[act[narrow]] = 0.5 * (a + b)[act[narrow]]
        act = act[~(nan | zero | narrow)]
    root[act] = 0.5 * (a[act] + b[act])
    return root


def verify_cycles_ode(sys: PerturbedSystem,
                      eps_start: float = 1e-2) -> LimitCycleReport:
    """Fixed points of the return map, stabilized over an eps schedule.

    g(r) = P(r) - r is evaluated on a radial grid, all radii in one batched
    integration; sign changes are refined together to fixed points.  eps
    halves until the sign-change count agrees on two consecutive levels; the
    stabilized level's fixed points are reported.  Escaping or non-returning
    radii contribute no sign information.  The window spans the Melnikov
    radii, and the grid densifies when they sit close together, so adjacent
    fixed points stay separated.
    """
    radii_hint = None
    mp = build_melnikov(sys)
    rep = count_in_interval(mp.fn_coeffs, Interval(0.0, math.inf)) \
        if np.any(mp.fn_coeffs != 0.0) else None
    if rep is not None and rep.count > 0:
        radii_hint = np.sqrt(rep.roots)
    r_lo, r_hi = _ODE_WINDOW
    grid = _ODE_GRID
    if radii_hint is not None:
        r_lo, r_hi = max(1e-3, 0.5 * radii_hint.min()), 1.5 * radii_hint.max()
        if len(radii_hint) > 1:
            min_gap = float(np.min(np.diff(np.sort(radii_hint))))
            if min_gap > 0.0:
                grid = int(min(320, max(_ODE_GRID,
                                        math.ceil(4.0 * (r_hi - r_lo) / min_gap))))
    rs = np.linspace(r_lo, r_hi, grid)
    res = (r_hi - r_lo) / grid

    field = _PolarField(sys)
    prev_count = None
    eps = eps_start
    while eps >= _EPS_FLOOR * 0.999:
        # one system per level: bench/spans.py counts eps levels through replace
        s_eps = replace(sys, epsilon=eps)
        gv = _returns(field, s_eps.epsilon, rs)[0] - rs
        fixed = _fixed_points(field, s_eps.epsilon, rs, gv)
        merged = []
        for r in sorted(fixed):
            if not merged or r - merged[-1] > res:
                merged.append(r)
        if prev_count is not None and prev_count == len(merged):
            radii = np.array(merged)
            return LimitCycleReport(len(merged), radii,
                                    np.ones(len(merged), dtype=bool), "ode")
        prev_count = len(merged)
        eps *= 0.5
    raise NonConvergentError(
        f"cycle count never stabilized before eps = {_EPS_FLOOR:g}")
