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
crossing has to be located.  The perturbation grows like eps r^(d-1)
relative to r, so radius r gets eps(r) = eps0 max(r, 1)^(1-d), one lane of
one vector integration each, and the count reads the sign changes of the
scaled displacement (P(r) - r) / eps(r) = s M(r) / r + O(eps0), whose zeros
tend to those of M as eps0 -> 0 (Han & Yu, Normal Forms, Melnikov Functions
and Bifurcations of Limit Cycles, Springer 2012).  eps0 halves until two
levels agree on the count, and only that level is refined: each round
integrates about a dozen probes per bracket in one call (the zero of the
cubic through the nearest known points, a geometric ladder around it, the
bracket's quarter points), so a fixed point takes two or three rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import (DomainError, EscapeError, NoReturnError,
                     NonConvergentError)
from .rootcount import sweep_roots
from .sampler import (PerturbationCoefficients, melnikov_noise_from_lienard,
                      melnikov_noise_from_perturbation)

SQRT_8PI = math.sqrt(8.0 * math.pi)


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
    prefactor: float
    ode_sign: float    # orientation factor s in P(r) - r ~ eps s M(r) / r

    def f(self, x):
        return polyval(x, self.fn_coeffs)

    def value(self, r: float) -> float:
        return self.prefactor * r * r * self.f(r * r)


@dataclass
class LimitCycleReport:
    """Bifurcating limit cycles: count, radii, nondegeneracy flags."""

    count: int
    radii: np.ndarray
    nondegenerate: np.ndarray
    zero_polynomial: bool = False


def build_melnikov(sys: PerturbedSystem) -> MelnikovPoly:
    """Melnikov polynomial coefficients for one perturbed system."""
    if sys.kind == "center":
        coeffs = melnikov_noise_from_perturbation(sys.pc)
        return MelnikovPoly(coeffs, SQRT_8PI, +1.0)
    coeffs = melnikov_noise_from_lienard(sys.pc)
    return MelnikovPoly(coeffs, 1.0, -1.0)


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
    """Cycle count and radii from the positive zeros of M: sqrt x at the
    roots x of f_n in (0, inf) from ``rootcount.sweep_roots``, as often as
    the sweep counts them.  A radius is nondegenerate (M'(r) != 0) when its
    root lies in a certified monotone bracket.  An identically-zero M comes
    back as a flagged zero count (the one-to-one correspondence assumes M
    not identically zero).
    """
    mp = build_melnikov(sys)
    if not np.any(mp.fn_coeffs != 0.0):
        return LimitCycleReport(0, np.empty(0), np.empty(0, dtype=bool),
                                zero_polynomial=True)
    x, simple = sweep_roots(mp.fn_coeffs)
    return LimitCycleReport(len(x), np.sqrt(x), simple)


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

    The perturbation is materialized once; eps is an argument, a scalar or
    one value per lane, so one field serves every level of an eps schedule.
    """

    def __init__(self, sys: PerturbedSystem):
        self.d = sys.pc.d                              # sets eps(r)
        if sys.kind == "center":
            alpha, beta = _coefficient_grids(sys.pc)
            self.pq = np.hstack([alpha, beta])         # (d+1, 2(d+1))
            self.a = None
        else:
            # x' = y - eps p(x): P = -p(x), Q = 0, p(x) = x * polyval(x, a)
            self.pq = None
            self.a = sys.pc.alpha / (2.0 * math.sqrt(math.pi))

    def __call__(self, phi: np.ndarray, r: np.ndarray, eps):
        """(dr/dphi, ok); ok is False where phi' <= 0, r <= 0 or the rate is not finite."""
        c, s = np.cos(phi), np.sin(phi)
        x, y = r * c, -r * s
        if self.pq is not None:
            n, d1 = len(r), self.pq.shape[0]
            v = np.vander(np.concatenate([x, y]), d1, increasing=True)
            p, q = np.einsum("lkj,lj->kl", (v[:n] @ self.pq).reshape(n, 2, d1), v[n:])
        else:
            p = -x * polyval(x, self.a)
            q = 0.0
        phidot = 1.0 - eps * (c * q + s * p) / r
        rate = eps * (c * p - s * q) / phidot
        return rate, (phidot > 0.0) & (r > 0.0) & np.isfinite(rate)


def _returns(field: _PolarField, eps, r0: np.ndarray):
    """(P(r0), fate) for every start radius (r0, 0) at once.

    Integrates dr/dphi from phi = 0 to 2 pi, so P is r at the end and needs
    no section-crossing search.  Each lane keeps its own angle, step size and
    accept/reject decision, and its own eps: eps is a scalar or one value
    per lane, so lanes of several eps levels share one integration.  A lane
    that leaves radius 10 r0 is _ESCAPED; one whose phi' loses its sign (the
    step collapses below _H_MIN) is _NO_RETURN; both come back NaN.
    """
    r0 = np.asarray(r0, dtype=float)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), r0.shape)
    out = np.full(r0.size, np.nan)
    fate = np.full(r0.size, _RETURNED)
    with np.errstate(all="ignore"):
        r = r0.copy()
        f, ok = field(np.zeros_like(r), r, eps)
        fate[~ok] = _NO_RETURN
        lane = np.flatnonzero(ok)
        r, f, cap, eps = r[lane], f[lane], _R_CAP * r0[lane], eps[lane]
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
                lane, r, f, cap, eps, phi, h, tries = (
                    v[keep] for v in (lane, r, f, cap, eps, phi, h, tries))
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


def _displacement(field: _PolarField, eps0, r: np.ndarray) -> np.ndarray:
    """(P(r) - r) / eps(r), with eps(r) = eps0 max(r, 1)^(1-d) per lane.

    eps0 is a scalar or one value per lane; an escaping or non-returning
    lane is NaN.
    """
    eps = eps0 * np.maximum(r, 1.0) ** (1 - field.d)
    return (_returns(field, eps, r)[0] - r) / eps


def _brackets(gv: np.ndarray) -> np.ndarray:
    """Mask of the grid cells where g changes sign.

    A cell brackets a fixed point when g is a number at both ends, nonzero at
    the left end and not of the same sign at the right end; an exact zero is
    thus bracketed once, by the cell to its left.
    """
    ga, gb = gv[:-1], gv[1:]
    with np.errstate(invalid="ignore"):
        return ~np.isnan(ga) & ~np.isnan(gb) & (ga != 0.0) & ~(ga * gb > 0.0)


# _fixed_points: a bracket narrower than _STOP max(1, r) is done; probes sit at
# c -+ delta _LADDER and at the _FRACTIONS of the bracket
_STOP = 1e-10
_LADDER = 4.0 ** np.arange(5)[:, None]
_FRACTIONS = np.array([0.25, 0.5, 0.75])[:, None]


def _centers(w: np.ndarray, f: np.ndarray):
    """(c, s) for the brackets [a, b] of the columns of w = (left, a, b, right).

    f holds g at those nodes; a neighbour is used when its g is a number
    and it lies outside [a, b].  s is the regula falsi point of [a, b] (the
    midpoint when that is not inside), and c the zero in (a, b) of the
    polynomial through a, b and the usable neighbours: a cubic in Newton's
    divided-difference form, found by Newton steps on the polynomial, each
    kept inside the polynomial's own sign-change bracket and a bisection
    where it would leave it.  c falls back to s when no zero is found.
    """
    left, a, b, right = w
    fl, fa, fb, fr = f
    with np.errstate(all="ignore"):
        has_l = np.isfinite(fl) & (left < a)
        has_r = np.isfinite(fr) & (right > b)
        s = (a * fb - b * fa) / (fb - fa)
        s = np.where((s > a) & (s < b), s, 0.5 * (a + b))
        # nodes a, b, u, v: u is the left neighbour if usable, else the right
        u = np.where(has_l, left, np.where(has_r, right, 0.0))
        fu = np.where(has_l, fl, fr)
        v, fv = np.where(has_r, right, 0.0), fr
        d_ab = (fb - fa) / (b - a)
        d_bu = (fu - fb) / (u - b)
        d_abu = (d_bu - d_ab) / (u - a)
        d_buv = ((fv - fu) / (v - u) - d_bu) / (v - b)
        c2 = np.where(has_l | has_r, d_abu, 0.0)
        c3 = np.where(has_l & has_r, (d_buv - d_abu) / (v - a), 0.0)
        lo, hi, x = a, b, s
        for _ in range(8):
            q = c2 + c3 * (x - u)
            p = fa + (x - a) * (d_ab + (x - b) * q)
            dp = d_ab + (x - b) * q + (x - a) * (q + (x - b) * c3)
            same = p * fa > 0.0
            lo, hi = np.where(same, x, lo), np.where(same, hi, x)
            step = x - p / dp
            step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
            x = np.where(p == 0.0, x, step)
    c = np.where((x > a) & (x < b), x, s)
    return c, s


def _fixed_points(g, rs: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """One zero of g per bracket of gv = g(rs) on the grid rs.

    All brackets are refined together, and each round evaluates all their
    probes in one call of g.  A bracket [a, b] is probed at:

    - its center c, the zero of the cubic through the up-to-four points
      around it (the grid values at first, then the last round's sorted
      points), with regula falsi as the fallback (see _centers);
    - the ladder c -+ delta {1, 4, 16, 64, 256}, where delta = |c - s| / 16
      for the regula falsi point s (the ladder spans |c - s| / 16 to
      16 |c - s|), and never below a fifth of the stop width;
    - a + (b - a) {1/4, 1/2, 3/4}, so that each round shrinks the bracket
      at least fourfold.

    Probes outside (a, b) are not integrated.  The new bracket is the first
    interval of the sorted points that changes sign by the rule of
    _brackets.  A bracket stops at a point where g is exactly zero, which it
    reports; or when it is narrower than the stop width 1e-10 max(1, b), or
    when NaN values of g leave no sign-change interval, and then it reports
    its midpoint.
    """
    sel = np.flatnonzero(_brackets(gv))
    nodes = np.arange(4)[:, None]
    # each bracket's window: left neighbour, a, b, right neighbour
    w = np.pad(rs, 1, constant_values=np.nan)[sel + nodes]
    f = np.pad(gv, 1, constant_values=np.nan)[sel + nodes]
    root = np.full(sel.size, np.nan)
    act = np.arange(sel.size)
    for _ in range(40):
        if not act.size:
            break
        a, b, fa, fb = w[1, act], w[2, act], f[1, act], f[2, act]
        c, s = _centers(w[:, act], f[:, act])
        delta = np.maximum(np.abs(c - s) / 16.0, _STOP / 5.0 * np.maximum(1.0, b))
        probes = np.vstack([c, c - delta * _LADDER, c + delta * _LADDER,
                            a + (b - a) * _FRACTIONS])
        inside = (probes > a) & (probes < b)
        gp = np.full(probes.shape, np.nan)
        gp[inside] = g(probes[inside])
        # probes outside (a, b) sort past b, where their NaN changes no sign
        pts = np.vstack([a, np.where(inside, probes, np.inf), b])
        vals = np.vstack([fa, gp, fb])
        order = np.argsort(pts, axis=0)
        pts = np.take_along_axis(pts, order, axis=0)
        vals = np.take_along_axis(vals, order, axis=0)
        change = _brackets(vals)
        found = change.any(axis=0)
        i = np.argmax(change, axis=0)
        col = np.arange(act.size)
        w[:, act] = np.pad(pts, ((1, 1), (0, 0)), constant_values=np.nan)[i + nodes, col]
        f[:, act] = np.pad(vals, ((1, 1), (0, 0)), constant_values=np.nan)[i + nodes, col]
        lo, hi = w[1, act], w[2, act]
        nan, zero = ~found, found & (f[2, act] == 0.0)
        root[act[nan]] = 0.5 * (a + b)[nan]
        root[act[zero]] = hi[zero]
        narrow = (hi - lo < _STOP * np.maximum(1.0, hi)) & ~(nan | zero)
        root[act[narrow]] = 0.5 * (lo + hi)[narrow]
        act = act[~(nan | zero | narrow)]
    root[act] = 0.5 * (w[1, act] + w[2, act])
    return root


def _ode_grid(sys: PerturbedSystem) -> np.ndarray:
    """The radial grid of the ODE cross-check.

    The window spans the Melnikov radii, and the grid densifies when they sit
    close together, so adjacent fixed points fall in separate cells.
    """
    radii_hint = count_bifurcating_cycles(sys).radii
    r_lo, r_hi = _ODE_WINDOW
    grid = _ODE_GRID
    if len(radii_hint):
        r_lo, r_hi = max(1e-3, 0.5 * radii_hint.min()), 1.5 * radii_hint.max()
        if len(radii_hint) > 1:
            min_gap = float(np.min(np.diff(np.sort(radii_hint))))
            if min_gap > 0.0:
                grid = int(min(320, max(_ODE_GRID,
                                        math.ceil(4.0 * (r_hi - r_lo) / min_gap))))
    return np.linspace(r_lo, r_hi, grid)


def verify_cycles_ode(sys: PerturbedSystem,
                      eps_start: float = 1e-3) -> LimitCycleReport:
    """Fixed points of the return map, stabilized over an eps schedule.

    The schedule halves eps0 from eps_start, which must lie in (0, 1), down
    to _EPS_FLOOR, and must hold at least two levels.  At level eps0 the
    radius r integrates with eps(r) = eps0 max(r, 1)^(1-d), so eps0 is the
    relative size of the perturbation at every radius, and the scaled
    displacement (P(r) - r) / eps(r) is evaluated on a radial grid.  Levels
    are integrated in pairs, the grid of both as one batched integration
    with eps per lane, and read one at a time.  A level's count is its
    number of sign-change brackets; the schedule stops when two consecutive
    levels agree, and only that level's brackets are refined to fixed
    points, which it reports.  Escaping or non-returning radii contribute no
    sign information.
    """
    if not 0.0 < eps_start < 1.0:
        raise DomainError(f"eps_start must lie in (0, 1), got {eps_start!r}")
    schedule = []
    eps = eps_start
    while eps >= _EPS_FLOOR * 0.999:
        schedule.append(eps)
        eps *= 0.5
    if len(schedule) < 2:
        raise DomainError(f"eps_start {eps_start:g} leaves fewer than two eps "
                          f"levels at or above {_EPS_FLOOR:g}")
    rs = _ode_grid(sys)
    field = _PolarField(sys)
    prev_count = None
    for k in range(0, len(schedule), 2):
        pair = schedule[k:k + 2]
        gvs = _displacement(field, np.repeat(pair, len(rs)),
                            np.tile(rs, len(pair))).reshape(len(pair), len(rs))
        for eps, gv in zip(pair, gvs):
            # one system per level: bench/spans.py counts eps levels through replace
            replace(sys, epsilon=eps)
            count = int(_brackets(gv).sum())
            if count == prev_count:
                radii = _fixed_points(lambda r: _displacement(field, eps, r), rs, gv)
                return LimitCycleReport(count, radii, np.ones(count, dtype=bool))
            prev_count = count
    raise NonConvergentError(
        f"cycle count never stabilized before eps = {_EPS_FLOOR:g}")
