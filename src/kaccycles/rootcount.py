"""Real-root counting and location for realized polynomials.

Three methods with different contracts:

* ``real_roots`` / ``count_in_interval`` — eigenvalues of the balanced
  companion matrix, Newton-polished; locates every root, O(n^3), where
  root positions are needed (the Melnikov radii, CLI ``count``).
* ``sturm_count`` (re-exported from :mod:`kaccycles.sturm`) — exact integer
  arithmetic oracle for degree <= 64.
* ``sweep_count`` / ``sweep_count_batch`` — counts the roots of f cell by
  cell on a grid uniform in t = -log(1-x), where the root flow of these
  ensembles has bounded density, plus one cell on to x = 1.  Each cell is
  certified root-free or monotone, rounding included, or bisected on its
  row until it is (``_resolve`` names the one case floating point cannot
  settle).  Count-only, O(n * grid) per polynomial and BLAS-batchable, so
  10^4-trial Monte Carlo runs at degree 10^4 are feasible; the half-size
  products of the even and odd parts also count the mirror f(-x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DomainError, ZeroPolynomialError
from .sturm import sturm_count

__all__ = [
    "Interval", "RootCountReport", "real_roots", "count_in_interval",
    "deflate_exact_root", "exact_roots", "sweep_count",
    "sweep_count_batch", "sweep_grid", "sturm_count",
]

# an eigenvalue is real when |Im| <= _REAL_TOL (1 + |Re|)
_REAL_TOL = 1e-8
# Grid spacing in t = -log(1-x); root density per unit t stays below ~0.26
# for every scheme in scope, so cells carry ~0.005 expected roots.
SWEEP_STEP = 0.02
# Last finite grid point t = log(n) + SWEEP_TAIL; one cell runs on to x = 1.
SWEEP_TAIL = 9.0
# open pieces of a row in a bisection level past which none is split
_CROWDED = 1024


@dataclass(frozen=True)
class Interval:
    """Real interval with per-endpoint open/closed flags.

    Infinite endpoints must be open.
    """

    lo: float
    hi: float
    closed_lo: bool = False
    closed_hi: bool = False

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise DomainError("interval endpoints cannot be NaN")
        if self.lo > self.hi:
            raise DomainError("interval needs lo <= hi")
        if math.isinf(self.lo) and self.closed_lo:
            raise DomainError("-inf endpoint must be open")
        if math.isinf(self.hi) and self.closed_hi:
            raise DomainError("+inf endpoint must be open")

    def contains(self, x: float) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.closed_lo:
            return False
        if x == self.hi and not self.closed_hi:
            return False
        return True

    @staticmethod
    def parse(text: str) -> "Interval":
        """Parse "a,b", "[a,b]", "(a,b]" etc.; bare commas mean open."""
        t = text.strip()
        closed_lo = t.startswith("[")
        closed_hi = t.endswith("]")
        t = t.lstrip("[(").rstrip("])")
        parts = t.split(",")
        if len(parts) != 2:
            raise DomainError(f"cannot parse interval {text!r}")
        lo, hi = (float(p.strip()) for p in parts)
        return Interval(lo, hi, closed_lo=closed_lo, closed_hi=closed_hi)

    @staticmethod
    def reals() -> "Interval":
        return Interval(-math.inf, math.inf)


@dataclass
class RootCountReport:
    """Root count over an interval, with located roots and diagnostics.

    ``roots`` holds distinct locations in ascending order;
    ``multiplicities`` the merged cluster sizes, so
    ``count = sum(multiplicities)`` and ``len(roots) == count`` exactly when
    all roots are simple.  ``max_residual`` is the largest backward-scaled
    residual max_r |f(r)| / sum_i |c_i| |r|^i, which stays meaningful for
    roots of any magnitude.  ``zero_polynomial`` marks the degenerate
    all-zero input, reported as a flagged zero count rather than an
    exception.
    """

    count: int
    roots: np.ndarray
    multiplicities: np.ndarray
    method: str
    max_residual: float
    zero_polynomial: bool = False
    interval: Interval = field(default_factory=Interval.reals)


def _as_coeff_array(poly) -> np.ndarray:
    if hasattr(poly, "realized"):
        return np.asarray(poly.realized, dtype=float)
    if hasattr(poly, "values"):
        return np.asarray(poly.values, dtype=float)
    return np.asarray(poly, dtype=float)


def _companion_eigenvalues(c: np.ndarray) -> np.ndarray:
    """Eigenvalues of the monic companion matrix (LAPACK balances + QR)."""
    n = len(c) - 1
    a = np.zeros((n, n))
    a[1:, :-1] = np.eye(n - 1)
    a[:, -1] = -c[:-1] / c[-1]
    return np.linalg.eigvals(a)


def _polish_roots(c: np.ndarray, d: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """A few guarded Newton steps per root; keeps the best |f| iterate."""
    # large roots overflow intermediate powers; inf iterates lose the
    # better-of comparison and drop out on their own
    with np.errstate(over="ignore", invalid="ignore"):
        x = roots.copy()
        fx = np.abs(P.polyval(x, c))
        for _ in range(8):
            fp = P.polyval(x, d)
            step = np.where(fp != 0.0,
                            P.polyval(x, c) / np.where(fp == 0.0, 1.0, fp), 0.0)
            cand = x - step
            fc = np.abs(P.polyval(cand, c))
            better = fc < fx
            x = np.where(better, cand, x)
            fx = np.where(better, fc, fx)
            if not np.any(better):
                break
    return x


def deflate_exact_root(c: np.ndarray, r: float):
    """Divide the exact roots at x = r (r = 1 or -1) out of c.

    A root is exact when sum c_m r^m is exactly 0.  Returns the quotient and
    the number of roots divided out.  The synthetic division
    b_k = r^(k+1) sum_{m>k} c_m r^m is exact for integer coefficients.
    """
    mult = 0
    while len(c) > 1:
        cs = np.array(c, dtype=float)      # c_m r^m
        if r < 0.0:
            cs[1::2] *= -1.0
        if cs.sum() != 0.0:
            break
        c = np.cumsum(cs[:0:-1])[::-1]
        if r < 0.0:
            c[0::2] *= -1.0
        mult += 1
    return c, mult


# the points whose roots are found exactly, in the order exact_roots counts them
EXACT_POINTS = (0.0, 1.0, -1.0)


def exact_roots(rows: np.ndarray):
    """Divide the exact roots at 0, 1 and -1 out of each coefficient row.

    A root at 0 is a zero low coefficient; one at 1 or -1 a coefficient sum
    or alternating sum that is exactly zero (see ``deflate_exact_root``).
    ``rows`` is (k, n+1); the zero row, which has no root count, gets none.
    Returns the k quotients and a (k, 3) array of the multiplicities at
    ``EXACT_POINTS``.
    """
    alt = np.array(rows, dtype=float)      # c_m (-1)^m
    alt[:, 1::2] *= -1.0
    mult = np.zeros((len(rows), len(EXACT_POINTS)), dtype=int)
    nonzero = rows != 0.0
    mult[:, 0] = np.argmax(nonzero, axis=1)
    rests = [row[k:] for row, k in zip(rows, mult[:, 0])]
    exact = ((rows.sum(axis=1) == 0.0) | (alt.sum(axis=1) == 0.0)) & nonzero.any(axis=1)
    for i in np.nonzero(exact)[0]:
        rests[i], mult[i, 1] = deflate_exact_root(rests[i], 1.0)
        rests[i], mult[i, 2] = deflate_exact_root(rests[i], -1.0)
    return rests, mult


def real_roots(poly) -> RootCountReport:
    """All real roots via companion-matrix eigenvalues.

    Exact roots at 0 (zero low coefficients) and at 1 and -1 (coefficient
    sum or alternating sum exactly zero) are divided out first and reported
    at exactly 0, 1 and -1 with their multiplicity.  An eigenvalue of the
    rest counts as real iff |Im| <= tol * (1 + |Re|), tol = ``_REAL_TOL``;
    accepted roots are Newton-polished, and clusters closer than
    10 * tol * (1 + |x|) merge into one root with multiplicity equal to the
    cluster size.  The all-zero polynomial yields a flagged zero report.
    """
    c = _as_coeff_array(poly)
    if c.ndim != 1 or c.size == 0:
        raise DomainError("expected a one-dimensional coefficient array")
    if not np.any(c != 0.0):
        return RootCountReport(0, np.empty(0), np.empty(0, dtype=int), "companion",
                               0.0, zero_polynomial=True)
    c = np.trim_zeros(c, "b")
    rests, mult = exact_roots(c[None, :])
    c_red, (n_zero, n_one, n_minus) = rests[0], mult[0]
    scale = np.max(np.abs(c))
    c = c / scale
    c_red = c_red / scale

    roots = [np.full(n_one, 1.0), np.full(n_minus, -1.0)]
    if len(c_red) > 1:
        lam = _companion_eigenvalues(c_red)
        im_ratio = np.abs(lam.imag) / (1.0 + np.abs(lam.real))
        cand = lam.real[im_ratio <= _REAL_TOL]
        if cand.size:
            d_red = c_red[1:] * np.arange(1, len(c_red))
            cand = _polish_roots(c_red, d_red, np.sort(cand))
            roots.append(np.sort(cand))
    roots.append(np.zeros(n_zero))
    allr = np.sort(np.concatenate(roots))

    # merge clusters into multiplicities
    merged, mult = [], []
    i = 0
    while i < len(allr):
        j = i + 1
        while j < len(allr) and allr[j] - allr[i] <= 10.0 * _REAL_TOL * (1.0 + abs(allr[j])):
            j += 1
        merged.append(float(np.mean(allr[i:j])))
        mult.append(j - i)
        i = j
    merged_a = np.array(merged)
    mult_a = np.array(mult, dtype=int)

    if merged_a.size:
        with np.errstate(over="ignore", invalid="ignore"):
            fvals = np.abs(P.polyval(merged_a, c))
            scales = P.polyval(np.abs(merged_a), np.abs(c))
            max_res = float(np.max(fvals / np.maximum(scales, 1e-300)))
    else:
        max_res = 0.0
    return RootCountReport(int(mult_a.sum()), merged_a, mult_a, "companion", max_res)


def count_in_interval(poly, interval: Interval) -> RootCountReport:
    """Filter the full real-root report by interval membership.

    Endpoint membership (decided after polishing) honors the open/closed
    flags.
    """
    rep = real_roots(poly)
    if rep.zero_polynomial:
        return RootCountReport(0, rep.roots, rep.multiplicities, rep.method, 0.0,
                               zero_polynomial=True, interval=interval)
    keep = np.array([interval.contains(r) for r in rep.roots], dtype=bool)
    roots = rep.roots[keep]
    mult = rep.multiplicities[keep]
    return RootCountReport(int(mult.sum()), roots, mult, rep.method,
                           rep.max_residual, interval=interval)


# ---------------------------------------------------------------------------
# sweep counting (count-only, batched)
# ---------------------------------------------------------------------------

def sweep_grid(n: int, extra_points=()) -> np.ndarray:
    """Grid in t = -log(1-x) over [0, log n + SWEEP_TAIL], uniform in steps of
    SWEEP_STEP plus pinned points, and t = inf: the last cell reaches x = 1."""
    t_hi = math.log(max(n, 2)) + SWEEP_TAIL
    base = np.arange(0.0, t_hi + SWEEP_STEP, SWEEP_STEP)
    pts = np.unique(np.concatenate([base, np.asarray(extra_points, dtype=float),
                                    [0.0, t_hi]]))
    return np.append(pts[(pts >= 0.0) & (pts <= t_hi)], np.inf)


def sweep_count_batch(coeff_rows: np.ndarray, t: np.ndarray,
                      powers: np.ndarray | None = None,
                      spans: list[tuple[int, int]] | None = None,
                      mirror_spans: list[tuple[int, int]] = ()) -> np.ndarray:
    """Count roots with x in (x(t[lo]), x(t[hi])) for a batch of polynomials.

    ``coeff_rows`` is (batch, n+1) realized coefficients; ``t`` the sweep
    grid, from t = 0 (``sweep_grid``); ``powers`` an optional precomputed
    (n+1, len(t)) matrix of x^m values (reused across batches); ``spans`` a
    list of (lo_idx, hi_idx) grid index pairs, one count per span per row.
    The exact roots at 0, 1 and -1 (``exact_roots``) are divided out of the
    rows first, so they fall in no span.  The zero row counts 0.

    f and x f' come from the even and odd coefficients, each pair stacked
    into one half-size product, [c_even; (m c)_even] @ powers[0::2] and
    [c_odd; (m c)_odd] @ powers[1::2]; then f(x) = E(x) + O(x).  The same
    products give the mirror f(-x) = E(x) - O(x), so ``mirror_spans``
    counts the roots of the mirrored rows c_m (-1)^m, i.e. of f on
    (-x(t[hi]), -x(t[lo])), at no extra GEMM cost.  Four more stacked rows,
    m^k w_m (k = 0, 1, 2) and m (m-1) (m-2) (m-3) w_m with w_m the batch
    maximum of |c_m|, give the majorants A_k(x) = sum m^k w_m x^m, which
    bound the rounding of the rows and their mirrors, and x^4 M4(x) >=
    x^4 |f''''(x)|.  A cell that ``_certify`` settles holds as many roots
    as f changes sign across it; ``_resolve`` counts the others.

    Rounding (u = 2^-53, g = 1.01 (n + 22) u), at each x in [0, 1]: the
    products, E + O included, are within gamma_(n+2) A_0(x) of f in any
    order (Higham, "Accuracy and Stability of Numerical Algorithms", 2002,
    3.1).  exp(m log x), with log and exp within 4 ulp, is within 8.01u +
    9.02u m |log x| of x^m relatively: 8.01u A_0(x) + 9.02u |log x| A_1(x)
    more.  The flush below 1e-300 adds 1e-300 ||c||_1.  So f is within
    e(x) = g A_0 + 9.02u |log x| A_1, and x f' within the same with A_1 and
    A_2; f' = (x f')/x is within that over x (g covers the division's u).
    At x = 0, f = c_0 and f' = c_1 are exact.  The computed A_k are within
    gamma_(n+1) + 1e-11 of their sums (m |log x| <= 691 above the flush).
    ``_resolve`` evaluates the same way, with the row's own |c_m| for w_m.
    The bounds shrink with x as f does: an l1 bound g ||m c||_1 / x on f'
    near x = 0 would leave cells there uncertified at every scale.

    Returns an array of shape (batch, len(spans) + len(mirror_spans)),
    the mirror counts last.
    """
    c = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
    n = c.shape[1] - 1
    m = np.arange(n + 1, dtype=float)
    g = 1.01 * (n + 22) * 2.0 ** -53
    k4 = np.stack([np.ones(n + 1), m, m * m, m * (m - 1.0) * (m - 2.0) * (m - 3.0)])
    a = np.abs(c)
    # exact_roots finds roots only where c_0 = 0 or where it sums c_m or
    # c_m (-1)^m to 0; summed in another order those are within 2 g ||c||_1
    if np.any((c[:, 0] == 0.0) | (np.abs(c @ np.stack([k4[0], (-1.0) ** m], 1))
                                  <= 2.0 * g * a.sum(axis=1)[:, None]).any(axis=1)):
        c = np.array([np.pad(r, (0, n + 1 - len(r))) for r in exact_roots(c)[0]])
        a = np.abs(c)
    if powers is None:
        powers = power_matrix(n, t)
    if spans is None:
        spans = [(0, len(t) - 1)]
    w = k4 * a.max(axis=0)
    # strided row views of powers go to BLAS as they are (lda = 2 len(t))
    ev, od = (np.concatenate([c[:, k::2], c[:, k::2] * m[k::2], w[:, k::2]])
              @ powers[k::2] for k in (0, 1))
    x = 1.0 - np.exp(-t)
    cols = _bounds(ev[-4:] + od[-4:], x, w.sum(axis=1)[:, None], g)
    # f = E + O in place, and the mirror E - O: every large temporary is
    # memory faulted in afresh on each call
    gx = ev[:-4] - od[:-4] if mirror_spans else None
    ev += od
    del od
    out = [_span_counts(c, x, ev[:-4], cols, (k4, g), spans)]
    if mirror_spans:
        out.append(_span_counts(c * (-1.0) ** m, x, gx, cols, (k4, g),
                                mirror_spans))
    return np.concatenate(out, axis=1)


def _bounds(s, x, l, g):
    """The rounding bounds e of f and e' of f', and M4 >= |f''''|, at x in
    [0, 1] from the computed majorants s = (A_0, A_1, A_2, x^4 M4) at x and
    l, the same at x = 1 (``sweep_count_batch`` derives them).  Where x^4
    is below 1e-300 the flushed terms alone bound M4 by M4(1)."""
    s = s * (1.0 + 2.0 * g + 1e-11) + 1e-300 * l
    lg = -np.log(np.where(x > 0.0, x, 1.0)) * 9.02 * 2.0 ** -53
    return (g * s[0] + lg * s[1], (g * s[1] + lg * s[2]) / np.where(x > 0.0, x, np.inf),
            s[3] / np.maximum(x ** 4, 1e-300))


def _certify(f, fp, x, m4, e, e1):
    """Exclusion and inclusion tests of subdivision root isolation (Becker,
    Sagraloff, Sharma & Yap, J. Symb. Comp. 2018) on the cells [a, b]
    between consecutive columns of f and f' at x (within e and e' at each
    column), with m4 >= |f''''| on each cell.

    f = H + r, H the cubic Hermite interpolant of f, f' at a and b, and
    r = f''''(xi) (x-a)^2 (x-b)^2 / 24, so |r| <= m4 dx^4/384; r' vanishes at
    a, b and (Rolle) some eta, so r' = f''''(xi) (x-a) (x-eta) (x-b) / 6 and
    |r'| <= m4 dx^3/24.  H lies in the hull of its Bernstein coefficients
    f_a, f_a + f'_a dx/3, f_b - f'_b dx/3, f_b, and H' in that of f'_a, f'_b,
    3 (f_b - f_a)/dx - f'_a - f'_b.  Zero-free: f_a, f_b of one sign and
    min(|f_a|, |f_b|) - max(e) - max(|f'| + e') dx/3 above m4 dx^4/384 (so
    both ends are known, |f| > e).  Monotone (tested where that fails): for
    a sign d each d b'_i less its rounding above m4 dx^3/24, so f has at
    most one root.  Returns whether each cell is zero-free, and for the
    others their index, d where monotone (else 0) and whether each end is
    known.
    """
    dx = np.diff(x, axis=-1)
    rest = m4 * dx ** 3 / 24.0
    # few large temporaries, each written over in place where it can be
    low, high = np.abs(f), np.abs(fp)
    high += e1
    low = np.minimum(low[..., :-1], low[..., 1:])
    high = np.maximum(high[..., :-1], high[..., 1:])
    high *= dx / 3.0
    low -= high
    low -= np.maximum(e[..., :-1], e[..., 1:])
    zero_free = low > rest * dx / 16.0
    pos = f >= 0.0
    zero_free &= pos[..., :-1] == pos[..., 1:]
    o = np.unravel_index(np.flatnonzero(~zero_free), zero_free.shape)
    fa, fb, pa, pb, ea, eb, qa, qb, h, r = (np.broadcast_to(v, zero_free.shape)[o] for v in (
        f[..., :-1], f[..., 1:], fp[..., :-1], fp[..., 1:], e[..., :-1], e[..., 1:],
        e1[..., :-1], e1[..., 1:], dx, rest))
    d = np.where(np.abs(pa) >= np.abs(pb), np.sign(pa), np.sign(pb))
    inner = d * (3.0 * (fb - fa) / h - pa - pb) - 3.0 * (ea + eb) / h - qa - qb
    slope = d * (np.minimum(np.minimum(d * pa - qa, d * pb - qb), inner) > r)
    return zero_free, o, slope, np.abs(fa) > ea, np.abs(fb) > eb


def _span_counts(c: np.ndarray, x: np.ndarray, fx: np.ndarray, cols, rows,
                 spans) -> np.ndarray:
    """Per-span counts of the rows ``c``, given ``fx`` = [f; x f'] (which is
    overwritten) and the batch's (e, e', M4) ``cols`` on the grid ``x``.
    ``_resolve`` reads ``c`` itself, so a mirror count passes its rows."""
    b = c.shape[0]
    e, e1, m4 = cols
    f, fp = fx[:b], fx[b:]
    fp /= np.where(x > 0.0, x, 1.0)
    if x[0] == 0.0 and c.shape[1] > 1:
        fp[:, 0] = c[:, 1]
    settled, o, slope, ka, kb = _certify(f, fp, x, m4[1:], e, e1)
    settled[o] = (slope != 0.0) & ka & kb
    settled[~c.any(axis=1)] = True      # the zero row
    s = f >= 0.0
    cum = np.zeros(f.shape, dtype=np.int32)
    np.cumsum((s[:, 1:] != s[:, :-1]) & settled, axis=1, out=cum[:, 1:])
    r, i = np.nonzero(~settled)
    row, cell, extra = _resolve(c, rows, np.array(
        [r, i, x[i], x[i + 1], f[r, i], f[r, i + 1], fp[r, i], fp[r, i + 1],
         e[i], e[i + 1], e1[i], e1[i + 1], m4[i + 1]], dtype=float))
    out = np.empty((b, len(spans)), dtype=int)
    for j, (lo, hi) in enumerate(spans):
        inside = (cell >= lo) & (cell < hi)
        out[:, j] = cum[:, hi] - cum[:, lo] + np.bincount(
            row[inside], extra[inside], minlength=b).astype(int)
    return out


def _resolve(c: np.ndarray, rows, items: np.ndarray):
    """Root counts of the cells ``_certify`` leaves open, by bisection.

    ``items`` holds a column per cell: row, cell, a, b, f and f' at both
    ends, their rounding bounds e and e' at both ends, and the majorant at
    b; the bounds at b are first taken afresh from the cell's own row.
    All open pieces are bisected a level at a time, each midpoint
    evaluated on its row; a piece stops when certified, when no float lies
    inside it, or when its row has over _CROWDED pieces in the level.  The
    pieces between two consecutive known points of a row form a gap: one
    root if f changes sign across it, else none if it is one piece or f'
    keeps one sign at all its pieces' ends.  Otherwise f comes within
    rounding of zero at an extremum: a cluster that floating point cannot
    separate, the one uncertified case, counted as a double root.  Only
    signs are read, so f and -f count the same.  Returns (row, cell, count)
    per gap, in the cell of its last piece.
    """
    if not items.size:
        return items[0].astype(int), items[1].astype(int), items[0]
    items[[9, 11, 12]] = _point_values(c, rows, items[0].astype(int), items[3])[2:]
    leaves = []
    while items.shape[1]:
        row, cell, a, b, fa, fb, pa, pb, ea, eb, qa, qb, m4 = items
        r = row.astype(int)
        leaf, (o, _), d, known, _ = _certify(*(np.stack(v, 1) for v in (
            (fa, fb), (pa, pb), (a, b), (m4,), (ea, eb), (qa, qb))))
        leaf, ka, slope = leaf[:, 0], leaf[:, 0].copy(), np.zeros(len(r))
        leaf[o], ka[o], slope[o] = d != 0.0, known, d
        # the sign of f' at each end: d on a monotone piece, 0 within rounding
        da, db = (np.where(leaf, slope, np.sign(p) * (np.abs(p) > q))
                  for p, q in ((pa, qa), (pb, qb)))
        mid = 0.5 * (a + b)
        split = ~leaf & (a < mid) & (mid < b) & (np.bincount(r)[r] <= _CROWDED)
        leaves.append(np.array([row, cell, a, ka, fa >= 0.0, fb >= 0.0, da, db])[:, ~split])
        fm, pm, em, qm, mm = _point_values(c, rows, r[split], mid[split])
        row, cell, a, b, fa, fb, pa, pb, ea, eb, qa, qb, m4, mid = (
            v[split] for v in (*items, mid))
        items = np.concatenate([[row, cell, a, mid, fa, fm, pa, pm, ea, em, qa, qm, mm],
                                [row, cell, mid, b, fm, fb, pm, pb, em, eb, qm, qb, m4]],
                               axis=1)
    leaves = np.concatenate(leaves, axis=1)
    row, cell, a, ka, sa, sb, da, db = leaves[:, np.lexsort(leaves[[2, 0]])]
    first = np.flatnonzero((ka > 0) | np.r_[True, row[1:] != row[:-1]])
    last = np.r_[first[1:], len(row)] - 1
    lo = np.minimum.reduceat(np.minimum(da, db), first)
    steady = (lo != 0.0) & (lo == np.maximum.reduceat(np.maximum(da, db), first))
    count = np.where(sa[first] != sb[last], 1.0, 2.0 * ((last > first) & ~steady))
    return row[last].astype(int), cell[last].astype(int), count


def _point_values(c: np.ndarray, rows, r: np.ndarray, x: np.ndarray):
    """f, f', their rounding bounds e and e', and the majorant of |f''''| of
    the rows c[r] at x in (0, 1], from the powers exp(m log x) flushed below
    1e-300, as in power_matrix.  ``rows`` holds the weights m^k of the
    majorants and g."""
    k4, g = rows
    out = np.empty((10, len(r)))
    step = max(1, 2 ** 19 // c.shape[1])        # a 4 MB block of powers
    for j in range(0, len(r), step):
        cr, xs = c[r[j:j + step]], x[j:j + step]
        pw = np.exp(np.log(xs)[:, None] * k4[1])
        pw[pw < 1e-300] = 0.0
        out[:2, j:j + step] = k4[:2] @ (cr * pw).T
        cr = np.abs(cr)
        pw *= cr
        out[2:, j:j + step] = np.concatenate([k4 @ pw.T, k4 @ cr.T])
    return np.stack([out[0], out[1] / x, *_bounds(out[2:6], x, out[6:], g)])


def power_matrix(n: int, t: np.ndarray) -> np.ndarray:
    """x(t)^m matrix of shape (n+1, len(t)); x = 1 - e^-t.

    Underflowed entries are flushed to exact zero; subnormals would poison
    BLAS throughput on the big products downstream.
    """
    x = 1.0 - np.exp(-t)
    logx = np.where(x > 0.0, np.log(np.where(x <= 0.0, 1.0, x)), -np.inf)
    m = np.arange(n + 1, dtype=float)[:, None]
    pw = np.empty((n + 1, len(t)))
    # built in place: no (n+1, len(t)) temporary beside the result
    with np.errstate(invalid="ignore"):
        np.multiply(m, logx, out=pw)
        np.exp(pw, out=pw)
    pw[:, x <= 0.0] = 0.0
    pw[0, :] = 1.0
    pw[pw < 1e-300] = 0.0
    return pw


def sweep_count(coeffs, side: str = "01") -> int:
    """Count roots of one polynomial in (0,1) or, via reversal, (1,inf).

    side: "01" counts in (0,1); "1inf" counts in (1,inf) on the reversed
    coefficients.  Mirror the coefficients (c_m -> (-1)^m c_m) for the
    negative axis.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if c.size == 0:
        raise ZeroPolynomialError("all coefficients are zero")
    if side not in ("01", "1inf"):
        raise DomainError("side must be '01' or '1inf'")
    if side == "1inf":
        c = c[::-1]
    return int(sweep_count_batch(c[None, :], sweep_grid(len(c) - 1))[0, 0])
