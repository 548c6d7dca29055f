"""Real-root counting and location for realized polynomials.

Three methods with different contracts:

* ``real_roots`` / ``count_in_interval`` — eigenvalues of the balanced
  companion matrix, Newton-polished; locates every root, O(n^3), the default
  for moderate degree and whenever root positions are needed.
* ``sturm_count`` (re-exported from :mod:`kaccycles.sturm`) — exact integer
  arithmetic oracle for degree <= 64.
* ``sweep_count`` / ``sweep_count_batch`` — counts sign crossings of f and
  checks interior extrema of like-signed cells on a grid that is uniform in
  t = -log(1-x), where the root flow of these ensembles has bounded density.
  Count-only, O(n * grid) per polynomial and BLAS-batchable across trials,
  which is what makes 10^4-trial Monte Carlo runs at degree 10^4 feasible.
  The even and odd coefficients go through separate half-size products,
  E(x) and O(x), so one sweep also counts the mirrored polynomial
  f(-x) = E(x) - O(x), i.e. the roots of f on the negative axis.
  Validated against the companion path (exact agreement on reference
  batches) before the Monte Carlo harness trusts it.
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
    "deflate_exact_root", "exact_roots", "reversed_poly", "sweep_count",
    "sweep_count_batch", "sweep_grid", "sturm_count",
]

DEFAULT_TOL = 1e-8
# Grid spacing in t = -log(1-x); root density per unit t stays below ~0.26
# for every scheme in scope, so cells carry ~0.005 expected roots.
SWEEP_STEP = 0.02
# Sweep upper cutoff t_max = log(n) + SWEEP_TAIL; the expected number of
# roots with t beyond that is O(e^-SWEEP_TAIL / sqrt(log n)).
SWEEP_TAIL = 9.0


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


def reversed_poly(poly):
    """Coefficient reversal x^n f(1/x); maps roots in (1, inf) to (0, 1).

    On a plain array the coefficients are reversed after trimming.  When the
    input carries scheme coefficients (a ``values`` attribute) the reversal
    is normalized by the leading coefficient, d_m = c_{n-m} / c_n.
    """
    c = _as_coeff_array(poly)
    c = np.trim_zeros(c, "b")
    if c.size == 0:
        raise ZeroPolynomialError("all coefficients are zero")
    rev = c[::-1].copy()
    if hasattr(poly, "values") and not hasattr(poly, "realized"):
        rev = rev / c[-1]
    return rev


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


def real_roots(poly, tol: float = DEFAULT_TOL) -> RootCountReport:
    """All real roots via companion-matrix eigenvalues.

    Exact roots at 0 (zero low coefficients) and at 1 and -1 (coefficient
    sum or alternating sum exactly zero) are divided out first and reported
    at exactly 0, 1 and -1 with their multiplicity.  An eigenvalue of the
    rest counts as real iff |Im| <= tol * (1 + |Re|); accepted roots are
    Newton-polished, and clusters closer than 10 * tol * (1 + |x|) merge
    into one root with multiplicity equal to the cluster size.  The
    all-zero polynomial yields a flagged zero report.
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
        cand = lam.real[im_ratio <= tol]
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
        while j < len(allr) and allr[j] - allr[i] <= 10.0 * tol * (1.0 + abs(allr[j])):
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


def count_in_interval(poly, interval: Interval, tol: float = DEFAULT_TOL) -> RootCountReport:
    """Filter the full real-root report by interval membership.

    Endpoint membership (decided after polishing) honors the open/closed
    flags.
    """
    rep = real_roots(poly, tol=tol)
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
    SWEEP_STEP plus pinned points."""
    t_hi = math.log(max(n, 2)) + SWEEP_TAIL
    base = np.arange(0.0, t_hi + SWEEP_STEP, SWEEP_STEP)
    pts = np.unique(np.concatenate([base, np.asarray(extra_points, dtype=float),
                                    [0.0, t_hi]]))
    return pts[(pts >= 0.0) & (pts <= t_hi)]


def _extremum_exact(coeffs: np.ndarray, deriv: np.ndarray, t: np.ndarray,
                    s_cell: int, sp_cell: int, i: int) -> int:
    """Bisect f' to the interior extremum and read f's sign there."""
    a, b = t[i], t[i + 1]
    for _ in range(40):
        mid = 0.5 * (a + b)
        fm = P.polyval(1.0 - math.exp(-mid), deriv)
        if (1 if fm >= 0 else -1) == sp_cell:
            a = mid
        else:
            b = mid
    xm = 1.0 - math.exp(-0.5 * (a + b))
    return 2 if (1 if P.polyval(xm, coeffs) >= 0 else -1) != s_cell else 0


def _hidden_pair_counts(c: np.ndarray, t: np.ndarray, f: np.ndarray,
                        fp: np.ndarray, s: np.ndarray, sp: np.ndarray,
                        rows: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Extra crossings from like-signed cells containing an extremum.

    The cubic Hermite model on each suspicious cell (values and t-derivatives
    at both ends, from f and f' on the grid) screens for an interior dip toward
    zero; only screened cells pay for an exact bisection of f'.  A true
    hidden pair makes the Hermite extremum cross zero decisively, so the
    screen keeps exactness while the typical benign extremum costs nothing.
    """
    extra = np.zeros(len(rows), dtype=int)
    if len(rows) == 0:
        return extra
    h = t[cells + 1] - t[cells]
    f0, f1 = f[rows, cells], f[rows, cells + 1]
    dxdt = np.exp(-t)   # df/dt = f'(x) dx/dt
    d0 = fp[rows, cells] * dxdt[cells] * h
    d1 = fp[rows, cells + 1] * dxdt[cells + 1] * h
    # H(tau) = f0 + d0 tau + a2 tau^2 + a3 tau^3 on tau in [0, 1]
    a2 = -3.0 * f0 - 2.0 * d0 + 3.0 * f1 - d1
    a3 = 2.0 * f0 + d0 - 2.0 * f1 + d1
    sgn = np.where(f0 >= 0.0, 1.0, -1.0)
    floor = 0.25 * np.minimum(np.abs(f0), np.abs(f1))
    need = np.zeros(len(rows), dtype=bool)
    # critical points: 3 a3 tau^2 + 2 a2 tau + d0 = 0
    aa, bb, cc = 3.0 * a3, 2.0 * a2, d0
    disc = bb * bb - 4.0 * aa * cc
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(np.maximum(disc, 0.0))
        for root in ((-bb + sq) / (2.0 * aa), (-bb - sq) / (2.0 * aa),
                     -cc / np.where(bb == 0.0, 1.0, bb)):
            tau = np.where(np.abs(aa) > 1e-300, root, -cc / np.where(bb == 0.0, 1.0, bb))
            ok = np.isfinite(tau) & (tau > 0.0) & (tau < 1.0) & (disc >= 0.0)
            hval = f0 + tau * (d0 + tau * (a2 + tau * a3))
            need |= ok & (sgn * hval < floor)
    for j in np.nonzero(need)[0]:
        r, i = int(rows[j]), int(cells[j])
        n = c.shape[1] - 1
        deriv = c[r, 1:] * np.arange(1, n + 1)
        extra[j] = _extremum_exact(c[r], deriv, t, int(s[r, i]), int(sp[r, i]), i)
    return extra


def sweep_count_batch(coeff_rows: np.ndarray, t: np.ndarray,
                      powers: np.ndarray | None = None,
                      spans: list[tuple[int, int]] | None = None,
                      mirror_spans: list[tuple[int, int]] = ()) -> np.ndarray:
    """Count roots with x in (x(t[lo]), x(t[hi])) for a batch of polynomials.

    ``coeff_rows`` is (batch, n+1) realized coefficients; ``t`` the sweep
    grid; ``powers`` an optional precomputed (n+1, len(t)) matrix of x^m
    values (reused across batches); ``spans`` a list of (lo_idx, hi_idx)
    grid index pairs, one count per span per row.  A span that ends at the
    last grid point reaches on to x = 1 (open): the tail (x(t[-1]), 1)
    adds the parity of its roots, read from the sign of f(1) = sum c_m.

    f and x f' come from the even and odd coefficients, each pair stacked
    into one half-size product, [c_even; (m c)_even] @ powers[0::2] and
    [c_odd; (m c)_odd] @ powers[1::2]; then f(x) = E(x) + O(x).  The same
    products give the mirror f(-x) = E(x) - O(x), so ``mirror_spans``
    counts the roots of the mirrored rows c_m (-1)^m, i.e. of f on
    (-x(t[hi]), -x(t[lo])), at no extra GEMM cost.
    Returns an array of shape (batch, len(spans) + len(mirror_spans)),
    the mirror counts last.
    """
    c = np.ascontiguousarray(np.atleast_2d(coeff_rows), dtype=float)
    n = c.shape[1] - 1
    if powers is None:
        powers = power_matrix(n, t)
    if spans is None:
        spans = [(0, len(t) - 1)]
    m = np.arange(n + 1, dtype=float)
    # strided row views of powers go to BLAS as they are (lda = 2 len(t))
    fx, odd = (np.concatenate([c[:, k::2], c[:, k::2] * m[k::2]]) @ powers[k::2]
               for k in (0, 1))
    # f = E + O in place, and the mirror E - O.  Large temporaries are kept
    # few: each one is memory that is faulted in afresh on every call
    gx = fx - odd if mirror_spans else None
    fx += odd
    del odd
    x = 1.0 - np.exp(-t)
    out = [_span_counts(c, t, x, fx, spans)]
    del fx
    if mirror_spans:
        sign = np.ones(n + 1)
        sign[1::2] = -1.0
        out.append(_span_counts(c * sign, t, x, gx, mirror_spans))
    return np.concatenate(out, axis=1)


def _span_counts(c: np.ndarray, t: np.ndarray, x: np.ndarray, fx: np.ndarray,
                 spans) -> np.ndarray:
    """Per-span counts of the rows ``c``, given ``fx`` = [f; x f'] on the grid.

    ``fx`` is overwritten.  The tail sign and the exact extremum bisection
    read ``c`` itself, so a mirror count passes the mirrored rows.
    """
    b = c.shape[0]
    f, fp = fx[:b], fx[b:]
    # f'(x) = (sum m c_m x^m)/x, in place; x=0 column handled apart
    fp /= np.where(x > 0.0, x, 1.0)
    if x[0] == 0.0 and c.shape[1] >= 2:
        fp[:, 0] = c[:, 1]
    s = np.where(f >= 0.0, np.int8(1), np.int8(-1))
    if x[0] == 0.0:
        # f(0) = 0 is a root at x = 0, outside every span (the caller's point
        # check counts it); the sign just right of it is that of the lowest
        # nonzero coefficient
        at_zero = np.nonzero(f[:, 0] == 0.0)[0]
        lowest = np.argmax(c[at_zero] != 0.0, axis=1)
        s[at_zero, 0] = np.where(c[at_zero, lowest] < 0.0, -1, 1)
    sp = np.where(fp >= 0.0, np.int8(1), np.int8(-1))

    out = np.zeros((b, len(spans)), dtype=int)
    cum = np.zeros(f.shape, dtype=np.int64)
    np.cumsum(s[:, 1:] != s[:, :-1], axis=1, out=cum[:, 1:])
    suspicious = (s[:, 1:] == s[:, :-1]) & (sp[:, 1:] != sp[:, :-1])
    f_one = c.sum(axis=1)
    tail = ((f_one != 0.0) & (np.where(f_one > 0.0, 1, -1) != s[:, -1])).astype(int)
    for j, (lo, hi) in enumerate(spans):
        out[:, j] = cum[:, hi] - cum[:, lo]
        if hi == len(t) - 1:
            out[:, j] += tail
        rr, ii = np.nonzero(suspicious[:, lo:hi])
        if len(rr):
            extra = _hidden_pair_counts(c, t, f, fp, s, sp, rr, ii + lo)
            np.add.at(out[:, j], rr, extra)
    return out


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
    if x.size and x[0] <= 0.0:
        pw[0, x <= 0.0] = 1.0
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
    if c.size == 1:
        return 0
    if side == "1inf":
        c = c[::-1].copy()
        c = np.trim_zeros(c, "b")
        if c.size <= 1:
            return 0
    elif side != "01":
        raise DomainError("side must be '01' or '1inf'")
    n = len(c) - 1
    t = sweep_grid(n)
    return int(sweep_count_batch(c[None, :], t)[0, 0])
