"""Real-root counting and location for realized polynomials.

Three methods with different contracts:

* ``real_roots`` / ``count_in_interval`` — eigenvalues of the balanced
  companion matrix, Newton-polished; locates every root, O(n^3), with no
  certificate: CLI ``count``, and the tests' oracle.
* ``sturm_count`` (re-exported from :mod:`kaccycles.sturm`) — exact integer
  arithmetic oracle for degree <= 64.
* ``sweep_count_batch`` / ``sweep_roots`` — the roots of f cell by cell on
  a grid in t = -log(1-x), where the root flow of these ensembles has
  bounded density: uniform up to log n + 1/2, doubling steps past it, where
  the density decays, and one cell on to x = 1.  Each cell is certified
  root-free or monotone, rounding included, or bisected on its row until
  it is (``_resolve`` names the one case floating point cannot settle).
  O(n * grid) per polynomial and BLAS-batchable; the half-size products of
  the even and odd parts also count the mirror f(-x).  Both parts multiply
  one matrix of the even powers x^(2j), the odd part scaled by x after its
  product: f(x) = E(x^2) + x O(x^2).  ``sweep_roots``
  locates the roots of one polynomial in (0, inf) (the Melnikov radii).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from . import philox
from .errors import DomainError, ZeroPolynomialError
from .sturm import sturm_count

__all__ = [
    "Interval", "RootCountReport", "real_roots", "count_in_interval",
    "deflate_exact_root", "exact_roots", "sweep_count_batch", "sweep_grid",
    "sweep_roots", "sturm_count",
]

# an eigenvalue is real when |Im| <= _REAL_TOL (1 + |Re|)
_REAL_TOL = 1e-8
# Grid spacing in t = -log(1-x) up to log(n) + _TAIL_START, where the root
# density per unit t stays below ~0.26 for every scheme in scope; past it the
# density falls like e^-(t - log n) and each step doubles the one before, so
# every cell carries ~0.02 expected roots.  Each cell is certified or
# bisected, so the spacing sets the cost, not the count.
SWEEP_STEP = 0.08
_TAIL_START = 0.5
# Last finite grid point t = log(n) + SWEEP_TAIL; one cell runs on to x = 1.
SWEEP_TAIL = 9.0
# open pieces of a row in a bisection level past which none is split
_CROWDED = 1024
# multiply-adds of a sweep product, rows ceil((n + 1)/2) len(t), from which
# its columns are dealt over the philox pool (``_product``)
_ONE_THREAD_MADDS = 2 ** 25
# columns of a sweep product per OpenBLAS kernel panel: the AVX-512 double
# kernels take 16 at a time, a multiple of the narrower kernels' panels
_PANEL = 16


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
# coefficients per block of rows in the passes over a batch (512 kB of floats)
_BLOCK = 2 ** 16


def _row_blocks(count: int, width: int):
    """Slices of consecutive rows of ``width`` coefficients, about _BLOCK of
    them a slice, which cover ``count`` rows: a pass block by block holds no
    temporary of the whole batch."""
    step = max(1, _BLOCK // width)
    return [slice(j, j + step) for j in range(0, count, step)]


def exact_roots(rows: np.ndarray):
    """Divide the exact roots at 0, 1 and -1 out of each coefficient row.

    A root at 0 is a zero low coefficient; one at 1 or -1 a coefficient sum
    or alternating sum that is exactly zero (see ``deflate_exact_root``).
    ``rows`` is (k, n+1); the zero row, which has no root count, gets none.
    Returns the quotients and those of the reversed rows, both (k, n+1)
    with zeros padded at the top (reversal maps a top zero to a root at 0
    and fixes 1 and -1, up to a sign that moves no root), and a (k, 3)
    array of the multiplicities at ``EXACT_POINTS``.
    """
    mult = np.zeros((len(rows), len(EXACT_POINTS)), dtype=int)
    exact = np.zeros(len(rows), dtype=bool)
    for b in _row_blocks(*rows.shape):
        alt = np.array(rows[b], dtype=float)      # c_m (-1)^m
        alt[:, 1::2] *= -1.0
        nonzero = rows[b] != 0.0
        mult[b, 0] = np.argmax(nonzero, axis=1)
        exact[b] = ((rows[b].sum(axis=1) == 0.0) | (alt.sum(axis=1) == 0.0)) \
            & nonzero.any(axis=1)
        del alt, nonzero        # freed before the next block's
    hit = np.flatnonzero((mult[:, 0] > 0) | exact | (rows[:, -1] == 0.0))
    direct, rev = (rows.copy(), rows[:, ::-1].copy()) if hit.size else (rows, rows[:, ::-1])
    for i in hit:
        q = rows[i, mult[i, 0]:]
        if exact[i]:
            q, mult[i, 1] = deflate_exact_root(q, 1.0)
            q, mult[i, 2] = deflate_exact_root(q, -1.0)
        q = np.trim_zeros(q, "b")
        direct[i], rev[i] = (np.pad(v, (0, rows.shape[1] - len(q))) for v in (q, q[::-1]))
    return direct, rev, mult


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
    c = np.asarray(poly, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise DomainError("expected a one-dimensional coefficient array")
    if not np.any(c != 0.0):
        return RootCountReport(0, np.empty(0), np.empty(0, dtype=int), "companion",
                               0.0, zero_polynomial=True)
    c = np.trim_zeros(c, "b")
    direct, _, mult = exact_roots(c[None, :])
    c_red, (n_zero, n_one, n_minus) = np.trim_zeros(direct[0], "b"), mult[0]
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

    with np.errstate(over="ignore", invalid="ignore"):
        max_res = float(np.max(np.abs(P.polyval(merged_a, c)) / np.maximum(
            P.polyval(np.abs(merged_a), np.abs(c)), 1e-300), initial=0.0))
    return RootCountReport(int(mult_a.sum()), merged_a, mult_a, "companion", max_res)


def count_in_interval(poly, interval: Interval) -> RootCountReport:
    """Filter the full real-root report by interval membership.

    Endpoint membership (decided after polishing) honors the open/closed
    flags.
    """
    rep = real_roots(poly)
    keep = np.array([interval.contains(r) for r in rep.roots], dtype=bool)
    mult = rep.multiplicities[keep]
    return RootCountReport(int(mult.sum()), rep.roots[keep], mult, rep.method,
                           rep.max_residual, rep.zero_polynomial)


# ---------------------------------------------------------------------------
# sweep counting (count-only, batched)
# ---------------------------------------------------------------------------

def sweep_grid(n: int, extra_points=()) -> np.ndarray:
    """Grid in t = -log(1-x) over [0, log n + SWEEP_TAIL], plus pinned points
    and t = inf: the last cell reaches x = 1.  Steps of SWEEP_STEP cover
    [0, log n + _TAIL_START]; past it each step is twice the one before, the
    last one clipped at log n + SWEEP_TAIL."""
    log_n = math.log(max(n, 2))
    t_hi = log_n + SWEEP_TAIL
    base = list(np.arange(0.0, log_n + _TAIL_START + SWEEP_STEP, SWEEP_STEP))
    step = SWEEP_STEP
    while base[-1] + 2.0 * step < t_hi:
        step *= 2.0
        base.append(base[-1] + step)
    pts = np.unique(np.concatenate([base, np.asarray(extra_points, dtype=float),
                                    [0.0, t_hi]]))
    return np.append(pts[(pts >= 0.0) & (pts <= t_hi)], np.inf)


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheels
    bundle in numpy.libs (scipy-openblas), through ctypes; None where it is
    not found."""
    libs = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get, put = (lib.scipy_openblas_get_num_threads64_,
                        lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


_BLAS_GATE = threading.Lock()
_blas_held = [0, 0]     # sweeps inside the gate, and the count they restore


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's BLAS to one thread while a sweep runs.

    A second OpenBLAS thread wakes for every product and then spins beside
    the sweep's single-threaded certificate, ``_resolve`` and ``_narrow``,
    whatever the product's size, and setting the count back to one after a
    product does not stop it: only a thread that is never woken sleeps.  So
    every sweep runs its BLAS on one thread, and a product of
    _ONE_THREAD_MADDS multiply-adds or more takes its second core from the
    ``philox.deal`` pool instead (``_product``).  ``bench/run.py
    --workload W --seconds 3 --trace 0``, 2 cores, two OpenBLAS threads for
    the process, medians of 12 alternating runs, one BLAS thread below 2^25
    multiply-adds and the library's own threads above it -> this hold:

        workload     cpu s            wall s           peak RSS MB
        sweep-3e4    1.514 -> 1.087   0.787 -> 0.714   84.08 -> 84.41
        demo         0.559 -> 0.564   0.387 -> 0.386   46.91 -> 46.96

    The count is process-wide, so sweeps that overlap on several threads
    share one hold, and the last to end restores the count from before the
    first.  Where the library is not found the sweep runs as it is.
    """
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    with _BLAS_GATE:
        if not _blas_held[0]:
            _blas_held[1] = get()
            put(1)
        _blas_held[0] += 1
    try:
        yield
    finally:
        with _BLAS_GATE:
            _blas_held[0] -= 1
            if not _blas_held[0]:
                put(_blas_held[1])


def sweep_count_batch(coeff_rows: np.ndarray, t: np.ndarray,
                      powers: np.ndarray | None = None,
                      spans: list[tuple[int, int]] | None = None,
                      mirror_spans: list[tuple[int, int]] = ()) -> np.ndarray:
    """Count roots with x in (x(t[lo]), x(t[hi])) for a batch of polynomials.

    ``coeff_rows`` is (batch, n+1) realized coefficients; ``t`` the sweep
    grid, from t = 0 (``sweep_grid``); ``powers`` an optional precomputed
    (n//2 + 1, len(t)) matrix of the even powers x^(2j) (``power_matrix``,
    reused across batches); ``spans`` a list of (lo_idx, hi_idx) grid index
    pairs, one count per span per row.  The exact roots at 0, 1 and -1
    (``exact_roots``) are divided out of the rows first, so they fall in no
    span.  The zero row counts 0.

    f and x f' come from the even and odd coefficients in half-size
    products with the even powers P, c_even @ P and (m c)_even @ P, and
    x (c_odd @ P) and x ((m c)_odd @ P), the odd sums scaled by x column by
    column, two GEMMs per parity on one buffer of half a row per row; then
    f(x) = E(x) + O(x).  The same products give the mirror f(-x) =
    E(x) - O(x), so ``mirror_spans`` counts the roots of the
    mirrored rows c_m (-1)^m, i.e. of f on (-x(t[hi]), -x(t[lo])), at no
    extra GEMM cost.  Four more rows in the first product of each parity,
    m^k w_m (k = 0, 1, 2) and m (m-1) (m-2) (m-3) w_m with w_m the batch
    maximum of |c_m|, give the majorants A_k(x) = sum m^k w_m x^m, which
    bound the rounding of the rows and their mirrors, and x^4 M4(x) >=
    x^4 |f''''(x)|.  A cell that ``_certify`` settles holds as many roots
    as f changes sign across it; ``_resolve`` counts the others.

    Rounding (u = 2^-53, g = 1.01 (n + 22) u), at each x in [0, 1]: the
    products, E + O included, are within gamma_(n+2) A_0(x) of f in any
    order (Higham, "Accuracy and Stability of Numerical Algorithms", 2002,
    3.1).  The x scaling of each odd sum is one rounding more, at most
    u (1 + gamma_(n+2)) A_0(x).  exp(2j log x), with log and exp within 4
    ulp, is within 8.01u + 9.02u 2j |log x| of x^(2j) relatively, so x^(2j)
    and x x^(2j) are within 8.01u + 9.02u m |log x| of x^m, m = 2j or
    2j + 1: 8.01u A_0(x) + 9.02u |log x| A_1(x) more.  The flush below
    1e-300 adds 1e-300 ||c||_1 (x <= 1).  So f is within e(x) = g A_0 +
    9.02u |log x| A_1, and x f' within the same with A_1 and A_2; f' =
    (x f')/x is within that over x.  g covers all of it: gamma_(n+2) +
    8.01u + u (the x scaling) + u (the division) <= (n + 12.01) u (1 +
    2 (n + 2) u), below 1.01 (n + 22) u.  At x = 0, f = c_0 and f' = c_1 are
    exact.  The computed A_k are within gamma_(n+1) + 1e-11 of their sums
    (m |log x| <= 691 + |log x| above the flush; the 1e-11 holds the x
    scaling's u).  ``_resolve`` takes each power as exp(m log x), within
    the same bounds, with the row's own |c_m| for w_m.  The bounds shrink
    with x as f does: an l1 bound g ||m c||_1 / x on f' near x = 0 would
    leave cells there uncertified at every scale.

    The sweep runs on one BLAS thread (``_one_blas_thread``), and its
    large products on the philox pool (``_product``).

    Returns an array of shape (batch, len(spans) + len(mirror_spans)),
    the mirror counts last.
    """
    c = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
    with _one_blas_thread():
        fams = _sweep_cells(c, t, powers, bool(mirror_spans))[1]
    out = []
    for (row, cell, count, *_), sp in zip(
            fams, ([(0, len(t) - 1)] if spans is None else spans, mirror_spans)):
        for lo, hi in sp:
            inside = (cell >= lo) & (cell < hi)
            out.append(np.bincount(row[inside], count[inside], minlength=len(c)).astype(int))
    return np.stack(out, axis=1) if out else np.zeros((len(c), 0), dtype=int)


def _sweep_cells(c: np.ndarray, t: np.ndarray, powers: np.ndarray | None, mirror: bool):
    """The weights of the rows' majorants (m^k, g and the signs 1 of a
    direct family), and the root brackets of the rows c, their exact roots
    divided out (``exact_roots``), on the grid t, and of their mirrors
    c_m (-1)^m when ``mirror``: per family, the cells certified monotone
    that f crosses (one root each) and ``_resolve``'s gaps, as arrays (row,
    cell, count, a, b, f(a) >= 0, monotone).

    Beside the rows, the working set holds half a row per row: the passes
    over the whole batch run in row blocks, the products run on one buffer
    (``_parity_products``), and a mirror's rows are signed only where
    ``_resolve`` reads them."""
    n = c.shape[1] - 1
    m = np.arange(n + 1, dtype=float)
    k4 = np.stack([np.ones(n + 1), m, m * m, m * (m - 1.0) * (m - 2.0) * (m - 3.0)])
    g, sign = 1.01 * (n + 22) * 2.0 ** -53, (-1.0) ** m
    # exact_roots finds roots only where c_0 = 0 or where it sums c_m or
    # c_m (-1)^m to 0; summed in another order those are within 2 g ||c||_1
    if any(np.any((c[b, 0] == 0.0) | (np.minimum(np.abs(c[b].sum(axis=1)), np.abs(c[b] @ sign))
                                      <= 2.0 * g * np.abs(c[b]).sum(axis=1)))
           for b in _row_blocks(*c.shape)):
        c = exact_roots(c)[0]
    if powers is None:
        powers = power_matrix(n, t)
    wmax = np.maximum(c.max(axis=0), -c.min(axis=0))       # max over the rows of |c_m|
    r, x = len(c), 1.0 - np.exp(-t)
    ev, od = _parity_products(c, k4, wmax, powers, x)
    e, e1, m4 = _bounds(ev[r:r + 4] + od[r:r + 4], x, (k4 * wmax).sum(axis=1)[:, None], g)
    # f = E + O in place, and the mirror E - O: every large temporary is
    # memory faulted in afresh on each call
    gx = ev - od if mirror else None
    ev += od
    del od
    out = []
    for fam in range(1 + mirror):
        s, fx = (1.0, ev) if fam == 0 else (sign, gx)
        f, fp = fx[:r], fx[r + 4:]
        fp /= np.where(x > 0.0, x, 1.0)
        if x[0] == 0.0 and n > 0:
            fp[:, 0] = c[:, 1] * (-1.0) ** fam
        settled, o, slope, ka, kb = _certify(f, fp, x, m4[1:], e, e1)
        settled[o] = (slope != 0.0) & ka & kb
        settled[~c.any(axis=1)] = True      # the zero row
        pos = f >= 0.0
        ri, i = np.nonzero(settled & (pos[:, 1:] != pos[:, :-1]))
        ro, io = np.nonzero(~settled)
        # _resolve reads the rows themselves, each signed as its family
        gaps = _resolve(c, (k4, g, s), np.array(
            [ro, io, x[io], x[io + 1], f[ro, io], f[ro, io + 1], fp[ro, io], fp[ro, io + 1],
             e[io], e[io + 1], e1[io], e1[io + 1], m4[io + 1]], dtype=float))
        one = np.ones(len(ri))
        out.append([np.concatenate([u, v]) for u, v in
                    zip((ri, i, one, x[i], x[i + 1], pos[ri, i], one > 0.0), gaps)])
    return (k4, g, 1.0), out


def _parity_products(c: np.ndarray, k4: np.ndarray, wmax: np.ndarray, powers: np.ndarray,
                     x: np.ndarray):
    """The even and the odd halves of the products of the rows c, w and m c
    with the powers, w = k4 wmax: per parity the rows [c; w] of one reused
    buffer, half a row per row, times the leading rows of the even powers
    (``power_matrix``), then the buffer's rows times m; the odd half is
    then scaled by x, column by column.  Returns the two halves, each
    (2 len(c) + 4, len(t)) with rows c, w and m c."""
    r = len(c)
    halves = [np.empty((2 * r + 4, powers.shape[1])) for _ in range(2)]
    buf = np.empty((r + 4, (c.shape[1] + 1) // 2))
    for k, out in enumerate(halves):
        b = buf[:, :(c.shape[1] + 1 - k) // 2]
        p = powers[:b.shape[1]]
        b[:r] = c[:, k::2]
        np.multiply(k4[:, k::2], wmax[k::2], out=b[r:])
        _product(b, p, out[:r + 4])
        b = b[:r]
        b *= k4[1, k::2]
        _product(b, p, out[r + 4:])
    halves[1] *= x
    return halves


def _product(b: np.ndarray, p: np.ndarray, out: np.ndarray):
    """out = b @ p.  A product of _ONE_THREAD_MADDS multiply-adds or more,
    made while a sweep holds the BLAS to one thread (``_one_blas_thread``),
    is cut into contiguous blocks of out's columns, one per share of
    ``philox.deal``, each a one-thread GEMM written into its own slice.

    A column's sum runs over the same terms in the same order in any block
    (Goto and van de Geijn, ACM TOMS 34(3), 2008) as long as the block is
    cut where the whole product's kernel panels are: OpenBLAS sees out's
    columns as the rows of a column-major product and takes them _PANEL at
    a time, so each block starts at a multiple of _PANEL and holds at least
    one panel, and the last one takes the whole's ragged panel.  A narrower
    block would go to another kernel (numpy's GEMV for one column, the
    small-matrix GEMM below 1e6 multiply-adds) and round otherwise."""
    cols = out.shape[1]
    panels = cols // _PANEL
    shares = min(philox._THREADS, panels)
    if b.size * cols < _ONE_THREAD_MADDS or not _blas_held[0] or shares < 2:
        np.matmul(b, p, out=out)
        return
    bounds = [_PANEL * (i * panels // shares) for i in range(shares)] + [cols]

    def work(blocks):
        for i in blocks:
            j0, j1 = bounds[i], bounds[i + 1]
            np.matmul(b, p[:, j0:j1], out=out[:, j0:j1])

    philox.deal(work, range(shares))


def _bounds(s, x, l, g):
    """The rounding bounds e of f and e' of f', and M4 >= |f''''|, at x in
    [0, 1] from the computed majorants s = (A_0, A_1, A_2, x^4 M4) at x and
    l, the same at x = 1 (``_sweep_cells`` derives them).  Where x^4
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
    signs are read, so f and -f count the same.  Returns (row, cell of the
    last piece, count, a, b, f(a) >= 0, f' of one sign) per gap.
    """
    if not items.size:
        return (items[0].astype(int), items[1].astype(int), *items[2:6],
                items[0].astype(bool))
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
        leaves.append(np.array([row, cell, a, b, ka, fa >= 0.0, fb >= 0.0, da, db])[:, ~split])
        fm, pm, em, qm, mm = _point_values(c, rows, r[split], mid[split])
        row, cell, a, b, fa, fb, pa, pb, ea, eb, qa, qb, m4, mid = (
            v[split] for v in (*items, mid))
        items = np.concatenate([[row, cell, a, mid, fa, fm, pa, pm, ea, em, qa, qm, mm],
                                [row, cell, mid, b, fm, fb, pm, pb, em, eb, qm, qb, m4]],
                               axis=1)
    leaves = np.concatenate(leaves, axis=1)
    row, cell, a, b, ka, sa, sb, da, db = leaves[:, np.lexsort(leaves[[2, 0]])]
    first = np.flatnonzero((ka > 0) | np.r_[True, row[1:] != row[:-1]])
    last = np.r_[first[1:], len(row)] - 1
    lo = np.minimum.reduceat(np.minimum(da, db), first)
    steady = (lo != 0.0) & (lo == np.maximum.reduceat(np.maximum(da, db), first))
    count = np.where(sa[first] != sb[last], 1.0, 2.0 * ((last > first) & ~steady))
    return (row[last].astype(int), cell[last].astype(int), count, a[first], b[last],
            sa[first], steady)


def _point_values(c: np.ndarray, rows, r: np.ndarray, x: np.ndarray):
    """f, f', their rounding bounds e and e', and the majorant of |f''''| of
    the rows c[r], each coefficient times its sign, at x in (0, 1], from the
    powers exp(m log x) flushed below 1e-300, each m its own (power_matrix
    stores the even ones alone; both are within the rounding bound of
    ``sweep_count_batch``).  ``rows`` holds the weights m^k of the
    majorants, g and the signs: 1, or (-1)^m for a mirror."""
    k4, g, sign = rows
    out = np.empty((10, len(r)))
    for j in _row_blocks(len(r), c.shape[1]):
        # two blocks: the signed rows, and the powers, which become the terms
        cr, xs = c[r[j]], x[j]
        cr *= sign
        pw = np.log(xs)[:, None] * k4[1]
        np.exp(pw, out=pw)
        pw[pw < 1e-300] = 0.0
        pw *= cr
        out[:2, j] = k4[:2] @ pw.T
        out[2:6, j] = k4 @ np.abs(pw, out=pw).T
        out[6:, j] = k4 @ np.abs(cr, out=cr).T
    return np.stack([out[0], out[1] / x, *_bounds(out[2:6], x, out[6:], g)])


def power_matrix(n: int, t: np.ndarray) -> np.ndarray:
    """The even powers x(t)^(2j), j = 0..n//2, of degree n's sweep: a matrix
    of shape (n//2 + 1, len(t)); x = 1 - e^-t.  The odd powers are not
    stored: ``_parity_products`` scales the odd sums by x.

    Underflowed entries are flushed to exact zero; subnormals would poison
    BLAS throughput on the big products downstream.
    """
    x = 1.0 - np.exp(-t)
    logx = np.where(x > 0.0, np.log(np.where(x <= 0.0, 1.0, x)), -np.inf)
    m = 2.0 * np.arange(n // 2 + 1, dtype=float)[:, None]
    pw = np.empty((n // 2 + 1, len(t)))
    # built in place: no temporary of the result's size beside it
    with np.errstate(invalid="ignore"):
        np.multiply(m, logx, out=pw)
        np.exp(pw, out=pw)
    pw[:, x <= 0.0] = 0.0
    pw[0, :] = 1.0
    pw[pw < 1e-300] = 0.0
    return pw


def sweep_roots(coeffs):
    """The real roots x of one polynomial in (0, inf), ascending, each with
    a flag that says whether it is simple; len(x) is the sweep count.

    Roots in (0, 1) are those of the row, roots in (1, inf) those of the
    reversed row as 1/u, both swept with the roots of ``exact_roots``
    divided out; a root at 1 comes from there.  Each row is swept alone,
    so its majorants weigh its own coefficients.  A root is narrowed inside
    a bracket of the certificate that f crosses, and is simple when that
    bracket is monotone.  A cluster, which the sweep counts as two roots,
    is located at the extremum of f in its gap, where f' changes sign, and
    comes back twice, flagged not simple, as does a root of order k > 1 at
    1, k times.  The sweep runs on one BLAS thread (``_one_blas_thread``),
    and its large products on the philox pool (``_product``).
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if c.size == 0:
        raise ZeroPolynomialError("all coefficients are zero")
    direct, rev, mult = exact_roots(c[None, :])
    t = sweep_grid(len(c) - 1)
    powers = power_matrix(len(c) - 1, t)
    x, k, simple = [], [], []
    with _one_blas_thread():
        for fam, row in enumerate((direct, rev)):
            weights, ((_, _, count, a, b, sa, steady),) = _sweep_cells(row, t, powers, False)
            # a root in each bracket that f crosses (f >= 0 left of it where
            # f(a) >= 0), a cluster at its extremum (f' >= 0 left of it where
            # f(a) < 0); the reversed row's roots are 1/u
            keep = count > 0.0
            one, sa = count[keep] == 1.0, sa[keep] > 0.0
            u = _narrow(row, weights, np.zeros(len(one), dtype=int), a[keep], b[keep],
                        sa == one, ~one)
            x.append(1.0 / u if fam else u)
            k.append(count[keep].astype(int))
            simple.append(steady[keep] & one)
    x.append(np.ones(1))
    k.append(mult[0, 1:2])
    simple.append(k[-1] == 1)
    k = np.concatenate(k)
    x = np.repeat(np.concatenate(x), k)
    order = np.argsort(x, kind="stable")
    return x[order], np.repeat(np.concatenate(simple), k)[order]


def _narrow(c: np.ndarray, rows, r: np.ndarray, a: np.ndarray, b: np.ndarray,
            up: np.ndarray, turn: np.ndarray) -> np.ndarray:
    """The zero of f, or of f' where ``turn``, of each row c[r] in its
    bracket (a, b), across which it changes sign (>= 0 left of the zero
    where ``up``): for f, Newton's step on ``_point_values`` where it stays
    inside the bracket, else the midpoint, and for f' the midpoint, until
    the value is within its rounding bound or no float lies inside."""
    x, act = 0.5 * (a + b), np.arange(len(a))
    for _ in range(100):
        if not act.size:
            break
        xs, tn = x[act], turn[act]
        f, fp, e, e1 = _point_values(c, rows, r[act], xs)[:4]
        v = np.where(tn, fp, f)
        right = (v >= 0.0) == up[act]       # the zero lies right of xs
        a[act] = lo = np.where(right, xs, a[act])
        b[act] = hi = np.where(right, b[act], xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = xs - f / fp
        mid = 0.5 * (lo + hi)
        done = (np.abs(v) <= np.where(tn, e1, e)) | ~((lo < mid) & (mid < hi))
        x[act] = np.where(done, xs, np.where(~tn & (lo < step) & (step < hi), step, mid))
        act = act[~done]
    return x
