"""Deterministic coefficient sequences c_{m,n} for the three weight schemes.

The perturbed-center scheme carries the variance

    c_m^2 = (pi/2) * sum_{l=0}^{m} [ ((2m-2l+1)!!(2l-1)!! / (2m+2)!!)^2
                                   + ((2m-2l-1)!!(2l+1)!! / (2m+2)!!)^2 ],

the Lienard scheme c_m^2 = pi * ((2m+1)!!/(2m+2)!!)^2, and the power-law
scheme c_m = m^rho.  All three behave like m^(2*rho) with rho = -1/2 for the
first two, i.e. m * c_m^2 -> 1.

Writing A_l = (2m-2l+1)!!(2l-1)!!/(2m+2)!!, the second squared ratio in the
center sum is A_{m-l}, so c_m^2 = pi * sum_l A_l^2.  The A_l^2 decay super-
geometrically away from the ends l=0 and l=m (term ratio ((2l+1)/(2m-2l+1))^2),
so the sum takes _END_TERMS steps inward from each end: every term of
m <= 27, and above that every term that is not below half an ulp of the
sum.  An exact big-rational oracle covers small m.

Every double-factorial ratio of the package is evaluated here, by one
route: the anchor A_0(m) = (2m+1)!!/(2m+2)!! is a cumulative product of the
ratios (2j+1)/(2j+2), and A_l walks from it by A_{l+1}/A_l = (2l+1)/(2m-2l+1).
Each factor is a correctly rounded quotient of exact small integers.  A row
of moments walks only down to its middle, where A_l ~ 2^-m is smallest, and
mirrors the rest (A_{m+1-l} = A_l), so each partial product is an entry of
the row: only entries that are themselves below the normal float range (near
the middle of rows with m > ~1020) lose bits, and every other entry stays a
few ulp from exact (under 2e-15 relative at m = 600).  A difference of
log-gamma values would lose about m ulp to cancellation (Higham, Accuracy
and Stability of Numerical Algorithms, 2002, ch. 3).  The variances, the
trigonometric moments and the Melnikov reduction weights of
:mod:`kaccycles.sampler` all take it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

# Steps taken inward from each end of the center sum.  Thirteen reach the
# middle of every m <= 27; above that, the terms left out of the middle are
# below half an ulp of the running sum, so they would not change it.
_END_TERMS = 13
# indices summed at a time, so that a block's temporaries stay in cache
_BLOCK = 2**15


@dataclass(frozen=True)
class CoeffScheme:
    """Which deterministic weight family c_{m,n} to use.

    kind is one of "center", "lienard", "power"; rho is the power-law
    exponent (only for kind="power").
    """

    kind: str
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in ("center", "lienard", "power"):
            raise DomainError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "power":
            if self.rho is None or not math.isfinite(self.rho):
                raise DomainError("power-law scheme requires a finite rho")
        elif self.rho is not None:
            raise DomainError(f"{self.kind} scheme carries no parameter")

    @staticmethod
    def perturbed_center() -> "CoeffScheme":
        return CoeffScheme("center")

    @staticmethod
    def lienard() -> "CoeffScheme":
        return CoeffScheme("lienard")

    @staticmethod
    def power_law(rho: float) -> "CoeffScheme":
        return CoeffScheme("power", float(rho))

    @staticmethod
    def parse(text: str) -> "CoeffScheme":
        """Parse "center", "lienard", or "power:RHO"."""
        t = text.strip().lower()
        if t in ("center", "perturbed-center", "perturbed_center"):
            return CoeffScheme.perturbed_center()
        if t == "lienard":
            return CoeffScheme.lienard()
        if t.startswith("power:"):
            return CoeffScheme.power_law(float(t.split(":", 1)[1]))
        raise DomainError(f"cannot parse scheme {text!r}")

    @property
    def effective_rho(self) -> float:
        """Power-law exponent governing the asymptotic regime."""
        return -0.5 if self.kind in ("center", "lienard") else float(self.rho)

    def label(self) -> str:
        """Scheme text that ``parse`` reads back to this scheme."""
        if self.kind == "power":
            text = f"{self.rho:g}"
            return f"power:{text if float(text) == self.rho else repr(self.rho)}"
        return self.kind


@dataclass
class CoeffVector:
    """Coefficients c_{0,n} .. c_{n,n} of one scheme at degree n."""

    n: int
    values: np.ndarray
    scheme: CoeffScheme

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.n + 1,):
            raise DomainError("coefficient vector must have length n+1")
        if not np.all(np.isfinite(self.values)) or not np.all(self.values > 0):
            raise DomainError("coefficients must be finite and strictly positive")


# ---------------------------------------------------------------------------
# double factorials
# ---------------------------------------------------------------------------

def exact_double_factorial(k: int) -> int:
    """Big-integer k!! (oracle)."""
    if k < -1:
        raise DomainError("double factorial needs k >= -1")
    r = 1
    while k > 1:
        r *= k
        k -= 2
    return r


def _a0_table(top: int) -> np.ndarray:
    """A_0(m) = (2m+1)!!/(2m+2)!! for m = 0..top, a cumulative product of
    the ratios (2j+1)/(2j+2).

    Accumulated roundoff grows like sqrt(top) ulp.
    """
    table = np.arange(1.0, 2 * top + 2, 2.0)
    np.divide(table, np.arange(2.0, 2 * top + 3, 2.0), out=table)
    return np.multiply.accumulate(table, out=table)


def _walk_even_row(a0: float, odd: np.ndarray, out: np.ndarray) -> np.ndarray:
    """2pi A_l(m), l = 0..m+1, into ``out`` from the anchor a0 = A_0(m).

    ``odd`` holds 2l+1 for l = 0..m.  One cumulative product runs from
    2pi A_0 through the ratios A_{l+1}/A_l = (2l+1)/(2m-2l+1) to the middle
    of the row, and the rest is its mirror image, A_{m+1-l} = A_l.
    """
    h = (len(out) + 1) // 2
    out[0] = 2.0 * math.pi * a0
    np.divide(odd[:h - 1], odd[:-h:-1], out=out[1:h])
    np.multiply.accumulate(out[:h], out=out[:h])
    out[h:] = out[len(out) - 1 - h::-1]
    return out


# ---------------------------------------------------------------------------
# trigonometric moments
# ---------------------------------------------------------------------------

def trig_moment(k: int, m: int) -> float:
    """a_{k,m} = integral over [0, 2pi] of cos^{2m+2-k} sin^k.

    Zero for odd k; 2pi (2m-k+1)!!(k-1)!!/(2m+2)!! for even k, read from
    ``trig_moment_even_row``.
    """
    if k < 0 or m < 0 or k > 2 * m + 2:
        raise DomainError(f"trig_moment needs 0 <= k <= 2m+2, got k={k}, m={m}")
    if k % 2 == 1:
        return 0.0
    return float(trig_moment_even_row(m)[k // 2])


def trig_moment_even_row(m: int) -> np.ndarray:
    """a_{2l,m} = 2pi A_l(m) for l = 0, 1, ..., m+1."""
    return _walk_even_row(_a0_table(m)[m],
                          np.arange(1.0, 2 * m + 2, 2.0), np.empty(m + 2))


# ---------------------------------------------------------------------------
# variances
# ---------------------------------------------------------------------------

def _sum_a_squared(m: np.ndarray, a0: np.ndarray) -> np.ndarray:
    """sum_{l=0}^{m} A_l^2 in _END_TERMS steps inward from each end.

    A step to A_l multiplies by A_l/A_{l-1} = (2l-1)/(2m-2l+3).  The forward
    walk runs A_0, A_1, ... over l <= m//2.  The backward walk starts at
    A_m = A_0/(2m+1) and, as A_{m+1-l} = A_l, runs the same steps from
    A_1 for the terms past m//2, l <= m - m//2.
    """
    m = m.astype(float)
    half = np.floor(m / 2.0)
    total = np.zeros_like(m)
    for a, first, last in ((a0, 0, half), (a0 / (2.0 * m + 1.0), 1, m - half)):
        for l in range(first, first + _END_TERMS + 1):
            if l > first:
                a = a * ((2.0 * l - 1.0) / (2.0 * m - 2.0 * l + 3.0))
            total += np.where(l <= last, a * a, 0.0)
    return total


def variance_center_many(m: np.ndarray) -> np.ndarray:
    """Perturbed-center variance c_m^2 for each m (double sum of squared
    double-factorial ratios, weighted pi/2)."""
    m = np.asarray(m)
    if np.any(m < 0):
        raise DomainError("variance index m must be nonnegative")
    if m.size == 0:
        return np.empty(0)
    flat = m.reshape(-1).astype(int, copy=False)
    table = _a0_table(int(flat.max()))
    out = np.empty(flat.shape)
    for s in range(0, flat.size, _BLOCK):
        block = flat[s:s + _BLOCK]
        out[s:s + _BLOCK] = math.pi * _sum_a_squared(block, table[block])
    return out.reshape(m.shape)


def variance_center_exact(m: int) -> Fraction:
    """Exact value of c_m^2 / pi as a big rational (oracle).

    c_m^2 = (pi/2) sum_l (A_l^2 + B_l^2) with B_l = A_{m-l}; this returns
    sum_l (A_l^2 + B_l^2) / 2 exactly.
    """
    if m < 0:
        raise DomainError("variance index m must be nonnegative")
    den = exact_double_factorial(2 * m + 2)
    s = Fraction(0)
    for l in range(m + 1):
        a = Fraction(exact_double_factorial(2 * m - 2 * l + 1)
                     * exact_double_factorial(2 * l - 1), den)
        b = Fraction(exact_double_factorial(2 * m - 2 * l - 1)
                     * exact_double_factorial(2 * l + 1), den)
        s += a * a + b * b
    return s / 2


def variance_lienard_many(m: np.ndarray) -> np.ndarray:
    """Vectorized Lienard variance c_m^2 = pi ((2m+1)!!/(2m+2)!!)^2."""
    m = np.asarray(m)
    if np.any(m < 0):
        raise DomainError("variance index m must be nonnegative")
    if m.size == 0:
        return np.empty(0)
    flat = m.reshape(-1).astype(int, copy=False)
    a0 = _a0_table(int(flat.max()))[flat]
    return (math.pi * a0 * a0).reshape(m.shape)


# ---------------------------------------------------------------------------
# coefficient vectors
# ---------------------------------------------------------------------------

def coeff_vector(scheme: CoeffScheme, n: int) -> CoeffVector:
    """Coefficients c_{0,n} .. c_{n,n} for one scheme.

    Variance schemes take c_m = sqrt(variance).  The power law takes
    c_m = m^rho for m >= 1 and c_0 = 1 (m^rho is undefined at m = 0; any
    bounded positive choice is admissible and 1 matches the flat case
    rho = 0).
    """
    if n < 0:
        raise DomainError("degree must be nonnegative")
    m = np.arange(n + 1)
    if scheme.kind == "center":
        values = np.sqrt(variance_center_many(m))
    elif scheme.kind == "lienard":
        values = np.sqrt(variance_lienard_many(m))
    else:
        values = np.ones(n + 1)
        if n >= 1:
            values[1:] = np.arange(1, n + 1, dtype=float) ** scheme.rho
    return CoeffVector(n=n, values=values, scheme=scheme)
