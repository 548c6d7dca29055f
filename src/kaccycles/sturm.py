"""Exact real-root counting via Sturm chains over integer arithmetic.

Serves as the oracle against which the floating companion-matrix counts are
checked.  Polynomials are lists of big integers (ascending powers).  Each
multiplicity level builds one chain, the signed remainder sequence of p and
p', by pseudo-division with content stripping, so every member stays an
exact integer polynomial.  Sturm's theorem holds for this chain whether or
not p is square-free: at points that are not roots of p, its sign
variations count the distinct roots between them.  The chain's last member
is gcd(p, p'), whose roots are those of p with one multiplicity fewer, so
recursing on it until it is constant counts roots with multiplicity.
Signs are taken with integers only: an endpoint u/q enters in homogeneous
form, as the sign of q^n p(u/q), and the infinities as u = +-1, q = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegreeTooLargeError, DomainError, ZeroPolynomialError

MAX_DEGREE = 64


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p: list[int]) -> list[int]:
    g = math.gcd(*p)
    return [c // g for c in p]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b scaled so the sign matches lc(b)^even * rem.

    Multiplies a by lc(b)^(2*ceil(k/2)) before synthetic division, an even
    power, so the true remainder's sign is preserved exactly.
    """
    da, db = len(a) - 1, len(b) - 1
    lc = b[-1]
    k = da - db + 1
    if k % 2 == 1:
        k += 1
    r = [c * lc**k for c in a]
    for i in range(da, db - 1, -1):
        if r[i] == 0:
            continue
        q, rem = divmod(r[i], lc)
        assert rem == 0
        for j in range(db + 1):
            r[i - db + j] -= q * b[j]
    return _trim(r[:db])


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p', then -rem of the last two until it vanishes or is constant;
    the last member is gcd(p, p') up to a positive factor."""
    chain = [_primitive(p), _primitive([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _eval_sign(p: list[int], u: int, q: int) -> int:
    """Sign of q^n p(u/q) = sum c_i u^i q^(n-i), n = deg p, for q >= 0."""
    acc, w = 0, 1
    for c in reversed(p):
        acc = acc * u + c * w
        w *= q
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], u: int, q: int) -> int:
    signs = [s for s in (_eval_sign(p, u, q) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _deflate(p: list[int], u: int, q: int) -> tuple[list[int], int]:
    """Divide out (q t - u)^k exactly; returns (deflated, k).

    With gcd(u, q) = 1, q t - u is primitive, so by Gauss's lemma each
    quotient has integer coefficients and the synthetic division is exact.
    """
    k = 0
    while len(p) > 1 and _eval_sign(p, u, q) == 0:
        s, acc = [0] * (len(p) - 1), 0
        for i in range(len(p) - 1, 0, -1):
            acc = (p[i] + u * acc) // q
            s[i - 1] = acc
        p, k = s, k + 1
    return p, k


def _count_mult_open(p: list[int], lo, hi) -> int:
    """Roots in the open interval counted with multiplicity (endpoints are
    assumed not to be roots of p)."""
    total = 0
    while len(p) > 1:
        chain = _sturm_chain(p)
        total += _variations(chain, *lo) - _variations(chain, *hi)
        p = chain[-1]
    return total


def _integer(c) -> int:
    try:
        if int(c) == c:
            return int(c)
    except (ValueError, OverflowError):
        pass
    raise DomainError(f"coefficient {c!r} is not an integer")


def _point(x) -> tuple[int, int]:
    """Endpoint x as (u, q) with x = u/q in lowest terms, q >= 0."""
    if x in (math.inf, -math.inf):
        return (1 if x > 0 else -1), 0
    f = Fraction(x)
    return f.numerator, f.denominator


def sturm_count(int_coeffs, interval) -> int:
    """Exact count (with multiplicity) of real roots in an interval.

    Coefficients must be integer values (ascending powers; a non-integral
    one raises DomainError); the interval carries rational or infinite
    endpoints with open/closed flags.  Degree is guarded at MAX_DEGREE to
    bound exact-arithmetic cost.
    """
    p = _trim([_integer(c) for c in int_coeffs])
    if not p:
        raise ZeroPolynomialError("all coefficients are zero")
    if len(p) - 1 > MAX_DEGREE:
        raise DegreeTooLargeError(f"degree {len(p)-1} exceeds guard {MAX_DEGREE}")
    if interval.lo > interval.hi:
        return 0

    lo, hi = _point(interval.lo), _point(interval.hi)
    p, mult_lo = _deflate(p, *lo)
    if lo == hi:
        return mult_lo if interval.closed_lo and interval.closed_hi else 0
    p, mult_hi = _deflate(p, *hi)
    return (_count_mult_open(p, lo, hi) + interval.closed_lo * mult_lo
            + interval.closed_hi * mult_hi)
