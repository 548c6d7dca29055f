"""Reference values computed outside kaccycles, for the benchmark's checks.

* ``expected_zeros_01`` integrates the Gaussian zero density
  (1/pi) sqrt(PQ - R^2) / P over (0, 1) with scipy's QUADPACK.  It writes
  the density as sqrt(Var_w(i)) / (pi x), the weighted standard deviation of
  the index i under weights c_i^2 x^(2i): this form has no cancellation, and
  it shares no code with the program's truncated-series integrand or its
  Gauss-Kronrod loop.
* ``kac_flat_01`` evaluates Kac's closed form for flat weights in mpmath at
  80 digits.  Its value is cached in ``reference.json``; recompute it with

      python3 bench/oracles.py

Only the standard library, numpy, scipy and mpmath are imported here.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
from scipy import integrate

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
KAC_N = 10**5


def _density_t(log_c2: np.ndarray, t: float) -> float:
    """Zero density in t = -log(1-x) for squared weights exp(log_c2)."""
    x = -math.expm1(-t)
    lw = log_c2 + 2.0 * math.log(x) * np.arange(len(log_c2))
    w = np.exp(lw - lw.max())
    i = np.arange(len(w), dtype=float)
    mean = float(np.dot(w, i)) / float(w.sum())
    var = float(np.dot(w, (i - mean) ** 2)) / float(w.sum())
    return math.sqrt(var) / (math.pi * x) * math.exp(-t)


def expected_zeros_01(values: np.ndarray) -> float:
    """Expected real zeros in (0, 1) of sum c_i xi_i x^i, xi_i iid N(0, 1)."""
    log_c2 = 2.0 * np.log(np.asarray(values, dtype=float))
    n = len(log_c2) - 1
    t_top = math.log(max(n, 2)) + 45.0
    # breakpoints where the density changes scale: the bulk near t ~ 1, the
    # core interval up to log n, and the edge layer just past it
    pts = sorted({0.5, 1.0, 2.0, 4.0, math.log(max(n, 2)),
                  math.log(max(n, 2)) + 3.0, math.log(max(n, 2)) + 10.0})
    edges = [0.0] + [p for p in pts if p < t_top] + [t_top]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v, _ = integrate.quad(lambda t: _density_t(log_c2, t), a, b,
                              epsabs=1e-11, epsrel=1e-11, limit=200)
        total += v
    return total


def expected_zeros_regions(values: np.ndarray) -> dict:
    """Expected zeros on the regions the experiment grid uses.

    (1, inf) is (0, 1) of the reversed weights c_(n-i) / c_n; the negative
    axis mirrors the positive one because only c_i^2 enters.
    """
    v = np.asarray(values, dtype=float)
    i01 = expected_zeros_01(v)
    i1inf = expected_zeros_01(v[::-1] / v[-1])
    return {"01": i01, "1inf": i1inf, "pos": i01 + i1inf, "sym": 2.0 * i01,
            "R": 2.0 * (i01 + i1inf)}


def kac_flat_01(n: int, dps: int = 80) -> str:
    """Kac's expected zero count on (0, 1) for n+1 flat Gaussian weights.

    E N(0,1) = (1/pi) int_0^1 sqrt(1/(1-x^2)^2 - (n+1)^2 x^(2n) / (1-x^(2n+2))^2) dx,
    taken in t = -log(1-x) at `dps` digits, since the two terms cancel to
    about 2 log10(n) + 2t/ln(10) digits near x = 1.
    """
    import mpmath as mp

    mp.mp.dps = dps
    n1 = mp.mpf(n + 1)

    def dens(t):
        x = -mp.expm1(-t)
        x2 = x * x
        a = 1 / (1 - x2) ** 2 - n1 ** 2 * x ** (2 * n) / (1 - x ** (2 * n + 2)) ** 2
        return mp.sqrt(max(a, 0)) * mp.exp(-t) / mp.pi

    ln = mp.log(n)
    pts = [0, mp.mpf("0.5"), 1, 2, 4, ln - 2, ln, ln + 2, ln + 5, ln + 10, ln + 20,
           ln + 60]
    pts = sorted(set(p for p in pts if p >= 0))
    return mp.nstr(mp.quad(dens, pts), 20)


def load_reference() -> dict:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    value = kac_flat_01(KAC_N)
    payload = {
        "kac_flat_01": {"n": KAC_N, "value": value,
                        "how": "mpmath.quad of Kac's closed form, 80 digits; "
                               "python3 bench/oracles.py"},
    }
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
