"""Reproducible noise sampling and the perturbation-to-noise reduction.

Polynomial noise xi_m and the bivariate perturbation coefficients
(alpha_{j,k}, beta_{j,k}) are drawn from counter-based streams
(:mod:`kaccycles.philox`), so every value is a pure function of
(master_seed, trial, lane, index) and results cannot depend on batching or
evaluation order.

The reduction from a degree-d perturbation to the coefficients c_m xi_m of
the radial Melnikov polynomial is

    c_m xi_m = (8 pi)^(-1/2) * sum_{j+k=2m+1} [ alpha_{j,k} a_{k,m}
                                              + beta_{j,k} a_{k+1,m} ],

with a_{k,m} the full-circle trigonometric moments (zero at odd k, so only
half of each odd diagonal contributes, and even diagonals never do).  Those
contributing entries are one stream in a degree-independent order
(``_used_layout``); the same (j,k) therefore reproduces the same draw
whether the perturbation is materialized in full (for flux quadrature at
small d) or sampled sparsely (degree 2001 Monte Carlo draws only the ~d^2/4
entries that matter).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import philox
from .coeffs import _a0_table, _walk_even_row, variance_lienard_many
from .errors import DomainError

_INV_SQRT_8PI = 1.0 / math.sqrt(8.0 * math.pi)


class NoiseDistribution(enum.Enum):
    """Mean-0 variance-1 coefficient noise families."""

    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"
    UNIFORM_SYM = "uniform"

    @staticmethod
    def parse(text: str) -> "NoiseDistribution":
        t = text.strip().lower()
        aliases = {"gauss": "gaussian", "gaussian": "gaussian", "normal": "gaussian",
                   "rademacher": "rademacher", "sign": "rademacher",
                   "uniform": "uniform", "uniformsym": "uniform", "uniform_sym": "uniform"}
        if t not in aliases:
            raise DomainError(f"unknown distribution {text!r}")
        return NoiseDistribution(aliases[t])


@dataclass(frozen=True)
class SeedSpec:
    """Addressed randomness: (master_seed, trial).

    ``key(lane)`` names one counter stream of the trial; each sampler draws
    a block of its lane, and the index of a variate is its place in that
    block.
    """

    master_seed: int
    trial: int = 0

    def key(self, lane: int) -> int:
        return philox.stream_key(self.master_seed, self.trial, lane)


def noise_rows(dist: NoiseDistribution, n: int, master_seed: int, t0: int,
               t1: int) -> np.ndarray:
    """(t1 - t0, n + 1) noise xi_0 .. xi_n of trials [t0, t1), one row each.

    Row i is the LANE_XI block of trial t0 + i; the batch's keys are one
    array pass and its draw one multi-key call, and a row does not depend
    on the batch it is drawn in.
    """
    keys = philox.stream_key(master_seed, np.arange(t0, t1, dtype=np.uint64), philox.LANE_XI)
    return philox.variates_block(dist.value, keys, n + 1)


# ---------------------------------------------------------------------------
# perturbation coefficients
# ---------------------------------------------------------------------------

def pair_rank(j: int, k: int) -> int:
    """Canonical rank of the pair (j,k), 1 <= j+k, over all degrees."""
    s = j + k
    return (s - 1) * (s + 2) // 2 + k


def pair_count(d: int) -> int:
    """Number of pairs with 1 <= j+k <= d."""
    return d * (d + 3) // 2


@dataclass
class PerturbationCoefficients:
    """Degree-d perturbation data.

    kind "full": bivariate p, q with coefficients alpha_{j,k}, beta_{j,k}
    over {(j,k): 1 <= j+k <= d}, stored flat in canonical pair-rank order
    (None until materialized when the instance is seeded).  kind "lienard":
    single-variable alpha_1..alpha_d.
    """

    d: int
    kind: str
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    dist: NoiseDistribution | None = None
    seed: SeedSpec | None = None

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("perturbation degree must be >= 1")
        if self.kind not in ("full", "lienard"):
            raise DomainError(f"unknown perturbation kind {self.kind!r}")
        if self.alpha is None and (self.dist is None or self.seed is None):
            raise DomainError("need either coefficient arrays or (dist, seed)")

    @property
    def melnikov_degree(self) -> int:
        return (self.d - 1) // 2

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_maps(d: int, alpha_map: dict, beta_map: dict) -> "PerturbationCoefficients":
        """Build from {(j,k): value} maps; absent pairs are zero."""
        a = np.zeros(pair_count(d))
        b = np.zeros(pair_count(d))
        for (j, k), v in alpha_map.items():
            if j < 0 or k < 0 or not (1 <= j + k <= d):
                raise DomainError(f"pair {(j, k)} outside 1 <= j+k <= {d}")
            a[pair_rank(j, k)] = v
        for (j, k), v in beta_map.items():
            if j < 0 or k < 0 or not (1 <= j + k <= d):
                raise DomainError(f"pair {(j, k)} outside 1 <= j+k <= {d}")
            b[pair_rank(j, k)] = v
        return PerturbationCoefficients(d=d, kind="full", alpha=a, beta=b)

    @staticmethod
    def lienard(alphas: np.ndarray) -> "PerturbationCoefficients":
        """alphas = (alpha_1, ..., alpha_d)."""
        a = np.asarray(alphas, dtype=float)
        return PerturbationCoefficients(d=len(a), kind="lienard", alpha=a)

    @staticmethod
    def sample_full(d: int, dist: NoiseDistribution,
                    seed: SeedSpec) -> "PerturbationCoefficients":
        """Seeded, not yet materialized: entries are drawn when used."""
        return PerturbationCoefficients(d=d, kind="full", dist=dist, seed=seed)

    @staticmethod
    def sample_lienard(d: int, dist: NoiseDistribution,
                       seed: SeedSpec) -> "PerturbationCoefficients":
        key = seed.key(philox.LANE_LIENARD)
        a = philox.variates_block(dist.value, key, d)
        return PerturbationCoefficients(d=d, kind="lienard", alpha=a,
                                        dist=dist, seed=seed)

    # -- materialization ----------------------------------------------------

    def materialized(self) -> "PerturbationCoefficients":
        """Full flat alpha/beta arrays of the seeded draw.

        Entries that feed the Melnikov reduction are the LANE_PERT block in
        ``_used_layout`` order, the block the sparse reduction draws; the
        rest come from LANE_PERT_UNUSED in canonical order, so sparse and
        materialized sampling agree entry by entry.
        """
        if self.kind != "full":
            raise DomainError("only full perturbations materialize")
        if self.alpha is not None:
            return self
        total = pair_count(self.d)
        used_pos, used_is_alpha = _used_layout(self.d)
        key_used = self.seed.key(philox.LANE_PERT)
        used_vals = philox.variates_block(self.dist.value, key_used, len(used_pos))
        alpha = np.zeros(total)
        beta = np.zeros(total)
        a_sel = used_is_alpha
        alpha[used_pos[a_sel]] = used_vals[a_sel]
        beta[used_pos[~a_sel]] = used_vals[~a_sel]
        # remaining entries, canonical order: all alpha ranks not used, then beta
        key_un = self.seed.key(philox.LANE_PERT_UNUSED)
        a_unused = np.setdiff1d(np.arange(total), used_pos[a_sel])
        b_unused = np.setdiff1d(np.arange(total), used_pos[~a_sel])
        vals = philox.variates_block(self.dist.value, key_un,
                                     len(a_unused) + len(b_unused))
        alpha[a_unused] = vals[:len(a_unused)]
        beta[b_unused] = vals[len(a_unused):]
        return PerturbationCoefficients(d=self.d, kind="full", alpha=alpha,
                                        beta=beta, dist=self.dist, seed=self.seed)


@lru_cache(maxsize=16)
def _used_layout(d: int):
    """(canonical rank, is_alpha) of the contributing entries, in draw order.

    Entry i is variate i of the LANE_PERT stream.  Block m occupies
    [m(m+1), (m+1)(m+2)): first the m+1 alpha entries (j, k) with
    j + k = 2m+1 and k = 0, 2, ..., 2m, then the m+1 beta entries
    (k = 1, 3, ..., 2m+1).  No block depends on d.
    """
    n = (d - 1) // 2
    m = np.repeat(np.arange(n + 1), 2 * np.arange(1, n + 2))
    i = np.arange(m.size) - m * (m + 1)       # place within block m
    is_alpha = i <= m
    k = np.where(is_alpha, 2 * i, 2 * (i - m) - 1)
    return m * (2 * m + 3) + k, is_alpha      # pair_rank(2m+1-k, k)


@lru_cache(maxsize=16)
def _reduction_weights(d: int):
    """Flat trig-moment weights over ``_used_layout`` plus block offsets.

    Row m is a_{2i,m} = 2 pi (2m-2i+1)!! (2i-1)!! / (2m+2)!!, i = 0..m+1, the
    terms of ``trig_moment_even_row(m)`` in the same order and to the bit:
    the one ratio walk of :mod:`kaccycles.coeffs` from the anchor A_0(m) to
    the middle of the row, mirrored past it.  Its steps multiply by correctly
    rounded quotients of small integers, so each weight in the normal float
    range is a few ulp from its exact value.  The n + 1 anchors come
    from one table, and each row is walked in one reused buffer of n + 2.
    """
    n = (d - 1) // 2
    w = np.empty((n + 1) * (n + 2))
    offsets = np.empty(n + 1, dtype=np.int64)
    a0 = _a0_table(n)
    odd = np.arange(1.0, 2 * n + 2, 2.0)      # 2l+1, l = 0..n
    row = np.empty(n + 2)
    for m in range(n + 1):
        start = m * (m + 1)
        offsets[m] = start
        _walk_even_row(a0[m], odd[:m + 1], row[:m + 2])  # a_{0,m}, a_{2,m}, ..., a_{2m+2,m}
        w[start:start + m + 1] = row[:m + 1]    # alpha weights a_{2i,m}
        w[start + m + 1:start + 2 * (m + 1)] = row[1:m + 2]  # beta weights a_{2i+2,m}
    return w, offsets


def melnikov_noise_from_perturbation(pc: PerturbationCoefficients) -> np.ndarray:
    """Products c_m xi_m, m = 0 .. (d-1)//2, for the full perturbation."""
    if pc.kind != "full":
        raise DomainError("expected a full bivariate perturbation")
    if pc.d < 1:
        raise DomainError("perturbation degree must be >= 1")
    w, offsets = _reduction_weights(pc.d)
    if pc.alpha is not None:
        used_pos, used_is_alpha = _used_layout(pc.d)
        vals = w * np.where(used_is_alpha, pc.alpha[used_pos], pc.beta[used_pos])
    else:
        key = pc.seed.key(philox.LANE_PERT)
        vals = philox.variates_block(pc.dist.value, key, w.size)
        # the fresh draw is ours: weight it in place, with no second array
        np.multiply(vals, w, out=vals)
    return _INV_SQRT_8PI * np.add.reduceat(vals, offsets)


def melnikov_noise_from_lienard(pc: PerturbationCoefficients) -> np.ndarray:
    """Products c_m xi_m for the single-variable perturbation.

    Only odd-indexed alpha contribute; with the 1/(2 sqrt(pi)) scaling of
    p the entry is alpha_{2m+1} sqrt(pi) (2m+1)!!/(2m+2)!!.
    """
    if pc.kind != "lienard":
        raise DomainError("expected a Lienard perturbation")
    if pc.d < 1:
        raise DomainError("perturbation degree must be >= 1")
    n = pc.melnikov_degree
    m = np.arange(n + 1)
    weights = np.sqrt(variance_lienard_many(m))
    odd = pc.alpha[2 * m]          # alpha array is (alpha_1 .. alpha_d); 2m -> alpha_{2m+1}
    return odd * weights
