"""Counter-based random streams (Philox4x32-10).

Every variate in the package is addressed, not sequenced: a draw is a pure
function of (stream key, counter).  The stream key is derived from
(master_seed, trial, lane) by a splitmix64 chain; the counter
encodes the coefficient index.  This gives three properties the simulation
harness relies on:

* bit-identical results for any worker count or execution order,
* O(1) random access to any single coefficient's noise (sparse sampling of
  large perturbations draws only the entries that matter),
* re-seeding one index never shifts another index's value.

The generator is the standard 10-round Philox4x32 block cipher (weakened
cipher used as PRNG; Salmon et al., SC'11); each 4x32-bit output block
yields two double-precision uniforms, hence two Box-Muller normals, or four
32-bit words for discrete draws.

The kernel holds a block's four 32-bit words as two uint64 pairs and runs
in cache-sized chunks of at most ``CHUNK`` counters, in place, so a block of
any length costs no temporary larger than a chunk: the counters of a chunk
are made from its start offset, the rounds update reused word buffers, and
the finishing step (uniforms, Box-Muller, sign bits) writes straight into
the output.  The word buffers are flat, and a tile of rows x cols cells
takes its planes (the two words, the products, the uniforms) as
consecutive runs of rows x cols cells, so every tile, a stack of short
rows or the ragged end of a long one, is one C-contiguous array.
``variates_block`` and ``philox4x32`` also take a 1-D array of
stream keys and then return one row per key, so a batch of trials is one
call.

Since every tile of keys x counters is a pure function of its keys and
counters, ``variates_block`` deals the tiles of one call round-robin to the
calling thread and to a module-level pool, one share per core of the
process's affinity set.  A pool thread keeps its kernel buffers from call
to call, grown to the largest tile it has drawn, one chunk at most.  numpy
releases the GIL inside the ufunc loops, so the shares run side by side and
write disjoint parts of the output: the bytes do not depend on the thread
count.  A call of one tile, or a process on one core, runs every tile on the
calling thread and never starts a pool thread.  ``variates_at`` and
``philox4x32`` run on the calling thread alone.  ``deal``, the loop that
shares the work out, is also how long Kac-Rice panels (``kacrice``) split
their node evaluations and Monte Carlo degrees with large sweep products
(``experiment``) their whole batches, each swept on its share's thread with
the BLAS held to one thread: the process has this one pool.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Philox multipliers, ordered (M1, M0) for the words (c2, c0) they multiply,
# and Weyl key increments for (k0, k1).
_MULT = np.array([0xCD9E8D57, 0xD2511F53], dtype=np.uint64).reshape(2, 1, 1)
_WEYL = np.array([0x9E3779B9, 0xBB67AE85], dtype=np.uint64).reshape(2, 1)
_U32 = np.array(32, dtype=np.uint64)   # 0-d: the cheapest operand for a ufunc
# splitmix64's increment, shifts and multipliers (Steele, Lea & Flood, 2014)
_GAMMA, _U30, _U27, _U31, _MIX1, _MIX2 = (np.array(v, dtype=np.uint64) for v in (
    0x9E3779B97F4A7C15, 30, 27, 31, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))

_ROUNDS = 10
# (r W0, r W1) for rounds r = 0..9, and the shifts taking (k0, k1) out of a key
_ROUND_STEPS = np.arange(_ROUNDS, dtype=np.uint64)[:, None, None] * _WEYL
_KEY_SHIFTS = np.array([[0], [32]], dtype=np.uint64)

# counters per chunk: large enough that the ~70 ufunc calls a chunk makes
# cost little next to its arithmetic, small enough that its buffers (56
# bytes per counter) stay in a per-core L2 cache
CHUNK = 16384

# shares per dealt call: the calling thread plus one pool worker per other
# core; the pool starts its threads on first use
try:
    _THREADS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _THREADS = os.cpu_count() or 1
# per thread: whether it runs a share of ``deal`` (a pool thread always
# does), and a pool thread's kernel buffers (``_buffers``)
_IN_SHARE = threading.local()
_BUFFERS = threading.local()


def _mark_pool_thread():
    _IN_SHARE.flag = True
    _BUFFERS.pair = (np.empty(0, dtype=np.uint64), np.empty(0))


_POOL = ThreadPoolExecutor(max(_THREADS - 1, 1), thread_name_prefix="philox",
                           initializer=_mark_pool_thread)

_INV_2_53 = 1.0 / 9007199254740992.0  # 2^-53
_SQRT3 = 1.7320508075688772

# Lane ids keep logically distinct draw families in disjoint streams.
LANE_XI = 0          # polynomial noise xi_m
LANE_PERT = 1        # bivariate perturbation coefficients entering the reduction
LANE_PERT_UNUSED = 2 # bivariate perturbation coefficients that do not enter it
LANE_LIENARD = 3     # Lienard alpha_k


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """One splitmix64 scrambling step on a uint64 array, wrapping mod 2^64."""
    z = z + _GAMMA
    z = (z ^ (z >> _U30)) * _MIX1
    z = (z ^ (z >> _U27)) * _MIX2
    return z ^ (z >> _U31)


def stream_key(master_seed: int, trial=0, lane: int = 0):
    """64-bit Philox key for one (master_seed, trial, lane) stream: an int
    for an int trial, and a uint64 array of keys, one per trial, for an
    array of trials."""
    scalar = np.ndim(trial) == 0
    t = np.array([int(trial) & _MASK64] if scalar else trial, dtype=np.uint64)
    # the chain's second step mixes in a zero; dropping it would change every key
    k = _splitmix64(_splitmix64(np.array([int(master_seed) & _MASK64], dtype=np.uint64)))
    k = _splitmix64(_splitmix64(k ^ t) ^ np.uint64(int(lane) & _MASK64))
    return int(k[0]) if scalar else k


# ---------------------------------------------------------------------------
# the chunked kernel
# ---------------------------------------------------------------------------

def _round_keys(keys: np.ndarray) -> np.ndarray:
    """(ROUNDS, 2, len(keys), 1) round keys (k0, k1) in the high halves."""
    return (((keys >> _KEY_SHIFTS) + _ROUND_STEPS) << _U32)[..., None]


def _view(buf: np.ndarray, p0: int, p1: int, shape) -> np.ndarray:
    """Planes [p0, p1) of a tile of rows x cols cells, plane p the cells
    [p rows cols, (p + 1) rows cols) of the flat buffer: one C-contiguous
    array of ``shape``, whatever the tile's size."""
    cells = shape[-2] * shape[-1]
    return buf[p0 * cells:p1 * cells].reshape(shape)


def _buffers(cells: int):
    """Flat word and float buffers of 4 and 3 x ``cells`` at least.

    A pool thread keeps its pair across calls, grown on demand, so it holds
    one chunk only once it has drawn one.  Any other thread takes a fresh
    pair per call: freed, it goes back to the heap that the sweep's
    buffers come from (kept, it raised the peak RSS of the demo preset and
    of a run at n = 3e4 by 1 MB on 2 cores), while a pool thread's freed
    pair stays in its own malloc arena either way.
    """
    pair = getattr(_BUFFERS, "pair", None)
    if pair is not None and len(pair[1]) >= 3 * cells:
        return pair
    fresh = (np.empty(4 * cells, dtype=np.uint64), np.empty(3 * cells))
    if pair is not None:
        _BUFFERS.pair = fresh
    return fresh


class _Kernel:
    """Round keys of one call, and word and scratch buffers
    (``_buffers``) reused chunk after chunk.

    A Philox block (c0, c1, c2, c3) is held as the uint64 pair
    Z = (c0:c1, c2:c3), with c0 and c2 in the high halves, as a
    (2, rows, cols) array over rows = keys and cols = counters.  One round
    is, with T = (M1 c2, M0 c0) the two 32x32->64-bit products,

        Z <- (Z << 32) ^ (k0, k1) << 32 ^ T,

    whose halves are exactly the spec's (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2)) and
    (hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)).  Every step is one in-place uint64
    ufunc over the chunk.
    """

    def __init__(self, keys: np.ndarray, cells: int):
        self.rkeys = _round_keys(keys)
        self.buf, self.buf_f = _buffers(min(cells, CHUNK))

    def words(self, r0: int, r1: int, counters: np.ndarray) -> np.ndarray:
        """Z after ten rounds for keys [r0, r1) at the uint64 counters."""
        shape = (2, r1 - r0, len(counters))
        z = _view(self.buf, 0, 2, shape)
        t = _view(self.buf, 2, 4, shape)
        keys = self.rkeys[:, :, r0:r1]
        # counter = c1:c0, so c0:c1 is the counter with its halves swapped
        np.left_shift(counters, _U32, out=z[0])
        np.bitwise_or(z[0], counters >> _U32, out=z[0])
        z[1] = 0
        z_swapped = z[::-1]
        for r in range(_ROUNDS):
            np.right_shift(z_swapped, _U32, out=t)
            np.multiply(t, _MULT, out=t)
            np.left_shift(z, _U32, out=z)
            np.bitwise_xor(z, keys[r], out=z)
            np.bitwise_xor(z, t, out=z)
        return z

    def uniforms(self, z: np.ndarray) -> np.ndarray:
        """(u1, u2): u1 = (h1 + 1) 2^-53 in (0,1], u2 = h2 2^-53 in [0,1).

        h = (hi >> 6) 2^27 + (lo >> 5) takes the top 53 bits of the pair
        (w0, w1) for h1 and (w2, w3) for h2.  Every step is exact in
        float64.  Uses ``z`` as scratch.
        """
        u = _view(self.buf_f, 0, 2, z.shape)
        t = _view(self.buf, 2, 4, z.shape)
        np.right_shift(z, 38, out=t)
        np.multiply(t, float(1 << 27), out=u)
        np.bitwise_and(z, _MASK32, out=z)
        np.right_shift(z, 5, out=z)
        np.add(u, z, out=u)
        u[0] += 1.0
        u *= _INV_2_53
        return u


def _finish_gaussian(k: _Kernel, z, out):
    """Box-Muller pair of standard normals per counter, into out[..., 0:2]."""
    u1, u2 = k.uniforms(z)
    t = _view(k.buf_f, 2, 3, u1.shape)
    # r = sqrt(-2 log u1), th = 2 pi u2, (z0, z1) = (r cos th, r sin th)
    np.log(u1, out=u1)
    np.multiply(-2.0, u1, out=u1)
    np.sqrt(u1, out=u1)
    np.multiply(2.0 * np.pi, u2, out=u2)
    np.cos(u2, out=t)
    np.multiply(u1, t, out=out[..., 0])
    np.sin(u2, out=t)
    np.multiply(u1, t, out=out[..., 1])


def _finish_uniform(k: _Kernel, z, out):
    """Two uniforms on [-sqrt(3), sqrt(3)] per counter, into out[..., 0:2]."""
    u = k.uniforms(z)
    u *= 2.0
    u -= 1.0
    for slot in range(2):
        np.multiply(u[slot], _SQRT3, out=out[..., slot])


def _finish_rademacher(k: _Kernel, z, out):
    """Four +-1 draws per counter from the low bits of (w0, w1, w2, w3)."""
    hi = _view(k.buf, 2, 4, z.shape)
    np.right_shift(z, 32, out=hi)
    for bits, slots in ((hi, (0, 2)), (z, (1, 3))):
        np.bitwise_and(bits, 1, out=bits)
        for half, slot in enumerate(slots):
            np.multiply(bits[half], 2.0, out=out[..., slot])
            out[..., slot] -= 1.0


# distribution -> (finishing step, variates per counter)
_FINISH = {
    "gaussian": (_finish_gaussian, 2),
    "uniform": (_finish_uniform, 2),
    "rademacher": (_finish_rademacher, 4),
}


def _as_keys(key) -> np.ndarray:
    return np.atleast_1d(np.asarray(key, dtype=np.uint64))


def _finish_for(dist_name: str):
    if dist_name not in _FINISH:
        raise ValueError(f"unknown distribution {dist_name!r}")
    return _FINISH[dist_name]


def philox4x32(key, counters: np.ndarray):
    """Philox4x32-10 blocks for an array of 64-bit counters.

    The counter fills words (c0, c1) = (low, high); words (c2, c3) start at
    zero.  Returns the four output words (w0, w1, w2, w3) as uint32 arrays:
    of the counters' shape for a scalar key, of shape
    (len(key), counters.size) for a 1-D array of keys.  The rounds run in
    chunks of at most ``CHUNK`` blocks.
    """
    c = np.ascontiguousarray(counters, dtype=np.uint64).ravel()
    keys = _as_keys(key)
    out = np.empty((2, 2, len(keys), len(c)), dtype=np.uint32)
    k = _Kernel(keys, len(keys) * len(c))
    for r0, r1, q0, q1 in _tiles(len(keys), len(c)):
        z = k.words(r0, r1, c[q0:q1])
        out[:, 0, r0:r1, q0:q1] = z >> _U32
        out[:, 1, r0:r1, q0:q1] = z & np.uint64(_MASK32)
    words = tuple(out.reshape(4, len(keys), len(c)))
    if np.ndim(key) == 0:
        return tuple(w.reshape(np.shape(counters)) for w in words)
    return words


def _tiles(nkeys: int, ncounters: int):
    """(r0, r1, q0, q1) tiles of keys x counters with at most CHUNK cells.

    Short streams are stacked several keys to a tile, whole; long ones are
    cut into CHUNK-counter pieces of one key each.
    """
    cols = max(1, min(ncounters, CHUNK))
    rows = max(1, CHUNK // cols)
    for r0 in range(0, nkeys, rows):
        r1 = min(r0 + rows, nkeys)
        for q0 in range(0, ncounters, cols):
            yield r0, r1, q0, min(q0 + cols, ncounters)


# ---------------------------------------------------------------------------
# shares on the calling thread and the pool
# ---------------------------------------------------------------------------

def deal(work, items):
    """Run ``work`` over ``items`` in shares on the calling thread and the pool.

    Share i is ``items[i::k]``, with k = min(_THREADS, len(items)) shares:
    share 0 runs on the calling thread, the others on the pool.  Returns
    when every share is done, re-raising the error of the lowest share that
    failed.  Inside a share, on the pool or on the calling thread,
    everything runs on that thread, so a share that deals again never
    queues behind the pool's other shares.
    """
    nested = getattr(_IN_SHARE, "flag", False)
    shares = 1 if nested else max(min(_THREADS, len(items)), 1)
    helpers = [_POOL.submit(work, items[i::shares]) for i in range(1, shares)]
    _IN_SHARE.flag = True
    try:
        work(items[0::shares])
    finally:
        _IN_SHARE.flag = nested
        wait(helpers)
    for h in helpers:
        h.result()


# ---------------------------------------------------------------------------
# sampling entry points
# ---------------------------------------------------------------------------

def variates_block(dist_name: str, key, count: int, start: int = 0) -> np.ndarray:
    """Variates at indices [start, start+count) of one stream or of many.

    ``key`` is one 64-bit stream key, giving a (count,) array, or a 1-D
    array of keys, giving a (len(key), count) matrix whose row i is the
    block of key[i].  Index i draws from counter i // per, slot i % per,
    with per = 2 variates per counter (gaussian, uniform) or 4 (rademacher).
    """
    finish, per = _finish_for(dist_name)
    keys = _as_keys(key)
    count = max(int(count), 0)
    lo = start // per
    nq = (start + count + per - 1) // per - lo if count else 0
    # whole counters, trimmed to [start, start+count) by the returned view
    out = np.empty((len(keys), nq * per))
    tiles = list(_tiles(len(keys), nq))

    def work(part):
        k = _Kernel(keys, len(keys) * nq)
        for r0, r1, q0, q1 in part:
            z = k.words(r0, r1, np.arange(lo + q0, lo + q1, dtype=np.uint64))
            # a tile is either whole rows or part of one row: a view either way
            dst = out[r0:r1, q0 * per:q1 * per].reshape(r1 - r0, q1 - q0, per)
            finish(k, z, dst)

    deal(work, tiles)
    out = out[:, start - lo * per:start - lo * per + count]
    return out if np.ndim(key) else out[0]


def variates_at(dist_name: str, key: int, indices: np.ndarray) -> np.ndarray:
    """Variates at arbitrary indices (pure counter addressing)."""
    finish, per = _finish_for(dist_name)
    idx = np.ascontiguousarray(indices, dtype=np.uint64).ravel()
    out = np.empty(len(idx))
    k = _Kernel(_as_keys(key), len(idx))
    vals = np.empty((1, min(len(idx), CHUNK), per))
    for _r0, _r1, q0, q1 in _tiles(1, len(idx)):
        part = idx[q0:q1]
        z = k.words(0, 1, part // np.uint64(per))
        finish(k, z, vals[:, :q1 - q0])
        slot = (part % np.uint64(per)).astype(np.intp)
        out[q0:q1] = vals[0, np.arange(q1 - q0), slot]
    return out.reshape(np.shape(indices))
