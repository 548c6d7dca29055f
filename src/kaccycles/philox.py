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
in tiles of at most ``CHUNK`` counters, in place, so a block of any length
costs no temporary larger than a tile: the counters of a tile are made
from its start offset, the rounds update one reused word buffer, and the
finishing step (uniforms, Box-Muller, sign bits) writes straight into the
output.  The word buffer is flat and holds four planes: a tile of rows x
cols cells takes the two words and the two product words (which the
finishing step reuses for its uniforms and scratch) as consecutive runs of
rows x cols cells, so every tile, a stack of short rows or the ragged end
of a long one, is one C-contiguous array.  ``variates_block`` and
``philox4x32`` also take a 1-D array of stream keys and then return one
row per key, so a batch of trials is one call.

The Box-Muller finish calls no libm function, so a Gaussian variate has
the same bytes on every x86-64 CPU, whichever SIMD kernels numpy
dispatches to (Box & Muller, Ann. Math. Stat. 1958).  It uses exact
integer, bit and ``frexp`` steps, the IEEE operations + - * / and sqrt,
which round the same everywhere, and lookups in tables pinned as
constants (``_TABLES``, checked against 120-bit values by the tests):

* the radius sqrt(-2 log u1): frexp splits u1 into 2^e m, m in [1/2, 1);
  a 256-cell table on the leading mantissa bits gives log c for a cell
  point c, and -2 log(m/c) = -4 atanh(s), s = (m - c)/(m + c), is a short
  odd series.  The cell holding values just below 1 has c = 1, so log u1
  keeps its relative accuracy as u1 -> 1; e log 2 and the table's logs
  are split into a high part that adds up exactly and a low part;
* the angle 2 pi w / 2^64 of the 64-bit word pair w: its nearest point
  J / 1024 of a 1024-cell circle indexes a cos/sin table, and short
  polynomials for the exact remainder rotate the table's pair.

Since every tile of keys x counters is a pure function of its keys and
counters, ``variates_block`` deals the tiles of one call round-robin to the
calling thread and to a module-level pool, one share per core of the
process's affinity set.  A pool thread keeps its kernel buffer from call
to call, grown to the largest tile it has drawn, one tile at most.  numpy
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

import binascii
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

# counters per tile.  A tile only needs to be long because of the GIL: numpy
# hands the GIL over at every ufunc call, and with a second thread drawing
# beside it each of the ~100 calls a Gaussian tile makes waits for the
# other's.  On a 2-core Xeon a 16k-element np.multiply took 4.5 us on one
# thread and 18.6 us with two drawing; a two-thread uniform draw of
# 1,003,002 variates took 15.9 / 11.8 / 13.1 / 19.5 ms at 16k / 32k / 64k /
# 128k-counter tiles, and a one-thread draw 21.0 / 20.4 / 23.9 / 36.8 ms
# (longer tiles leave the per-core cache).  A tile's buffer is 32 bytes a
# counter: 1 MiB at 32k.
CHUNK = 32768

# shares per dealt call: the calling thread plus one pool worker per other
# core; the pool starts its threads on first use
try:
    _THREADS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _THREADS = os.cpu_count() or 1
# per thread: whether it runs a share of ``deal`` (a pool thread always
# does), and a pool thread's kernel buffer (``_buffer``)
_IN_SHARE = threading.local()
_BUFFER = threading.local()


def _mark_pool_thread():
    _IN_SHARE.flag = True
    _BUFFER.words = np.empty(0, dtype=np.uint64)


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


def _buffer(cells: int) -> np.ndarray:
    """Flat uint64 word buffer of 4 x ``cells`` at least.

    A pool thread keeps its buffer across calls, grown on demand, so it
    holds one tile only once it has drawn one.  Any other thread takes a
    fresh buffer per call: freed, it goes back to the heap that the sweep's
    buffers come from (kept, it raised the peak RSS of the demo preset and
    of a run at n = 3e4 by 1 MB on 2 cores), while a pool thread's freed
    buffer stays in its own malloc arena either way.
    """
    words = getattr(_BUFFER, "words", None)
    if words is not None and len(words) >= 4 * cells:
        return words
    fresh = np.empty(4 * cells, dtype=np.uint64)
    if words is not None:
        _BUFFER.words = fresh
    return fresh


class _Kernel:
    """Round keys of one call, and a word buffer (``_buffer``) reused tile
    after tile.

    A Philox block (c0, c1, c2, c3) is held as the uint64 pair
    Z = (c0:c1, c2:c3), with c0 and c2 in the high halves, as a
    (2, rows, cols) array over rows = keys and cols = counters: planes 0-1
    of the buffer.  One round is, with T = (M1 c2, M0 c0) the two
    32x32->64-bit products in planes 2-3,

        Z <- (Z << 32) ^ (k0, k1) << 32 ^ T,

    whose halves are exactly the spec's (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2)) and
    (hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)).  Every step is one in-place uint64
    ufunc over the tile.  After the rounds, the finishing steps use planes
    2-3 as uniforms or scratch.
    """

    def __init__(self, keys: np.ndarray, cells: int):
        self.rkeys = _round_keys(keys)
        self.buf = _buffer(min(cells, CHUNK))

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
        float64.  Uses ``z`` as scratch; the uniforms are planes 2-3.
        """
        t = _view(self.buf, 2, 4, z.shape)
        np.right_shift(z, 38, out=t)
        np.left_shift(t, 27, out=t)
        np.bitwise_and(z, _MASK32, out=z)
        np.right_shift(z, 5, out=z)
        np.bitwise_or(z, t, out=z)
        z[0] += 1
        u = t.view(np.float64)
        np.multiply(z, _INV_2_53, out=u)
        return u


# The Gaussian finish's pinned tables, as base64 of little-endian float64s
# made with 120-bit mpmath, each rounded to nearest:
# * sin(2 pi J / 1024) for J = 0..256, a quarter circle (257 values);
# * for the 256 log cells c = i / 512, i = 256..510, and c = 1: the high
#   part of -2 log c, rounded to a multiple of 2^-42 (256 values), then the
#   rest, -2 log c minus that high part (256 values).
_TABLES = np.frombuffer(binascii.a2b_base64(
    "AAAAAAAAAABxAGf+8CF5P4TH3vzRIYk//Q7juzbZkj9+ZqP3VSGZPwHP0TE3aZ8/zVWUdWXYoj9D"
    "zZDSAPylPxTYDfFlH6k/49fAEo1CrD/gIPh5bmWvP7MJ1zQBRLE/9hnOkiDVsj+WICd5EWa0Pxmk"
    "mgrQ9rU/IVtdaliHtz8stCm8phe5PwNcSSS3p7o/1cKex4U3vD/Jn67LDse9Pw5zqVZOVr8/HYO6"
    "R6BywD939drO8DnBP8977NQWAcI/OmGObhDIwj8Ujc2w247DP1o+KbF2VcQ/8sWXhd8bxT/GP4tE"
    "FOLFP7JK9gQTqMY/Mb9Q3tltxz/GZJzoZjPIPwumaTy4+Mg/ZkPc8su9yT9RBLAloILKPyJnPe8y"
    "R8s/Y09+aoILzD+GshKzjM/MPxFDReVPk80/GxoQHspWzj8bXyF7+RnPP/nt3xrc3M8/rv03DrhP"
    "0D+Q29vP2bDQP3f2sWLSEdE/d1F216By0T8+20w/RNPRP3G7w6u7M9I/Bp/VLgaU0j+HA+zaIvTS"
    "P1KB4cIQVNM/txQE+s6z0z8BZheUXBPUP1QQV6W4ctQ/aud4QuLR1D8kPK+A2DDVP90fq3Waj9U/"
    "k6aeNyfu1T/GJz/dfUzWPxd+x32dqtY/n0X6MIUI1z/2GCQPNGbXP+fMHTGpw9c/xKpOsOMg2D9j"
    "qa6m4n3YP7CkyC6l2tg/15O8Yyo32T//vUFhcZPZP4rtqEN579k/5aHeJ0FL2j/KP20ryKbaPwlA"
    "f2wNAts/wFzhCRBd2z8BvQQjz7fbP+ceAdhJEtw/CwCXSX9s3D9exDGZbsbcP1vb6egWIN0/ieOG"
    "W3d53T9YzIEUj9LdPzv2BjhdK94/FFH46uCD3j/WeO9SGdzeP2fQP5YFNN8/upr426SL3z8QEudL"
    "9uLfP7c+TIf8HOA/GiKuJlZI4D/u/yKZh3PgP+HFF3SQnuA/j4ldTXDJ4D9+jiq7JvTgPyNLG1Sz"
    "HuE/62wzrxVJ4T9J295jTXPhP7i58glaneE/yGiuOTvH4T8bhryL8PDhP1nrM5l5GuI/H6yY+9VD"
    "4j/fEt1MBW3iP6icYicHluI/6vP6Jdu+4j8X6ujjgOfiPzVw4fz3D+M/V44MDUA44z/zWQaxWGDj"
    "PyLr34VBiOM/uVAgKfqv4z9Eg8U4gtfjP9RWRVPZ/uM/sWuOF/8l5D/WHQkl80zkP0dzmBu1c+Q/"
    "OQmbm0Sa5D8EAOxFocDkP+nl47vK5uQ/m6BZn8AM5T+WVaOSgjLlPzdRlzgQWOU/oOyMNGl95T9Q"
    "cl0qjaLlP4wBZb57x+U/dHCDlTTs5T/fLB1VtxDmP+kbHKMDNeY/PXjwJRlZ5j8Qr5GE93zmP807"
    "f2aeoOY/dYLBcw3E5j+vqOpUROfmP3ptF7NCCuc/lv/vNwgt5z+N0qiNlE/nP2FyA1/ncec/5VVP"
    "VwCU5z+vr2oi37XnP7I9w2yD1+c/cRdX4+z45z/MerUzGxroP26X/wsOO+g/zFjpGsVb6D+/LroP"
    "QHzoP6rUTZp+nOg/QRcVa4C86D/MmBYzRdzoPw2U76PM++g/op3UbxYb6T/7Y5JJIjrpP9dtjuTv"
    "WOk/QtfH9H536T8iDdguz5XpP0GH80fgs+k/1YDq9bHR6T+UrynvQ+/pPzf5uuqVDOo/gidGoKcp"
    "6j/ImhHIeEbqP+L6AhsJY+o/neafUlh/6j+joQ4pZpvqP9TAFlkyt+o/EdUhnrzS6j90FDy0BO7q"
    "PwACFVgKCes/tBMAR80j6z8SV/U+TT7rPwUUkv6JWOs/Pm4ZRYNy6z/pBHXSOIzrP9KQNWeqpes/"
    "6oCTxNe+6z8qlW+swNfrP913U+Fk8Os/SVVyJsQI7D+wcak/3iDsP7G9gPGyOOw/B2krAUJQ7D+b"
    "c4g0i2fsP/M8I1KOfuw/9RE0IUuV7D8AuaBpwavsP1z8/PPwwew/9jKLidnX7D9zxzz0eu3sP5K9"
    "sv7UAu0/3DU+dOcX7T+f7+AgsiztPzrJTdE0Qe0/sT7pUm9V7T+L5slzYWntP/nsuAILfe0/Ro0y"
    "z2uQ7T+IiWapg6PtP5ugOGJStu0/YAJBy9fI7T88wsy2E9vtP9pH3vcF7e0/K74tYq7+7T+sgCnK"
    "DBDuP+WG9gQhIe4/Jc5w6Oox7j9+wStLakLuP/yfcgSfUu4/EuFI7Ihi7j9El2rbJ3LuPw3RTKt7"
    "ge4/8vcdNoSQ7j/aLcZWQZ/uP46o5+iyre4/dAvfyNi77j+Ev8PTssnuP2NJaOdA1+4/vJ1a4oLk"
    "7j/Cc+SjePHuP+yVCwwi/u4/1zCS+34K7z9dIPdTjxbvP9o6dvdSIu8/nZoIyckt7z+J5WSs8zjv"
    "P92S/4XQQ+8/LS8LO2BO7z+EnnixoljvP7Bc98+XYu8/t7v1fT9s7z93IKGjmXXvP2495immfu8/"
    "qUtx+mSH7z/bQa7/1Y/vP5sJyST5l+8/yLKtVc6f7z8XpQh/VafvP7vPRo6Oru8/QdeVcXm17z+G"
    "QeQXFrzvP9Of4XBkwu8/Ibf+bGTI7z97pm39Fc7vP4QLIhR50+8/JiXRo43Y7z9W9PGfU93vPwlb"
    "vfzK4e8/QDkur/Pl7z86iAGtzenvP8RztuxY7e8/rXGOZZXw7z9cV40Pg/PvP35teeMh9u8/34Hb"
    "2nH47z9d9/7vcvrvP/jT8R0l/O8/Dc2EYIj97z+hUUu0nP7vP9uSmxZi/+8/koqOhdj/7z8AAAAA"
    "AADwPwA4+v5CLvY/AIhX9FIO9j8AGCSqgu71PwA0fOHRzvU/AEg2XECv9T8ABODczY/1PwCMuyZ6"
    "cPU/ALy8/URR9T8AeIYmLjL1PwD8Z2Y1E/U/AFBag1r09D8ArP1DndX0PwAMl2/9tvQ/AKwNznqY"
    "9D8ApOgnFXr0PwCITEbMW/Q/ACT58p899D8AHEf4jx/0PwDMJSGcAfQ/APgYOcTj8z8AwDYMCMbz"
    "PwBwJWdnqPM/AHgZF+KK8z8AUNPpd23zPwCMna0oUPM/ANhKMfQy8z8ACDRE2hXzPwA0Nrba+PI/"
    "AOCwV/Xb8j8AHIT5Kb/yPwDADm14ovI/AKQshOCF8j8A3DQRYmnyPwAM+Ob8TPI/ALy+2LAw8j8A"
    "pEe6fRTyPwAYxl9j+PE/AGjgnWHc8T8AYK5JeMDxPwCktzinpPE/ADzyQO6I8T8AGME4TW3xPwCY"
    "8vbDUfE/AAi/UlI28T8AXMcj+BrxPwCkE0K1//A/AMwRhonk8D8AMJTIdMnwPwBU0OJ2rvA/AJBd"
    "ro+T8D8AxDMFv3jwPwAsqsEEXvA/AAR2vmBD8D8AZKnW0ijwPwAIsuVaDvA/AECwjvHn7z8ASHqv"
    "WLPvPwB4tebqfu8/ABgD7qdK7z8AYLB/jxbvPwAQtFah4u4/AJisLt2u7j8AsN3DQnvuPwBoLtPR"
    "R+4/ACgnGooU7j8AkO9Wa+HtPwCYTEh1ru0/AICerad77T8A+N5GAkntPwBIn9SEFu0/AEgGGC/k"
    "7D8AuM7SALLsPwBYRcf5f+w/ACBHuBlO7D8AoD9pYBzsPwAYJ57N6us/AOCAG2G56z8AwFmmGojr"
    "PwAoRgT6Vus/AMhg+/4l6z8A0EhSKfXqPwBQINB4xOo/ANiKPO2T6j8A0KtfhmPqPwD4JAJEM+o/"
    "AAAV7SUD6j8A8BXqK9PpPwDYO8NVo+k/AFgTQ6Nz6T8AMKA0FETpPwD4W2OoFOk/AJg0m1/l6D8A"
    "MIuoObboPwCAMlg2h+g/AMhtd1VY6D8AiO/TlinoPwAY2Dv6+uc/AGi0fX/M5z8A+HxoJp7nPwBw"
    "lMvub+c/AHjGdthB5z8AoEY64xPnPwAYr+YO5uY/AKD/TFu45j8AaJw+yIrmPwDgTI1VXeY/ALA6"
    "CwMw5j8AkPCK0ALmPwBgWd+91eU/AOC+28qo5T8A0MhT93vlPwDgextDT+U/AKA4B64i5T8AmLrr"
    "N/bkPwAwF57gyeQ/AMi886ed5D8AyHHCjXHkPwCgU+CRReQ/AOjVI7QZ5D8AaMFj9O3jPwAwM3dS"
    "wuM/AMCbNc6W4z8AEL52Z2vjPwDIrhIeQOM/AGDT4fEU4z8AIOG84uniPwCQ3HzwvuI/AGgY+xqU"
    "4j8A2DQRYmniPwC4HpnFPuI/ALgObUUU4j8AmIhn4enhPwBoWmOZv+E/AMCbO22V4T8A+KzLXGvh"
    "PwB4Nu9nQeE/AOgngo4X4T8AgLdg0O3gPwBgYWctxOA/AMjmcqWa4D8AWE1gOHHgPwCA3gzmR+A/"
    "AMgmVq4e4D8AAOozIuvfPwCws2wcmd8/APBNE0tH3z8AAN3krfXePwCwBJ9EpN4/ABDn/w5T3j8A"
    "YCPGDALePwCQ1LA9sd0/ADCQf6Fg3T8AYGXyNxDdPwBA28kAwNw/ABDwxvtv3D8AABirKCDcPwDg"
    "OziH0Ns/ACC4MBeB2z8A0FtX2DHbPwAwZ2/K4to/AOCKPO2T2j8AsOaCQEXaPwCQCAfE9tk/ALDr"
    "jXeo2T8AAPfcWlrZPwDA/LltDNk/AAA566++2D8A8FA3IXHYPwCgUWXBI9g/AGCvPJDW1z8AUESF"
    "jYnXPwDQTwe5PNc/AHB1ixLw1j8A0LvamaPWPwAQjL5OV9Y/AJCwADEL1j8AQFRrQL/VPwCQAcl8"
    "c9U/ALCh5OUn1T8AwHuJe9zUPwCwM4M9kdQ/ALDJnStG1D8AMJmlRfvTPwDwV2eLsNM/AJAVsPxl"
    "0z8AUDpNmRvTPwCAhgxh0dI/ALARvFOH0j8AwEkqcT3SPwBg8iW589E/APAjfiuq0T8AIEsCyGDR"
    "PwDgJ4KOF9E/AMDMzX7O0D8AQJ61mIXQPwDwUQrcPNA/AODbOZHozz8AAJB9vFfPPwAgCoM5x84/"
    "AEAw7gc3zj8AQIRjJ6fNPwCgIYiXF80/AEC8AViIzD8AwJ92aPnLPwBgrY3Iass/AOBa7nfcyj8A"
    "wLFAdk7KPwAgTS3DwMk/AEBZXV4zyT8A4JF6R6bIPwDgQC9+Gcg/AIA9JgKNxz8AwOoK0wDHPwBg"
    "NonwdMY/AKCXTVrpxT8AAA4FEF7FPwCAIF0R08Q/AODbA15IxD8A4NGn9b3DPwBAGPjXM8M/ACBH"
    "pASqwj8AYHhceyDCPwBgRtE7l8E/AODKs0UOwT8AQJ61mIXAPwCAqxFp+r8/AMAGwDHqvj8AAGjc"
    "itq9PwDA3c1zy7w/AABp/Ou8uz8AAPvQ8q66PwDAc7WHobk/AMCfFKqUuD8AgDVaWYi3PwDA1PKU"
    "fLY/AMADTFxxtT8AAC7Urma0PwBAofqLXLM/AACNL/NSsj8AQADk40mxPwBA54ldQbA/AAAUKL9y"
    "rj8AgBTs0mOsPwAAxkj1Vao/AADJKCVJqD8AAGl4YT2mPwAAmCWpMqQ/AADqH/sooj8AgJNYViCg"
    "PwAAx4RzMZw/AACJo0gkmD8AAGj5KRmUPwAAiXUVEJA/AABYFBISiD8AAFhZBQiAPwAAAAAAAAAA"
    "MGfHk1fzPj2NY4HmpW4sPb5G2gw4AjI9GquCSqBVPD37yRCsY/o9PYte6fK/cSg93QMz/wuYGT2E"
    "i5SpWSc2PTF1JV3EzBU9luphJlPOFT37uJNtUWw+vV2uH1vThBe9HFRM7RVx/zxhaMpRl+ATvapg"
    "TflqyzK92DQCsEWhMz33URBIT5gNvT+aMl33EDY9TMfwMHnONr2kzRfGNHUivcIT/nw2txK9yhmJ"
    "HuASMT2kaVW7eosxvfkVYVBhoAS9rOYnlT+4ID0YqOjUw5YavZztoMWTTje93VCAi8DMIL0R3LkH"
    "5aYnvey302E4ig09LYiX5yttMD3yBpXMkx0fvVBiIgXxYRu9UoQ0mpSmOT17ZkhuBvwiPUw6cj1D"
    "FRu904H+yUJyOr2Ig7MLtUE0PWfmcO3erNw8tGHvZzt1KL1QRqv4TswkPYhdOUJdpz89Sa6Topfd"
    "Pr3ClzrEtDAZPbLcnbtHhjW95muu7rt3HT1CF4AHmCksPYe73HwK3Dw9J35+iGtILz3bJ8brI1A2"
    "vf317UEigTY9nByfcjEM2DzgOZXnX8QUvfrfCz9PAOe8HHtysaM7Fb16frPOUQ82vTVJFjz6hRA9"
    "qBHVlP8zLr2LSgFv5c0iPW4MfAq0bz29UQJHWvQnPz0kS5PXOsMgPQi9clNQZTS9QTpUNdI8EL04"
    "KTIHsiYjvVJH/ubPCB49amHcYC2kLr1bMoq4KwIzvahnp+mvWzM9omOf1pkYJb2wpsc+w5cXvaMr"
    "TZeJ0Su9rklSwd22Ob2gZjApIw0+PYDh6H+A7Dw9UZuH226KNj1tZgr0W9g3PZxculisZTu9lRmE"
    "LSWVID12SXTHYHA5PVhEd1LFfDG9r1SKzOjACz1deqe+8jYuPeai6j6uex099Xmdf0XGMz2V4NWw"
    "INwyvbDA0BCeJza9VdDxKitjJL3w2QKlEyMlvUP/X8mByzI9fTDmLrVmJ712x27sxBs8PXAE5+Xh"
    "WjC9l8R/H+KIOb2KdzMzb9U/PYmS9bmqVT49alYSyJAgN71IhvuP92wwPXgX/S597Dk9VyyFyblL"
    "Jz2zYNxJCYs9PXKUfmGyuSc9hy0ifGUhJz0DJTcNdeY/PaDrVifToDA9wL3FLf1E1TwArjHnI7Y9"
    "vWU/33aRvi493GWkCCoLGr347PcKm8cHve9AXe7trS89UgmRwFSJKj1Zx2SBcL4+PW6jbWeaU988"
    "pNgKG4kgPr3NaKFkmQk/vXXWZwnOJz+9iD2SkljpFr2d4JDsNuQYPSF4GtB6MP88XL0GtlQ7KD09"
    "ZmNWnIMVvch38bDNbiE9xq0jVRkHPT24PCHTeuI4vcIdjRIMMDQ99ARQSvqcOj3rOp6Ret47Pbaz"
    "W9/Bkzw9vDW6bjdIMj3quka63ocaPYgm3bBERS89t71HUe2mPD0UqtE699I3PYEWpffNmjs9rFAl"
    "24c/D70c8KVjDiE8vfU1hC21GRA96eo8FosYNz328jJ6eL0ivZFO7RbbnAg9PH85DfG9PT1K6YUU"
    "jPAmvYuTAN4YND89MN8MyuzLKz2JEoI42EYhPRGOu2UVIdq8lKsZOdMtNL0w9EFgJxLSPCQUua0A"
    "KzW9NbAV9yr/Or2O5XsgP1I0PeT2tnV+Shi9+a9XXVhtLb3SK5bFcuwBvcZ6XOUOLjm9thJUWcRL"
    "Pb1o15w7aJAuParhrE6NNRy9XxVWo1SuML1pIVZQQ3I4vR4dwW8Q6zO9eoFlaE2QOT3geAKCCx43"
    "vW//oFgo8hc9ytcYd/U1Kb3RLOmqVD0XvRahDHoprjm9gx5jmtsNLj3XAcMXa8A0vQVDkXAQZiy9"
    "zNL/l7fKFD3hIZzljRE1vWepV2YsGyw9eC48LIvPKT3YD+5sUtcxPRyYaOsjcCK9KOAdZWEVKb3H"
    "fWnl6DM2PQ//4Qq2eRw9eLb9VHmDNT16Prljnd4uPU01an7Y0Ty9FXyzNVxIJT2JcksjqC/WPAb+"
    "Xosjzv68obSBy2ydEz0z+tmUY20xvVzf048jDSA9MzYIm073Jb00mThEjqc8PT2eAKnSwj498gct"
    "znjvMT1HVP+rLWUkPSyQCXDd5Te9kA5YOoyVL739CqFP1jQ1vU6wqJ5saic94EXmr2jAPb29anbm"
    "hPYwPTMXpx9AiSo9JYIglJg3Ob3TrFrG0UY2PYNCgo2MITQ95Wj3K4CQI733zXnsmxg1PcgHRLm2"
    "Qh69Yebxhf0gJT3aR706XBEzPQVJIYP6uR699/1v+dyAHz23n7aUV5sWPTLtnamNHvw8+TOLzZoZ"
    "Jr0eHV08Bmk8vS7HUwx0HRw97+H0giU6Bb1EUmXLRa7kvNdO26VeyDw9SIgbqLaS9rx9aZyu6LYw"
    "vYJw3gfmxDa9m54NVl0yNb03l2uvLWEwPSyQCXDd5Se9jxo4mIwAMz17O8lPPhEevS/k2WSssTG9"
    "ByjYR/JoKr0qfDGMhr8nvS60OzUa/DA95U12YqN7Pj19JlrQlXkpvUw6OwgNiyC9oq8Z7PueEr1g"
    "J+6AyN0tPSj9vXVzFjy9K1MYhAoqL717tiHgmj44PQYufcvqjDo9U9fxXMARET1HTXdJUdc4vfOy"
    "nj/GeDU9yQMtn3DgPb00DFoyuqA6vUJlWYnzqxc9/jeGkjmBGT3+kUko4xM3PdL34gZb3DO9BYwg"
    "BpjBNz1A9nTad1U3vWgT0FXHdyk96CudmWvHIL0nP5eCA9UqPXvGMcuvZjE9AAAAAAAAAAA="
), dtype="<f8")


def _circle_table(quarter: np.ndarray) -> np.ndarray:
    """(cos, sin) of 2 pi J / 1024 for J = 0..1023, (2, 1024), by symmetry
    from sin on the quarter circle, without a signed zero."""
    half = np.concatenate([quarter[:256], quarter[256:0:-1]])
    sin = np.concatenate([half, 0.0 - half])
    return np.stack([np.roll(sin, -256), sin])


_CIRCLE = _circle_table(_TABLES[:257])
# mantissa cells [i, i + 1) / 512, i = 256..511, and their points c: the
# left end, but 1 for the top cell; a table of 512 is indexed by i itself
_LOG_C = np.concatenate([np.zeros(256), np.arange(256, 512) / 512.0])
_LOG_C[-1] = 1.0
_LOG_HI = np.concatenate([np.zeros(256), _TABLES[257:513]])
_LOG_LO = np.concatenate([np.zeros(256), _TABLES[513:769]])
# -2 log 2 as high and low parts: the cell of c = 1/2 holds 2 log 2
_LN4_HI, _LN4_LO = _LOG_HI[256], _LOG_LO[256]
_TWO_PI_2_64 = 2.0 * np.pi / 18446744073709551616.0  # 2 pi 2^-64
_HALF_CELL = 1 << 53  # half a circle cell, in units of 2^-64 turns


def _finish_gaussian(k: _Kernel, z, out):
    """Box-Muller pair of standard normals per counter, into out[..., 0:2]:
    (r cos th, r sin th), r = sqrt(-2 log u1), th = 2 pi w / 2^64.

    u1 = (h1 + 1) 2^-53 in (0, 1] from the top 53 bits h1 of (w0, w1),
    and w the pair (w2, w3) as one 64-bit word.  No libm call (see the
    module docstring); the out block serves as scratch until its last two
    writes.  About 50 ufunc calls over the tile's cells.
    """
    f64, i64 = np.float64, np.int64
    h, w = z
    p2, p3 = _view(k.buf, 2, 4, z.shape)
    o0, o1 = out.reshape(2, *h.shape)   # a view: an out block is contiguous
    # -- the radius: u1 = 2^e m, i the cell of m, c its point --
    np.right_shift(h, 11, out=h)
    h += 1
    m = p2.view(f64)
    np.multiply(h, _INV_2_53, out=m)
    e = h.view(f64)
    np.frexp(m, out=(m, e))
    i = p3.view(i64)
    np.multiply(m, 512.0, out=i, casting="unsafe")
    # A = -2 (e log 2 + log c), high parts, exact; b its low parts
    a, b = o0, e
    np.multiply(e, -_LN4_HI, out=a)
    b *= -_LN4_LO
    np.take(_LOG_HI, i, out=o1, mode="clip")
    a += o1
    np.take(_LOG_LO, i, out=o1, mode="clip")
    b += o1
    # -2 log(m / c) = -4 (s + s^3 / 3 + s^5 / 5), s = (m - c) / (m + c)
    c = o1
    np.take(_LOG_C, i, out=c, mode="clip")
    s = p3.view(f64)
    np.subtract(m, c, out=s)    # exact
    m += c
    s /= m
    s2, series = o1, m
    np.multiply(s, s, out=s2)
    np.multiply(s2, -0.8, out=series)
    series += -4.0 / 3.0
    series *= s2
    series += -4.0
    series *= s
    b += series
    a += b
    r = h.view(f64)
    np.sqrt(a, out=r)
    # -- the angle: w = J 2^54 + d, d in [-2^53, 2^53), th = 2 pi J / 1024
    # + delta, delta = 2 pi d 2^-64 --
    j = p3.view(i64)
    np.add(w, _HALF_CELL, out=p3)
    np.right_shift(p3, 54, out=p3)
    np.left_shift(w, 10, out=w)
    d = w.view(i64)
    np.right_shift(d, 10, out=d)
    delta = o0
    np.multiply(d, _TWO_PI_2_64, out=delta)
    # (C, S) = (cos, sin) 2 pi J / 1024, scaled by r
    cs = _view(k.buf, 1, 3, z.shape).view(f64)
    np.take(_CIRCLE, j, axis=1, out=cs, mode="clip")
    rc, rs = cs
    rc *= r
    rs *= r
    # sin delta and cos delta - 1, to 5e-22 and 1.2e-18 for |delta| <= pi / 1024
    d2, sn = o1, p3.view(f64)
    np.multiply(delta, delta, out=d2)
    np.multiply(d2, 1.0 / 120.0, out=sn)
    sn += -1.0 / 6.0
    sn *= d2
    sn *= delta
    sn += delta
    cm = o0
    np.multiply(d2, 1.0 / 24.0, out=cm)
    cm += -0.5
    cm *= d2
    # (r cos th, r sin th) = (rC + (rC cm - rS sn), rS + (rS cm + rC sn))
    t = r
    np.multiply(rs, sn, out=t)
    sn *= rc
    np.multiply(rs, cm, out=o1)
    cm *= rc
    np.subtract(cm, t, out=t)
    sn += o1
    np.add(rc, t, out=out[..., 0])
    np.add(rs, sn, out=out[..., 1])


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
