import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from kaccycles import philox


def test_known_answer_vector():
    # philox4x32-10, counter 0, key 0 (reference known-answer test)
    w = philox.philox4x32(0, np.array([0], dtype=np.uint64))
    got = [int(x[0]) for x in w]
    assert got == [0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8]


def test_block_matches_indexed_access():
    key = philox.stream_key(42, 7, 0)
    for dist in ("gaussian", "rademacher", "uniform"):
        block = philox.variates_block(dist, key, 37, start=5)
        indexed = philox.variates_at(dist, key, np.arange(5, 42))
        assert np.array_equal(block, indexed)
        # one variate at a time, as addressed
        for i in (5, 8, 41):
            assert philox.variates_at(dist, key, np.array([i]))[0] == block[i - 5]


def test_streams_disjoint_and_deterministic():
    k1 = philox.stream_key(1, 0, 0)
    k2 = philox.stream_key(1, 1, 0)
    a = philox.variates_block("gaussian", k1, 100)
    b = philox.variates_block("gaussian", k2, 100)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, philox.variates_block("gaussian", k1, 100))


def test_supports():
    key = philox.stream_key(9)
    r = philox.variates_block("rademacher", key, 4096)
    assert set(np.unique(r)) == {-1.0, 1.0}
    u = philox.variates_block("uniform", key, 4096)
    assert np.all(np.abs(u) <= math.sqrt(3.0) + 1e-15)


@pytest.mark.parametrize("dist,fourth", [("gaussian", 3.0), ("rademacher", 1.0),
                                         ("uniform", 9.0 / 5.0)])
def test_moments_million_draws(dist, fourth):
    key = philox.stream_key(123456789)
    x = philox.variates_block(dist, key, 10**6)
    n = len(x)
    assert abs(x.mean()) <= 3.0 / math.sqrt(n)  # sd = 1
    # var estimator sd ~ sqrt((m4 - 1)/n)
    assert abs(x.var() - 1.0) <= 3.0 * math.sqrt(max(fourth - 1.0, 0.5) / n)
    m4 = (x**4).mean()
    m8 = {"gaussian": 105.0, "rademacher": 1.0, "uniform": 9.0}[dist]
    sd4 = math.sqrt(max(m8 - fourth**2, 1e-3) / n)
    assert abs(m4 - fourth) <= 3.0 * sd4


def _splitmix64_int(z):
    # the scalar reference: splitmix64 on Python ints
    m = 2**64 - 1
    z = (z + 0x9E3779B97F4A7C15) & m
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
    return z ^ (z >> 31)


def _stream_key_int(seed, trial, lane):
    m = 2**64 - 1
    k = _splitmix64_int(_splitmix64_int(seed & m))
    return _splitmix64_int(_splitmix64_int(k ^ (trial & m)) ^ (lane & m))


@pytest.mark.parametrize("seed", [0, -3, 2**64 - 1])
def test_stream_keys_equal_the_scalar_chain(seed):
    # one array pass for many trials, and the int form for one, both equal
    # to the splitmix64 chain on Python ints, wrap-around included
    trials = [0, 2**32, 2**64 - 1]
    for lane in range(4):
        want = [_stream_key_int(seed, t, lane) for t in trials]
        keys = philox.stream_key(seed, np.array(trials, dtype=np.uint64), lane)
        assert keys.dtype == np.uint64 and keys.tolist() == want
        for t, w in zip(trials, want):
            got = philox.stream_key(seed, t, lane)
            assert type(got) is int and got == w


# ---------------------------------------------------------------------------
# golden streams: SHA-256 of the variates, which every later kernel must
# reproduce bit for bit.  The uniform and Rademacher digests were fixed
# before any kernel rewrite.  The Gaussian digests were pinned again once,
# when the Box-Muller finish moved from np.log, np.cos and np.sin, whose
# last bits depend on the SIMD kernels numpy picks for the CPU, to pinned
# tables and IEEE arithmetic, which give the same bits on every x86-64 CPU
# ---------------------------------------------------------------------------

GOLDEN_KEYS = {
    "zero": 0,
    "all-ones": 0xFFFFFFFFFFFFFFFF,
    "s1": philox.stream_key(1, 373, philox.LANE_XI),
    "s70812": philox.stream_key(70812, 4, philox.LANE_PERT),
}

# (start, count): counts of 1 and 2, odd starts, ranges straddling every
# power-of-two chunk size from 2^12 to 2^15 variates, a range spanning many
# chunks, and counters whose high 32-bit word is non-zero
GOLDEN_RANGES = [(0, 1), (1, 1), (3, 1), (0, 2), (1, 2), (6, 2), (5, 37), (7, 1001),
                 (8189, 12), (16381, 12), (32765, 12), (65531, 12),
                 (1, 70001), (2**33 + 1, 9), (2**40 - 3, 17)]

GOLDEN_BLOCKS = {
    ("gaussian", "zero"): "d351137ae58e7a2ffe37767e9e3dc53f",
    ("gaussian", "all-ones"): "00b61e6ceb372ec583728d4753ba833d",
    ("gaussian", "s1"): "535b93838313669fe1aa0e3cf04a8599",
    ("gaussian", "s70812"): "e61c1f26d790b2ae75c497007f8a6d84",
    ("rademacher", "zero"): "d7149e6c66731fdc6c876cb5b3378ca1",
    ("rademacher", "all-ones"): "678682a0ed657a00b47d01316fa8ea79",
    ("rademacher", "s1"): "266a731f372758613c6dcc94e3676e73",
    ("rademacher", "s70812"): "9d25e3c8404f73311d4a592a9f85f888",
    ("uniform", "zero"): "7a0991730a97903a35c10ed331673117",
    ("uniform", "all-ones"): "deebd0fd43e53ee1cdaa645c6f019b85",
    ("uniform", "s1"): "16eb8ebe2c2c4bee29c2419d87dc6873",
    ("uniform", "s70812"): "c301450f7d1208dafaf235334f7aea0d",
}

# one block of (1001)(1002) variates: a degree-2001 perturbation's draw
GOLDEN_MELNIKOV_BLOCK = {
    "gaussian": "6849283892527b7860ffb6478e1aa017",
    "rademacher": "19654ea056fe82c34174cc037fb4fa94",
    "uniform": "78a46bdee61dec85a7219b4b59be3b5a",
}

GOLDEN_AT = {
    ("gaussian", "zero"): "ab731cb09173a68c4b8640a11491aabf",
    ("gaussian", "all-ones"): "ae2e732e38c2ae7634648d5ff025992d",
    ("gaussian", "s1"): "92dccd347278064e07d6b3a66d2a02dc",
    ("gaussian", "s70812"): "dee348e2d6b05fb9bece28dad10f5f29",
    ("rademacher", "zero"): "70ac7369b8af12f3becea56c9691249c",
    ("rademacher", "all-ones"): "40835b637241132daed7b25a20373ff0",
    ("rademacher", "s1"): "eaf7bc8a273b3f8e9a9aa67076acec41",
    ("rademacher", "s70812"): "75ca86a243ca3fcb4ab8ff282b5beb0b",
    ("uniform", "zero"): "73ceb50ef8a16724136847b3a65c0bd5",
    ("uniform", "all-ones"): "a5be5ce2edd74eae6152798bb25f5f58",
    ("uniform", "s1"): "fa37b14c13bd50c6a9375a8ae22632ae",
    ("uniform", "s70812"): "86080dac40de7b43f301f34a5fe4a9dd",
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:32]


def _scattered_indices() -> np.ndarray:
    rng = np.random.default_rng(20211210)
    return np.concatenate([rng.integers(0, 2**40, 300),
                           [0, 1, 2, 3, 2**33, 5, 5, 4]]).astype(np.uint64)


def _block_digest(dist, key_name):
    return _digest(philox.variates_block(dist, GOLDEN_KEYS[key_name], c, start=s)
                   for s, c in GOLDEN_RANGES)


def _melnikov_digest(dist):
    return _digest([philox.variates_block(dist, GOLDEN_KEYS["s1"], 1003002)])


def _at_digest(dist, key_name):
    return _digest([philox.variates_at(dist, GOLDEN_KEYS[key_name], _scattered_indices())])


def _golden_digests(dists) -> dict:
    """Every golden digest of ``dists``, drawn afresh."""
    got = {}
    for dist in dists:
        got[f"melnikov {dist}"] = _melnikov_digest(dist)
        for name in GOLDEN_KEYS:
            got[f"block {dist} {name}"] = _block_digest(dist, name)
            got[f"at {dist} {name}"] = _at_digest(dist, name)
    return got


@pytest.mark.parametrize("dist,key_name", sorted(GOLDEN_BLOCKS))
def test_golden_block_streams(dist, key_name):
    assert _block_digest(dist, key_name) == GOLDEN_BLOCKS[(dist, key_name)]


@pytest.mark.parametrize("dist", sorted(GOLDEN_MELNIKOV_BLOCK))
def test_golden_melnikov_size_block(dist):
    assert _melnikov_digest(dist) == GOLDEN_MELNIKOV_BLOCK[dist]


@pytest.mark.parametrize("dist,key_name", sorted(GOLDEN_AT))
def test_golden_scattered_indices(dist, key_name):
    assert _at_digest(dist, key_name) == GOLDEN_AT[(dist, key_name)]


# A child process that prints ``_golden_digests`` of this file for the
# distributions in argv[2].  With argv[3] = "no-libm" it first replaces
# numpy's and math's libm functions by ones that raise; any other argv[3]
# names numpy CPU features that the child reports if they are still on.
_GOLDEN_CHILD = """
import importlib.util, json, math, sys
import numpy as np
_LIBM = ("log", "log2", "log10", "log1p", "exp", "exp2", "expm1", "pow", "power",
         "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2",
         "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "hypot", "cbrt")
if sys.argv[3] == "no-libm":
    def _libm(*args, **kwargs):
        raise AssertionError("a libm call")
    for mod in (np, math):
        for name in _LIBM:
            if hasattr(mod, name):
                setattr(mod, name, _libm)
    on = []
else:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    on = [f for f in sys.argv[3].split() if umath.__cpu_features__.get(f)]
spec = importlib.util.spec_from_file_location("golden_child", sys.argv[1])
tests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tests)
print(json.dumps({"still on": on, "digests": tests._golden_digests(sys.argv[2].split())}))
"""


def _golden_digests_in_child(dists, mode, env=()):
    src = str(Path(philox.__file__).parents[1])
    env = dict(os.environ, **dict(env),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", _GOLDEN_CHILD, __file__, " ".join(dists), mode],
                         env=env, check=True, capture_output=True, text=True, timeout=600)
    return json.loads(res.stdout.splitlines()[-1])


def _avx512_group():
    """numpy's dispatched AVX-512 features, if the CPU has AVX512F."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    if not umath.__cpu_features__.get("AVX512F"):
        return []
    return [f for f in umath.__cpu_dispatch__ if f == "X86_V4" or f.startswith("AVX512")]


def test_golden_streams_do_not_depend_on_cpu_features():
    # a child with numpy's AVX-512 kernels masked runs the kernels of a CPU
    # without AVX-512 (e.g. AMD Zen 2 or 3) and must draw the same bytes
    group = _avx512_group()
    if not group:
        pytest.skip("numpy dispatches no AVX-512 kernels on this CPU")
    dists = ["gaussian", "rademacher", "uniform"]
    child = _golden_digests_in_child(dists, " ".join(group),
                                     {"NPY_DISABLE_CPU_FEATURES": " ".join(group)})
    assert child["still on"] == []
    assert child["digests"] == _golden_digests(dists)


def test_gaussian_draw_calls_no_libm():
    # the tables are pinned, not computed at import, and the finish uses
    # IEEE arithmetic alone: the same bytes with every libm function raising
    child = _golden_digests_in_child(["gaussian"], "no-libm")
    assert child["digests"] == _golden_digests(["gaussian"])


# ---------------------------------------------------------------------------
# the Gaussian finish's pinned tables and its accuracy, against mpmath
# ---------------------------------------------------------------------------

def _round53(mp, x):
    with mp.workprec(53):
        y = +x   # round to nearest double
    f = float(y)
    assert mp.mpf(f) == y
    return f


def test_gaussian_tables_are_correctly_rounded():
    mp = pytest.importorskip("mpmath")
    with mp.workprec(120):
        for j in range(1024):
            # cos and sin of 2 pi j / 1024, exact at the quadrant points
            assert philox._CIRCLE[0, j] == _round53(mp, mp.cospi(mp.mpf(j) / 512)), j
            assert philox._CIRCLE[1, j] == _round53(mp, mp.sinpi(mp.mpf(j) / 512)), j
        for i in range(256, 512):
            c = mp.mpf(i) / 512 if i < 511 else mp.mpf(1)
            assert philox._LOG_C[i] == c
            t = -2 * mp.log(c)
            hi = mp.nint(t * 2**42) / 2**42
            assert philox._LOG_HI[i] == hi, i
            assert philox._LOG_LO[i] == _round53(mp, t - hi), i


def _finish_words(w0, w1):
    """The Gaussian finish of the 64-bit word pairs (w0, w1), per counter."""
    out = np.empty((len(w0), 2))
    for q0 in range(0, len(w0), philox.CHUNK):
        q1 = min(q0 + philox.CHUNK, len(w0))
        k = philox._Kernel(np.zeros(1, dtype=np.uint64), q1 - q0)
        z = philox._view(k.buf, 0, 2, (2, 1, q1 - q0))
        z[0, 0], z[1, 0] = w0[q0:q1], w1[q0:q1]
        philox._finish_gaussian(k, z, out[None, q0:q1])
    return out


def test_gaussian_finish_accuracy():
    mp = pytest.importorskip("mpmath")
    # sampled counters: the words of one stream, checked against its draw
    key = philox.stream_key(2021)
    w = [x.astype(np.uint64) for x in philox.philox4x32(key, np.arange(2048, dtype=np.uint64))]
    w0, w1 = (w[0] << np.uint64(32)) | w[1], (w[2] << np.uint64(32)) | w[3]
    assert np.array_equal(_finish_words(w0, w1).ravel(),
                          philox.variates_block("gaussian", key, 4096))
    # u1 = (h1 + 1) 2^-53 at its ends and around 1/2; angles w 2^-64 turns
    # on both sides of every table-cell edge and at the quadrant edges
    h1s = [0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1]
    edges = [x % 2**64 for j in range(1024) for x in (j * 2**54 + 2**53 - 1, j * 2**54 + 2**53)]
    edges += [(k * 2**62 + dk) % 2**64 for k in range(4) for dk in (-1, 0, 1)]
    a = w0.tolist() + w0[:len(edges)].tolist()
    b = w1.tolist() + edges
    for h1 in h1s:
        a += [h1 << 11 | 1234] * (len(edges) + 256)
        b += edges + w1[:256].tolist()
    got = _finish_words(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64))
    worst = 0.0
    with mp.workprec(120):
        for (x, y), wa, wb in zip(got.tolist(), a, b):
            r = mp.sqrt(-2 * mp.log(mp.mpf((wa >> 11) + 1) / 2**53))
            th = 2 * mp.pi * mp.mpf(wb) / 2**64
            err = max(abs(x - r * mp.cos(th)), abs(y - r * mp.sin(th)))
            # 1e-15, but four roundings of r for r > 4.5: at h1 = 0 and 1
            # (r = 8.5) the float spacing of the value alone is 1.8e-15
            assert err <= max(1e-15, 2.0**-51 * r), (wa, wb, float(err))
            worst = max(worst, float(err / max(1e-15, 2.0**-51 * r)))
    print(f"worst error {worst:.2f} of its bound over {len(a)} counters")


@pytest.mark.parametrize("dist", ["gaussian", "rademacher", "uniform"])
@pytest.mark.parametrize("start,count", [(0, 101), (3, 1), (1, 2), (5, 40001)])
def test_multi_key_rows_equal_per_key_blocks(dist, start, count):
    keys = [philox.stream_key(7, t, philox.LANE_XI) for t in range(5)] + [0, 2**64 - 1]
    got = philox.variates_block(dist, np.array(keys, dtype=np.uint64), count, start)
    assert got.shape == (len(keys), count)
    for row, key in zip(got, keys):
        assert np.array_equal(row, philox.variates_block(dist, key, count, start))


def test_multi_key_words_equal_per_key_words():
    keys = np.array([0, 1, 2**32, 2**64 - 1], dtype=np.uint64)
    ctr = np.array([0, 1, 2**32 + 5, 2**64 - 1], dtype=np.uint64)
    words = philox.philox4x32(keys, ctr)
    for i, key in enumerate(keys):
        for w, single in zip(words, philox.philox4x32(int(key), ctr)):
            assert w.dtype == np.uint32
            assert np.array_equal(w[i], single)


# ---------------------------------------------------------------------------
# tile threads: a block's bytes do not depend on how its tiles are shared
# ---------------------------------------------------------------------------

_TILE_CASES = [
    # one key: whole tiles, then a ragged last tile, from an odd start
    # (41461 counters: more than one tile for any CHUNK up to 41460)
    (philox.stream_key(3, 1, philox.LANE_PERT), 7, 82921),
    # many keys stacked several to a tile, the last tile holding fewer
    (np.array([philox.stream_key(3, t) for t in range(37)] + [0, 2**64 - 1],
              dtype=np.uint64), 5, 1999),
    # a few long rows, each cut into several tiles
    (np.array([philox.stream_key(3, t, 1) for t in range(3)], dtype=np.uint64),
     philox.CHUNK + 3, 3 * philox.CHUNK + 17),
]


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "rademacher"])
@pytest.mark.parametrize("keys,start,count", _TILE_CASES)
def test_block_does_not_depend_on_thread_count(monkeypatch, dist, keys, start, count):
    blocks = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(philox, "_THREADS", threads)
        blocks.append(philox.variates_block(dist, keys, count, start))
    for b in blocks[1:]:
        assert b.tobytes() == blocks[0].tobytes()


@pytest.mark.parametrize("keys,start,count", _TILE_CASES)
def test_kernel_tiles_are_contiguous(keys, start, count):
    # each tile's words and uniforms are one C-contiguous run of the
    # kernel's buffers: whole tiles, ragged last tiles and multi-key tiles
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    nq = count // 2 + 1
    k = philox._Kernel(keys, len(keys) * nq)
    shapes = set()
    for r0, r1, q0, q1 in philox._tiles(len(keys), nq):
        z = k.words(r0, r1, np.arange(start + q0, start + q1, dtype=np.uint64))
        u = k.uniforms(z)
        assert z.shape == u.shape == (2, r1 - r0, q1 - q0)
        assert z.flags.c_contiguous and u.flags.c_contiguous
        shapes.add(z.shape)
    # every case has tiles of more than one shape: its last tile is ragged
    assert len(shapes) > 1


def test_block_under_thread_stress(monkeypatch):
    # more shares than cores, and a thread switch every few microseconds:
    # the shares write disjoint parts of one output and must not lose any
    keys = np.array([philox.stream_key(5, t) for t in range(2)], dtype=np.uint64)
    count = 6 * philox.CHUNK + 5
    monkeypatch.setattr(philox, "_THREADS", 1)
    want = philox.variates_block("gaussian", keys, count, 3)
    monkeypatch.setattr(philox, "_THREADS", 5)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner = threading.Thread(target=lambda: got.append(
            philox.variates_block("gaussian", keys, count, 3)))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(got) == 1 and got[0].tobytes() == want.tobytes()


class _NoPool:
    def submit(self, *args, **kwargs):
        raise AssertionError("a one-tile call submitted to the pool")


def test_single_tile_call_stays_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(philox, "_THREADS", 4)
    monkeypatch.setattr(philox, "_POOL", _NoPool())
    key = philox.stream_key(11)
    philox.variates_block("gaussian", key, 2 * philox.CHUNK - 1, start=1)
    philox.variates_block("rademacher", np.array([key, 1], dtype=np.uint64), 50)
    philox.variates_block("uniform", key, 0)
    with pytest.raises(AssertionError, match="pool"):
        philox.variates_block("gaussian", key, 2 * philox.CHUNK + 2)


def test_deal_on_a_pool_thread_never_submits(monkeypatch):
    # work that runs on the pool and deals again keeps every share itself
    monkeypatch.setattr(philox, "_THREADS", 3)
    pool = philox._POOL
    monkeypatch.setattr(philox, "_POOL", _NoPool())
    seen = []

    def work(part):
        seen.append((threading.current_thread().name, list(part)))

    pool.submit(philox.deal, work, range(6)).result(timeout=60)
    assert len(seen) == 1 and seen[0][1] == list(range(6))
    assert seen[0][0].startswith("philox")


def test_nested_deal_runs_on_its_outer_share_thread(monkeypatch):
    # a share that deals again keeps every nested share on its own thread,
    # the calling thread's share 0 too, instead of queueing behind the pool
    monkeypatch.setattr(philox, "_THREADS", 2)
    seen = []

    def outer(part):
        me = threading.current_thread().name
        for _ in part:
            philox.deal(lambda inner: seen.append(
                (me, threading.current_thread().name, list(inner))), range(4))

    runner = threading.Thread(target=philox.deal, args=(outer, range(2)), name="outer")
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert len(seen) == 2 and len({o for o, _, _ in seen}) == 2
    assert all(o == t and p == [0, 1, 2, 3] for o, t, p in seen)
    # the calling thread's mark is lifted when its share ends: it deals to
    # the pool again
    names = []
    for _ in range(2):
        philox.deal(lambda part: names.append(threading.current_thread().name), range(2))
    assert len(set(names[2:])) == 2


def _peak_bytes(draw):
    tracemalloc.start()
    try:
        out = draw()
        return tracemalloc.get_traced_memory()[1] - out.nbytes
    finally:
        tracemalloc.stop()


def test_pool_threads_keep_their_kernel_buffers(monkeypatch):
    # a pool thread keeps one word buffer across calls, so a 64 x 3001 draw
    # in two shares peaks no higher than with a fresh buffer per share (4 x
    # 8 bytes per cell of a tile), and once the pool thread has drawn, one
    # buffer lower; the calling thread frees its buffer
    keys = philox.stream_key(3, np.arange(64), philox.LANE_XI)
    buf = 4 * 8 * philox.CHUNK
    monkeypatch.setattr(philox, "_THREADS", 2)
    monkeypatch.setattr(philox, "_POOL", ThreadPoolExecutor(1, initializer=philox._mark_pool_thread))
    try:
        peaks = [_peak_bytes(lambda: philox.variates_block("gaussian", keys, 3001))
                 for _ in range(2)]
        assert peaks[0] < 2 * buf + buf // 4 and peaks[1] < buf + buf // 4
        tracemalloc.start()
        try:
            out = philox.variates_block("gaussian", keys, 3001)
            assert tracemalloc.get_traced_memory()[0] < out.nbytes + 4096
        finally:
            tracemalloc.stop()
    finally:
        philox._POOL.shutdown()
    # a tiny draw on a fresh pool thread keeps a buffer of its own size
    pool, kept = ThreadPoolExecutor(1, initializer=philox._mark_pool_thread), []

    def tiny():
        tracemalloc.start()
        try:
            philox.variates_block("gaussian", philox.stream_key(1), 8)
            kept.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()

    with pool:
        pool.submit(tiny).result(timeout=60)
    assert 0 < kept[0] < 4096
