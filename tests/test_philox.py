import hashlib
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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
# golden streams: SHA-256 of the variates, fixed before any kernel rewrite so
# that every later kernel must reproduce today's streams bit for bit
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
    ("gaussian", "zero"): "ac3560165c2c5086a780ac7c393bc669",
    ("gaussian", "all-ones"): "d04b2e5d3d91e2e7e5f93b3572e8e206",
    ("gaussian", "s1"): "9df439d623f6f7008fbbc11e619a3030",
    ("gaussian", "s70812"): "0415a490f5ebf195670b906c05587282",
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
    "gaussian": "6095922aab7526b5a343d3b2bb948a46",
    "rademacher": "19654ea056fe82c34174cc037fb4fa94",
    "uniform": "78a46bdee61dec85a7219b4b59be3b5a",
}

GOLDEN_AT = {
    ("gaussian", "zero"): "ee953af11aaa8d1bb1532d1ffd4dc75d",
    ("gaussian", "all-ones"): "b7e341d55944dc685652882afc31b296",
    ("gaussian", "s1"): "f888ceb83c9db5b7771249bf9fab4a9d",
    ("gaussian", "s70812"): "bd9ba169d84af731879e82011b468e23",
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


@pytest.mark.parametrize("dist,key_name", sorted(GOLDEN_BLOCKS))
def test_golden_block_streams(dist, key_name):
    key = GOLDEN_KEYS[key_name]
    got = _digest(philox.variates_block(dist, key, c, start=s)
                  for s, c in GOLDEN_RANGES)
    assert got == GOLDEN_BLOCKS[(dist, key_name)]


@pytest.mark.parametrize("dist", sorted(GOLDEN_MELNIKOV_BLOCK))
def test_golden_melnikov_size_block(dist):
    block = philox.variates_block(dist, GOLDEN_KEYS["s1"], 1003002)
    assert _digest([block]) == GOLDEN_MELNIKOV_BLOCK[dist]


@pytest.mark.parametrize("dist,key_name", sorted(GOLDEN_AT))
def test_golden_scattered_indices(dist, key_name):
    got = philox.variates_at(dist, GOLDEN_KEYS[key_name], _scattered_indices())
    assert _digest([got]) == GOLDEN_AT[(dist, key_name)]


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
    # one key: many whole tiles, then a ragged last tile, from an odd start
    (philox.stream_key(3, 1, philox.LANE_PERT), 7, 5 * philox.CHUNK + 1001),
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
    # a pool thread keeps one word and float buffer pair across calls, so a
    # 64 x 3001 draw in two shares peaks no higher than with a fresh pair
    # per share (7 x 8 bytes per cell of a chunk), and once the pool thread
    # has drawn, one pair lower; the calling thread frees its pair
    keys = philox.stream_key(3, np.arange(64), philox.LANE_XI)
    pair = 7 * 8 * philox.CHUNK
    monkeypatch.setattr(philox, "_THREADS", 2)
    monkeypatch.setattr(philox, "_POOL", ThreadPoolExecutor(1, initializer=philox._mark_pool_thread))
    try:
        peaks = [_peak_bytes(lambda: philox.variates_block("gaussian", keys, 3001))
                 for _ in range(2)]
        assert peaks[0] < 2 * pair + pair // 4 and peaks[1] < pair + pair // 4
        tracemalloc.start()
        try:
            out = philox.variates_block("gaussian", keys, 3001)
            assert tracemalloc.get_traced_memory()[0] < out.nbytes + 4096
        finally:
            tracemalloc.stop()
    finally:
        philox._POOL.shutdown()
    # a tiny draw on a fresh pool thread keeps a pair of its own size
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
