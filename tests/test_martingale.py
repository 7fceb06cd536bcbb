"""Martingale counter: unbiasedness, retrospective variance, resync."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehll.martingale
from ehll.hashing import hash64_u64_array, split_hash_array, stream_u64
from ehll.martingale import MartingaleCounter, change_deltas, may_change
from ehll.oracle import derive_cells
from ehll.serialization import SKETCHES
from ehll.simulate import SimulationConfig
from ehll.sketches import EhllSketch, HllSketch, PcsaSketch, cell_terms
from ehll.tailcut import EhllTcSketch, HllTcSketch


def test_first_element_adds_exactly_one():
    c = MartingaleCounter(EhllSketch(b=4))
    assert (c.estimate(), c.retro_variance()) == (0.0, 0.0)
    c.insert(b"first")
    assert c.estimate() == pytest.approx(1.0)
    assert c.retro_variance() == pytest.approx(0.0)


def test_duplicate_changes_nothing():
    c = MartingaleCounter(EhllSketch(b=4))
    c.insert(b"x")
    e, v = c.estimate(), c.retro_variance()
    c.insert(b"x")
    assert c.estimate() == e
    assert c.retro_variance() == v


def test_estimate_dominates_change_count():
    # each increment is 1/q >= 1
    c = MartingaleCounter(HllSketch(b=4, seed=3))
    changes = 0
    for i in range(500):
        before = c.estimate()
        c.insert(i)
        if c.estimate() != before:
            changes += 1
    assert c.estimate() >= changes


def test_rejects_sketch_without_change_probability():
    with pytest.raises(TypeError):
        MartingaleCounter(PcsaSketch(b=4))


def test_wraps_all_change_aware_sketches():
    for cls in (HllSketch, EhllSketch, HllTcSketch, EhllTcSketch):
        c = MartingaleCounter(cls(b=4, seed=1))
        c.insert_all(stream_u64(200, 8).tolist())
        assert c.estimate() > 0
        assert c.retro_var >= 0


def test_unbiased_and_variance_matches_retrospective():
    # mean(E_n) ~ n within 3 standard errors, and Var(E_n) ~ mean(V_n)
    n, m, trials = 1000, 64, 400
    est = np.empty(trials)
    retro = np.empty(trials)
    for t in range(trials):
        c = MartingaleCounter(EhllSketch(m=m, seed=0))
        c.insert_all(stream_u64(n, 9100 + t).tolist())
        est[t] = c.estimate()
        retro[t] = c.retro_variance()
    se = est.std(ddof=1) / math.sqrt(trials)
    assert abs(est.mean() - n) < 3 * se
    assert abs(est.var(ddof=1) - retro.mean()) / retro.mean() < 0.15


def test_tailcut_martingale_unbiased():
    n, m, trials = 500, 64, 300
    est = np.empty(trials)
    for t in range(trials):
        c = MartingaleCounter(EhllTcSketch(m=m, seed=0))
        c.insert_all(stream_u64(n, 9600 + t).tolist())
        est[t] = c.estimate()
    se = est.std(ddof=1) / math.sqrt(trials)
    assert abs(est.mean() - n) < 3 * se


def test_order_dependent_value_but_unbiased_means():
    rng = np.random.default_rng(51)
    trials = 200
    n, m = 400, 32
    diff_seen = False
    a_vals = np.empty(trials)
    b_vals = np.empty(trials)
    for t in range(trials):
        stream = stream_u64(n, 9300 + t)
        perm = rng.permutation(stream)
        a = MartingaleCounter(EhllSketch(m=m, seed=0))
        a.insert_all(stream.tolist())
        b = MartingaleCounter(EhllSketch(m=m, seed=0))
        b.insert_all(perm.tolist())
        a_vals[t], b_vals[t] = a.estimate(), b.estimate()
        if abs(a_vals[t] - b_vals[t]) > 1e-9:
            diff_seen = True
    assert diff_seen  # per-trial values depend on the order
    se = math.hypot(a_vals.std(ddof=1), b_vals.std(ddof=1)) / math.sqrt(trials)
    assert abs(a_vals.mean() - b_vals.mean()) < 3 * se


def test_no_merge_operation():
    assert not hasattr(MartingaleCounter(HllSketch(b=4)), "merge")


def test_resync_is_invisible():
    c = MartingaleCounter(EhllSketch(b=5, seed=2))
    c.insert_all(stream_u64(3000, 77).tolist())
    e, v = c.estimate(), c.retro_variance()
    q_before = c.inner.change_probability()
    c.resync()
    assert c.estimate() == e and c.retro_variance() == v
    assert c.inner.change_probability() == q_before


def test_incremental_sum_drift_is_negligible():
    # compensated summation: after 3e5 scalar updates the incremental
    # change-probability sum still matches an exact recompute
    c = MartingaleCounter(HllSketch(b=4, seed=4))
    c.insert_all(stream_u64(300_000, 123).tolist())
    incremental = c.inner.change_probability()
    c.inner.resync_term_sum()
    exact = c.inner.change_probability()
    assert abs(incremental - exact) <= 1e-12 * exact


@pytest.mark.slow
def test_incremental_sum_drift_ten_million():
    c = MartingaleCounter(HllSketch(b=4, seed=4))
    elements = stream_u64(10_000_000, 321)
    for chunk in np.array_split(elements, 100):
        for v in chunk.tolist():
            q = c.inner.change_probability()
            if c.inner.insert(v):
                c.estimate_value += 1.0 / q
    incremental = c.inner.change_probability()
    c.inner.resync_term_sum()
    exact = c.inner.change_probability()
    assert abs(incremental - exact) <= 1e-9 * exact


# ---------------------------------------------------------------------------
# the change scan

def _shadow_case(data, bits):
    """Start cells, pairs, and the arrival and term change of each state change."""
    # start cells (k0, x0) an insert sequence reaches, and ranks near k0, repeated
    m = data.draw(st.sampled_from([1, 2, 3, 16]))
    k0 = data.draw(st.lists(st.integers(0, 20), min_size=m, max_size=m))
    x0 = [data.draw(st.integers(0, 1)) if k >= 2 else 1 for k in k0]
    pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(-2, 3)),
                               max_size=60))
    bucket = np.array([j for j, _ in pairs], dtype=np.int64)
    geo = np.array([max(1, k0[j] + d) for j, d in pairs], dtype=np.int64)

    shadow = [({k, k - 1} if x and k >= 2 else {k}) if k else set()
              for k, x in zip(k0, x0)]
    want_at, want_delta = [], []
    for i, (j, r) in enumerate(zip(bucket.tolist(), geo.tolist())):
        (k_before,), (cell_before,) = derive_cells([shadow[j]])
        shadow[j].add(r)
        (k_after,), (cell_after,) = derive_cells([shadow[j]])
        before, after = (cell_before, cell_after) if bits else ((k_before,), (k_after,))
        if after != before:
            want_at.append(i)
            want_delta.append(float(cell_terms(*map(np.array, after))
                                    - cell_terms(*map(np.array, before))))

    x0 = np.array(x0, dtype=np.int64) if bits else None
    return bucket, geo, np.array(k0, dtype=np.int64), x0, want_at, want_delta


@pytest.mark.parametrize("bits", [True, False])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_change_deltas_equals_a_shadow_replay(bits, data):
    bucket, geo, k0, x0, want_at, want_delta = _shadow_case(data, bits)
    at, delta = change_deltas(bucket, geo, k0, x0, cell_terms)
    assert at.tolist() == want_at
    assert delta.tolist() == want_delta


def _cells_sketch(k0, x0):
    """A rank sketch whose cells are copies of ``(k0, x0)``; max-rank without ``x0``."""
    sketch = (HllSketch if x0 is None else EhllSketch)(m=len(k0))
    sketch._derive(k0.copy(), None if x0 is None else x0.copy())
    return sketch


def _filtered_scan(bucket, geo, k0, x0):
    """:func:`change_deltas` over the pairs :func:`may_change` keeps, in block indices.

    Also checks that the scan leaves the cells that the union of the whole run does.
    """
    sketch, full = _cells_sketch(k0, x0), _cells_sketch(k0, x0)
    keep = may_change(sketch, bucket, geo)
    full._union_batch(bucket, geo)
    assert sketch == full
    at, delta = change_deltas(bucket[keep], geo[keep], k0, x0, cell_terms)
    return keep[at], delta


@pytest.mark.parametrize("bits", [True, False])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_scan_keeps_the_changes(bits, data):
    # one-pair chunks see each pair's own cell: they keep exactly the changes
    bucket, geo, k0, x0, want_at, _ = _shadow_case(data, bits)
    for chunk in (1, ehll.martingale._CHUNK, 61):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ehll.martingale, "_CHUNK", chunk)
            keep = may_change(_cells_sketch(k0, x0), bucket, geo).tolist()
        assert keep == sorted(set(keep))  # arrival order, each pair once
        if chunk == 1:
            assert keep == want_at
        else:
            assert set(want_at) <= set(keep)


@pytest.mark.parametrize("chunk", [1, 3, 8])
@pytest.mark.parametrize("bits", [True, False])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_filtered_scan_equals_a_shadow_replay(bits, chunk, data):
    # chunks this short put a boundary between most repeats of a cell
    bucket, geo, k0, x0, want_at, want_delta = _shadow_case(data, bits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ehll.martingale, "_CHUNK", chunk)
        at, delta = _filtered_scan(bucket, geo, k0, x0)
    assert at.tolist() == want_at
    assert delta.tolist() == want_delta


@pytest.mark.parametrize("kind", ["hll", "ehll"])
@pytest.mark.parametrize("m", [1024, 1195])
@pytest.mark.parametrize("start", ["empty", "random"])
def test_filtered_scan_equals_the_full_scan(kind, m, start):
    # a campaign-sized run crosses nine chunk boundaries
    bucket, geo = split_hash_array(hash64_u64_array(stream_u64(100_000, m), 0), m)
    rng = np.random.default_rng(m)
    k0 = rng.integers(0, 12, size=m) if start == "random" else np.zeros(m, dtype=np.int64)
    x0 = None
    if kind == "ehll":
        x0 = np.where(k0 >= 2, rng.integers(0, 2, size=m), 1)
    keep = may_change(_cells_sketch(k0, x0), bucket, geo)
    assert len(keep) < len(bucket) // 10
    full_at, full_delta = change_deltas(bucket, geo, k0, x0, cell_terms)
    at, delta = _filtered_scan(bucket, geo, k0, x0)
    assert len(at) > 1000
    assert (at == full_at).all() and (delta == full_delta).all()


# ---------------------------------------------------------------------------
# block inserts

# the scan's chunk as shipped, and one short enough for blocks of a few thousand pairs
SCAN_CHUNKS = (ehll.martingale._CHUNK, 61)

def _block_stream(m: int, n: int, seed: int) -> np.ndarray:
    """Distinct elements plus duplicates, opening with ranks that clamp TailCut cells."""
    pool = stream_u64(1 << 16, 1000 + seed)
    _, geo = split_hash_array(hash64_u64_array(pool, seed), m)
    body = stream_u64(n, seed)
    rng = np.random.default_rng(seed)
    dups = body[rng.integers(0, n, size=n // 4)]
    return np.concatenate([pool[geo >= 17][:3], rng.permutation(np.concatenate([body, dups]))])


@pytest.mark.parametrize("kind", ["hll", "ehll", "hll-tc", "ehll-tc"])
def test_block_inserts_equal_scalar_inserts(kind, monkeypatch):
    # random blocks, starting from a non-empty sketch, against insert() one by one
    # at m = 1, 2 and 16 a TailCut base promotion lands inside almost every block
    for m, n, seed in ((16, 3000, 1), (64, 5000, 2), (1024, 4000, 3), (1, 800, 4), (2, 1500, 5)):
        stream = _block_stream(m, n, seed)
        scalar = MartingaleCounter(SKETCHES[kind](m=m, seed=seed))
        head = 100  # inserted one by one into both
        for v in stream[:head].tolist():
            scalar.insert(v)
        for v in stream[head:].tolist():
            scalar.insert(v)
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.integers(head, len(stream), size=12))
        bucket, geo = split_hash_array(hash64_u64_array(stream, seed), m)
        for chunk in SCAN_CHUNKS:
            monkeypatch.setattr(ehll.martingale, "_CHUNK", chunk)
            block = MartingaleCounter(SKETCHES[kind](m=m, seed=seed))
            for v in stream[:head].tolist():
                block.insert(v)
            for lo, hi in zip([head, *cuts.tolist()], [*cuts.tolist(), len(stream)]):
                block.insert_bg_batch(bucket[lo:hi], geo[lo:hi])
            assert block.inner == scalar.inner
            # ranks stay below 40, so every term sum is exact: bit-identical
            assert (block.estimate(), block.retro_variance()) == (
                scalar.estimate(), scalar.retro_variance())
            assert block.inner.change_probability() == scalar.inner.change_probability()


@pytest.mark.parametrize("kind", ["hll", "ehll", "hll-tc", "ehll-tc"])
def test_block_insert_returns_the_scalar_trace(kind, monkeypatch):
    # (arrival, E, V) after each insert() that changes the sketch, over three blocks
    for m, n, seed in ((16, 3000, 1), (1024, 4000, 3), (1, 800, 4)):
        stream = _block_stream(m, n, seed)
        scalar = MartingaleCounter(SKETCHES[kind](m=m, seed=seed))
        expected = []
        for i, v in enumerate(stream.tolist()):
            before = scalar.estimate()
            scalar.insert(v)
            if scalar.estimate() != before:  # each change adds 1/q >= 1
                expected.append((i, scalar.estimate(), scalar.retro_variance()))
        bucket, geo = split_hash_array(hash64_u64_array(stream, seed), m)
        for chunk in SCAN_CHUNKS:
            monkeypatch.setattr(ehll.martingale, "_CHUNK", chunk)
            block = MartingaleCounter(SKETCHES[kind](m=m, seed=seed))
            got = []
            bounds = [0, 100, len(stream) // 2, len(stream)]
            for lo, hi in zip(bounds, bounds[1:]):
                arrivals, e, v = block.insert_bg_batch(bucket[lo:hi], geo[lo:hi])
                got += zip((arrivals + lo).tolist(), e.tolist(), v.tolist())
            assert got == expected  # exact term sums (ranks below 40): bit-identical


@pytest.mark.parametrize("kind", ["hll-tc", "ehll-tc"])
def test_tailcut_whole_stream_equals_checkpoint_segments(kind):
    # one block, as simulate's martingale trials feed it, against one block per checkpoint
    for m, n, seed in ((16, 3000, 1), (1024, 20_000, 3)):
        stream = _block_stream(m, n, seed)
        bucket, geo = split_hash_array(hash64_u64_array(stream, seed), m)
        positions = SimulationConfig(n=len(stream), trials=2).checkpoint_positions()
        whole = MartingaleCounter(SKETCHES[kind](m=m, seed=seed))
        arrivals, e, v = whole.insert_bg_batch(bucket, geo)
        segments = MartingaleCounter(SKETCHES[kind](m=m, seed=seed))
        prev = 0
        for pos in positions.tolist():
            segments.insert_bg_batch(bucket[prev:pos], geo[prev:pos])
            prev = pos
            at = np.searchsorted(arrivals, pos) - 1
            assert (e[at], v[at]) == (segments.estimate(), segments.retro_variance())
        assert (whole.estimate(), whole.retro_variance()) == (
            segments.estimate(), segments.retro_variance())
        assert whole.inner == segments.inner


@pytest.mark.parametrize("kind", ["hll-tc", "ehll-tc"])
@pytest.mark.parametrize("m", [16, 1024])
def test_tailcut_block_insert_steps_only_cut_elements(kind, m, monkeypatch):
    # the cuts, found element by element: a rank above the ceiling, or a promotion
    stream = _block_stream(m, 4000, 6)
    bucket, geo = split_hash_array(hash64_u64_array(stream, 6), m)
    ref = SKETCHES[kind](m=m, seed=6)
    cuts = 0
    for j, g in zip(bucket.tolist(), geo.tolist()):
        base = ref.base
        ref._insert_bg(j, g)
        cuts += g > base + 15 or ref.base != base
    assert cuts > 0
    calls = []
    step = SKETCHES[kind]._insert_bg
    monkeypatch.setattr(SKETCHES[kind], "_insert_bg",
                        lambda s, j, g: calls.append(j) or step(s, j, g))
    block = MartingaleCounter(SKETCHES[kind](m=m, seed=6))
    block.insert_bg_batch(bucket, geo)
    assert len(calls) == cuts
    assert block.inner == ref


def test_block_insert_of_nothing_changes_nothing():
    for kind in ("ehll", "ehll-tc"):
        c = MartingaleCounter(SKETCHES[kind](b=4, seed=1))
        c.insert_all(stream_u64(300, 8).tolist())
        before = (c.estimate(), c.retro_variance(), c.inner.copy())
        empty = np.zeros(0, dtype=np.int64)
        c.insert_bg_batch(empty, empty)
        assert (c.estimate(), c.retro_variance(), c.inner) == before


@pytest.mark.parametrize("bucket, geo", [
    ([0, 1], [3, 3, 3]),  # a rank without a bucket
    ([0, 1, 2], [3]),
    ([-1], [3]),  # below the first bucket
    ([16], [3]),  # past the last of m = 16
    ([2], [0]),  # rank 0 is no rank
    ([2], [62]),  # width 60 at b = 4: ranks end at 61
    ([[0, 1]], [[3, 3]]),
    ([0.0], [3]),
    ([0], [3.0]),
])
def test_block_insert_rejects_a_malformed_block(bucket, geo):
    c = MartingaleCounter(EhllSketch(b=4, seed=1))
    c.insert_all(stream_u64(50, 8).tolist())
    before = (c.estimate(), c.retro_variance(), c.inner.copy())
    with pytest.raises(ValueError):
        c.insert_bg_batch(np.array(bucket), np.array(geo))
    assert (c.estimate(), c.retro_variance(), c.inner) == before


def test_block_insert_takes_the_edges_of_its_domain():
    ref = MartingaleCounter(EhllSketch(b=4, seed=1))
    for j, g in ((0, 1), (15, 61), (15, 60)):
        ref.insert_bg_batch(np.array([j]), np.array([g]))
    c = MartingaleCounter(EhllSketch(b=4, seed=1))
    arrivals, _, _ = c.insert_bg_batch(np.array([0, 15, 15], dtype=np.uint64),
                                       np.array([1, 61, 60], dtype=np.uint8))
    assert arrivals.tolist() == [0, 1, 2]
    assert c.inner == ref.inner and c.estimate() == ref.estimate()
