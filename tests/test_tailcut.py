"""TailCut sketches: offsets, promotion, saturation, approximate merge."""

import math

import numpy as np
import pytest

from ehll.hashing import stream_u64
from ehll.oracle import union_sketch
from ehll.sketches import EhllSketch, HllSketch, merge_ehll_cells
from ehll.tailcut import EhllTcSketch, HllTcSketch


def offset(s, j):
    """Cell ``j``'s stored offset above the base."""
    return int(s._cells()[0][j]) - s.base


def offset_max(s):
    return int(s._cells()[0].max()) - s.base


def cell(s, j):
    """(offset above the base, neighbor bit) of cell ``j``."""
    return offset(s, j), int(s._cells()[1][j])


def test_fresh_insert_sets_offset():
    s = HllTcSketch(b=4)
    assert s._insert_bg(3, 5) is True
    assert offset(s, 3) == 5 and s.base == 0


def test_overflow_clamps_to_ceiling():
    s = HllTcSketch(b=4)
    s._insert_bg(0, 20)
    assert offset(s, 0) == 15
    # once saturated, even larger ranks change nothing
    assert s._insert_bg(0, 25) is False
    e = EhllTcSketch(b=4)
    e._insert_bg(0, 20)
    assert cell(e, 0) == (15, 0)


def test_base_promotion_preserves_effective_values():
    s = HllTcSketch(m=16, seed=0)
    for j in range(15):
        s._insert_bg(j, 2 + (j % 3))
    assert s.base == 0
    before = s.effective_values().copy()
    est_before = s.estimate().value
    changed = s._insert_bg(15, 4)  # last zero offset rises: promotion fires
    assert changed
    before[15] = 4
    assert s.base == 2
    assert np.array_equal(s.effective_values(), before)
    assert int(s._cells()[0].min()) == s.base
    assert s.estimate().value != est_before  # the insert changed a register
    # re-deriving the estimate from effective values matches a plain sketch
    plain = HllSketch(m=16, seed=0)
    plain._derive(s.effective_values(), None)
    assert s.estimate().value == pytest.approx(plain.estimate().value)


def test_fresh_estimates_match_plain_sketches():
    assert HllTcSketch(b=5).estimate().value == HllSketch(b=5).estimate().value
    assert EhllTcSketch(b=5).estimate().value == EhllSketch(b=5).estimate().value


def test_effective_values_nondecreasing():
    rng = np.random.default_rng(41)
    s = EhllTcSketch(b=4, seed=2)
    prev = s.effective_values().copy()
    for v in rng.integers(0, 2**63, size=2000, dtype=np.uint64).tolist():
        s.insert(v)
        eff = s.effective_values()
        assert (eff >= prev).all()
        prev = eff.copy()


def test_saturated_two_field_transitions():
    e = EhllTcSketch(m=3)
    e._insert_bg(0, 20)
    assert cell(e, 0) == (15, 0)
    # neighbor of the stored ceiling fills the bit
    assert e._insert_bg(0, 14) is True
    assert cell(e, 0) == (15, 1)
    # a larger rank truncates again and drops the bit
    assert e._insert_bg(0, 16) is True
    assert cell(e, 0) == (15, 0)
    # and repeating it is silent
    assert e._insert_bg(0, 16) is False


def test_batch_equals_sequential_including_clamps():
    rng = np.random.default_rng(42)
    for cls in (HllTcSketch, EhllTcSketch):
        for trial in range(30):
            m = int(rng.choice([16, 64]))
            n = int(rng.integers(50, 400))
            bucket = rng.integers(0, m, size=n)
            geo = rng.geometric(0.5, size=n)
            # inject adversarial spikes that force clamping
            spikes = rng.integers(0, n, size=3)
            geo[spikes] = rng.integers(17, 40, size=3)
            seq = cls(m=m, seed=0)
            for j, g in zip(bucket.tolist(), geo.tolist()):
                seq._insert_bg(j, int(g))
            bat = cls(m=m, seed=0)
            bat._insert_bg_batch(bucket, geo)
            assert seq == bat, f"{cls.__name__} trial {trial}"
            # chunked feeding must agree too
            split = cls(m=m, seed=0)
            split._insert_bg_batch(bucket[: n // 2], geo[: n // 2])
            split._insert_bg_batch(bucket[n // 2:], geo[n // 2:])
            assert seq == split


def test_order_dependence_documented():
    # an early huge rank clamps against a small base; arriving late, the
    # promoted base absorbs it: stored states legitimately differ
    early = HllTcSketch(m=16)
    late = HllTcSketch(m=16)
    spike_first = [(j, 5) for j in range(16)]
    spike_first = [(0, 30)] + spike_first
    for j, g in spike_first:
        early._insert_bg(j, g)
    for j, g in spike_first[1:] + spike_first[:1]:
        late._insert_bg(j, g)
    assert early != late
    assert early.estimate().value != late.estimate().value


def test_order_independence_without_saturation():
    rng = np.random.default_rng(43)
    stream = rng.integers(0, 2**63, size=500, dtype=np.uint64)
    perm = rng.permutation(stream)
    for cls in (HllTcSketch, EhllTcSketch):
        a, b = cls(b=4, seed=5), cls(b=4, seed=5)
        a.insert_all(stream.tolist())
        b.insert_all(perm.tolist())
        if offset_max(a) < 15 and offset_max(b) < 15:
            assert a == b


def test_merge_identity_and_commutativity():
    rng = np.random.default_rng(44)
    sa = rng.integers(0, 2**63, size=300, dtype=np.uint64).tolist()
    sb = rng.integers(0, 2**63, size=300, dtype=np.uint64).tolist()
    for cls in (HllTcSketch, EhllTcSketch):
        a, b, empty = cls(b=4, seed=1), cls(b=4, seed=1), cls(b=4, seed=1)
        a.insert_all(sa)
        b.insert_all(sb)
        assert a.merge(empty) == a
        assert a.merge(b) == b.merge(a)
    with pytest.raises(ValueError):
        HllTcSketch(b=4).merge(EhllTcSketch(b=4))


def test_a_merge_clamps_no_rank_and_a_wider_load_does():
    # each side's ranks sit under its base + 15 and the merged base is at
    # least either base, so a merge of saturated shards is the plain cell merge
    rng = np.random.default_rng(46)
    for cls in (HllTcSketch, EhllTcSketch):
        for _ in range(30):
            sides = []
            for n in rng.integers(1, 3000, size=2):
                s = cls(b=4)
                geo = rng.geometric(0.5, size=n)
                geo[rng.random(n) < 0.02] += 20  # ranks past a young base's ceiling
                s._insert_bg_batch(rng.integers(0, 16, size=n), geo)
                sides.append(s)
            a, b = sides
            k, x = a.merge(b)._cells()
            if cls.neighbor_bit:
                want_k, want_x = merge_ehll_cells(*a._cells(), *b._cells())
                assert np.array_equal(x, want_x)
            else:
                want_k = np.maximum(a._cells()[0], b._cells()[0])
            assert np.array_equal(k, want_k)
        # cells spread wider than the offsets clamp at the new ceiling, bit 0
        s = cls(b=4)
        k = np.full(16, 3)
        k[0] = 25
        s._load(k, np.ones(16, dtype=np.int64) if cls.neighbor_bit else None)
        assert s.base == 3 and offset(s, 0) == 15
        if cls.neighbor_bit:
            assert cell(s, 0) == (15, 0)


def test_unsaturated_merge_equals_union_stream():
    rng = np.random.default_rng(45)
    for cls, kind in ((HllTcSketch, "hll-tc"), (EhllTcSketch, "ehll-tc")):
        done = 0
        t = 0
        while done < 10:
            t += 1
            pool = rng.integers(0, 2**63, size=400, dtype=np.uint64)
            sa, sb = pool[:250].tolist(), pool[150:].tolist()
            a, b = cls(b=4, seed=t), cls(b=4, seed=t)
            a.insert_all(sa)
            b.insert_all(sb)
            u = union_sketch(sa, sb, kind, b=4, seed=t)
            if offset_max(u) >= 15:
                continue  # saturation voids the exactness claim
            assert a.merge(b) == u
            done += 1


def test_memory_bits_matched_pairing():
    assert HllTcSketch(m=1280).memory_bits() == 5120
    assert EhllTcSketch(b=10).memory_bits() == 5120
    assert HllTcSketch(b=10).memory_bits() == 4096


def test_paired_accuracy_close_to_plain_full_scale():
    # saturation is negligible at n/m ~ 100: the tail-cut RMSE matches the
    # plain two-field sketch within 5% on 2000 paired streams
    m, n, trials = 1024, 100_000, 2000
    rel_tc = np.empty(trials)
    rel_plain = np.empty(trials)
    for t in range(trials):
        stream = stream_u64(n, 17_000 + t)
        tc = EhllTcSketch(m=m, seed=0)
        tc.insert_batch(stream)
        rel_tc[t] = tc.estimate().value / n - 1.0
        plain = EhllSketch(m=m, seed=0)
        plain.insert_batch(stream)
        rel_plain[t] = plain.estimate().value / n - 1.0
    rmse_tc = math.sqrt(float((rel_tc**2).mean()))
    rmse_plain = math.sqrt(float((rel_plain**2).mean()))
    assert abs(rmse_tc - rmse_plain) / rmse_plain < 0.05


def test_paired_accuracy_close_to_plain():
    # same property at desk scale, exercised on every run of this module
    m, n, trials = 256, 20_000, 300
    rel_tc = np.empty(trials)
    rel_plain = np.empty(trials)
    for t in range(trials):
        stream = stream_u64(n, 7000 + t)
        tc = EhllTcSketch(m=m, seed=0)
        tc.insert_batch(stream)
        rel_tc[t] = tc.estimate().value / n - 1.0
        plain = EhllSketch(m=m, seed=0)
        plain.insert_batch(stream)
        rel_plain[t] = plain.estimate().value / n - 1.0
    rmse_tc = math.sqrt(float((rel_tc**2).mean()))
    rmse_plain = math.sqrt(float((rel_plain**2).mean()))
    assert abs(rmse_tc - rmse_plain) / rmse_plain < 0.05
