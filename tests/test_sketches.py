"""Core sketch behavior: transitions, indicators, estimates, merges."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ehll.analysis import PCSA_PHI, alpha_m
from ehll.hashing import stream_u64
from ehll.oracle import derive_cells, shadow_from_stream, union_sketch
from ehll.serialization import SKETCHES
from ehll.sketches import (
    EhllSketch,
    HllSketch,
    PcsaSketch,
    REGISTER_WIDTH,
    cell_indicator,
    cell_terms,
    estimate_bitmap,
)
from ehll.tailcut import OFFSET_MAX


def _random_stream(rng, n):
    return rng.integers(0, 2**63, size=n, dtype=np.uint64)


# ---------------------------------------------------------------------------
# bitmap sketch

def test_pcsa_insert_flags():
    s = PcsaSketch(b=4)
    assert s.insert(b"first") is True
    assert s.insert(b"first") is False


def test_pcsa_duplicate_insensitive():
    s = PcsaSketch(b=4, seed=3)
    t = PcsaSketch(b=4, seed=3)
    items = [b"a", b"b", b"c"]
    s.insert_all(items)
    t.insert_all(items * 5 + items[::-1])
    assert s == t


def test_pcsa_first_zero_tracks_log_phi_n():
    # mean first-zero index ~ log2(phi * n / m) within one binary order
    s = PcsaSketch(b=6, seed=0)
    s.insert_batch(stream_u64(10_000, 99))
    # the estimate is m / phi * 2^(mean first-zero index)
    mean_r = math.log2(s.estimate().value * PCSA_PHI / s.m)
    expected = math.log2(PCSA_PHI * 10_000 / 64)
    assert abs(mean_r - expected) < 1.0


def test_pcsa_estimate_formula():
    s = PcsaSketch(b=4)
    assert s.estimate().value == pytest.approx(16 / PCSA_PHI)
    assert s.estimate().regime == "raw"
    single = PcsaSketch(m=1)
    for i in range(3):
        single.bitmaps.set(i, 1)
    assert single.estimate().value == pytest.approx(2.0 ** 3 / PCSA_PHI)
    assert single.estimate().value == pytest.approx(10.34, abs=0.01)


@pytest.mark.parametrize("b", [4, 10, 14])
def test_pcsa_estimate_equals_presence_matrix(b):
    # the packed-bit estimate is bit-identical to the explicit-matrix formula
    rng = np.random.default_rng(b)
    m = 1 << b
    lanes = 65 - b
    # per row a run of ones up to a random first zero, then random bits
    first_zero = rng.integers(0, lanes + 1, size=m)
    present = rng.random((m, lanes)) < 0.5
    present[np.arange(lanes) < first_zero[:, None]] = True
    present[np.arange(m)[first_zero < lanes], first_zero[first_zero < lanes]] = False
    s = PcsaSketch(b=b)
    s.bitmaps.set_values(present.reshape(-1))
    got = s.estimate()
    assert got == estimate_bitmap(present)
    expected = m / PCSA_PHI * 2.0 ** float(first_zero.mean())
    assert got.value == expected


@st.composite
def presence_matrices(draw):
    """(m, lanes) bool matrices whose rows are all ones, all zeros, a run of ones, or as drawn."""
    m, lanes = draw(st.integers(1, 40)), draw(st.integers(1, 64))
    present = draw(arrays(bool, (m, lanes)))
    for row, shape in enumerate(draw(st.lists(st.sampled_from(["ones", "zeros", "run", "drawn"]),
                                              min_size=m, max_size=m))):
        if shape == "ones":
            present[row] = True
        elif shape == "zeros":
            present[row] = False
        elif shape == "run":
            present[row, :draw(st.integers(0, lanes))] = True
    return present


@settings(max_examples=300, deadline=None)
@given(present=presence_matrices())
def test_pcsa_estimate_equals_a_per_row_first_zero(present):
    m, lanes = present.shape
    first_zero = [next((i for i, bit in enumerate(row) if not bit), lanes)
                  for row in present.tolist()]
    got = estimate_bitmap(present)
    assert got.regime == "raw"
    assert got.value == m / PCSA_PHI * 2.0 ** (sum(first_zero) / m)


def test_pcsa_relative_error():
    # stochastic-averaged bitmap error ~ 0.78/sqrt(m), 500 trials, +-20%
    m, n, trials = 256, 100_000, 500
    rel = np.empty(trials)
    for t in range(trials):
        s = PcsaSketch(m=m, seed=0)
        s.insert_batch(stream_u64(n, 1000 + t))
        rel[t] = s.estimate().value / n - 1.0
    rmse = float(np.sqrt((rel**2).mean()))
    target = 0.78 / math.sqrt(m)
    assert abs(rmse - target) / target < 0.20


# ---------------------------------------------------------------------------
# max-rank sketch

def test_hll_insert_and_idempotence():
    s = HllSketch(b=4)
    changed = s.insert(b"x")
    assert changed is True
    assert s.insert(b"x") is False


def test_hll_registers_match_shadow():
    stream = [f"tok{i}".encode() for i in range(10_000)]
    s = HllSketch(b=6, seed=5)
    s.insert_all(stream)
    shadow = shadow_from_stream(stream, s.m, seed=5)
    hll_cells, _ = derive_cells(shadow)
    assert s._cells()[0].tolist() == hll_cells


def _bits(a) -> list[int]:
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("shape", [dict(b=4), dict(b=10), dict(b=14), dict(b=18), dict(m=1)])
def test_cell_terms_are_the_exact_products(shape):
    # every rank the hash can give at this size, both bits, bit for bit
    k = np.arange(EhllSketch(**shape).width + 2)
    for kind in ("ehll", "hll", "ehll-tc", "hll-tc"):
        s = SKETCHES[kind](**shape)
        below = OFFSET_MAX if kind.endswith("-tc") else len(k)  # the unsaturated ranks
        for x in (0, 1) if s.neighbor_bit else (1,):
            got = cell_terms(k, np.full(len(k), x)) if s.neighbor_bit else cell_terms(k)
            assert _bits(got) == _bits(np.exp2(-k.astype(float)) * (3.0 - 2.0 * x))
            assert _bits(got[:below]) == _bits([s._term(r, x) for r in k[:below].tolist()])
    # TailCut's saturated cells, at every base that leaves the ceiling a rank
    for kind in ("ehll-tc", "hll-tc"):
        s = SKETCHES[kind](**shape)
        for base in range(k[-1] - OFFSET_MAX + 1):
            s.base = base
            sat = np.full(2, base + OFFSET_MAX)
            x = np.array([0, 1])
            want = [s._term(base + OFFSET_MAX, 0), s._term(base + OFFSET_MAX, 1)]
            assert _bits(s._terms(sat, x if s.neighbor_bit else None)) == _bits(want)
            if s.neighbor_bit:  # a larger rank, or with bit 0 also rank k - 1, changes it
                assert _bits(want) == _bits(np.exp2(-np.array([base + 14.0, base + 15.0])))
            else:
                assert want == [0.0, 0.0]


def test_cell_terms_refuse_a_rank_past_the_table():
    past = 1 << REGISTER_WIDTH  # the smallest rank a register cannot hold
    assert cell_terms([past - 1]).tolist() == [2.0 ** -(past - 1)]
    for k in ([past], [past, 3], [10 * past]):
        with pytest.raises(IndexError):
            cell_terms(k)
        with pytest.raises(IndexError):
            cell_terms(k, [0] * len(k))
        with pytest.raises(IndexError):
            cell_terms(k, [1] * len(k))


def test_hll_indicator_values():
    s = HllSketch(b=4)
    assert s.indicator() == pytest.approx(1.0 / 16)
    assert cell_indicator([3]) == pytest.approx(8.0)
    assert cell_indicator([1, 2]) == pytest.approx(4.0 / 3.0)


def test_hll_estimate_empty_is_zero():
    s = HllSketch(b=6)
    est = s.estimate()
    assert est.value == 0.0
    assert est.regime == "linear-counting"


def test_hll_estimate_regime_boundary():
    # all registers nonzero but raw below the threshold: falls back to raw
    s = HllSketch(b=4)
    s._derive(np.ones(16, dtype=np.int64), None)
    raw = alpha_m(16) * 16 * 16 * s.indicator()
    assert raw < 2.5 * 16
    est = s.estimate()
    assert est.regime == "raw"
    assert est.value == pytest.approx(raw)


def test_hll_small_range_uses_linear_counting():
    s = HllSketch(b=10, seed=0)
    s.insert_batch(stream_u64(50, 7))
    est = s.estimate()
    assert est.regime == "linear-counting"
    big = HllSketch(b=10, seed=0)
    big.insert_batch(stream_u64(100_000, 7))
    assert big.estimate().regime == "raw"


def test_hll_linear_counting_near_exact():
    # occupancy counting is nearly unbiased when n << m
    n, trials = 50, 300
    est = np.empty(trials)
    for t in range(trials):
        s = HllSketch(b=10, seed=0)
        s.insert_batch(stream_u64(n, 8800 + t))
        est[t] = s.estimate().value
    assert abs(float(est.mean()) - n) / n < 0.02


# ---------------------------------------------------------------------------
# two-field sketch

def cell(s, j):
    """(rank, neighbor bit) of cell ``j``."""
    k, x = s._cells()
    return int(k[j]), int(x[j])


def test_ehll_transitions():
    s = EhllSketch(b=4)
    # fresh cell (0,1): rank 1 is the +1 step
    assert s._insert_bg(2, 1) is True
    assert cell(s, 2) == (1, 1)
    # fresh cell, rank 3 jumps past the neighbor
    assert s._insert_bg(5, 3) is True
    assert cell(s, 5) == (3, 0)
    # neighbor coupon fills in, then repeats are silent
    assert s._insert_bg(5, 2) is True
    assert cell(s, 5) == (3, 1)
    assert s._insert_bg(5, 2) is False
    # rank below k-1 never changes anything
    assert s._insert_bg(5, 1) is False


def test_ehll_indicator_values():
    s = EhllSketch(b=4)
    assert s.indicator() == pytest.approx(1.0 / 16)
    assert cell_indicator([3], [0]) == pytest.approx(8.0 / 3.0)
    assert cell_indicator([1, 2], [1, 0]) == pytest.approx(4.0 / 5.0)


def test_ehll_cells_match_shadow():
    stream = [f"item{i}".encode() for i in range(10_000)]
    s = EhllSketch(b=6, seed=9)
    s.insert_all(stream)
    shadow = shadow_from_stream(stream, s.m, seed=9)
    _, ehll_cells = derive_cells(shadow)
    got = list(zip(*(a.tolist() for a in s._cells())))
    assert got == ehll_cells


def test_ehll_estimate_empty_and_small_range():
    s = EhllSketch(b=10)
    assert s.estimate().value == 0.0
    s.insert_batch(stream_u64(50, 3))
    assert s.estimate().regime == "linear-counting"


def test_change_probability_fresh_and_fixed_state():
    s = EhllSketch(b=4)
    assert s.change_probability() == pytest.approx(1.0)
    h = HllSketch(b=4)
    assert h.change_probability() == pytest.approx(1.0)
    single = EhllSketch(m=1)
    single._derive(np.array([3]), np.array([0]))
    assert single.change_probability() == pytest.approx(3.0 / 8.0)


def test_change_probability_incremental_matches_exact():
    rng = np.random.default_rng(21)
    for cls in (HllSketch, EhllSketch):
        s = cls(b=5, seed=1)
        qs = []
        for v in _random_stream(rng, 3000).tolist():
            s.insert(v)
            qs.append(s.change_probability())
        incremental = s.change_probability()
        s.resync_term_sum()
        assert incremental == pytest.approx(s.change_probability(), rel=1e-12)
        # q never increases along a stream
        assert all(b <= a + 1e-15 for a, b in zip(qs, qs[1:]))


def test_indicator_monotone_nondecreasing():
    rng = np.random.default_rng(22)
    for cls in (HllSketch, EhllSketch):
        s = cls(b=4, seed=2)
        last = 0.0
        for v in _random_stream(rng, 500).tolist():
            s.insert(v)
            ind = s.indicator()
            assert ind >= last - 1e-15
            last = ind


def test_order_independence_bit_exact():
    rng = np.random.default_rng(23)
    base = _random_stream(rng, 400)
    perm = rng.permutation(base)
    dup = np.concatenate([base, base[::2]])
    for cls in (PcsaSketch, HllSketch, EhllSketch):
        a, b, c = cls(b=5, seed=7), cls(b=5, seed=7), cls(b=5, seed=7)
        a.insert_all(base.tolist())
        b.insert_all(perm.tolist())
        c.insert_all(dup.tolist())
        assert a == b
        assert a == c


def test_batch_equals_scalar():
    rng = np.random.default_rng(24)
    stream = _random_stream(rng, 3000)
    for cls in (PcsaSketch, HllSketch, EhllSketch):
        scalar = cls(b=6, seed=11)
        scalar.insert_all(stream.tolist())
        batch = cls(b=6, seed=11)
        batch.insert_batch(stream)
        assert scalar == batch
        # split batches against one shot
        split = cls(b=6, seed=11)
        split.insert_batch(stream[:1000])
        split.insert_batch(stream[1000:])
        assert split == batch


def test_insert_batch_rejects_non_integer_arrays():
    for cls in SKETCHES.values():
        s = cls(b=4)
        with pytest.raises(TypeError):
            s.insert_batch(np.array([1.5, 2.7]))
        assert s == cls(b=4)
        s.insert_batch(np.array([1, 2], dtype=np.int64))
        assert s != cls(b=4)


def test_insert_batch_rejects_arrays_that_are_not_1d():
    for cls in SKETCHES.values():
        s = cls(b=6)
        for bad in (np.arange(64, dtype=np.int64).reshape(8, 8), np.array(5)):
            with pytest.raises(ValueError, match=re.escape(f"shape {bad.shape}")):
                s.insert_batch(bad)
        assert s == cls(b=6)


def test_merge_identity_commutativity():
    rng = np.random.default_rng(25)
    sa = _random_stream(rng, 300).tolist()
    sb = _random_stream(rng, 300).tolist()
    for cls in (PcsaSketch, HllSketch, EhllSketch):
        a, b, empty = cls(b=5, seed=1), cls(b=5, seed=1), cls(b=5, seed=1)
        a.insert_all(sa)
        b.insert_all(sb)
        assert a.merge(empty) == a
        assert a.merge(b) == b.merge(a)
        assert a.merge(a) == a


def test_merge_equals_union_stream():
    rng = np.random.default_rng(26)
    for cls, kind in ((PcsaSketch, "pcsa"), (HllSketch, "hll"), (EhllSketch, "ehll")):
        for overlap in (0.0, 0.5, 1.0):
            pool = _random_stream(rng, 600)
            cut = int(300 * (1 - overlap))
            sa = pool[:300].tolist()
            sb = pool[cut:cut + 300].tolist()
            a, b = cls(b=4, seed=3), cls(b=4, seed=3)
            a.insert_all(sa)
            b.insert_all(sb)
            assert a.merge(b) == union_sketch(sa, sb, kind, b=4, seed=3)


def test_merge_guards():
    a = HllSketch(b=4, seed=1)
    with pytest.raises(ValueError):
        a.merge(HllSketch(b=5, seed=1))
    with pytest.raises(ValueError):
        a.merge(HllSketch(b=4, seed=2))
    with pytest.raises(ValueError):
        a.merge(EhllSketch(b=4, seed=1))


def test_memory_bits_matched_pairing():
    assert EhllSketch(b=10).memory_bits() == 7168
    assert HllSketch(m=1195).memory_bits() == 7170
    assert PcsaSketch(b=10).memory_bits() == 1024 * 55


def test_general_m_estimates_reasonably():
    s = HllSketch(m=1195, seed=0)
    s.insert_batch(stream_u64(100_000, 17))
    assert abs(s.estimate().value / 100_000 - 1) < 0.15


def test_statistical_accuracy_moderate_scale():
    # relative RMSE ~ sqrt(variance constant / m) at n >> m, 400 trials
    m, n, trials = 256, 20_000, 400
    rel_e = np.empty(trials)
    rel_h = np.empty(trials)
    for t in range(trials):
        stream = stream_u64(n, 5000 + t)
        e = EhllSketch(m=m, seed=0)
        e.insert_batch(stream)
        rel_e[t] = e.estimate().value / n - 1.0
        h = HllSketch(m=m, seed=0)
        h.insert_batch(stream)
        rel_h[t] = h.estimate().value / n - 1.0
    rmse_e = float(np.sqrt((rel_e**2).mean()))
    rmse_h = float(np.sqrt((rel_h**2).mean()))
    assert abs(rmse_e - math.sqrt(0.776 / m)) / math.sqrt(0.776 / m) < 0.15
    assert abs(rmse_h - 1.04 / math.sqrt(m)) / (1.04 / math.sqrt(m)) < 0.15
    # and the mean is nearly unbiased thanks to the quadrature constants
    assert abs(rel_e.mean()) < 0.01
    assert abs(rel_h.mean()) < 0.01
