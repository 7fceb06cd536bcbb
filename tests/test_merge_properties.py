"""Property-based merge laws: union equivalence across random streams."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ehll.oracle import union_sketch
from ehll.sketches import EhllSketch, HllSketch, PcsaSketch, merge_ehll_cells
from ehll.tailcut import EhllTcSketch, HllTcSketch

MERGEABLE = [("pcsa", PcsaSketch), ("hll", HllSketch), ("ehll", EhllSketch)]

elements = st.lists(st.integers(0, 2**63 - 1), max_size=50)


@settings(max_examples=40, deadline=None)
@given(sa=elements, sb=elements, seed=st.integers(0, 2**32))
def test_merge_equals_union(sa, sb, seed):
    for kind, cls in MERGEABLE:
        a, b = cls(b=4, seed=seed), cls(b=4, seed=seed)
        a.insert_all(sa)
        b.insert_all(sb)
        assert a.merge(b) == union_sketch(sa, sb, kind, b=4, seed=seed)


@settings(max_examples=30, deadline=None)
@given(sa=elements, sb=elements, sc=elements)
def test_merge_laws(sa, sb, sc):
    for _, cls in MERGEABLE:
        a, b, c = cls(b=4), cls(b=4), cls(b=4)
        a.insert_all(sa)
        b.insert_all(sb)
        c.insert_all(sc)
        empty = cls(b=4)
        assert a.merge(empty) == a
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))
        assert a.merge(a) == a


@settings(max_examples=30, deadline=None)
@given(sa=elements, sb=elements)
def test_tailcut_merge_commutes(sa, sb):
    for cls in (HllTcSketch, EhllTcSketch):
        a, b = cls(b=4), cls(b=4)
        a.insert_all(sa)
        b.insert_all(sb)
        assert a.merge(b) == b.merge(a)
        assert a.merge(cls(b=4)) == a


@settings(max_examples=30, deadline=None)
@given(sa=elements, sb=elements)
def test_bulk_term_sum_is_exact(sa, sb):
    # merge and insert_batch take the running sum from the cells they
    # stored; a resync from those cells must not move it
    for cls in (HllSketch, EhllSketch, HllTcSketch, EhllTcSketch):
        a, b = cls(b=4), cls(b=4)
        a.insert_all(sa)
        b.insert_batch(np.array(sb, dtype=np.uint64))
        for s in (a.merge(b), b):
            q = s.change_probability()
            s.resync_term_sum()
            assert s.change_probability() == q


def _cell_of(ranks: set) -> tuple[int, int]:
    if not ranks:
        return 0, 1
    k = max(ranks)
    return k, 1 if k <= 1 or (k - 1) in ranks else 0


rank_sets = st.sets(st.integers(1, 12), max_size=6)


@settings(max_examples=200, deadline=None)
@given(sa=rank_sets, sb=rank_sets)
def test_cell_merge_rule_equals_set_union(sa, sb):
    # the cell-wise merge rule is exactly "derive the cell of the union"
    k_a, x_a = _cell_of(sa)
    k_b, x_b = _cell_of(sb)
    k, x = merge_ehll_cells(
        np.array([k_a]), np.array([x_a]), np.array([k_b]), np.array([x_b]))
    assert (int(k[0]), int(x[0])) == _cell_of(sa | sb)


def test_cell_merge_equals_the_guarded_formula_on_every_pair_of_cells():
    """Every pair of cells inserts can produce, ranks 0-63: about 16k pairs.

    The reference is the formula that also tested both ranks for an empty
    side; the bit a cell of rank 0 or 1 always holds makes that test moot.
    """
    k, x = np.divmod(np.arange(2 * 64), 2)
    valid = (k > 1) | (x == 1)
    k, x = k[valid], x[valid]
    k_a, k_b = (a.reshape(-1) for a in np.meshgrid(k, k, indexing="ij"))
    x_a, x_b = (a.reshape(-1) for a in np.meshgrid(x, x, indexing="ij"))
    assert len(k_a) == 126 ** 2
    k_hi = np.maximum(k_a, k_b)
    want = (k_a + k_b == 2 * k_hi - 1) & (k_a > 0) & (k_b > 0)
    want |= (x_a == 1) & (k_a == k_hi)
    want |= (x_b == 1) & (k_b == k_hi)
    got_k, got_x = merge_ehll_cells(k_a, x_a, k_b, x_b)
    assert got_k.dtype == got_x.dtype == np.int64
    assert np.array_equal(got_k, k_hi)
    assert np.array_equal(got_x, want.astype(np.int64))


@settings(max_examples=50, deadline=None)
@given(stream=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=60),
       seed=st.integers(0, 2**32))
def test_duplicate_and_order_insensitivity(stream, seed):
    rng = np.random.default_rng(0)
    shuffled = list(stream)
    rng.shuffle(shuffled)
    noisy = shuffled + stream[: len(stream) // 2]
    for _, cls in MERGEABLE:
        a, b = cls(b=4, seed=seed), cls(b=4, seed=seed)
        a.insert_all(stream)
        b.insert_all(noisy)
        assert a == b
