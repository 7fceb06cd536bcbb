"""Oracle machinery: shadow derivation, exact sums, outcome enumeration.

The exact expectation sums are themselves cross-checked here against an
even dumber oracle: full enumeration of every (bucket, rank <= K)
outcome sequence at tiny n, which shares no code with the composition
machinery.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ehll.oracle import (
    derive_cells,
    enumerate_change_probability,
    exact_expectation_Y,
    exact_expectation_Z,
    exact_second_moment_Y,
    exact_second_moment_Z,
    shadow_from_stream,
    truncation_bound,
    union_sketch,
)
from ehll.sketches import EhllSketch, HllSketch
from ehll.tailcut import EhllTcSketch, HllTcSketch


def test_derive_cells_examples():
    hll, ehll = derive_cells([set()])
    assert hll == [0] and ehll == [(0, 1)]
    hll, ehll = derive_cells([{1, 3}])
    assert hll == [3] and ehll == [(3, 0)]
    hll, ehll = derive_cells([{2, 3}])
    assert ehll == [(3, 1)]
    _, ehll = derive_cells([{1}])
    assert ehll == [(1, 1)]


def test_shadow_matches_production():
    stream = [f"e{i}".encode() for i in range(2000)]
    for b in (4, 6):
        h = HllSketch(b=b, seed=13)
        e = EhllSketch(b=b, seed=13)
        h.insert_all(stream)
        e.insert_all(stream)
        hll_cells, ehll_cells = derive_cells(shadow_from_stream(stream, 1 << b, seed=13))
        assert h._cells()[0].tolist() == hll_cells
        assert list(zip(*(a.tolist() for a in e._cells()))) == ehll_cells


# ---------------------------------------------------------------------------
# brute-force outcome enumeration (independent of the composition sums)

def _brute_force_expectation(n, m, K, two_field, power=1):
    """Enumerate every (bucket, rank <= K)^n sequence with exact weights.

    Dropping the rank-(K+1)-and-up sequences reproduces the truncated
    state sum exactly: a state has all cell ranks <= K iff every draw
    did.
    """
    outcomes = [(j, k) for j in range(m) for k in range(1, K + 1)]
    value = 0.0
    for seq in itertools.product(outcomes, repeat=n):
        p = math.prod((Fraction(1, m * 2**k) for _, k in seq), start=Fraction(1))
        buckets = [set() for _ in range(m)]
        for j, k in seq:
            buckets[j].add(k)
        term_sum = 0.0
        for ranks in buckets:
            if not ranks:
                term_sum += 1.0
                continue
            c1 = max(ranks)
            if two_field:
                x = 1 if c1 <= 1 or (c1 - 1) in ranks else 0
                term_sum += 0.5**c1 * (3 - 2 * x)
            else:
                term_sum += 0.5**c1
        value += float(p) / term_sum**power
    return value


def test_exact_sums_match_brute_force_public_domain():
    # n=2, m=2 at the minimum public truncation depth: exact agreement
    assert exact_expectation_Z(2, 2, 40) == pytest.approx(
        _brute_force_expectation(2, 2, 40, two_field=False), rel=1e-10)
    assert exact_expectation_Y(2, 2, 40) == pytest.approx(
        _brute_force_expectation(2, 2, 40, two_field=True), rel=1e-10)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("power", [1, 2])
def test_truncated_sums_match_brute_force_small_K(n, m, power):
    # deeper cross-check of the composition machinery at K=12, where full
    # enumeration stays cheap; exercises first and second moments
    from ehll.oracle import _ehll_pmf, _ehll_terms, _expectation, _hll_pmf, _hll_terms

    K = 12
    got_z = _expectation(n, m, K, _hll_pmf, _hll_terms(K), power)
    assert got_z == pytest.approx(
        _brute_force_expectation(n, m, K, two_field=False, power=power), rel=1e-10)
    got_y = _expectation(n, m, K, _ehll_pmf, _ehll_terms(K), power)
    assert got_y == pytest.approx(
        _brute_force_expectation(n, m, K, two_field=True, power=power), rel=1e-10)


def test_exact_Z_symmetric_in_bucket_labels():
    # relabeling the two cells reverses every composition term; the sum
    # is invariant because the pair indicator is symmetric
    from ehll.oracle import _expectation, _hll_pmf, _hll_terms

    K = 40
    terms = _hll_terms(K)

    def swapped(n):
        import numpy as np
        from math import comb
        inv = 1.0 / (terms[:, None] + terms[None, :])
        rows = {j: np.array([float(v) for v in _hll_pmf(j, K)]) for j in range(n + 1)}
        return sum(comb(n, n1) / 2.0**n * float(rows[n - n1] @ inv @ rows[n1])
                   for n1 in range(n + 1))

    for n in (3, 5, 8):
        assert _expectation(n, 2, K, _hll_pmf, terms, 1) == pytest.approx(
            swapped(n), rel=1e-12)


def test_exact_Z_m1_n1_is_truncation_depth():
    # each rank level contributes exactly 1: the truncated value is K
    assert exact_expectation_Z(1, 1, 64) == pytest.approx(64.0)
    assert exact_expectation_Z(1, 1, 40) == pytest.approx(40.0)


def test_single_element_Y_closed_form():
    # one element: rank 1 gives state (1,1) with Y=2; rank k>=2 gives
    # (k,0) with Y=2^k/3
    K = 64
    expected = 0.5 * 2.0 + sum(0.5**k * 2.0**k / 3.0 for k in range(2, K + 1))
    assert exact_expectation_Y(1, 1, K) == pytest.approx(expected, rel=1e-12)


def test_monte_carlo_cross_validation_m2():
    # n=10, m=2: convergent case; MC mean within 3 sigma of the exact sum
    n, m, K, T = 10, 2, 64, 200_000
    rng = np.random.default_rng(31)
    g = np.minimum(rng.geometric(0.5, size=(T, n)), K)
    b = rng.integers(0, m, size=(T, n))
    tsum = np.zeros(T)
    for j in range(m):
        sel = b == j
        gg = np.where(sel, g, 0)
        c1 = gg.max(axis=1)
        hit = (gg == (c1[:, None] - 1)) & sel
        c2 = np.where(c1 <= 1, 1, hit.any(axis=1).astype(int))
        tsum += np.where(c1 == 0, 1.0, 0.5**c1 * (3 - 2 * c2))
    y = 1.0 / tsum
    exact = exact_expectation_Y(n, m, K)
    model_sigma = math.sqrt((exact_second_moment_Y(n, m, K) - exact**2) / T)
    assert abs(float(y.mean()) - exact) < 3 * model_sigma


def test_exact_Z_m2_against_monte_carlo():
    n, m, K, T = 5, 2, 64, 200_000
    rng = np.random.default_rng(32)
    g = np.minimum(rng.geometric(0.5, size=(T, n)), K)
    b = rng.integers(0, m, size=(T, n))
    tsum = np.zeros(T)
    for j in range(m):
        gg = np.where(b == j, g, 0)
        c = gg.max(axis=1)
        tsum += np.where(c == 0, 1.0, 0.5**c)
    z = 1.0 / tsum
    exact = exact_expectation_Z(n, m, K)
    model_sigma = math.sqrt((exact_second_moment_Z(n, m, K) - exact**2) / T)
    assert abs(float(z.mean()) - exact) < 3 * model_sigma


def test_doubling_K_stable_for_m2():
    # convergent regime: deepening the truncation changes nothing
    assert abs(exact_expectation_Y(10, 2, 64) - exact_expectation_Y(10, 2, 128)) < 1e-9
    assert abs(exact_expectation_Z(10, 2, 64) - exact_expectation_Z(10, 2, 128)) < 1e-9


def test_m1_heavy_tail_documented():
    # the m=1 indicator expectation grows with K (why stochastic averaging
    # exists); the oracle reports the truncated value
    assert exact_expectation_Y(10, 1, 96) > exact_expectation_Y(10, 1, 48) + 10
    assert exact_expectation_Z(10, 1, 96) > exact_expectation_Z(10, 1, 48) + 10


def test_domain_errors():
    with pytest.raises(ValueError):
        exact_expectation_Y(10, 3, 64)
    with pytest.raises(ValueError):
        exact_expectation_Y(21, 2, 64)
    with pytest.raises(ValueError):
        exact_expectation_Y(10, 2, 39)


def test_truncation_bound():
    assert truncation_bound(10, 64) == 10 * 0.5**64
    assert truncation_bound(20, 40) > truncation_bound(10, 40)


def test_union_sketch_ground_truth():
    a = [b"x", b"y"]
    bb = [b"y", b"z"]
    u = union_sketch(a, bb, "hll", b=4, seed=1)
    direct = HllSketch(b=4, seed=1)
    direct.insert_all(a + bb)
    assert u == direct


# ---------------------------------------------------------------------------
# change-probability enumeration

def test_enumerate_fresh_sketch():
    s = EhllSketch(m=2)
    K = 20
    assert enumerate_change_probability(s, K) == pytest.approx(1.0 - 0.5**K)


def test_enumerate_rejects_depth_below_one():
    for K in (0, -5):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            enumerate_change_probability(EhllSketch(m=2), K)


def test_enumerate_single_cell_example():
    s = EhllSketch(m=1)
    s._derive(np.array([3]), np.array([0]))
    K = 30
    assert s.change_probability() == pytest.approx(3.0 / 8.0)
    assert enumerate_change_probability(s, K) == pytest.approx(3.0 / 8.0 - 0.5**K)


def _random_reachable_cells(rng, m):
    ranks = np.zeros(m, dtype=np.int64)
    bits = np.ones(m, dtype=np.int64)
    for j in range(m):
        r = rng.random()
        if r < 0.2:
            continue  # empty (0, 1)
        k = int(rng.integers(1, 21))
        ranks[j] = k
        bits[j] = 1 if k < 2 else int(rng.integers(0, 2))
    return ranks, bits


def test_enumeration_matches_incremental_on_random_states():
    rng = np.random.default_rng(33)
    K = 20
    for _ in range(100):
        m = int(rng.choice([1, 2, 4]))
        ranks, bits = _random_reachable_cells(rng, m)
        s = EhllSketch(m=m)
        s._derive(ranks, bits)
        diff = s.change_probability() - enumerate_change_probability(s, K)
        assert 0 <= diff <= 0.5**K + 1e-12

        h = HllSketch(m=m)
        h._derive(ranks.copy(), None)
        diff = h.change_probability() - enumerate_change_probability(h, K)
        assert 0 <= diff <= 0.5**K + 1e-12


def cell(s, j):
    """(offset above the base, neighbor bit) of TailCut cell ``j``."""
    k, x = s._cells()
    return int(k[j]) - s.base, int(x[j])


def test_enumeration_covers_tailcut_saturation():
    # saturated cells: stored-state transition probabilities, not 2^-eff
    # (bucket 2 stays empty so the base cannot promote past zero)
    s = HllTcSketch(m=3)
    s._insert_bg(0, 20)  # clamps to offset 15
    s._insert_bg(1, 3)
    assert s._cells()[0][0] - s.base == 15 and s.base == 0
    diff = s.change_probability() - enumerate_change_probability(s, 25)
    assert 0 <= diff <= 0.5**25 + 1e-15

    e = EhllTcSketch(m=3)
    e._insert_bg(0, 20)  # truncated: bit forced to 0
    e._insert_bg(1, 3)
    assert cell(e, 0) == (15, 0)
    diff = e.change_probability() - enumerate_change_probability(e, 25)
    assert 0 <= diff <= 0.5**25 + 1e-15
    # fill the neighbor of the saturated cell, then re-check
    assert e._insert_bg(0, 14) is True
    assert cell(e, 0) == (15, 1)
    diff = e.change_probability() - enumerate_change_probability(e, 25)
    assert 0 <= diff <= 0.5**25 + 1e-15
