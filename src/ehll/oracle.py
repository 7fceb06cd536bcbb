"""Independent brute-force references backing the test suite.

Nothing here shares code with the production update paths: shadow
buckets are plain Python sets of observed ranks, the expectation sums
enumerate cell states with exact rational arithmetic, and the change
probability is enumerated outcome by outcome.  The point is that each
production result can be checked against an implementation too simple to
be wrong in the same way.

Numerical note: the per-cell probabilities are differences of powers of
``1 - j/2^k``, which cancel catastrophically in float64 once ``k``
approaches 50.  They are therefore computed in ``fractions.Fraction``
and only converted to float afterwards, when each value is well scaled.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .hashing import hash64, split_hash
from .serialization import SKETCHES
from .sketches import EhllSketch, HllSketch
from .tailcut import EhllTcSketch, HllTcSketch, OFFSET_MAX


# ---------------------------------------------------------------------------
# shadow buckets

def shadow_from_stream(elements, m: int, seed: int = 0) -> list[set[int]]:
    """Full occupancy record: the set of ranks ever seen, per bucket."""
    shadow: list[set[int]] = [set() for _ in range(m)]
    for e in elements:
        bucket, geo = split_hash(hash64(e, seed), m)
        shadow[bucket].add(geo)
    return shadow


def derive_cells(shadow: list[set[int]]) -> tuple[list[int], list[tuple[int, int]]]:
    """(max-rank registers, (rank, neighbor-bit) cells) implied by a shadow.

    Empty bucket: register 0, cell ``(0, 1)``.  The neighbor bit is set
    when the rank one below the maximum was observed, or when the
    maximum is 1 (there is no rank 0 to miss).
    """
    hll_cells: list[int] = []
    ehll_cells: list[tuple[int, int]] = []
    for ranks in shadow:
        if not ranks:
            hll_cells.append(0)
            ehll_cells.append((0, 1))
            continue
        k = max(ranks)
        x = 1 if k <= 1 or (k - 1) in ranks else 0
        hll_cells.append(k)
        ehll_cells.append((k, x))
    return hll_cells, ehll_cells


# ---------------------------------------------------------------------------
# exact expectation sums

def _check_domain(n: int, m: int, K: int) -> None:
    if m not in (1, 2):
        raise ValueError("exact sums are tractable only for m in {1, 2}")
    if not 0 <= n <= 20:
        raise ValueError("exact sums are tractable only for n <= 20")
    if K < 40:
        raise ValueError("truncation depth K must be >= 40")


def _hll_pmf(n_j: int, K: int) -> list[Fraction]:
    """Exact P(register = k) after n_j elements, k = 0..K (state 0 = empty)."""
    pmf = [Fraction(0)] * (K + 1)
    if n_j == 0:
        pmf[0] = Fraction(1)
        return pmf
    for k in range(1, K + 1):
        a = (1 - Fraction(1, 2 ** k)) ** n_j
        b = (1 - Fraction(1, 2 ** (k - 1))) ** n_j
        pmf[k] = a - b
    return pmf


def _hll_terms(K: int) -> np.ndarray:
    t = 0.5 ** np.arange(0, K + 1)
    t[0] = 1.0  # empty cell contributes 2^0
    return t


def _ehll_states(K: int) -> list[tuple[int, int]]:
    states: list[tuple[int, int]] = [(0, 1)]
    for k in range(1, K + 1):
        states.append((k, 1))
        if k >= 2:
            states.append((k, 0))
    return states


def _ehll_pmf(n_j: int, K: int) -> list[Fraction]:
    """Exact joint P(rank = k, neighbor bit = x) after n_j elements.

    ``x = 0`` needs max exactly ``k`` with no observation at ``k - 1``:
    ``(1 - 3/2^k)^n - (1 - 4/2^k)^n`` (truncated at 0 for k = 2);
    ``x = 1`` is the remainder of the max-rank marginal.
    """
    states = _ehll_states(K)
    if n_j == 0:
        return [Fraction(1)] + [Fraction(0)] * (len(states) - 1)
    pmf: list[Fraction] = [Fraction(0)]
    for k, x in states[1:]:
        gamma = (1 - Fraction(1, 2 ** k)) ** n_j - (1 - Fraction(1, 2 ** (k - 1))) ** n_j
        if k == 1:
            p0 = Fraction(0)
        else:
            a = 1 - Fraction(3, 2 ** k)
            b = 1 - Fraction(4, 2 ** k)
            p0 = a ** n_j - (b ** n_j if b > 0 else Fraction(0))
        pmf.append(gamma - p0 if x == 1 else p0)
    return pmf


def _ehll_terms(K: int) -> np.ndarray:
    return np.array([(3.0 - 2.0 * x) * 0.5 ** k if k else 1.0
                     for k, x in _ehll_states(K)])


def _expectation(n: int, m: int, K: int, pmf_fn, terms: np.ndarray, power: int) -> float:
    if m == 1:
        p = np.array([float(v) for v in pmf_fn(n, K)])
        return float(p @ (1.0 / terms ** power))
    inv = 1.0 / (terms[:, None] + terms[None, :]) ** power
    rows = {n_j: np.array([float(v) for v in pmf_fn(n_j, K)])
            for n_j in range(n + 1)}
    total = 0.0
    for n1 in range(n + 1):
        w = comb(n, n1) / 2.0 ** n
        total += w * float(rows[n1] @ inv @ rows[n - n1])
    return total


def exact_expectation_Z(n: int, m: int, K: int = 64) -> float:
    """Truncated exact E[indicator] for the max-rank sketch.

    At ``m = 1`` the sum grows linearly in ``K`` (each rank level
    contributes ~1): the well-known heavy tail that stochastic averaging
    exists to tame.  The truncated value is reported as-is.
    """
    _check_domain(n, m, K)
    return _expectation(n, m, K, _hll_pmf, _hll_terms(K), power=1)


def exact_expectation_Y(n: int, m: int, K: int = 64) -> float:
    """Truncated exact E[indicator] for the two-field sketch.

    Same heavy-tail caveat at ``m = 1`` (the ``x = 0`` branch contributes
    ~n/3 per rank level beyond ~log2 n); convergent for ``m = 2``.
    """
    _check_domain(n, m, K)
    return _expectation(n, m, K, _ehll_pmf, _ehll_terms(K), power=1)


def exact_second_moment_Z(n: int, m: int, K: int = 64) -> float:
    """Truncated exact E[indicator^2]; yields the exact Monte-Carlo sigma."""
    _check_domain(n, m, K)
    return _expectation(n, m, K, _hll_pmf, _hll_terms(K), power=2)


def exact_second_moment_Y(n: int, m: int, K: int = 64) -> float:
    """Truncated exact E[indicator^2] for the two-field sketch."""
    _check_domain(n, m, K)
    return _expectation(n, m, K, _ehll_pmf, _ehll_terms(K), power=2)


def truncation_bound(n: int, K: int) -> float:
    """Upper bound on the per-cell probability mass ignored beyond rank K."""
    return n * 0.5 ** K


# ---------------------------------------------------------------------------
# union-stream merge oracle

def union_sketch(stream_a, stream_b, kind: str, b: int | None = None,
                 m: int | None = None, seed: int = 0):
    """Sketch of the concatenated stream: ground truth for merge tests."""
    sketch = SKETCHES[kind](b=b, m=m, seed=seed)
    sketch.insert_all(stream_a)
    sketch.insert_all(stream_b)
    return sketch


# ---------------------------------------------------------------------------
# change-probability enumeration

def _cell_changes(sketch, j: int, k: int) -> bool:
    """Would an element with bucket j and rank k change the stored state?"""
    if isinstance(sketch, HllTcSketch):
        eff = sketch.base + sketch.offsets.get(j)
        return k > eff and sketch.offsets.get(j) < OFFSET_MAX
    if isinstance(sketch, EhllTcSketch):
        off = sketch.offsets.get(j)
        eff = sketch.base + off
        x = sketch.bits.get(j)
        if off < OFFSET_MAX:
            return k > eff or (k == eff - 1 and x == 0)
        # saturated: a larger rank truncates and forces the bit to 0
        return (k > eff and x == 1) or (k == eff - 1 and x == 0)
    if isinstance(sketch, EhllSketch):
        c1, c2 = sketch.ranks.get(j), sketch.bits.get(j)
        return k > c1 or (k == c1 - 1 and c2 == 0)
    if isinstance(sketch, HllSketch):
        return k > sketch.ranks.get(j)
    raise TypeError(f"unsupported sketch type {type(sketch).__name__}")


def enumerate_change_probability(sketch, K: int = 20) -> float:
    """Exhaustive change probability: sum over (bucket, rank <= K) outcomes.

    Each outcome has probability ``2^-k / m``; ranks beyond ``K`` are not
    enumerated, so the result undershoots the exact value by at most
    ``2^-K`` (every deep rank changes any non-saturated state).
    """
    if K < 1:
        raise ValueError(f"enumeration depth must be >= 1, got {K}")
    total = Fraction(0)
    m = sketch.m
    for j in range(m):
        for k in range(1, K + 1):
            if _cell_changes(sketch, j, k):
                total += Fraction(1, 2 ** k)
    return float(total / m)
