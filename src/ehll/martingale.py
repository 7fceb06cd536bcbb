"""Martingale transform: sequential unbiased counting over any sketch.

Wraps a sketch that exposes ``change_probability`` and, every time an
insert actually changes the sketch, adds ``1/q`` to a running estimate
and ``(1-q)/q^2`` to a retrospective variance, where ``q`` is the change
probability of the state *before* the insert.  Pre-update evaluation is
what makes the estimate exactly unbiased: a new distinct element changes
the sketch with probability ``q``, so the expected increment is
``q * 1/q = 1`` per new distinct element.  (Post-update evaluation
over-counts, since every changing transition lowers ``q``.)

The running estimate is strictly order-dependent and there is
deliberately no merge operation: the information being exploited is the
sequence of sketch states, which a union of sketches does not retain.

The wrapped sketch alone keeps its change-probability sum accurate (a
compensated sum over scalar steps, an exact one after batch writes); the
counter holds E and V, and :meth:`MartingaleCounter.resync` only
recomputes the sum on demand.

Blocks of elements go in at once (:meth:`MartingaleCounter.insert_bg_batch`)
along the runs the sketch cuts a block into (one run for the order-free
sketches): the state changes of a run are located vectorized
(:func:`change_deltas`) and their ``q`` come from a cumulative sum of the
term deltas; the element at a cut goes in alone, as :meth:`insert` takes
it.  E and V then advance over every change of the block with one
cumulative sum in arrival order, and the block returns them after each
change, so a trace of the estimator over a stream is one block insert.

Few pairs of a long run can change a cell: a cell's max only grows, and
past the first few thousand pairs most ranks sit at or below it.  So
:func:`may_change` reads a run in chunks, compares each chunk with the
sketch's live cells ``(k, x)``, keeps a pair only if its rank is above
``k`` or is ``k - 1`` on a two-field cell whose bit is 0, and unions
the kept pairs into the sketch before it reads the next chunk.  This is
exact, since within a chunk:

* a rank equal to ``k`` never changes a two-field cell: either the max
  did not move, or a grow by one set the bit, or a grow by two or more
  put the rank two or more below the max;
* a bit of 1 drops to 0 only at a grow by two or more, which also
  leaves ``k - 1`` two or more below the max;
* a rank below ``k - 1`` stays two or more below the max.

So a dropped pair is a no-op for the cell rule and for
:func:`change_deltas`.  A TailCut run with ``reads_q`` neither clamps
nor promotes, so its cells follow the plain rule.  The change scan sees
the kept pairs on the cells the run started from, and the arrivals,
deltas, E, V and the final sketch are those of the whole run.

A counter is strictly single-threaded (sequential semantics are the
whole point) but can be handed off between threads.
"""

from __future__ import annotations

import math

import numpy as np

from .hashing import check_int_pair
from .sketches import CELL

_RANK_STRIDE = 128  # > max rank, so per-bucket offsets keep cummax segmented
_CHUNK = 16384  # the longest chunk of a run compared with the live cells


def may_change(sketch, bucket: np.ndarray, geo: np.ndarray) -> np.ndarray:
    """Union an order-free run into ``sketch``; the indices of the pairs that can change a cell.

    The run goes in chunk by chunk, the first of ``min(m, _CHUNK)``
    pairs, while most pairs still change a cell, and each next one
    twice as long, up to ``_CHUNK``.  A pair is kept if it can change
    its cell ``(k, x)`` as its chunk finds it: a rank above ``k``, or
    ``k - 1`` on a two-field cell whose bit is 0.  The kept pairs of a
    chunk are unioned into the sketch before the next chunk is read.
    Every pair dropped is a no-op for the cell rule and for
    :func:`change_deltas` (see the module notes).
    """
    keep = [np.zeros(0, dtype=np.intp)]
    lo, size = 0, min(sketch.m, _CHUNK)
    while lo < len(bucket):
        b, g = bucket[lo:lo + size], geo[lo:lo + size]
        k, x = sketch._cells()
        if x is None:
            at = np.flatnonzero(g > k[b])
        else:  # at or above the lowest rank that changes the cell, k + 1 or k - 1, but not k
            at = np.flatnonzero(g >= (k + 2 * x - 1)[b])
            at = at[g[at] != k[b[at]]]
        sketch._union_batch(b[at], g[at])
        keep.append(at + lo)
        lo += size
        size = min(2 * size, _CHUNK)
    return np.concatenate(keep)


def change_deltas(bucket: np.ndarray, geo: np.ndarray, k0: np.ndarray,
                  x0: np.ndarray | None, terms) -> tuple[np.ndarray, np.ndarray]:
    """Arrival index and cell-term change of every state change, in arrival order.

    The (bucket, rank) pairs arrive in order on the cells ``(k0, x0)``
    (``x0`` is None for max-rank cells).  State changes are sparse, so
    this sorts the pairs once by (bucket, arrival), reconstructs each
    cell's state just before and after each change, and differences the
    cell terms ``terms(k, x)`` (a sketch's own ``_terms``, say);
    order-free cells make that exact.

    A cell's max grows at a rank above every rank before it, and its bit
    moves only there or at a rank one below the max.  So between those
    pairs the cell holds one bit: ``x0`` before the first, whether a grow
    was by exactly one, and 1 after a rank one below (it filled a 0 or
    found a 1).  That rank is a change when the bit it finds is 0.
    """
    n = len(bucket)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    # an unstable sort of unique keys (bucket above an arrival field of ``a``
    # bits) gives the permutation of a stable sort by bucket
    a = (n - 1).bit_length()
    if (int(bucket.max()) + 1) << a > 1 << 63:
        raise ValueError(f"{n} arrivals over {int(bucket.max()) + 1} buckets overflow a sort key")
    arrival = np.sort((bucket << a) | np.arange(n, dtype=np.int64)) & ((1 << a) - 1)
    bs, gs = bucket[arrival], geo[arrival]

    # exclusive per-bucket running max, from the cell's rank, via offset-encoded cummax
    shifted = np.empty(n, dtype=np.int64)
    shifted[1:] = gs[:-1] + bs[:-1] * _RANK_STRIDE
    first = np.diff(bs, prepend=-1) != 0
    shifted[first] = bs[first] * _RANK_STRIDE + k0[bs[first]]
    k_before = np.maximum.accumulate(shifted) - bs * _RANK_STRIDE
    grows = gs > k_before

    if x0 is None:
        events = np.flatnonzero(grows)
        x_before = x_after = None
    else:
        moves = np.flatnonzero(grows | (gs == k_before - 1))
        bu, grow = bs[moves], grows[moves]
        x_after = np.where(grow, gs[moves] == k_before[moves] + 1, 1)
        x_before = np.empty_like(x_after)
        x_before[1:] = x_after[:-1]
        new = np.diff(bu, prepend=-1) != 0  # a bucket's first move finds x0
        x_before[new] = x0[bu[new]]
        changed = grow | (x_before == 0)
        events, x_before, x_after = moves[changed], x_before[changed], x_after[changed]
    k_prior = k_before[events]
    delta = terms(np.maximum(gs[events], k_prior), x_after) - terms(k_prior, x_before)
    ev_arrival = arrival[events]
    by_arrival = np.argsort(ev_arrival)
    return ev_arrival[by_arrival], delta[by_arrival]


class MartingaleCounter:
    """Running unbiased estimator and retrospective variance over a sketch."""

    __slots__ = ("inner", "estimate_value", "retro_var")

    def __init__(self, inner):
        if not hasattr(inner, "change_probability"):
            raise TypeError(
                f"{type(inner).__name__} does not expose change_probability")
        self.inner = inner
        self.estimate_value = 0.0
        self.retro_var = 0.0

    def insert(self, element) -> None:
        q = self.inner.change_probability()
        if self.inner.insert(element):
            self.estimate_value += 1.0 / q
            self.retro_var += (1.0 - q) / (q * q)

    def insert_all(self, elements) -> None:
        for e in elements:
            self.insert(e)

    def insert_tokens(self, buf, starts: np.ndarray, ends: np.ndarray) -> None:
        """Insert the byte tokens ``buf[starts[i]:ends[i]]`` in order, hashed at once."""
        self.insert_bg_batch(*self.inner.split_tokens(buf, starts, ends))

    def insert_bg_batch(self, bucket: np.ndarray,
                        geo: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Insert a block of (bucket, rank) pairs in arrival order.

        Returns ``(arrivals, e, v)``: the index in the block of each
        element that changed the sketch, and E and V just after it.

        E, V and the inner sketch end as after :meth:`insert` of each
        element in turn.  The block goes along the sketch's runs: a run's
        ``q`` come from a plain running sum over the term sum the sketch
        keeps, and the element at a cut takes the scalar step.  E and V
        add the increments of all changes in arrival order, as
        :meth:`insert` does.  So block inserts are bit-identical to
        :meth:`insert` whenever the term sum is exact.  That holds always
        for TailCut, since every term is a multiple of ``2^-(base+15)``
        and the sum is below ``3 m 2^-base``, and for the order-free
        kinds while ranks stay below about 40 at m=2^12; past that the
        two agree up to rounding.

        A run goes into the sketch through :func:`may_change`, which
        unions it chunk by chunk and keeps only the pairs that can change
        a cell (a TailCut run compares effective ranks); the change scan
        sees those pairs on a copy of the cells the run started from, so
        the result is that of the whole run.

        Raises ValueError unless ``bucket`` and ``geo`` are 1-D integer
        arrays of one length, with buckets in ``[0, m)`` and ranks in
        ``[1, width + 1]``.
        """
        inner = self.inner
        bucket, geo = check_int_pair(bucket, geo, "a block's buckets and ranks")
        if len(bucket) and not (0 <= bucket.min() and bucket.max() < inner.m):
            raise ValueError(f"buckets must lie in [0, {inner.m})")
        if len(geo) and not (1 <= geo.min() and geo.max() <= inner.width + 1):
            raise ValueError(f"ranks must lie in [1, {inner.width + 1}]")
        # checked in range, so neither cast wraps; ranks of the cells' dtype are not cast again
        bucket, geo = bucket.astype(np.int64, copy=False), geo.astype(CELL, copy=False)
        arrivals, qs = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        for lo, hi in inner._runs(bucket, geo, reads_q=True):
            if hi == lo:  # a cut element: insert()'s scalar step
                q = inner.change_probability()
                if inner._insert_bg(int(bucket[lo]), int(geo[lo])):
                    arrivals.append([lo])
                    qs.append([q])
                continue
            # the scan needs the cells and term sum from before may_change unions the run
            start = [None if c is None else c.copy() for c in inner._cells()]
            total = inner._term_sum()
            kept = may_change(inner, bucket[lo:hi], geo[lo:hi]) + lo
            at, delta = change_deltas(bucket[kept], geo[kept], *start, inner._terms)
            # q before each change: the term sum plus the deltas of the changes before it
            arrivals.append(kept[at])
            qs.append((total + np.concatenate(([0.0], delta)).cumsum()[:-1]) / inner.m)
        q = np.concatenate(qs)
        # accumulated from the running values, in order, as insert() adds them
        e = np.concatenate(([self.estimate_value], 1.0 / q)).cumsum()
        v = np.concatenate(([self.retro_var], (1.0 - q) / (q * q))).cumsum()
        self.estimate_value, self.retro_var = float(e[-1]), float(v[-1])
        return np.concatenate(arrivals), e[1:], v[1:]

    def estimate(self) -> float:
        return self.estimate_value

    def retro_variance(self) -> float:
        return self.retro_var

    def standard_error(self) -> float:
        """sqrt of the retrospective variance: a running error-bar readout."""
        return math.sqrt(self.retro_var)

    def resync(self) -> None:
        """Exactly recompute the inner change-probability sum on demand; E and V untouched."""
        self.inner.resync_term_sum()
