"""The mergeable sketches: bitmap (PCSA), HyperLogLog, ExtendedHyperLogLog.

All three are duplicate-insensitive and order-independent: the state is a
pure function of the *set* of (bucket, rank) pairs seen, which is what
makes the cell-wise merge of two sketches exactly the sketch of the
union stream.

The ExtendedHyperLogLog cell stores, besides the maximum rank ``k``, one
extra bit recording whether rank ``k - 1`` was ever observed.  An empty
cell is ``(0, 1)`` so that its change-probability term is exactly 1.
State transitions on rank ``r``:

    r == k + 1           -> (r, 1)     new max; old max sits at r - 1
    r >  k + 1           -> (r, 0)     new max; r - 1 never seen
    r == k - 1 and bit=0 -> (k, 1)     neighbor coupon filled in
    otherwise            -> unchanged

A HyperLogLog register is the same cell with the bit absent and read as
1: the rule reduces to ``r > k -> r`` and the term ``2^-k (3 - 2x)`` to
``2^-k``.  So :class:`_RankSketch` writes the rule, its terms, union,
batch reduction and estimator once, switched by ``neighbor_bit``, over a
storage codec: plain 6-bit ranks here, a shared base plus 4-bit offsets
in :mod:`ehll.tailcut`.

Each sketch maintains a compensated running sum of its per-cell
change-probability terms so ``change_probability()`` is O(1); the
indicator methods recompute the exact sum from the registers.

Sketches are single-writer; merging immutable snapshots from several
threads is fine since ``merge`` never mutates its operands.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import analysis
from .hashing import (
    MASK64,
    check_precision,
    geo_width,
    hash64,
    hash64_tokens,
    hash64_u64_array,
    split_hash,
    split_hash_array,
)
from .registers import BitArray, PackedRegisterArray

REGISTER_WIDTH = 6  # enough for ranks up to 61 at b >= 4

# Small-range regime boundary, in units of m.  The two-field sketch reuses
# the max-rank sketch's 2.5 rule; no independent derivation exists for it.
# Sensitivity (measured at m=1024, 400 trials): both estimators carry a
# transition bias hump just above the boundary (about +7% at n=2.5m decaying
# by n~4m); moving the boundary within [2, 3] only shifts which estimator
# covers the hump, it does not remove it.  Well below (linear counting) and
# well above (raw) the estimates are unbiased.
LC_THRESHOLD = 2.5


@dataclass(frozen=True)
class RawEstimate:
    """A cardinality estimate plus the regime that produced it."""

    value: float
    regime: str  # "raw" or "linear-counting"

    def __float__(self) -> float:
        return self.value


def _resolve_size(b: int | None, m: int | None) -> int:
    if (b is None) == (m is None):
        raise ValueError("specify exactly one of b (power-of-two) or m")
    if b is not None:
        return 1 << check_precision(b)
    if m < 1:
        raise ValueError("register count must be >= 1")
    return m


# ---------------------------------------------------------------------------
# the cell rule on explicit arrays

def cell_terms(k: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
    """Per-cell change-probability terms ``2^-k (3 - 2x)``; ``2^-k`` without bits."""
    terms = np.exp2(-np.asarray(k, dtype=float))
    if x is not None:
        terms *= 3.0 - 2.0 * np.asarray(x, dtype=float)
    return terms


def cell_indicator(k: np.ndarray, x: np.ndarray | None = None) -> float:
    """Indicator of explicit cells of any size: Z without bits, Y with them."""
    return 1.0 / float(cell_terms(k, x).sum())


def bias_constant(m: int, neighbor_bit: bool, asymptotic: bool = False) -> float:
    """Bias correction of ``m`` cells: ``gamma_m`` with neighbor bits, else ``alpha_m``.

    ``asymptotic`` swaps in the large-m limits, which need no quadrature.
    """
    if neighbor_bit:
        return analysis.asymptotic_constants()[0] if asymptotic else analysis.gamma_m(m)
    return 1.0 / (2.0 * analysis.LN2) if asymptotic else analysis.alpha_m(m)


def estimate_cells(m: int, k: np.ndarray, x: np.ndarray | None = None,
                   asymptotic: bool = False) -> RawEstimate:
    """Bias-corrected estimate of ``m`` explicit cells, linear counting below 2.5 m.

    Max-rank cells (``x`` is None) and two-field cells take their
    :func:`bias_constant`.
    """
    raw = bias_constant(m, x is not None, asymptotic) * m * m * cell_indicator(k, x)
    if raw < LC_THRESHOLD * m:
        v = int(np.count_nonzero(np.asarray(k) == 0))
        if v > 0:
            return RawEstimate(analysis.linear_counting(m, v), "linear-counting")
    return RawEstimate(raw, "raw")


def estimate_bitmap(present: np.ndarray) -> RawEstimate:
    """Bitmap (PCSA) estimate from a (buckets, lanes) rank-presence matrix."""
    m, lanes = present.shape
    first_zero = np.where(present.all(axis=1), lanes, np.argmin(present, axis=1))
    return RawEstimate(m / analysis.PCSA_PHI * 2.0 ** float(first_zero.mean()), "raw")


def merge_ehll_cells(
    k_a: np.ndarray, x_a: np.ndarray, k_b: np.ndarray, x_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cell-wise union of two (rank, bit) states.

    Because a cell state is a pure function of the set of ranks seen,
    the union state follows from which side holds the larger rank:

    * equal ranks: either bit proves the neighbor coupon, so OR them;
    * ranks differ by 1: the smaller side's max *is* the neighbor, bit=1;
    * gap of 2 or more: the smaller side says nothing about ``k - 1``.

    An empty side ``(0, 1)`` is the identity.
    """
    k_a = np.asarray(k_a, dtype=np.int64)
    k_b = np.asarray(k_b, dtype=np.int64)
    x_a = np.asarray(x_a, dtype=np.int64)
    x_b = np.asarray(x_b, dtype=np.int64)
    k_hi = np.maximum(k_a, k_b)
    # ranks one apart; an empty (0, 1) side is the identity, not a neighbor hit
    x = (k_a + k_b == 2 * k_hi - 1) & (k_a > 0) & (k_b > 0)
    x |= (x_a == 1) & (k_a == k_hi)  # a side holding the max keeps its bit
    x |= (x_b == 1) & (k_b == k_hi)
    return k_hi, x.astype(np.int64)


# ---------------------------------------------------------------------------
# sketch classes

class _SketchBase:
    """Shared plumbing: hashing, merge guards, copy, equality, memory accounting.

    ``_arrays`` names the packed arrays holding the state, in EHS1 payload
    order; ``_header`` names the one-byte fields the EHS1 header carries.
    """

    kind: str = ""
    _arrays: tuple[str, ...] = ()
    _header: tuple[str, ...] = ()

    def __init__(self, b: int | None = None, m: int | None = None, seed: int = 0):
        self.m = _resolve_size(b, m)
        self.seed = operator.index(seed) & MASK64  # hashing reads it mod 2^64
        self.width = geo_width(self.m)

    def _split(self, element) -> tuple[int, int]:
        return split_hash(hash64(element, self.seed), self.m)

    def _split_batch(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return split_hash_array(hash64_u64_array(values, self.seed), self.m)

    def split_tokens(self, buf, starts: np.ndarray,
                     ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(bucket, rank) arrays of the byte tokens ``buf[starts[i]:ends[i]]``."""
        return split_hash_array(hash64_tokens(buf, starts, ends, self.seed), self.m)

    def _check_mergeable(self, other) -> None:
        if type(self) is not type(other):
            raise ValueError(f"cannot merge {self.kind} with {other.kind}")
        if self.m != other.m:
            raise ValueError(f"register count mismatch: {self.m} != {other.m}")
        if self.seed != other.seed:
            raise ValueError("hash seed mismatch")

    def insert_all(self, elements) -> int:
        """Insert an iterable of elements; returns the number of state changes."""
        changed = 0
        for e in elements:
            changed += self.insert(e)
        return changed

    def insert(self, element) -> bool:
        """Insert one element (bytes, str or 64-bit int); True if the state changed."""
        bucket, geo = self._split(element)
        return self._insert_bg(bucket, geo)

    def insert_batch(self, values: np.ndarray) -> None:
        """Vectorized insert of an integer element array (bit-identical result)."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError(f"insert_batch needs a 1-D array, got shape {values.shape}")
        if values.dtype.kind not in "iu":
            raise TypeError(f"insert_batch needs an integer array, got {values.dtype}")
        bucket, geo = self._split_batch(values)
        self._insert_bg_batch(bucket, geo)

    def insert_tokens(self, buf, starts: np.ndarray, ends: np.ndarray) -> None:
        """Insert the byte tokens ``buf[starts[i]:ends[i]]`` in order.

        Hashed at once; the state equals :meth:`insert` of each token as
        ``bytes``, so saved files are bit-identical.
        """
        self._insert_bg_batch(*self.split_tokens(buf, starts, ends))

    def _loaded(self) -> bool:
        """Whether inserts can produce a decoded state; if so, rebuild derived state."""
        return True

    def memory_bits(self) -> int:
        return sum(getattr(self, name).memory_bits() for name in self._arrays)

    def copy(self):
        dup = copy.copy(self)
        for name in self._arrays:
            setattr(dup, name, getattr(self, name).copy())
        return dup

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name)
            for name in ("m", "seed", *self._header, *self._arrays))


class PcsaSketch(_SketchBase):
    """Stochastic-averaged bitmap sketch: one rank-occupancy bitmap per bucket."""

    kind = "pcsa"
    _arrays = ("bitmaps",)

    def __init__(self, b: int | None = None, m: int | None = None, seed: int = 0):
        super().__init__(b, m, seed)
        self.L = self.width + 1
        self.bitmaps = BitArray(self.m * self.L)

    # each kind owns its entry points, so instrumentation can wrap them per kind
    insert, insert_batch = _SketchBase.insert, _SketchBase.insert_batch

    def _insert_bg(self, bucket: int, geo: int) -> bool:
        idx = bucket * self.L + (geo - 1)
        if self.bitmaps.get(idx):
            return False
        self.bitmaps.set(idx, 1)
        return True

    def _insert_bg_batch(self, bucket: np.ndarray, geo: np.ndarray) -> None:
        self.bitmaps.set_ones(bucket * self.L + (geo - 1))

    def estimate(self, asymptotic: bool = False) -> RawEstimate:
        """Bitmap estimate; ``asymptotic`` is ignored (``PCSA_PHI`` has no finite-m form)."""
        bits = np.unpackbits(self.bitmaps.buffer, count=self.m * self.L, bitorder="little")
        return estimate_bitmap(bits.view(bool).reshape(self.m, self.L))

    def merge(self, other: "PcsaSketch") -> "PcsaSketch":
        self._check_mergeable(other)
        out = self.copy()
        out.bitmaps.or_with(other.bitmaps)
        return out


class _RankSketch(_SketchBase):
    """The cell rule over a rank codec; this class is the plain 6-bit codec.

    A codec supplies ``_clear`` (empty storage), ``_get_rank``/``_set_rank``
    (one cell), ``effective_values`` (reads all cells) and ``_set_ranks``
    (stores them), and may refine ``_clamp``, ``_term``/``_terms``,
    ``_after_insert``, ``_derive``, ``_load``, ``_run_end`` and ``_loaded``.
    Neighbor bits live in ``bits``.  State computed from the cells (the term
    sum, TailCut's ``_zero_offsets``) moves only incrementally in the scalar
    step and exactly in ``_derive``, which ``_store`` calls after every full
    write and ``_loaded``/``resync_term_sum`` after a read.
    """

    neighbor_bit = False

    def __init__(self, b: int | None = None, m: int | None = None, seed: int = 0):
        super().__init__(b, m, seed)
        self._clear()
        if self.neighbor_bit:
            self.bits = BitArray(self.m, fill=1)
        # running sum of the cell terms, Kahan-compensated by _sum_err
        self._sum, self._sum_err = float(self.m), 0.0

    # -- plain codec --------------------------------------------------------

    def _clear(self) -> None:
        self.ranks = PackedRegisterArray(self.m, REGISTER_WIDTH)

    def _get_rank(self, j: int) -> int:
        return self.ranks.get(j)

    def _set_rank(self, j: int, k: int) -> None:
        self.ranks.set(j, k)

    def effective_values(self) -> np.ndarray:
        """Stored rank of every cell."""
        return self.ranks.values()

    def _set_ranks(self, k: np.ndarray) -> None:
        self.ranks.set_values(k)

    def _clamp(self, k: int, x: int) -> tuple[int, int]:
        return k, x

    def _term(self, k: int, x: int) -> float:
        return math.ldexp(3 - 2 * x, -k)

    def _terms(self, k: np.ndarray, x: np.ndarray | None) -> np.ndarray:
        return cell_terms(k, x)

    def _after_insert(self, k: int, new_k: int) -> None:
        pass

    # -- the rule -----------------------------------------------------------

    def _cells(self) -> tuple[np.ndarray, np.ndarray | None]:
        return self.effective_values(), (self.bits.values() if self.neighbor_bit else None)

    def _store(self, k: np.ndarray, x: np.ndarray | None) -> None:
        self._set_ranks(k)
        if x is not None:
            self.bits.set_values(x)
        self._derive(k, x)

    _load = _store  # a merged (rank, bit) state needs no re-encoding here

    def _union(self, k_a, x_a, k_b, x_b) -> tuple[np.ndarray, np.ndarray | None]:
        if self.neighbor_bit:
            return merge_ehll_cells(k_a, x_a, k_b, x_b)
        return np.maximum(k_a, k_b), None

    def _insert_bg(self, bucket: int, geo: int) -> bool:
        k = self._get_rank(bucket)
        x = self.bits.get(bucket) if self.neighbor_bit else 1
        if geo > k:
            new_k, new_x = self._clamp(geo, int(geo == k + 1 or not self.neighbor_bit))
        elif geo == k - 1 and x == 0:
            new_k, new_x = k, 1
        else:
            return False
        if new_k == k and new_x == x:
            return False  # a saturated cell cannot move further
        old_term = self._term(k, x)
        self._set_rank(bucket, new_k)
        if self.neighbor_bit:
            self.bits.set(bucket, new_x)
        y = self._term(new_k, new_x) - old_term - self._sum_err
        t = self._sum + y
        self._sum_err = (t - self._sum) - y
        self._sum = t
        self._after_insert(k, new_k)
        return True

    def _run_end(self, bucket: np.ndarray, geo: np.ndarray, k: np.ndarray) -> int:
        """Length of the leading order-free run over the ranks ``k``: all, for the plain rule."""
        return len(bucket)

    def _runs(self, bucket: np.ndarray, geo: np.ndarray):
        """Yield ``(lo, hi, cells)``: ``[lo, hi)`` is order-free on ``cells``, then pair ``hi``.

        The caller applies both before resuming; the next run's cells are read from the state left.
        """
        lo, n = 0, len(bucket)
        while lo < n:
            cells = self._cells()
            hi = lo + self._run_end(bucket[lo:], geo[lo:], cells[0])
            yield lo, hi, cells
            lo = hi + 1

    def _insert_bg_batch(self, bucket: np.ndarray, geo: np.ndarray) -> None:
        for lo, hi, cells in self._runs(bucket, geo):
            self._union_batch(bucket[lo:hi], geo[lo:hi], *cells)
            if hi < len(bucket):
                self._insert_bg(int(bucket[hi]), int(geo[hi]))

    def _union_batch(self, bucket: np.ndarray, geo: np.ndarray,
                     k0: np.ndarray, x0: np.ndarray | None) -> None:
        """Union an order-free run of pairs into the current cells ``(k0, x0)``."""
        k = np.zeros(self.m, dtype=np.int64)
        np.maximum.at(k, bucket, geo)
        x = None
        if self.neighbor_bit:
            # a rank one below its cell's max proves the neighbor coupon
            x = np.zeros(self.m, dtype=np.int64)
            x[bucket[geo == k[bucket] - 1]] = 1
            x[k <= 1] = 1
        self._store(*self._union(k0, x0, k, x))

    def _loaded(self) -> bool:
        k, x = self._cells()
        bad = k > self.width + 1
        if x is not None:
            bad |= (k <= 1) & (x == 0)  # ranks 0 and 1 have no neighbor to miss
        if bad.any():
            return False
        self._derive(k, x)
        return True

    def indicator(self) -> float:
        """Harmonic indicator: inverse sum of the per-cell terms."""
        return cell_indicator(*self._cells())

    def change_probability(self) -> float:
        """Probability that inserting a new distinct element changes the sketch."""
        return self._sum / self.m

    def resync_term_sum(self) -> None:
        """Recompute the running change-probability sum exactly from the cells."""
        self._derive(*self._cells())

    def _derive(self, k: np.ndarray, x: np.ndarray | None) -> None:
        """Rebuild the state computed from all cells ``(k, x)``: the exact term sum."""
        self._sum, self._sum_err = float(self._terms(k, x).sum()), 0.0

    def estimate(self, asymptotic: bool = False) -> RawEstimate:
        k, x = self._cells()
        return estimate_cells(self.m, k, x, asymptotic)

    def merge(self, other):
        self._check_mergeable(other)
        out = self.copy()
        out._load(*self._union(*self._cells(), *other._cells()))
        return out


class HllSketch(_RankSketch):
    """Max-rank sketch with 6-bit packed registers."""

    kind = "hll"
    _arrays = ("ranks",)
    insert, insert_batch = _SketchBase.insert, _SketchBase.insert_batch
    merge, estimate = _RankSketch.merge, _RankSketch.estimate


class EhllSketch(_RankSketch):
    """Two-field sketch: 6-bit max-rank registers plus one neighbor bit per cell."""

    kind = "ehll"
    neighbor_bit = True
    _arrays = ("ranks", "bits")
    insert, insert_batch = _SketchBase.insert, _SketchBase.insert_batch
    merge, estimate = _RankSketch.merge, _RankSketch.estimate
