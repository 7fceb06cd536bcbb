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

Each rank sketch keeps a compensated running sum of its per-cell
change-probability terms so ``change_probability()`` is O(1) between
writes.  A batch write costs its batch while it is shorter than ``m``:
it touches only the cells its pairs hit.  A batch of ``m`` pairs or more
also makes a few passes over the whole cell array, which then cost less
than per-pair masks.  A batch or full write leaves the sum to be
computed from the cells when it is first read.  A rank sketch's state
is its cells, arrays of the one cell dtype :data:`CELL` (int8, a byte
per rank and per neighbor bit); the packed registers the memory
accounting counts exist only as the EHS1 payload, built by
``_payload()`` when a file is written (see :class:`_RankSketch`).

Sketches are single-writer.  Only ``change_probability`` and the inserts
(the scalar step, the martingale block) store the term sum;
``change_probability`` stores it only where a write left it unset, and
every reader computes the same value.  ``estimate`` and ``indicator``
read the cells alone, so they, ``serialize``, ``==`` and ``merge``
write nothing.  So reading or merging one sketch from several threads
is fine while no thread inserts into it.
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
    check_registers,
    geo_width,
    hash64,
    hash64_tokens,
    hash64_u64_array,
    split_hash,
    split_hash_array,
)
from .registers import BitArray, PackedRegisterArray

REGISTER_WIDTH = 6  # enough for ranks up to 61 at b >= 4
#: The dtype of every rank sketch's cells.  It holds every rank (at most
#: 65, at m = 1) and every TailCut base plus offset, and, being signed,
#: no difference of two ranks or ``rank - 1`` wraps in it.
CELL = np.int8

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
    return check_registers(m)


# ---------------------------------------------------------------------------
# the cell rule on explicit arrays

# ``2^-k (3 - 2x)`` at ``2k + x``, for every rank a 6-bit register holds: each a
# power of two or three times one, so a lookup is the product ``exp2(-k) * (3 - 2x)``
_TERMS = np.array([math.ldexp(3 - 2 * x, -k)
                   for k in range(1 << REGISTER_WIDTH) for x in (0, 1)])


def cell_terms(k: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
    """Per-cell change-probability terms ``2^-k (3 - 2x)``; ``2^-k`` without bits.

    Integer cells of any width index an exact table of the terms, so a
    rank past the largest a register holds raises IndexError.  The index
    is widened before it is doubled, so a narrow rank cannot wrap into
    the table, and a gather with intp indices keeps numpy's fast path.
    """
    idx = np.array(k, dtype=np.intp)
    if x is None:
        return _TERMS[1::2][idx]
    idx <<= 1
    idx += x
    return _TERMS[idx]


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


def _raw_estimates(m: int, k: np.ndarray, x: np.ndarray | None, asymptotic: bool):
    """Raw estimate of each row of ``m`` cells along the last axis (a scalar for one row).

    It is the :func:`bias_constant` times ``m^2`` over the sum of the
    row's :func:`cell_terms`.  Each row of a C-contiguous stack is summed
    by the same pairwise loop as one row alone, so a row's estimate has
    the same bits in a stack as alone.
    """
    totals = np.add.reduce(cell_terms(k, x), axis=-1)
    return bias_constant(m, x is not None, asymptotic) * m * m * (1.0 / totals)


def _small_range(m: int, k: np.ndarray, raw: float) -> RawEstimate:
    """The estimate of one row of ranks ``k`` whose raw estimate is ``raw``.

    Below ``LC_THRESHOLD * m`` a row with an empty cell takes linear
    counting of its empty cells; any other row keeps ``raw``.
    """
    if raw < LC_THRESHOLD * m:
        v = int(np.count_nonzero(np.asarray(k) == 0))
        if v > 0:
            return RawEstimate(analysis.linear_counting(m, v), "linear-counting")
    return RawEstimate(raw, "raw")


def estimate_cells(m: int, k: np.ndarray, x: np.ndarray | None = None,
                   asymptotic: bool = False) -> RawEstimate:
    """Bias-corrected estimate of ``m`` explicit cells, linear counting below 2.5 m.

    Max-rank cells (``x`` is None) and two-field cells take their
    :func:`bias_constant`; the raw estimate is that constant times ``m^2``
    over the sum of the cells' :func:`cell_terms`.  Every rank sketch's
    ``estimate`` is this function of its cells.
    """
    return _small_range(m, k, float(_raw_estimates(m, k, x, asymptotic)))


def estimate_rows(m: int, k: np.ndarray, x: np.ndarray | None = None,
                  asymptotic: bool = False) -> np.ndarray:
    """:func:`estimate_cells` of each row of a stack of cells, in one pass.

    ``k`` (and ``x``) hold one row of ``m`` cells per estimate, and row
    ``i`` of the result has the bits of ``estimate_cells(m, k[i], x[i])``:
    the terms of the whole stack are summed row by row in one reduction,
    and only the rows whose raw estimate is below ``LC_THRESHOLD * m``
    are read again, for linear counting.
    """
    k = np.asarray(k)
    est = _raw_estimates(m, k, x, asymptotic)
    for i in np.flatnonzero(est < LC_THRESHOLD * m).tolist():  # the rows that may switch
        est[i] = _small_range(m, k[i], float(est[i])).value
    return est


def estimate_bitmap(bitmap: np.ndarray, m: int, lanes: int) -> RawEstimate:
    """Bitmap (PCSA) estimate from ``m`` rows of ``lanes`` bits, packed LSB first.

    A row's first zero is the count of its trailing ones, which
    ``v & ~(v + 1)`` keeps of a row ``v`` (up to 64 bits: one uint64).
    Eight rows fill ``lanes`` bytes, so row ``i`` of every group of eight
    is read through one unaligned little-endian word view ``lanes`` bytes
    apart, shifted down by the row's bit offset in its first byte; where
    that leaves fewer than ``lanes`` bits (``b <= 7``), the byte after
    the word supplies the rest.  Rows past ``m`` read as zeros, which
    have no trailing ones.
    """
    groups = -(-m // 8)
    padded = np.zeros(groups * lanes + 9, dtype=np.uint8)  # a row's word and spill byte
    padded[:len(bitmap)] = bitmap
    rows = np.empty((8, groups), dtype=np.uint64)
    for i, row in enumerate(rows):
        byte, shift = divmod(i * lanes, 8)
        words = np.ndarray((groups,), dtype="<u8", buffer=padded, offset=byte, strides=(lanes,))
        np.right_shift(words, np.uint64(shift), out=row)
        if shift + lanes > 64:
            spill = np.ndarray((groups,), dtype=np.uint8, buffer=padded, offset=byte + 8,
                               strides=(lanes,))
            row |= spill.astype(np.uint64) << np.uint64(64 - shift)
    rows &= np.uint64((1 << lanes) - 1)
    ones = rows + np.uint64(1)
    np.invert(ones, out=ones)
    ones &= rows
    first_zeros = int(np.bitwise_count(ones).sum())
    return RawEstimate(m / analysis.PCSA_PHI * 2.0 ** (first_zeros / m), "raw")


def merge_ehll_cells(
    k_a: np.ndarray, x_a: np.ndarray, k_b: np.ndarray, x_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cell-wise union of two (rank, bit) states.

    Because a cell state is a pure function of the set of ranks seen,
    the union state follows from which side holds the larger rank:

    * equal ranks: either bit proves the neighbor coupon, so OR them;
    * ranks differ by 1: the smaller side's max *is* the neighbor, bit=1;
    * gap of 2 or more: the smaller side says nothing about ``k - 1``.

    Both sides must be cells that inserts can produce, where a cell of
    rank 0 or 1 holds bit 1 (``deserialize`` refuses any other): so an
    empty side ``(0, 1)`` is the identity, even one rank below a side of
    rank 1, with no test of which side is empty.
    """
    k = np.maximum(k_a, k_b)
    x = x_a & (k_a >= k_b)  # a side holding the max keeps its bit
    x |= x_b & (k_b >= k_a)
    # the smaller side's max is the neighbor; ``+ 1`` can wrap only at the
    # dtype's largest value, where no max is one above it
    x |= np.minimum(k_a, k_b) + 1 == k
    return k, x


# ---------------------------------------------------------------------------
# sketch classes

class _SketchBase:
    """Shared plumbing: hashing, merge guards, copy, equality, memory accounting.

    ``_header`` names the one-byte fields the EHS1 header carries.  Each
    kind supplies the EHS1 payload codec: ``_layout()``, the
    ``(registers, width)`` of each payload array in payload order;
    ``_payload()``, the bytes of those arrays; and ``_loaded(parts)``,
    which takes the state from such bytes.
    """

    kind: str = ""
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

    @classmethod
    def _unloaded(cls, b: int, seed: int):
        """A sketch of precision ``b`` whose state ``_loaded(parts)`` is about to supply."""
        return cls(b=b, seed=seed)

    def memory_bits(self) -> int:
        """EHS1 payload bits, excluding the header: arithmetic, nothing is packed."""
        return sum(n * width for n, width in self._layout())

    def copy(self):
        dup = copy.copy(self)
        for name, value in vars(self).items():  # the state arrays
            if isinstance(value, (np.ndarray, PackedRegisterArray)):
                setattr(dup, name, value.copy())
        return dup

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and all(getattr(self, name) == getattr(other, name)
                        for name in ("m", "seed", *self._header))
                and all(map(np.array_equal, self._payload(), other._payload())))


class PcsaSketch(_SketchBase):
    """Stochastic-averaged bitmap sketch: one rank-occupancy bitmap per bucket."""

    kind = "pcsa"

    def __init__(self, b: int | None = None, m: int | None = None, seed: int = 0):
        super().__init__(b, m, seed)
        self.L = self.width + 1
        self.bitmaps = BitArray(self.m * self.L)

    def _layout(self) -> tuple[tuple[int, int], ...]:
        return ((self.m * self.L, 1),)

    def _payload(self) -> list[np.ndarray]:
        return [self.bitmaps.buffer]  # the working state is already packed

    def _loaded(self, parts: list[np.ndarray]) -> bool:
        self.bitmaps.buffer = parts[0].copy()
        return True

    # each kind owns its entry points, so instrumentation can wrap them per kind
    insert, insert_batch = _SketchBase.insert, _SketchBase.insert_batch

    def _insert_bg(self, bucket: int, geo: int) -> bool:
        idx = bucket * self.L + (geo - 1)
        if self.bitmaps.get(idx):
            return False
        self.bitmaps.set(idx, 1)
        return True

    def _insert_bg_batch(self, bucket: np.ndarray, geo: np.ndarray) -> None:
        if len(bucket):
            self.bitmaps.set_ones(bucket * self.L + (geo - 1))

    def estimate(self, asymptotic: bool = False) -> RawEstimate:
        """Bitmap estimate; ``asymptotic`` is ignored (``PCSA_PHI`` has no finite-m form)."""
        return estimate_bitmap(self.bitmaps.buffer, self.m, self.L)

    def _snapshot(self) -> tuple[np.ndarray, ...]:
        return (self.bitmaps.buffer,)

    def _estimate_snapshots(self, bitmaps: np.ndarray, asymptotic: bool = False) -> np.ndarray:
        return np.array([estimate_bitmap(row, self.m, self.L).value for row in bitmaps])

    def merge(self, other: "PcsaSketch") -> "PcsaSketch":
        self._check_mergeable(other)
        out = self.copy()
        out.bitmaps.or_with(other.bitmaps)
        return out


class _RankSketch(_SketchBase):
    """The cell rule over a rank codec; this class is the plain 6-bit codec.

    The cells are the sketch's state: the ranks ``_k`` and, with neighbor
    bits, ``_x``, :data:`CELL` (int8) arrays of ``m`` that no other
    sketch shares, on every path: a batch casts its ranks to that dtype
    before the scatter, and ``_derive`` narrows what a full write hands
    it.  The scalar step and the batch union (``_union_batch``) write the
    cells in place: the scalar step and a run of fewer than ``m`` pairs
    touch only the cells they hit, and a longer run sets the neighbor
    bits in passes over the whole array.  A full write (merge, TailCut promotion or
    re-encode, file load) replaces both in ``_derive``.  The packed
    registers exist only in the EHS1 payload: ``_payload()`` packs the
    stored ranks ``k - base`` into ``_width``-bit registers and the bits
    into a :class:`BitArray`, and ``_loaded(parts)`` decodes them back.

    A codec supplies ``_width`` (bits per stored rank) and ``base`` (what
    a stored rank counts from) and may refine ``_clamp``,
    ``_term``/``_terms``, ``_after_insert``, ``_union_batch``,
    ``_derive``, ``_load``, ``_run_end`` and ``_loaded``.

    The estimator reads only the cells: ``estimate`` is
    :func:`estimate_cells` of them and ``indicator`` is
    :func:`cell_indicator`.  The change-probability term sum ``_sum``,
    over the codec's ``_terms``, serves ``change_probability``, the
    scalar step and the martingale block.  It moves incrementally in the
    scalar step; a batch union or a full write leaves it unset (``_sum``
    is None) and ``_term_sum()`` computes it from the cells when it is
    next read.
    """

    neighbor_bit = False
    base = 0  # the plain codec stores each rank as it is
    _width = REGISTER_WIDTH

    def __init__(self, b: int | None = None, m: int | None = None, seed: int = 0):
        super().__init__(b, m, seed)
        self._derive(np.zeros(self.m, dtype=CELL),
                     np.ones(self.m, dtype=CELL) if self.neighbor_bit else None)

    @classmethod
    def _unloaded(cls, b: int, seed: int):
        sketch = cls.__new__(cls)
        _SketchBase.__init__(sketch, b=b, seed=seed)  # no empty cells: the payload has them
        return sketch

    def effective_values(self) -> np.ndarray:
        """Stored rank of every cell (a copy, of the cell dtype)."""
        return self._k.copy()

    def _layout(self) -> tuple[tuple[int, int], ...]:
        return ((self.m, self._width),) + (((self.m, 1),) if self.neighbor_bit else ())

    def _codecs(self) -> list[PackedRegisterArray]:
        """Empty packed arrays in payload order: the stored ranks, then the bits."""
        return [BitArray(n) if width == 1 else PackedRegisterArray(n, width)
                for n, width in self._layout()]

    def _payload(self) -> list[np.ndarray]:
        arrays = self._codecs()
        stored = self._k - self.base if self.base else self._k  # set_values only reads it
        for array, cells in zip(arrays, (stored, self._x)):
            array.set_values(cells)  # packs in place: the buffer is the payload part
        return [array.buffer for array in arrays]

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
        return self._k, self._x

    def _term_sum(self) -> float:
        """The running term sum, computed exactly from the cells if a write left it unset."""
        if self._sum is None:
            self._sum = float(self._terms(self._k, self._x).sum())
        return self._sum

    def _load(self, k: np.ndarray, x: np.ndarray | None) -> None:
        """Make a full write's ``(k, x)`` the cells: no re-encoding here."""
        self._derive(k, x)

    def _insert_bg(self, bucket: int, geo: int) -> bool:
        k = self._k.item(bucket)
        x = self._x.item(bucket) if self.neighbor_bit else 1
        if geo > k:
            new_k, new_x = self._clamp(geo, int(geo == k + 1 or not self.neighbor_bit))
        elif geo == k - 1 and x == 0:
            new_k, new_x = k, 1
        else:
            return False
        if new_k == k and new_x == x:
            return False  # a saturated cell cannot move further
        total = self._term_sum()  # of the cells before this step
        old_term = self._term(k, x)
        self._k[bucket] = new_k
        if self.neighbor_bit:
            self._x[bucket] = new_x
        y = self._term(new_k, new_x) - old_term - self._sum_err
        t = total + y
        self._sum_err = (t - total) - y
        self._sum = t
        self._after_insert(k, new_k)
        return True

    def _run_end(self, bucket: np.ndarray, geo: np.ndarray, reads_q: bool) -> int:
        """Length of the leading order-free run on the cells: all, for the plain rule.

        0 means the first pair goes in alone.  ``reads_q`` says the caller
        reads the change probability between pairs, so a run must also
        leave every term it does not hit unchanged; here a term depends
        on its own cell only.
        """
        return len(bucket)

    def _runs(self, bucket: np.ndarray, geo: np.ndarray, reads_q: bool = False):
        """Yield ``(lo, hi)``: ``[lo, hi)`` is order-free on the cells, or empty.

        An empty run means pair ``lo`` goes in alone.  The caller applies
        it before resuming, and the next run is found in the state left: a
        pair that a run's own writes made order-free (a TailCut rank that
        a promotion brought under the ceiling) joins it.  ``reads_q`` is
        :meth:`_run_end`'s.
        """
        lo, n = 0, len(bucket)
        while lo < n:
            hi = lo + self._run_end(bucket[lo:], geo[lo:], reads_q)
            yield lo, hi
            lo = max(hi, lo + 1)

    def _insert_bg_batch(self, bucket: np.ndarray, geo: np.ndarray) -> None:
        for lo, hi in self._runs(bucket, geo):
            if hi == lo:
                self._insert_bg(int(bucket[lo]), int(geo[lo]))
            else:
                self._union_batch(bucket[lo:hi], geo[lo:hi])

    def _union_batch(self, bucket: np.ndarray, geo: np.ndarray) -> None:
        """Union an order-free run of pairs into the cells, in place.

        The result is :func:`merge_ehll_cells` of the cells and the run's
        own cells.  A run of fewer than ``m`` pairs touches only the cells
        it hits, through gathers and scatters of its own length; a longer
        run sets the neighbor bits with a few passes over the whole array,
        cheaper there than masks over its pairs.  Both rest on the rule's
        own invariant that a cell of rank 0 or 1 holds bit 1.
        """
        k, x = self._k, self._x
        geo = geo.astype(CELL, copy=False)  # ranks of the cells' dtype keep the scatter's fast path
        if x is None:
            np.maximum.at(k, bucket, geo)
        elif len(bucket) >= self.m:
            old = k.copy()
            np.maximum.at(k, bucket, geo)
            # a grown max holds its neighbor if it grew by one: from a nonempty
            # cell the old max is the neighbor, and rank 1 has none to miss
            np.copyto(x, k == old + 1, where=k > old)
            x[bucket[geo == k[bucket] - 1]] = 1  # a rank one below the max
        else:
            old = k[bucket]
            np.maximum.at(k, bucket, geo)
            new = k[bucket]
            # every pair of a cell gathers the same old and new ranks, so each
            # writes the cell the same value, and the hits are ORed in after
            x[bucket] = np.where(new > old, new == old + 1, x[bucket])
            np.maximum.at(x, bucket, (geo == new - 1).view(CELL))
        self._sum, self._sum_err = None, 0.0

    def _loaded(self, parts: list[np.ndarray]) -> bool:
        arrays = self._codecs()
        for array, part in zip(arrays, parts):
            array.buffer = part
        k = arrays[0].values().view(CELL)  # a stored rank is at most 15 or 63
        if self.base:
            k += self.base
        x = arrays[1].values().view(CELL) if self.neighbor_bit else None
        self._derive(k, x)
        # each check reads the cells only if the registers can hold what it refuses
        if self.base + (1 << self._width) - 1 > self.width + 1 and k.max() > self.width + 1:
            return False
        # ranks 0 and 1 have no neighbor to miss
        return x is None or self.base > 1 or not ((k <= 1) & (x == 0)).any()

    def indicator(self) -> float:
        """Harmonic indicator: inverse sum of the per-cell terms."""
        return cell_indicator(self._k, self._x)

    def change_probability(self) -> float:
        """Probability that inserting a new distinct element changes the sketch."""
        return self._term_sum() / self.m

    def resync_term_sum(self) -> None:
        """Recompute the term sum exactly from the cells."""
        self._derive(self._k, self._x)

    def _derive(self, k: np.ndarray, x: np.ndarray | None) -> None:
        """Make ``(k, x)`` the cells and unset what is computed from them: the term sum.

        The cells take the one cell dtype, whatever ``(k, x)`` came in.
        """
        self._k = k.astype(CELL, copy=False)
        self._x = None if x is None else x.astype(CELL, copy=False)
        self._sum, self._sum_err = None, 0.0

    def estimate(self, asymptotic: bool = False) -> RawEstimate:
        return estimate_cells(self.m, self._k, self._x, asymptotic)

    def _snapshot(self) -> tuple[np.ndarray, ...]:
        """The arrays ``estimate`` reads, live: a caller that keeps them copies them."""
        return (self._k, self._x) if self.neighbor_bit else (self._k,)

    def _estimate_snapshots(self, k: np.ndarray, x: np.ndarray | None = None,
                            asymptotic: bool = False) -> np.ndarray:
        """``estimate().value`` of each row of stacked ``_snapshot()`` arrays, to the bit."""
        return estimate_rows(self.m, k, x, asymptotic)

    def merge(self, other):
        self._check_mergeable(other)
        out = copy.copy(self)  # _load replaces the cells, so none are copied
        if self.neighbor_bit:
            out._load(*merge_ehll_cells(self._k, self._x, other._k, other._x))
        else:
            out._load(np.maximum(self._k, other._k), None)
        return out


class HllSketch(_RankSketch):
    """Max-rank sketch: one rank per cell, a 6-bit register in the EHS1 payload."""

    kind = "hll"
    insert, insert_batch = _SketchBase.insert, _SketchBase.insert_batch
    merge, estimate = _RankSketch.merge, _RankSketch.estimate


class EhllSketch(_RankSketch):
    """Two-field sketch: 6-bit max-rank registers plus one neighbor bit per cell."""

    kind = "ehll"
    neighbor_bit = True
    insert, insert_batch = _SketchBase.insert, _SketchBase.insert_batch
    merge, estimate = _RankSketch.merge, _RankSketch.estimate
