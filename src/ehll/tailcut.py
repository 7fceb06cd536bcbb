"""TailCut variants: a shared base counter plus 4-bit per-cell offsets.

TailCut is a storage codec under the cell rule of :mod:`ehll.sketches`:
only how a rank is stored differs.  The stored effective value of cell
``j`` is ``base + offset[j]``; an offset of 15 means "saturated at
base + 15" and the cell is treated as that ceiling everywhere (estimates
and change probabilities are deterministic functions of the stored
state, never of lost history).  After any insert that lifts the last
zero offset, the common minimum is promoted into the base and all
offsets drop by it, which never changes an effective value.

Saturation makes these sketches order-dependent and their merge only
approximate: an early huge rank clamps against a still-small base and
the lost excess cannot be recovered.  Both facts are documented
behavior, not bugs, and are exercised by the tests.

The two-field variant composes the same offset scheme with the neighbor
bit.  When a clamp actually truncates a cell's rank, the neighbor bit is
stored as 0: the bit would describe the rank just below the *stored*
ceiling, and no such evidence was retained.

Cells interact only through the base, and the base moves only when the
last zero offset lifts; under a fixed base only a rank above the ceiling
``base + 15`` can clamp.  So order matters at two kinds of element, and
``_run_end``, given the cells the run walker read, ends a run at the
first of them: the element that lifts the last zero offset, or a rank
above the ceiling.  The run goes in with the vectorized union, whose
write ends in ``_derive``, the one recount of the zero offsets; that
element goes in alone.  Batch and sequential inserts are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .registers import PackedRegisterArray
from .sketches import _RankSketch, _SketchBase

OFFSET_WIDTH = 4
OFFSET_MAX = (1 << OFFSET_WIDTH) - 1


class _TailCutBase(_RankSketch):
    """Base-plus-offset codec shared by both TailCut sketches."""

    _header = ("base",)

    def _clear(self) -> None:
        self.base = 0
        self.offsets = PackedRegisterArray(self.m, OFFSET_WIDTH)
        self._zero_offsets = self.m

    def _get_rank(self, j: int) -> int:
        return self.base + self.offsets.get(j)

    def _set_rank(self, j: int, k: int) -> None:
        self.offsets.set(j, k - self.base)

    def effective_values(self) -> np.ndarray:
        """Stored effective register values ``base + offset``."""
        return self.offsets.values() + self.base

    def _set_ranks(self, k: np.ndarray) -> None:
        self.offsets.set_values(k - self.base)

    def _derive(self, k: np.ndarray, x: np.ndarray | None) -> None:
        super()._derive(k, x)
        self._zero_offsets = int(np.count_nonzero(k == self.base))

    def _clamp(self, k: int, x: int) -> tuple[int, int]:
        if k - self.base > OFFSET_MAX:
            # truncated: no evidence about the rank below the ceiling retained
            return self.base + OFFSET_MAX, 0 if self.neighbor_bit else 1
        return k, x

    def _term(self, k: int, x: int) -> float:
        """Stored-state change-probability term for one cell."""
        if k - self.base < OFFSET_MAX:
            return math.ldexp(3 - 2 * x, -k)
        if not self.neighbor_bit:
            return 0.0  # a saturated register never changes again
        # saturated: a larger rank flips the bit to 0 (term 2^-k) and a
        # rank at k-1 only matters when the bit is 0 (term 2^-(k-1))
        return math.ldexp(1.0, -k) if x == 1 else math.ldexp(1.0, -(k - 1))

    def _terms(self, k: np.ndarray, x: np.ndarray | None) -> np.ndarray:
        terms = super()._terms(k, x)
        sat = k - self.base == OFFSET_MAX
        if x is None:
            terms[sat] = 0.0
        else:
            ks = k[sat].astype(float)
            terms[sat] = np.where(x[sat] == 1, np.exp2(-ks), np.exp2(-(ks - 1)))
        return terms

    def _after_insert(self, k: int, new_k: int) -> None:
        if k == self.base and new_k > k:
            self._zero_offsets -= 1
            if self._zero_offsets == 0:
                self._promote_base()

    def _promote_base(self) -> None:
        """Shift the common minimum offset into the base (no effective change)."""
        self._load(*self._cells())  # the canonical encoding has base = min

    def _encode_effective(self, eff: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        """Canonical (base, offsets, truncated-mask) encoding of effective values."""
        base = int(eff.min())
        raw = eff - base
        truncated = raw > OFFSET_MAX
        return base, np.minimum(raw, OFFSET_MAX), truncated

    def _load(self, k: np.ndarray, x: np.ndarray | None) -> None:
        """Re-encode cells canonically: exact for a promotion, best effort for a merge."""
        self.base, offs, truncated = self._encode_effective(k)
        super()._load(offs + self.base, None if x is None else np.where(truncated, 0, x))

    def _run_end(self, bucket: np.ndarray, geo: np.ndarray, k: np.ndarray) -> int:
        # under this base only a rank above the ceiling can clamp
        above = np.flatnonzero(geo > self.base + OFFSET_MAX)
        end = int(above[0]) if len(above) else len(bucket)
        # the base holds until every zero-offset cell has been lifted
        if end >= self._zero_offsets:  # each element lifts at most one
            zero = k == self.base
            up = np.flatnonzero((geo[:end] > self.base) & zero[bucket[:end]])
            first_lift = np.full(self.m, end)
            np.minimum.at(first_lift, bucket[up], up)
            end = int(first_lift[zero].max())
        return end

    def _loaded(self) -> bool:
        # every update path promotes or re-encodes, leaving a zero offset
        return super()._loaded() and self._zero_offsets > 0


class HllTcSketch(_TailCutBase):
    """Max-rank sketch stored as base counter plus 4-bit offsets."""

    kind = "hll-tc"
    _arrays = ("offsets",)
    insert, insert_batch = _SketchBase.insert, _SketchBase.insert_batch
    merge, estimate = _RankSketch.merge, _RankSketch.estimate
    _insert_bg, _insert_bg_batch = _RankSketch._insert_bg, _RankSketch._insert_bg_batch


class EhllTcSketch(_TailCutBase):
    """Two-field sketch with TailCut offsets plus the neighbor-bit array."""

    kind = "ehll-tc"
    neighbor_bit = True
    _arrays = ("offsets", "bits")
    insert, insert_batch = _SketchBase.insert, _SketchBase.insert_batch
    merge, estimate = _RankSketch.merge, _RankSketch.estimate
    _insert_bg, _insert_bg_batch = _RankSketch._insert_bg, _RankSketch._insert_bg_batch
