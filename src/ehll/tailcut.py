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

Cells interact only through the base, which only rises, so only a rank
above the ceiling ``base + 15`` at a run's start can clamp, under that
base or any later one.  ``_run_end``, on the cells as the run walker
finds them, ends a plain batch's run at the first such rank, which goes
in alone through the scalar step.  The run goes in with the in-place union
of the plain codec: its cells are the plain union, and since the base of
any insert sequence is the minimum cell, promoting once if the union
left no zero offset ends in the state of the sequential inserts.  The
zero offsets are recounted over the cells when a run of fewer than ``m``
pairs lifted one of them, and after every run of ``m`` pairs or more,
which skips the gather that would tell.

The martingale reads ``q`` between pairs, and a saturated cell's term
moves with the base, so for it order matters at a second kind of
element: the one that lifts the last zero offset.  With ``reads_q`` the
run also ends there and that element goes in alone, promoting the base.
Batch and sequential inserts are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .sketches import _RankSketch, _SketchBase, cell_terms

OFFSET_WIDTH = 4
OFFSET_MAX = (1 << OFFSET_WIDTH) - 1


class _TailCutBase(_RankSketch):
    """Base-plus-offset codec shared by both TailCut sketches."""

    _header = ("base",)
    _width = OFFSET_WIDTH

    def _derive(self, k: np.ndarray, x: np.ndarray | None) -> None:
        super()._derive(k, x)
        self._zero_offsets = int(np.count_nonzero(k == self.base))

    def _union_batch(self, bucket: np.ndarray, geo: np.ndarray) -> None:
        # a run of m pairs or more is recounted without the gather that would tell
        lifts = (len(bucket) >= self.m
                 or ((geo > self.base) & (self._k[bucket] == self.base)).any())
        super()._union_batch(bucket, geo)
        if lifts:
            self._zero_offsets = int(np.count_nonzero(self._k == self.base))
            if not self._zero_offsets:  # inserts leave the base at the minimum cell
                self._promote_base()

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
        # change-probability terms only: the estimator counts a saturated cell at its full term
        terms = super()._terms(k, x)
        sat = k - self.base == OFFSET_MAX
        if x is None:
            terms[sat] = 0.0
        else:
            terms[sat] = cell_terms(k[sat] + x[sat] - 1)  # 2^-k, or 2^-(k-1) with bit 0
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
        offsets = eff - base
        truncated = offsets > OFFSET_MAX
        return base, np.minimum(offsets, OFFSET_MAX, out=offsets), truncated

    def _load(self, k: np.ndarray, x: np.ndarray | None) -> None:
        """Re-encode cells canonically, clamping any rank above the new ceiling.

        Neither caller clamps: a promotion moves no rank, and a merged
        cell is at most one side's base + 15 while the merged minimum is
        at least either base.  So the cells are rebuilt only if a rank
        clamped.
        """
        self.base, offsets, truncated = self._encode_effective(k)
        if truncated.any():
            k = offsets + self.base
            x = None if x is None else np.where(truncated, 0, x)
        super()._load(k, x)

    def _run_end(self, bucket: np.ndarray, geo: np.ndarray, reads_q: bool) -> int:
        # only a rank above the ceiling can clamp, under this base or any later one;
        # such a rank is rare, so one reduction rules it out before any scan
        end = len(bucket)
        if end and geo.max() > self.base + OFFSET_MAX:
            end = int(np.flatnonzero(geo > self.base + OFFSET_MAX)[0])
        # a saturated cell's term moves with the base, which holds until every
        # zero-offset cell has been lifted
        if reads_q and end >= self._zero_offsets:  # each element lifts at most one
            zero = self._k == self.base
            up = np.flatnonzero((geo[:end] > self.base) & zero[bucket[:end]])
            first_lift = np.full(self.m, end)
            np.minimum.at(first_lift, bucket[up], up)
            end = int(first_lift[zero].max())
        return end

    def _loaded(self, parts: list[np.ndarray]) -> bool:
        # the base is the minimum cell, so at most the largest rank: refused
        # from the header byte, before it is added to any cell
        if self.base > self.width + 1:
            return False
        # every update path promotes or re-encodes, leaving a zero offset
        return super()._loaded(parts) and self._zero_offsets > 0


class HllTcSketch(_TailCutBase):
    """Max-rank sketch stored as base counter plus 4-bit offsets."""

    kind = "hll-tc"
    insert, insert_batch = _SketchBase.insert, _SketchBase.insert_batch
    merge, estimate = _RankSketch.merge, _RankSketch.estimate
    _insert_bg, _insert_bg_batch = _RankSketch._insert_bg, _RankSketch._insert_bg_batch


class EhllTcSketch(_TailCutBase):
    """Two-field sketch with TailCut offsets plus the neighbor-bit array."""

    kind = "ehll-tc"
    neighbor_bit = True
    insert, insert_batch = _SketchBase.insert, _SketchBase.insert_batch
    merge, estimate = _RankSketch.merge, _RankSketch.estimate
    _insert_bg, _insert_bg_batch = _RankSketch._insert_bg, _RankSketch._insert_bg_batch
