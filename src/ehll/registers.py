"""Bit-packed register storage.

Registers of 1..8 bits are packed contiguously, least-significant-bit
first within each byte, and may straddle byte boundaries.  True packing
matters: the memory accounting of the sketches (6 bits per HyperLogLog
register, 7 per ExtendedHyperLogLog cell, 4-bit TailCut offsets) counts
their EHS1 payload, real only if each buffer is exactly
``ceil(m * width / 8)`` bytes.

:class:`BitArray`'s scalar get/set serve the bitmap insert path.
``PackedRegisterArray.get``/``set`` at widths above 1 have no caller in
the package: they stay for ``tests/test_registers.py`` and the
benchmark tracer until those move off them.  ``values()`` /
``set_values()`` unpack the whole array and pack it in place.  The PCSA
bitmap lives packed; a rank sketch's state is its int8 cells, which it
packs with ``set_values()`` only to build its EHS1 payload (a serialize,
an ``==``) and decodes with ``values()`` only on a file load.
Eight registers of ``width`` bits fill exactly ``width`` bytes, so the
whole-array codec treats each group of eight as one little-endian 64-bit
word, register ``i`` of the group at bit ``i * width``: the same bytes as
the scalar layout.  ``values()`` reads the words through one unaligned
view, ``width`` bytes apart, over a padded copy of the buffer, and
spreads each word's eight fields to its eight bytes in three
mask-and-shift steps (:func:`_spread_steps`): the words themselves become
the one byte per register it returns, as uint8, which holds every
register up to 8 bits and which a rank sketch views as its int8 cells
at no cost.  ``set_values()`` copies the registers into bytes, one word
per group, and runs the same steps in reverse to gather each word's
fields into its low ``width`` bytes.  Neither stages a wider array than
one byte per register.

:class:`BitArray` (PCSA bitmaps, neighbor bits) is the width-1 array with a
byte-wise codec over the same bytes, ``np.unpackbits``/``np.packbits``,
4-6x faster there, plus the bitmap operations ``set_ones`` and ``or_with``,
which write only the bytes they change.

Arrays are single-writer: concurrent readers are safe only while no
writer is active, and instances can be handed between threads.
"""

from __future__ import annotations

import numpy as np

_U8 = np.uint8
_WORD = np.dtype("<u8")  # one group of eight registers


def _spread_steps(width: int) -> list[tuple[np.uint64, np.uint64, np.uint64]]:
    """``(keep, move, by)`` masks that spread eight ``width``-bit fields to eight bytes.

    Step ``n`` (4, 2, then 1) splits every unit of ``2n`` fields: its low
    ``n`` fields stay (``keep``) and its high ``n`` fields (``move``) go
    up ``by`` bits, to the next ``16n``-bit boundary.  Run in reverse
    with right shifts, the steps gather the bytes back into fields.
    """
    steps = []
    for n in (4, 2, 1):
        field = (1 << n * width) - 1
        keep = sum(field << 16 * n * unit for unit in range(4 // n))
        steps.append((_WORD.type(keep), _WORD.type(keep << n * width), _WORD.type(n * (8 - width))))
    return steps


_SPREAD = {width: _spread_steps(width) for width in range(1, 8)}


class PackedRegisterArray:
    """``m`` unsigned registers of ``width`` bits each, bit-packed."""

    __slots__ = ("m", "width", "buffer")

    def __init__(self, m: int, width: int):
        if m < 1:
            raise ValueError("register count must be >= 1")
        if not 1 <= width <= 8:
            raise ValueError("register width must be in [1, 8]")
        self.m = m
        self.width = width
        self.buffer = np.zeros((m * width + 7) // 8, dtype=_U8)

    def get(self, j: int) -> int:
        if not 0 <= j < self.m:
            raise IndexError(f"register index {j} out of range [0, {self.m})")
        bit = j * self.width
        byte, shift = bit >> 3, bit & 7
        word = int(self.buffer[byte])
        if shift + self.width > 8:
            word |= int(self.buffer[byte + 1]) << 8
        return (word >> shift) & ((1 << self.width) - 1)

    def set(self, j: int, v: int) -> None:
        if not 0 <= j < self.m:
            raise IndexError(f"register index {j} out of range [0, {self.m})")
        if not 0 <= v < (1 << self.width):
            raise ValueError(f"value {v} does not fit in {self.width} bits")
        bit = j * self.width
        byte, shift = bit >> 3, bit & 7
        mask = ((1 << self.width) - 1) << shift
        word = int(self.buffer[byte])
        if shift + self.width > 8:
            word |= int(self.buffer[byte + 1]) << 8
            word = (word & ~mask) | (v << shift)
            self.buffer[byte] = word & 0xFF
            self.buffer[byte + 1] = word >> 8
        else:
            self.buffer[byte] = (word & ~mask & 0xFF) | (v << shift)

    def _groups(self) -> int:
        """Number of eight-register groups, the last one maybe partial."""
        return -(-self.m // 8)

    def values(self) -> np.ndarray:
        """Unpack all registers into a uint8 array, one byte per register."""
        groups, w = self._groups(), self.width
        # a group's word reads 8 bytes from its first: pad the last group's
        padded = np.zeros(groups * w + 8 - w, dtype=_U8)
        padded[:len(self.buffer)] = self.buffer
        words = np.ndarray((groups,), dtype=_WORD, buffer=padded, strides=(w,)).copy()
        if w < 8:  # spread each word's eight fields to its eight bytes
            moved = np.empty_like(words)
            for keep, move, by in _SPREAD[w]:
                np.bitwise_and(words, move, out=moved)
                moved <<= by
                words &= keep
                words |= moved
        return words.view(_U8)[:self.m]

    def _checked(self, vals: np.ndarray) -> np.ndarray:
        """``vals`` as an array, if they are ``m`` integers that fit in ``width`` bits."""
        vals = np.asarray(vals)
        if vals.shape != (self.m,):
            raise ValueError(f"expected {self.m} values, got shape {vals.shape}")
        if vals.min() < 0 or int(vals.max()) >> self.width:
            raise ValueError(f"values do not fit in {self.width} bits")
        return vals

    def set_values(self, vals: np.ndarray) -> None:
        """Pack an int array of register values into the buffer, in place."""
        groups, w = self._groups(), self.width
        lanes = np.zeros(groups * 8, dtype=_U8)  # zeros fill the partial last group
        lanes[:self.m] = self._checked(vals)
        words = lanes.view(_WORD)
        if w < 8:  # gather each word's eight bytes into its low ``w`` bytes
            moved = np.empty_like(words)
            for keep, move, by in reversed(_SPREAD[w]):
                np.right_shift(words, by, out=moved)
                moved &= move
                words &= keep
                words |= moved
        packed = lanes.reshape(groups, 8)[:, :w]  # each word's low bytes
        if self.m % 8:  # the partial last group fills only part of its bytes
            packed = packed.reshape(-1)[:len(self.buffer)]
        self.buffer.reshape(packed.shape)[:] = packed

    def copy(self) -> "PackedRegisterArray":
        dup = type(self).__new__(type(self))
        dup.m, dup.width = self.m, self.width
        dup.buffer = self.buffer.copy()
        return dup

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.m}, width={self.width})"


class BitArray(PackedRegisterArray):
    """``m`` single-bit registers with a byte-wise codec."""

    __slots__ = ()

    def __init__(self, m: int):
        super().__init__(m, 1)

    def get(self, j: int) -> int:
        if not 0 <= j < self.m:
            raise IndexError(f"bit index {j} out of range [0, {self.m})")
        return (int(self.buffer[j >> 3]) >> (j & 7)) & 1

    def set(self, j: int, v: int) -> None:
        if not 0 <= j < self.m:
            raise IndexError(f"bit index {j} out of range [0, {self.m})")
        if v not in (0, 1):
            raise ValueError("bit value must be 0 or 1")
        if v:
            self.buffer[j >> 3] |= _U8(1 << (j & 7))
        else:
            self.buffer[j >> 3] &= _U8(~(1 << (j & 7)) & 0xFF)

    def values(self) -> np.ndarray:
        return np.unpackbits(self.buffer, count=self.m, bitorder="little")

    def set_values(self, vals: np.ndarray) -> None:
        self.buffer[:] = np.packbits(self._checked(vals), bitorder="little")

    def set_ones(self, idx: np.ndarray) -> None:
        """Set the bits at ``idx`` (repeats allowed) to 1, ORing into their bytes in place."""
        idx = np.asarray(idx)
        if len(idx) and not (0 <= idx.min() and idx.max() < self.m):
            raise IndexError(f"bit indices out of range [0, {self.m})")
        bits = np.left_shift(_U8(1), idx.astype(_U8) & _U8(7))  # uint8, not index-sized
        np.bitwise_or.at(self.buffer, idx >> 3, bits)

    def or_with(self, other: "BitArray") -> None:
        """Word-wise OR merge (used by the bitmap sketch union)."""
        if self.m != other.m:
            raise ValueError("bit array size mismatch")
        self.buffer |= other.buffer
