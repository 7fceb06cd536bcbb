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
bitmap lives packed; a rank sketch's state is its int64 cells, which it
packs with ``set_values()`` only to build its EHS1 payload (a serialize,
an ``==``) and decodes with ``values()`` only on a file load.
Eight registers of ``width`` bits fill exactly ``width`` bytes, so the
whole-array codec treats each group of eight as one little-endian 64-bit
word, register ``i`` of the group at bit ``i * width``: the same bytes as
the scalar layout.  ``values()`` reads the words through one unaligned
view, ``width`` bytes apart, over a padded copy of the buffer, and
shifts and masks them into the registers, with no byte staging array;
``set_values()`` takes each group of eight registers as a row and its
word as the row's product with the weights ``2^(i * width)``: the
fields are disjoint, so the sum is their OR.

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

    def _groups(self) -> tuple[int, np.ndarray]:
        """Number of eight-register words, and each lane's shift in its word."""
        return -(-self.m // 8), np.arange(0, 8 * self.width, self.width, dtype=_WORD)

    def values(self) -> np.ndarray:
        """Unpack all registers into an int64 array."""
        groups, shifts = self._groups()
        # a group's word reads 8 bytes from its first: pad the last group's
        padded = np.zeros(groups * self.width + 8 - self.width, dtype=_U8)
        padded[:len(self.buffer)] = self.buffer
        words = np.ndarray((groups, 1), dtype=_WORD, buffer=padded, strides=(self.width, 0))
        vals = words >> shifts
        vals &= _WORD.type((1 << self.width) - 1)
        return vals.reshape(-1)[:self.m].view(np.int64)

    def _checked(self, vals: np.ndarray) -> np.ndarray:
        """``vals`` as int64, if they are ``m`` values that fit in ``width`` bits."""
        vals = np.asarray(vals, dtype=np.int64)
        if vals.shape != (self.m,):
            raise ValueError(f"expected {self.m} values, got shape {vals.shape}")
        if vals.view(np.uint64).max() >> self.width:  # a negative, as unsigned, is too wide
            raise ValueError(f"values do not fit in {self.width} bits")
        return vals

    def set_values(self, vals: np.ndarray) -> None:
        """Pack an int array of register values into the buffer, in place."""
        groups, shifts = self._groups()
        lanes = self._checked(vals).view(_WORD)
        if self.m % 8:  # zeros fill the partial last group
            lanes = np.concatenate((lanes, np.zeros(-self.m % 8, dtype=_WORD)))
        # register i of a group fills bits i * width up, apart from the others,
        # so summing it times 2^(i * width) ORs it into the word, exactly
        words = lanes.reshape(groups, 8) @ (_WORD.type(1) << shifts)
        packed = words.view(_U8).reshape(groups, 8)[:, :self.width].reshape(-1)
        self.buffer[:] = packed[:len(self.buffer)]

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
        return np.unpackbits(self.buffer, count=self.m, bitorder="little").astype(np.int64)

    def set_values(self, vals: np.ndarray) -> None:
        self.buffer[:] = np.packbits(self._checked(vals).astype(bool), bitorder="little")

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
