"""Bit-packed register storage.

Registers of 1..8 bits are packed contiguously, least-significant-bit
first within each byte, and may straddle byte boundaries.  True packing
matters: the memory accounting of the sketches (6 bits per HyperLogLog
register, 7 per ExtendedHyperLogLog cell, 4-bit TailCut offsets) is only
real if the buffer is exactly ``ceil(m * width / 8)`` bytes.

Scalar get/set serve the per-element insert path; ``values()`` /
``set_values()`` unpack and repack the whole array for the batch paths.
Eight registers of ``width`` bits fill exactly ``width`` bytes, so the
whole-array codec reads each group of eight as one little-endian 64-bit
word and shifts register ``i`` of the group by ``i * width``: one
vectorized shift and mask over ``ceil(m / 8)`` words, the same bytes as
the scalar layout.

:class:`BitArray` (PCSA bitmaps, neighbor bits) is the width-1 array with a
byte-wise codec over the same bytes, ``np.unpackbits``/``np.packbits``,
4-25x faster there, plus the bitmap operations ``set_ones`` and ``or_with``.

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
        packed = np.zeros(groups * self.width, dtype=_U8)
        packed[:len(self.buffer)] = self.buffer
        raw = np.zeros((groups, 8), dtype=_U8)
        raw[:, :self.width] = packed.reshape(groups, self.width)
        vals = raw.view(_WORD) >> shifts
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
        """Repack the whole array from an int array of register values."""
        groups, shifts = self._groups()
        lanes = np.zeros((groups, 8), dtype=_WORD)
        lanes.reshape(-1)[:self.m] = self._checked(vals)
        words = np.bitwise_or.reduce(lanes << shifts, axis=1)
        packed = words.view(_U8).reshape(groups, 8)[:, :self.width].reshape(-1)
        self.buffer = packed[:len(self.buffer)]

    def zero_count(self) -> int:
        """Number of registers equal to 0 (the V of LinearCounting)."""
        return int(np.count_nonzero(self.values() == 0))

    def memory_bits(self) -> int:
        """Register payload bits, excluding the constant-size object header."""
        return self.m * self.width

    def copy(self) -> "PackedRegisterArray":
        dup = type(self).__new__(type(self))
        dup.m, dup.width = self.m, self.width
        dup.buffer = self.buffer.copy()
        return dup

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PackedRegisterArray)
            and self.m == other.m
            and self.width == other.width
            and np.array_equal(self.buffer, other.buffer)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.m}, width={self.width})"


class BitArray(PackedRegisterArray):
    """``m`` single-bit registers with a byte-wise codec; ``fill`` sets them all."""

    __slots__ = ()

    def __init__(self, m: int, fill: int = 0):
        if fill not in (0, 1):
            raise ValueError("fill must be 0 or 1")
        super().__init__(m, 1)
        if fill:
            self.buffer[:] = 0xFF
            if m & 7:  # bits beyond m stay zero so buffers compare equal
                self.buffer[-1] = (1 << (m & 7)) - 1

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
        self.buffer = np.packbits(self._checked(vals).astype(bool), bitorder="little")

    def set_ones(self, idx: np.ndarray) -> None:
        """Set the bits at ``idx`` (repeats allowed) to 1."""
        bits = np.unpackbits(self.buffer, count=self.m, bitorder="little")
        bits[idx] = 1
        self.buffer = np.packbits(bits, bitorder="little")

    def or_with(self, other: "BitArray") -> None:
        """Word-wise OR merge (used by the bitmap sketch union)."""
        if self.m != other.m:
            raise ValueError("bit array size mismatch")
        self.buffer |= other.buffer
