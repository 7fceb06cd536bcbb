"""Packed register storage against a plain-array mirror."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehll.registers import BitArray, PackedRegisterArray


def test_fill_and_memory():
    a = PackedRegisterArray(16, 6)
    assert [a.get(j) for j in range(16)] == [0] * 16
    b = BitArray(8, fill=1)
    assert [b.get(j) for j in range(8)] == [1] * 8
    assert PackedRegisterArray(1024, 6).memory_bits() == 6144


def test_buffer_size_is_exact():
    for m, width in [(1, 1), (3, 5), (16, 6), (1024, 6), (1195, 6), (7, 7), (9, 3)]:
        a = PackedRegisterArray(m, width)
        assert len(a.buffer) == (m * width + 7) // 8
    for m in (1, 8, 9, 1024, 1195):
        assert len(BitArray(m).buffer) == (m + 7) // 8


def test_roundtrip_and_isolation():
    a = PackedRegisterArray(8, 6)
    a.set(3, 63)
    assert a.get(3) == 63
    a.set(3, 5)
    assert a.get(2) == 0 and a.get(4) == 0
    assert a.get(3) == 5


def test_invalid_arguments():
    with pytest.raises(ValueError):
        PackedRegisterArray(0, 6)
    with pytest.raises(ValueError):
        PackedRegisterArray(4, 9)
    a = PackedRegisterArray(4, 6)
    with pytest.raises(IndexError):
        a.get(4)
    with pytest.raises(IndexError):
        a.set(-1, 0)
    with pytest.raises(ValueError):
        a.set(0, 64)
    b = BitArray(4)
    with pytest.raises(IndexError):
        b.get(4)
    with pytest.raises(ValueError):
        b.set(0, 2)
    for a in (b, PackedRegisterArray(4, 1)):
        for bad in ([0, 2, -1, 0], [0, -1, 0, 0], [0, 0, 2, 0]):
            with pytest.raises(ValueError, match="do not fit in 1 bits"):
                a.set_values(np.array(bad))
        with pytest.raises(ValueError, match="expected 4 values"):
            a.set_values(np.zeros(5, dtype=np.int64))


def test_fuzz_against_mirror():
    # 1e5 random set/get pairs against an unpacked mirror array
    rng = np.random.default_rng(11)
    for width in (1, 3, 4, 6, 7, 8):
        m = 101
        a = PackedRegisterArray(m, width)
        mirror = [0] * m
        for _ in range(100_000 // 6):
            j = int(rng.integers(m))
            if rng.random() < 0.5:
                v = int(rng.integers(1 << width))
                a.set(j, v)
                mirror[j] = v
            else:
                assert a.get(j) == mirror[j]
        assert a.values().tolist() == mirror
        assert a.zero_count() == mirror.count(0)


def test_zero_count():
    a = PackedRegisterArray(16, 6)
    assert a.zero_count() == 16
    a.set(5, 9)
    assert a.zero_count() == 15


def test_values_setvalues_roundtrip():
    rng = np.random.default_rng(12)
    for width in (1, 2, 5, 6, 8):
        m = 77
        vals = rng.integers(0, 1 << width, size=m)
        a = PackedRegisterArray(m, width)
        a.set_values(vals)
        assert np.array_equal(a.values(), vals)
        assert [a.get(j) for j in range(m)] == vals.tolist()


def test_bitarray_values_and_or():
    rng = np.random.default_rng(13)
    m = 53
    x = rng.integers(0, 2, size=m)
    y = rng.integers(0, 2, size=m)
    a, b = BitArray(m), BitArray(m)
    a.set_values(x)
    b.set_values(y)
    a.or_with(b)
    assert np.array_equal(a.values(), x | y)
    assert a.zero_count() == int((~(x | y).astype(bool)).sum())


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 8),
    m=st.integers(1, 40),
    data=st.data(),
)
def test_property_mirror_equivalence(width, m, data):
    ops = data.draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, (1 << width) - 1)),
        max_size=60))
    a = PackedRegisterArray(m, width)
    mirror = [0] * m
    for j, v in ops:
        a.set(j, v)
        mirror[j] = v
    assert a.values().tolist() == mirror
    assert len(a.buffer) == (m * width + 7) // 8


def test_copy_and_eq():
    a = PackedRegisterArray(10, 6)
    a.set(2, 33)
    c = a.copy()
    assert c == a
    c.set(2, 1)
    assert c != a and a.get(2) == 33


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 70), data=st.data())
def test_bitarray_is_the_width_one_array(m, data):
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    a, p = BitArray(m), PackedRegisterArray(m, 1)
    a.set_values(bits)
    p.set_values(bits)
    assert np.array_equal(a.buffer, p.buffer)
    assert np.array_equal(a.values(), p.values())
    assert [a.get(j) for j in range(m)] == [p.get(j) for j in range(m)] == bits.tolist()
    assert a == p and p == a


def test_bitarray_fill_copy_and_inherited_counts():
    for m in (1, 7, 8, 9, 53, 64, 1195):
        ones = PackedRegisterArray(m, 1)
        ones.set_values(np.ones(m, dtype=np.int64))
        full = BitArray(m, fill=1)
        assert full == ones and ones == full
        assert full.zero_count() == 0 and BitArray(m).zero_count() == m
        assert full.memory_bits() == BitArray(m).memory_bits() == m
        dup = full.copy()
        assert type(dup) is BitArray and dup == full
        dup.set(0, 0)
        assert dup != full and full.get(0) == 1 and dup.zero_count() == 1
    for name in ("zero_count", "memory_bits", "copy", "__eq__", "__repr__"):
        assert name not in vars(BitArray)
    with pytest.raises(ValueError):
        BitArray(4, fill=2)
