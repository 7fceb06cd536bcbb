"""Packed register storage against a plain-array mirror."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehll.registers import BitArray, PackedRegisterArray


def test_fill_and_memory():
    # a new array is all zeros, in a buffer of exactly m * width bits
    a = PackedRegisterArray(16, 6)
    assert [a.get(j) for j in range(16)] == [0] * 16
    b = BitArray(8)
    assert [b.get(j) for j in range(8)] == [0] * 8
    assert not a.buffer.any() and not b.buffer.any()
    assert 8 * len(PackedRegisterArray(1024, 6).buffer) == 6144


def test_buffer_size_is_exact():
    for m, width in [(1, 1), (3, 5), (16, 6), (1024, 6), (1195, 6), (7, 7), (9, 3)]:
        a = PackedRegisterArray(m, width)
        assert len(a.buffer) == (m * width + 7) // 8
    for m in (1, 8, 9, 1024, 1195):
        assert len(BitArray(m).buffer) == (m + 7) // 8


def test_writes_pack_into_the_existing_buffer():
    vals = np.arange(10) * 5
    a = PackedRegisterArray(10, 6)
    buf = a.buffer
    a.set_values(vals)
    assert a.buffer is buf and a.values().tolist() == vals.tolist()
    bits = BitArray(10)
    buf = bits.buffer
    bits.set_ones(np.array([0, 9, 9]))
    assert bits.buffer is buf and buf.tolist() == [1, 2]
    for bad in ([10], [-1], [3, 15]):  # 10..15 would land in the last byte's padding
        with pytest.raises(IndexError):
            bits.set_ones(np.array(bad))
    assert buf.tolist() == [1, 2]


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
    assert c.buffer is not a.buffer and np.array_equal(c.buffer, a.buffer)
    c.set(2, 1)
    assert not np.array_equal(c.buffer, a.buffer) and a.get(2) == 33


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


def test_bitarray_fill_copy_and_inherited_counts():
    for m in (1, 7, 8, 9, 53, 64, 1195):
        ones = PackedRegisterArray(m, 1)
        ones.set_values(np.ones(m, dtype=np.int64))
        full = BitArray(m)
        full.set_values(np.ones(m, dtype=np.int64))
        assert np.array_equal(full.buffer, ones.buffer)  # bits past m stay zero in both
        assert len(full.buffer) == len(BitArray(m).buffer) == (m + 7) // 8
        dup = full.copy()
        assert type(dup) is BitArray and np.array_equal(dup.buffer, full.buffer)
        dup.set(0, 0)
        assert dup.get(0) == 0 and full.get(0) == 1
    for name in ("copy", "__repr__"):
        assert name not in vars(BitArray)


# register counts that leave a partial last group of eight, and the sizes
# the sketches use: whole arrays at 2^14 and 2^18
codec_sizes = st.one_of(st.integers(1, 200).filter(lambda m: m % 8),
                        st.sampled_from([1 << 14, 1 << 18]))


def _makers(width: int) -> list:
    """Constructors of empty ``width``-bit arrays by register count: BitArray too at width 1."""
    return [lambda m: PackedRegisterArray(m, width)] + ([BitArray] if width == 1 else [])


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 8), m=codec_sizes, data=st.data())
def test_whole_array_codec_matches_the_scalar_mirror(width, m, data):
    """``values``/``set_values`` agree with ``get``/``set``, byte for byte."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mirror = rng.integers(0, 1 << width, size=m)
    for make in _makers(width):
        a = make(m)
        a.set_values(mirror)
        # every register of a small array is read back by the scalar path;
        # a large one at its ends and at drawn indices
        idx = (list(range(m)) if m <= 200 else
               [0, 7, 8, m - 9, m - 1] + data.draw(st.lists(st.integers(0, m - 1), max_size=40)))
        assert [a.get(j) for j in idx] == mirror[idx].tolist()
        vals = mirror.copy()
        for j, v in data.draw(st.lists(st.tuples(st.integers(0, m - 1),
                                                 st.integers(0, (1 << width) - 1)), max_size=30)):
            a.set(j, v)
            vals[j] = v
        assert np.array_equal(a.values(), vals)
        # the scalar writes and the whole-array write leave the same bytes,
        # padding bits past the last register included
        packed = make(m)
        packed.set_values(vals)
        assert np.array_equal(packed.buffer, a.buffer)
        if m <= 200:
            scalar = make(m)
            for j, v in enumerate(vals.tolist()):
                scalar.set(j, v)
            assert np.array_equal(scalar.buffer, a.buffer)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 8), m=codec_sizes, before=st.integers(0, 17),
       after=st.integers(0, 17), fill=st.sampled_from([0x00, 0xFF, 0xA5]), data=st.data())
def test_values_of_a_view_into_a_file_equal_values_of_a_copy(width, m, before, after, fill, data):
    """A buffer read in place from a longer blob decodes as its own copy does.

    ``deserialize`` hands the codec ``np.frombuffer`` views at any byte
    offset of the file, read-only, with more bytes after them; none of
    those bytes may reach a register.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals = rng.integers(0, 1 << width, size=m)
    for make in _makers(width):
        a = make(m)
        a.set_values(vals)
        blob = bytes([fill]) * before + a.buffer.tobytes() + bytes([fill]) * after
        view = make(m)
        view.buffer = np.frombuffer(blob, dtype=np.uint8, count=len(a.buffer), offset=before)
        copy = make(m)
        copy.buffer = view.buffer.copy()
        assert np.array_equal(view.values(), copy.values())
        assert np.array_equal(view.values(), vals)
