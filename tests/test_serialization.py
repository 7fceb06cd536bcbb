"""Binary sketch files: exact round trips, strict rejection."""

import numpy as np
import pytest

from ehll.hashing import stream_u64
from ehll.registers import BitArray, PackedRegisterArray
from ehll.serialization import (
    KIND_TAGS,
    SKETCHES,
    SketchFormatError,
    deserialize,
    load,
    save,
    serialize,
)
from ehll.sketches import REGISTER_WIDTH, EhllSketch, HllSketch
from ehll.tailcut import OFFSET_WIDTH, EhllTcSketch, HllTcSketch, _TailCutBase

ALL_KINDS = list(SKETCHES.values())


def _populated(cls, b=6, seed=77, n=500):
    s = cls(b=b, seed=seed)
    s.insert_all(stream_u64(n, 55).tolist())
    return s


@pytest.mark.parametrize("cls", ALL_KINDS)
def test_roundtrip_bit_identical(cls):
    s = _populated(cls)
    data = serialize(s)
    back = deserialize(data)
    assert back == s
    assert serialize(back) == data


@pytest.mark.parametrize("cls", ALL_KINDS)
def test_roundtrip_preserves_behavior(cls):
    s = _populated(cls)
    back = deserialize(serialize(s))
    assert back.estimate().value == s.estimate().value
    if hasattr(s, "change_probability"):
        assert back.change_probability() == pytest.approx(
            s.change_probability(), rel=1e-12)
    # both sides keep accepting elements identically
    s.insert(b"more")
    back.insert(b"more")
    assert back == s
    if issubclass(cls, _TailCutBase):
        # after mixed scalar and batch inserts; TailCut term sums are exact
        s.insert_batch(stream_u64(3000, 56))
        back = deserialize(serialize(s))
        assert back._zero_offsets == s._zero_offsets
        assert back.change_probability() == s.change_probability()


def test_header_fields():
    s = _populated(EhllSketch, b=7, seed=0x1234_5678_9ABC_DEF0)
    data = serialize(s)
    assert data[:4] == b"EHS1"
    assert data[4] == 1
    assert data[5] == KIND_TAGS["ehll"]
    assert data[6] == 7
    assert int.from_bytes(data[7:15], "little") == 0x1234_5678_9ABC_DEF0


def test_tailcut_base_byte():
    s = HllTcSketch(m=16, seed=1)
    for j in range(16):
        s._insert_bg(j, 3)
    assert s.base == 3
    data = serialize(s)
    assert data[15] == 3
    assert deserialize(data) == s


def test_rejects_malformed():
    good = serialize(_populated(HllSketch))
    with pytest.raises(SketchFormatError):
        deserialize(b"")
    with pytest.raises(SketchFormatError):
        deserialize(b"NOPE" + good[4:])
    with pytest.raises(SketchFormatError):
        deserialize(good[:4] + b"\x02" + good[5:])  # version
    bad_kind = bytearray(good)
    bad_kind[5] = 9
    with pytest.raises(SketchFormatError):
        deserialize(bytes(bad_kind))
    bad_b = bytearray(good)
    bad_b[6] = 3
    with pytest.raises(SketchFormatError):
        deserialize(bytes(bad_b))
    with pytest.raises(SketchFormatError):
        deserialize(good[:-1])  # truncated payload
    with pytest.raises(SketchFormatError):
        deserialize(good + b"\x00")  # trailing bytes


def _spliced(cls, b, ranks, bits=None):
    """The file of an empty ``cls`` sketch at ``b`` with ``ranks`` (and ``bits``) as payload.

    ``ranks`` are the stored values: ranks, or TailCut offsets above the base.
    """
    header = serialize(cls(b=b))[:15 + len(cls._header)]
    width = OFFSET_WIDTH if issubclass(cls, _TailCutBase) else REGISTER_WIDTH
    arrays = [PackedRegisterArray(1 << b, width)]
    arrays[0].set_values(ranks)
    if bits is not None:
        arrays.append(BitArray(1 << b))
        arrays[1].set_values(bits)
    return header + b"".join(a.buffer.tobytes() for a in arrays)


def _accepted(data):
    back = deserialize(data)
    assert serialize(back) == data
    return back


def test_rejects_rank_above_hash_width():
    # at b=10 the hash leaves 54 rank bits, so the largest rank is 55
    ranks = np.zeros(1 << 10, dtype=np.int64)
    ranks[0] = 63
    with pytest.raises(SketchFormatError):
        deserialize(_spliced(HllSketch, 10, ranks))
    ranks[0] = 55
    assert _accepted(_spliced(HllSketch, 10, ranks))._cells()[0][0] == 55


def test_tailcut_rank_checks_count_from_the_base():
    # at b=10 the largest rank is 55: only a base above 40 lets an offset reach past it
    offsets = np.zeros(1 << 10, dtype=np.int64)
    offsets[0] = 15
    for cls in (HllTcSketch, EhllTcSketch):
        bits = np.ones(1 << 10, dtype=np.int64) if cls.neighbor_bit else None
        blob = bytearray(_spliced(cls, 10, offsets, bits))
        blob[15] = 40
        assert _accepted(bytes(blob))._cells()[0][0] == 55
        for base in (41, 56, 255):
            blob[15] = base
            with pytest.raises(SketchFormatError):
                deserialize(bytes(blob))
    # a bit of 0 is refused at rank 1 (base 1, offset 0) and allowed at rank 2 (base 2)
    bits = np.ones(1 << 10, dtype=np.int64)
    bits[1] = 0
    blob = bytearray(_spliced(EhllTcSketch, 10, offsets, bits))
    blob[15] = 1
    with pytest.raises(SketchFormatError):
        deserialize(bytes(blob))
    blob[15] = 2
    assert _accepted(bytes(blob))._cells()[1][1] == 0


@pytest.mark.parametrize("cls", [HllTcSketch, EhllTcSketch])
@pytest.mark.parametrize("b", [4, 10, 14])
def test_every_tailcut_base_byte_loads_exactly_or_is_refused(cls, b):
    # the cells are int8: a base added to them must never overflow or wrap
    rng = np.random.default_rng(b)
    offsets = rng.integers(0, 1 << OFFSET_WIDTH, 1 << b)
    offsets[:2] = 0, (1 << OFFSET_WIDTH) - 1  # a zero offset, and one at the ceiling
    bits = np.ones(1 << b, dtype=np.int64) if cls.neighbor_bit else None
    blob = bytearray(_spliced(cls, b, offsets, bits))
    loaded = []
    for base in range(256):
        blob[15] = base
        try:
            s = deserialize(bytes(blob))
        except SketchFormatError:
            continue
        k = s._cells()[0]
        assert s.base == base and k.dtype == np.int8
        assert np.array_equal(k.astype(np.int64), base + offsets.astype(np.int64))
        loaded.append(base)
    # exactly the bases whose ceiling is a rank the hash can give, 65 - b at most
    assert loaded == list(range(65 - b - 15 + 1))


def test_rejects_zero_neighbor_bit_below_rank_two():
    ranks, bits = np.zeros(1 << 9, dtype=np.int64), np.ones(1 << 9, dtype=np.int64)
    bits[0] = 0  # an empty cell is (0, 1)
    for cls in (EhllSketch, EhllTcSketch):
        with pytest.raises(SketchFormatError):
            deserialize(_spliced(cls, 9, ranks, bits))
    ranks[0] = 1
    with pytest.raises(SketchFormatError):
        deserialize(_spliced(EhllSketch, 9, ranks, bits))
    ranks[0] = 2  # rank 1 unseen below a maximum of 2 is reachable
    back = _accepted(_spliced(EhllSketch, 9, ranks, bits))
    assert back.change_probability() < 1.0


def test_rejects_tailcut_without_zero_offset():
    offsets = np.full(16, 2, dtype=np.int64)  # promotion would have moved this into the base
    for cls in (HllTcSketch, EhllTcSketch):
        bits = np.ones(16, dtype=np.int64) if cls.neighbor_bit else None
        with pytest.raises(SketchFormatError):
            deserialize(_spliced(cls, 4, offsets, bits))
        zero = offsets.copy()
        zero[5] = 0
        _accepted(_spliced(cls, 4, zero, bits))


def test_general_m_not_serializable():
    with pytest.raises(ValueError):
        serialize(HllSketch(m=1195))


def test_save_load(tmp_path):
    s = _populated(EhllTcSketch)
    path = tmp_path / "sketch.bin"
    save(s, path)
    assert load(path) == s


def test_fuzz_roundtrip_many_states():
    rng = np.random.default_rng(61)
    for cls in ALL_KINDS:
        for t in range(10):
            s = cls(b=4, seed=int(rng.integers(2**63)))
            s.insert_all(rng.integers(0, 2**63, size=int(rng.integers(0, 300)),
                                      dtype=np.uint64).tolist())
            data = serialize(s)
            assert serialize(deserialize(data)) == data


@pytest.mark.parametrize("cls", ALL_KINDS)
def test_seed_is_stored_mod_2_64(cls):
    # hashing and the file header read the seed mod 2^64; so does the sketch
    for seed, twin_seed in ((-5, 2**64 - 5), (2**64 + 3, 3)):
        s, twin = _populated(cls, b=10, seed=seed), _populated(cls, b=10, seed=twin_seed)
        assert s.seed == twin_seed and s == twin
        back = deserialize(serialize(s))
        assert back == s
        assert s.merge(back) == s.merge(twin)
    with pytest.raises(TypeError):
        cls(b=4, seed=1.0)
