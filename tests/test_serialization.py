"""Binary sketch files: exact round trips, strict rejection."""

import numpy as np
import pytest

from ehll.hashing import stream_u64
from ehll.serialization import (
    KIND_TAGS,
    SKETCHES,
    SketchFormatError,
    deserialize,
    load,
    save,
    serialize,
)
from ehll.sketches import EhllSketch, HllSketch
from ehll.tailcut import EhllTcSketch, HllTcSketch, _TailCutBase

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


def test_rejects_rank_above_hash_width():
    # at b=10 the hash leaves 54 rank bits, so the largest rank is 55
    s = HllSketch(b=10)
    s.ranks.set(0, 63)
    with pytest.raises(SketchFormatError):
        deserialize(serialize(s))
    s.ranks.set(0, 55)
    assert deserialize(serialize(s)) == s


def test_rejects_zero_neighbor_bit_below_rank_two():
    for cls in (EhllSketch, EhllTcSketch):
        s = cls(b=9)
        s.bits.set(0, 0)  # an empty cell is (0, 1)
        with pytest.raises(SketchFormatError):
            deserialize(serialize(s))
    s = EhllSketch(b=9)
    s.ranks.set(0, 1)
    s.bits.set(0, 0)
    with pytest.raises(SketchFormatError):
        deserialize(serialize(s))
    s.ranks.set(0, 2)  # rank 1 unseen below a maximum of 2 is reachable
    back = deserialize(serialize(s))
    assert back == s and back.change_probability() < 1.0


def test_rejects_tailcut_without_zero_offset():
    for cls in (HllTcSketch, EhllTcSketch):
        s = cls(b=4)
        for j in range(16):
            s.offsets.set(j, 2)  # promotion would have moved this into the base
        with pytest.raises(SketchFormatError):
            deserialize(serialize(s))
        s.offsets.set(5, 0)
        assert deserialize(serialize(s)) == s


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
