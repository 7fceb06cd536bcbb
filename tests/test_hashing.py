"""Hashing pipeline: determinism, distribution quality, decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehll.hashing import (
    geo_width,
    hash64,
    hash64_tokens,
    hash64_u64_array,
    mix64,
    rho,
    rho_array,
    split_hash,
    split_hash_array,
    stream_u64,
)
from ehll.martingale import MartingaleCounter
from ehll.sketches import EhllSketch


def test_hash_deterministic():
    for x in (b"", b"a", b"hello world", b"\x00" * 17, "token", 12345):
        assert hash64(x, 7) == hash64(x, 7)
    assert hash64(b"abc", 1) != hash64(b"abc", 2)


def test_hash_canonical_encodings():
    assert hash64("abc") == hash64(b"abc")
    assert hash64(5) == hash64((5).to_bytes(8, "little"))
    assert hash64(bytearray(b"xy")) == hash64(b"xy")
    with pytest.raises(TypeError):
        hash64(3.14)


def test_hash_array_matches_scalar():
    values = np.array([0, 1, 2, 10**12, 2**63, 2**64 - 1], dtype=np.uint64)
    batch = hash64_u64_array(values, seed=99)
    for v, h in zip(values.tolist(), batch.tolist()):
        assert hash64(v, seed=99) == h


def _packed(tokens, gap=b""):
    """One buffer holding ``tokens`` separated by ``gap``, with their offsets."""
    buf, starts, ends = bytearray(), [], []
    for tok in tokens:
        buf += gap
        starts.append(len(buf))
        buf += tok
        ends.append(len(buf))
    return bytes(buf), np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)


_TOKENS = st.one_of(
    st.binary(min_size=1, max_size=200),
    st.integers(1, 25).flatmap(lambda k: st.binary(min_size=8 * k, max_size=8 * k)),
    st.text(min_size=1, max_size=60).map(lambda t: t.encode("utf-8")),
    st.lists(st.sampled_from([b"\r", b"\0", b"a", b"\xff", "é".encode()]),
             min_size=1, max_size=40).map(b"".join),
)


@settings(max_examples=150, deadline=None)
@given(tokens=st.lists(_TOKENS, min_size=1, max_size=40),
       gap=st.sampled_from([b"", b"\n", b"\x00\xff\r"]),
       seed=st.integers(0, 2**64 - 1))
def test_hash64_tokens_matches_hash64(tokens, gap, seed):
    buf, starts, ends = _packed(tokens, gap)
    got = hash64_tokens(buf, starts, ends, seed)
    assert got.dtype == np.uint64
    assert got.tolist() == [hash64(tok, seed) for tok in tokens]


def test_hash64_tokens_examples():
    tokens = [b"", b"a", b"\r", b"\0" * 8, b"x" * 16, "日本語\r".encode(), b"y" * 17,
              bytes(range(256))]
    buf, starts, ends = _packed(tokens, b"\n")
    assert hash64_tokens(buf, starts, ends, 7).tolist() == [hash64(t, 7) for t in tokens]
    empty = hash64_tokens(b"", np.zeros(0, np.int64), np.zeros(0, np.int64))
    assert empty.shape == (0,) and empty.dtype == np.uint64


_BUF17 = bytes(range(97, 114))

# (starts, ends) that name no token of the 17-byte ``_BUF17``
_BAD_BOUNDS = {
    "end before start": ([6], [2]),
    "lengths differ": ([6, 0], [2]),
    "negative start": ([-3], [2]),
    "end in the padding": ([11], [19]),
    "end past the padding": ([0], [40]),
    "wrapped uint64": (np.array([2**63], np.uint64), np.array([2**64 - 1], np.uint64)),
    "2-D": ([[0]], [[2]]),
    "float bounds": ([0.0], [2]),
}


@pytest.mark.parametrize("starts, ends", _BAD_BOUNDS.values(), ids=_BAD_BOUNDS.keys())
def test_token_bounds_outside_the_buffer_are_refused(starts, ends):
    starts, ends = np.asarray(starts), np.asarray(ends)
    with pytest.raises(ValueError):
        hash64_tokens(_BUF17, starts, ends)
    sketch = EhllSketch(b=4, seed=1)
    sketch.insert_all([b"a", b"bc"])
    counter = MartingaleCounter(sketch.copy())
    before = (sketch.copy(), sketch.change_probability(), counter.estimate(),
              counter.retro_variance())
    with pytest.raises(ValueError):
        sketch.insert_tokens(_BUF17, starts, ends)
    with pytest.raises(ValueError):
        counter.insert_tokens(_BUF17, starts, ends)
    assert (sketch, sketch.change_probability(), counter.estimate(),
            counter.retro_variance()) == before
    assert counter.inner == sketch


def test_token_bounds_at_the_buffer_edges():
    starts, ends = np.array([0, 0, 17, 5]), np.array([17, 0, 17, 5])
    assert hash64_tokens(_BUF17, starts, ends, 3).tolist() == [
        hash64(_BUF17, 3), hash64(b"", 3), hash64(b"", 3), hash64(b"", 3)]


def test_seed_separation():
    # different seeds give different digests on >= 99.9% of 1e5 random inputs
    rng = np.random.default_rng(0)
    xs = rng.integers(0, 2**63, size=100_000, dtype=np.uint64)
    collisions = int((hash64_u64_array(xs, 1) == hash64_u64_array(xs, 2)).sum())
    assert collisions <= 100  # 0.1% of 1e5


def test_bit_balance():
    # every bit position set with frequency 0.5 +- 0.01 over 1e6 inputs
    rng = np.random.default_rng(1)
    xs = rng.integers(0, 2**63, size=1_000_000, dtype=np.uint64)
    hashed = hash64_u64_array(xs, seed=0)
    bits = np.unpackbits(hashed.view(np.uint8)).reshape(-1, 64)
    freq = bits.mean(axis=0)
    assert float(np.abs(freq - 0.5).max()) < 0.01


def test_rho_examples():
    assert rho(0b0001, 4) == 1
    assert rho(0b0100, 4) == 3
    assert rho(0, 60) == 61
    assert rho(1 << 59, 60) == 60
    with pytest.raises(ValueError):
        rho(1, 0)


def test_rho_array_matches_scalar():
    rng = np.random.default_rng(2)
    ys = rng.integers(0, 2**54, size=10_000, dtype=np.uint64)
    out = rho_array(ys, 54)
    for y, r in zip(ys.tolist(), out.tolist()):
        assert rho(y, 54) == r


def test_rho_array_reads_only_the_low_width_bits():
    rng = np.random.default_rng(3)
    words = rng.integers(0, 2**64, size=300, dtype=np.uint64, endpoint=False).tolist()
    words += [0, 2**64 - 1, 1 << 63] + [1 << k for k in range(64)]
    words += [(2**64 - 1) << k & (2**64 - 1) for k in range(64)]  # low k bits zero
    ys = np.array(words, dtype=np.uint64)
    for w in range(1, 65):
        got = rho_array(ys, w)
        assert got.dtype == np.int64
        assert got.tolist() == [rho(y & ((1 << w) - 1), w) for y in words], w


@pytest.mark.parametrize("width", [0, -1, 65])
def test_rho_array_rejects_widths_outside_1_to_64(width):
    with pytest.raises(ValueError, match=r"width must be in \[1, 64\]"):
        rho_array(np.zeros(3, dtype=np.uint64), width)


_WORDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 2**64 - 1, 1 << 63]),
    st.integers(1, 19).flatmap(  # top-bits layout of 2**b: the rank bits are all zero
        lambda b: st.integers(1, 2**b - 1).map(lambda h: h << (64 - b))),
    st.integers(1, 2**32 - 1).map(lambda h: h << 32),  # 32/32 layout: zero rank half
)


@settings(max_examples=200, deadline=None)
@given(words=st.lists(_WORDS, min_size=1, max_size=60),
       m=st.sampled_from([1, 3, 16, 1024, 1195, 1280, 2**18, 2**19]))
def test_split_hash_array_matches_split_hash(words, m):
    bucket, geo = split_hash_array(np.array(words, dtype=np.uint64), m)
    assert bucket.dtype == np.int64 and geo.dtype == np.int64
    assert list(zip(bucket.tolist(), geo.tolist())) == [split_hash(w, m) for w in words]


def test_array_kernels_leave_inputs_unmodified():
    values = np.array([0, 1, 2**63, 2**64 - 1, 12345], dtype=np.uint64)
    signed = values.view(np.int64).copy()
    for arr in (values, signed):
        before = arr.copy()
        hashed = hash64_u64_array(arr, seed=5)
        assert hashed.dtype == np.uint64 and np.array_equal(arr, before)
        assert hashed.tolist() == hash64_u64_array(before, seed=5).tolist()
    before = hashed.copy()
    for m in (1024, 1195):
        bucket, geo = split_hash_array(hashed, m)
        assert bucket.dtype == np.int64 and geo.dtype == np.int64
        assert np.array_equal(hashed, before)
        ys = hashed.copy()
        assert rho_array(ys, 32).dtype == np.int64 and np.array_equal(ys, before)


def test_split_hash_examples():
    assert split_hash(0, 1 << 4) == (0, 61)
    raw = (0b1010 << 60) | 0b100
    assert split_hash(raw, 1 << 4) == (0b1010, 3)
    # b outside [4, 18] has no top-bits layout: the 32/32 split applies
    assert split_hash(0, 1 << 3) == (0, 33)
    assert split_hash(0, 1 << 19) == (0, 33)


def test_bucket_uniformity_chi2():
    # chi^2 over 2^8 buckets within 3 sigma of its d.o.f. on 1e6 hashes
    n, b = 1_000_000, 8
    hashed = hash64_u64_array(stream_u64(n, 3), seed=0)
    bucket, _ = split_hash_array(hashed, 1 << b)
    counts = np.bincount(bucket, minlength=1 << b)
    expected = n / (1 << b)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = (1 << b) - 1
    assert chi2 < dof + 3 * math.sqrt(2 * dof)


def test_geo_is_geometric():
    # P(geo = k) = 2^-k within 3 binomial standard deviations, 1e6 draws
    # (fixed seed: 17 simultaneous 3-sigma checks trip ~5% of random seeds)
    n, b = 1_000_000, 10
    hashed = hash64_u64_array(stream_u64(n, 5), seed=0)
    _, geo = split_hash_array(hashed, 1 << b)
    for k in range(1, 18):
        p = 0.5 ** k
        sd = math.sqrt(n * p * (1 - p))
        assert abs(int((geo == k).sum()) - n * p) < 3 * sd + 1


def test_bucket_geo_independence():
    # plug-in mutual information below its small-sample bias ceiling
    n, b = 1_000_000, 4
    hashed = hash64_u64_array(stream_u64(n, 5), seed=0)
    bucket, geo = split_hash_array(hashed, 1 << b)
    geo_binned = np.minimum(geo, 20)  # lump the tail
    m_b, m_g = 1 << b, 20
    joint = np.zeros((m_b, m_g))
    np.add.at(joint, (bucket, geo_binned - 1), 1.0)
    joint /= n
    pb = joint.sum(axis=1, keepdims=True)
    pg = joint.sum(axis=0, keepdims=True)
    nz = joint > 0
    mi = float((joint[nz] * np.log(joint[nz] / (pb @ pg)[nz])).sum()) / math.log(2)
    # plug-in MI bias for independent data ~ (rows-1)(cols-1) / (2 N ln 2)
    noise_floor = (m_b - 1) * (m_g - 1) / (2 * n * math.log(2))
    assert mi < 3 * noise_floor


def test_split_hash_general_m():
    # non-power-of-two register counts: uniform buckets, 32-bit rank domain
    m, n = 1195, 1_000_000
    hashed = hash64_u64_array(stream_u64(n, 6), seed=0)
    bucket, geo = split_hash_array(hashed, m)
    assert bucket.min() >= 0 and bucket.max() < m
    assert geo.min() >= 1 and geo.max() <= 33
    assert geo_width(m) == 32
    counts = np.bincount(bucket, minlength=m)
    expected = n / m
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = m - 1
    assert chi2 < dof + 4 * math.sqrt(2 * dof)
    # scalar/vector agreement
    got = [split_hash(int(r), m) for r in hashed[:500].tolist()]
    assert got == list(zip(bucket[:500].tolist(), geo[:500].tolist()))


def test_power_of_two_split_uses_top_bits():
    raw = (0b101010 << 58) | 0b1000
    bucket, geo = split_hash(raw, 1 << 6)
    assert bucket == 0b101010
    assert geo == 4
    assert geo_width(1 << 6) == 58


def test_stream_u64_distinct_and_deterministic():
    s1 = stream_u64(100_000, 42)
    s2 = stream_u64(100_000, 42)
    assert np.array_equal(s1, s2)
    assert len(np.unique(s1)) == 100_000
    assert not np.array_equal(s1, stream_u64(100_000, 43))


def test_mix64_is_bijective_on_sample():
    rng = np.random.default_rng(7)
    xs = rng.integers(0, 2**64, size=100_000, dtype=np.uint64)
    assert len({mix64(int(x)) for x in xs[:1000].tolist()}) == len(set(xs[:1000].tolist()))
