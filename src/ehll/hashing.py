"""Deterministic 64-bit hashing and hash decomposition.

Every sketch in this package consumes elements through the same pipeline:
hash the element to a 64-bit word, split the word into a bucket address
and a geometric rank.  The rank of a uniform word is the 1-indexed
position of its least significant set bit, which is Geo(1/2) distributed,
so each register effectively observes i.i.d. geometric samples.

The mixer is SplitMix64-style (public domain finalizer constants).  It is
seedable, platform independent, and bijective on 64-bit words -- the
bijectivity is what lets the simulation harness build streams of exactly
``n`` distinct elements from seeded counters.

Two addressing modes exist:

* power-of-two ``m = 2**b``: bucket is the top ``b`` bits, the rank is
  taken from the remaining ``64 - b`` bits (the classic layout);
* arbitrary ``m``: bucket comes from the top 32 bits via a fixed-point
  range reduction and the rank from the low 32 bits, keeping the two
  independent.  This mode exists for matched-memory experiments such as
  ``m = 1195`` and supports cardinalities up to roughly ``2**30``.

The array pipeline that campaign trials and ``insert_batch`` run
(:func:`stream_u64`, :func:`hash64_u64_array`, :func:`split_hash_array`)
works in place: each stage allocates only its own outputs and walks
them in blocks of :data:`_BLOCK` words, so the temporaries of
:func:`_mix_inplace` and :func:`rho_array` stay small, and
:func:`rho_array` reads the low bits of a word without a masked copy.
Inputs are never modified.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SEED_TWEAK = 0x9E3779B97F4A7C15  # golden-ratio increment

_U = np.uint64


def mix64(x: int) -> int:
    """SplitMix64 finalizer: bijective avalanche mix of a 64-bit word."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


#: Elements per block of the in-place array kernels (64 KiB of uint64).  A
#: temporary of this size is reused from the allocator's free lists and
#: stays in cache; one as large as the whole array is fresh pages each time.
_BLOCK = 1 << 13


def _blocks(n: int):
    """Slices of ``range(n)`` of at most :data:`_BLOCK` elements."""
    return (slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK))


def _mix_inplace(x: np.ndarray) -> None:
    """:func:`mix64` applied in place to a uint64 array (wrapping arithmetic)."""
    for blk in _blocks(len(x)):
        v = x[blk]
        v ^= v >> _U(30)
        v *= _U(_MIX1)
        v ^= v >> _U(27)
        v *= _U(_MIX2)
        v ^= v >> _U(31)


def _canonical_bytes(element) -> bytes:
    if isinstance(element, bytes):
        return element
    if isinstance(element, bytearray) or isinstance(element, memoryview):
        return bytes(element)
    if isinstance(element, str):
        return element.encode("utf-8")
    if isinstance(element, (int, np.integer)):
        return (int(element) & MASK64).to_bytes(8, "little")
    raise TypeError(f"cannot hash element of type {type(element).__name__}")


def hash64(element, seed: int = 0) -> int:
    """Hash a byte sequence (or str / 64-bit int) to a 64-bit digest.

    Deterministic across runs and platforms: the input is absorbed in
    8-byte little-endian blocks (zero padded), followed by the byte
    length, each block passing through the mixer.

    Elements hash as their canonical bytes, so these are one element
    each: a ``str`` and its UTF-8 encoding (``"abc"`` and ``b"abc"``),
    an int and its 8-byte little-endian form (taken modulo 2**64), and
    ``bytes``/``bytearray``/``memoryview`` of equal content.
    """
    data = _canonical_bytes(element)
    state = mix64((seed ^ _SEED_TWEAK) & MASK64)
    for off in range(0, len(data), 8):
        block = int.from_bytes(data[off:off + 8], "little")
        state = mix64(state ^ block)
    return mix64(state ^ len(data))


def hash64_u64_array(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized :func:`hash64` for arrays of 64-bit integer elements.

    Bit-identical to ``hash64(int(v).to_bytes(8, 'little'), seed)`` for
    every entry, so batch-built sketches match element-at-a-time ones.
    """
    state = values.astype(np.uint64)  # the one copy; every step below is in place
    state ^= _U(mix64((seed ^ _SEED_TWEAK) & MASK64))
    _mix_inplace(state)
    state ^= _U(8)  # byte length of one u64 block
    _mix_inplace(state)
    return state


#: ``_BYTE_MASKS[i]`` keeps the low ``i`` bytes of a little-endian word.
_BYTE_MASKS = np.array([(1 << (8 * i)) - 1 for i in range(9)], dtype=np.uint64)


def check_int_pair(a, b, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)`` as int64 arrays; ValueError unless 1-D integer arrays of one length.

    A uint64 past ``2**63 - 1`` comes back negative, for the caller's range check to refuse.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 1 or b.ndim != 1 or len(a) != len(b):
        raise ValueError(f"{what} need 1-D arrays of one length, got {a.shape} and {b.shape}")
    if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
        raise ValueError(f"{what} need integer arrays, got {a.dtype} and {b.dtype}")
    return a.astype(np.int64, copy=False), b.astype(np.int64, copy=False)


def hash64_tokens(buf, starts: np.ndarray, ends: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized :func:`hash64` of the byte tokens ``buf[starts[i]:ends[i]]``.

    Bit-identical to ``hash64(bytes(buf[s:e]), seed)`` for every token.
    Round ``r`` mixes block ``r`` of every token longer than ``8 r``
    bytes, so the rounds run up to the longest token; tokens are visited
    longest first, which makes the tokens still active in a round a
    prefix.  The last block of a token is masked to its length, which
    is the zero padding of :func:`hash64`.

    Raises ValueError unless ``starts`` and ``ends`` are 1-D integer
    arrays of one length with ``0 <= starts[i] <= ends[i] <= len(buf)``.
    """
    data = np.frombuffer(buf, dtype=np.uint8)
    starts, ends = check_int_pair(starts, ends, "token bounds")
    lens = ends - starts
    if len(lens) and not (starts.min() >= 0 and lens.min() >= 0 and ends.max() <= len(data)):
        raise ValueError(f"token bounds must satisfy 0 <= start <= end <= {len(data)}")
    padded = np.zeros(len(data) + 8, dtype=np.uint8)  # the last word may read past the end
    padded[:len(data)] = data
    # the little-endian word starting at every byte offset, as an unaligned view
    words = np.ndarray((len(data) + 1,), dtype="<u8", buffer=padded, strides=(1,))
    order = np.argsort(-lens, kind="stable")
    pos = starts[order]
    left = lens[order]
    # active[r]: how many tokens (a prefix of ``order``) have a block r
    rounds = (int(left[0]) + 7) // 8 if len(left) else 0
    active = np.searchsorted(-left, -8 * np.arange(rounds), side="left")
    state = np.full(len(lens), mix64((seed ^ _SEED_TWEAK) & MASK64), dtype=np.uint64)
    for c in active.tolist():
        head = state[:c]
        head ^= words[pos[:c]] & _BYTE_MASKS[np.minimum(left[:c], 8)]
        _mix_inplace(head)
        pos[:c] += 8
        left[:c] -= 8
    state ^= lens[order].astype(np.uint64)
    _mix_inplace(state)
    out = np.empty_like(state)
    out[order] = state
    return out


def rho(y: int, width: int) -> int:
    """1-indexed position of the least significant set bit of ``y``.

    ``y`` is interpreted as a ``width``-bit word; ``rho(0) == width + 1``
    (saturation -- the all-zero remainder must not crash and keeps the
    rank monotone in the number of trailing zeros).
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if y == 0:
        return width + 1
    return (y & -y).bit_length()


def rho_array(y: np.ndarray, width: int) -> np.ndarray:
    """Vectorized :func:`rho` on a uint64 array, as int64 ranks.

    Reads only the low ``width`` bits of each word:
    ``rho_array(y, w) == rho(y & (2**w - 1), w)``, so callers need not
    mask.  ``~y & (y - 1)`` keeps exactly the trailing zeros of ``y``
    (all 64 bits for ``y == 0``), and clamping their count at ``width``
    is the saturation of :func:`rho`.
    """
    if not 1 <= width <= 64:
        raise ValueError(f"width must be in [1, 64], got {width}")
    y = y.astype(np.uint64, copy=False)
    rank = np.empty(y.shape, dtype=np.int64)
    for blk in _blocks(len(y)):
        trailing = y[blk] - _U(1)
        trailing &= ~y[blk]
        rank[blk] = np.minimum(np.bitwise_count(trailing), np.uint8(width))
    rank += 1
    return rank


#: Precisions ``b`` whose ``m = 2**b`` registers take the top-bits layout.
PRECISIONS = range(4, 19)
PRECISION_SPAN = f"[{PRECISIONS[0]}, {PRECISIONS[-1]}]"


def check_precision(b: int) -> int:
    """``b`` if it is one of :data:`PRECISIONS`, else ValueError."""
    if b not in PRECISIONS:
        raise ValueError(f"precision b must be in {PRECISION_SPAN}, got {b}")
    return b


def top_bits_precision(m: int) -> int | None:
    """``b`` if ``m = 2**b`` with ``b`` in :data:`PRECISIONS` (the top-bits layout), else None."""
    b = m.bit_length() - 1
    return b if m == 1 << b and b in PRECISIONS else None


def split_hash(raw: int, m: int) -> tuple[int, int]:
    """Split a digest for an arbitrary register count ``m``.

    Power-of-two ``m`` uses the classic top-bits layout.  Otherwise the
    bucket is ``(m * top32) >> 32`` and the rank comes from the low 32
    bits, so bucket and rank stay independent.
    """
    b = top_bits_precision(m)
    if b is not None:
        w = 64 - b
        return raw >> w, rho(raw & ((1 << w) - 1), w)
    return (m * (raw >> 32)) >> 32, rho(raw & 0xFFFFFFFF, 32)


def split_hash_array(raw: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`split_hash`; returns int64 (buckets, ranks).

    ``raw`` is left as it is.  Both bucket formulas leave the top bit
    clear, so the bucket array is the shifted words viewed as int64.
    """
    raw = raw.astype(np.uint64, copy=False)
    b = top_bits_precision(m)
    if b is not None:
        w = 64 - b
        return (raw >> _U(w)).view(np.int64), rho_array(raw, w)
    bucket = raw >> _U(32)
    bucket *= _U(m)
    bucket >>= _U(32)
    return bucket.view(np.int64), rho_array(raw, 32)


def geo_width(m: int) -> int:
    """Width of the rank domain for register count ``m`` (max rank is width+1)."""
    b = top_bits_precision(m)
    return 32 if b is None else 64 - b


def stream_u64(n: int, stream_seed: int) -> np.ndarray:
    """A synthetic stream of exactly ``n`` distinct 64-bit elements.

    Seeded counters through the bijective mixer: injective, hence exactly
    ``n`` distinct values, with no coupon-collector correction needed.
    The seed itself is mixed first so that nearby seeds (trial indices)
    yield counter blocks that are astronomically unlikely to overlap.
    """
    stream = np.arange(n, dtype=np.uint64)
    stream += _U(mix64(stream_seed & MASK64))
    _mix_inplace(stream)
    return stream
