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
(:func:`stream_u64`, :func:`hash64_u64_array`, :func:`split_hash_array`,
which is :func:`bucket_array` and :func:`rho_array`) works in place:
each stage writes only its outputs and walks them in blocks of
:data:`_BLOCK` words, so its temporaries stay small, and
:func:`rho_array` reads the low bits of a word without a masked copy.
Each stage takes an optional ``out``: given, the stage
allocates nothing of the input's size and writes there, so a caller that
reuses its buffers (a campaign worker, trial after trial) touches no
fresh pages; omitted, the stage allocates its outputs.  An ``out`` of
the wrong dtype or shape raises ValueError.  Inputs are never modified,
except by ``hash64_u64_array(x, seed, out=x)``, which hashes ``x`` in
place.
"""

from __future__ import annotations

import operator

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
#: block's temporaries are reused from the allocator's free lists and stay
#: in cache; one as large as the whole array is fresh pages each time, and
#: so is a whole-array output unless the caller passes its own ``out``.
_BLOCK = 1 << 13

#: ``0, 1, ..., _BLOCK - 1``: one block of :func:`stream_u64`'s counters.
_IOTA = np.arange(_BLOCK, dtype=np.uint64)


def _blocks(n: int):
    """Slices of ``range(n)`` of at most :data:`_BLOCK` elements."""
    return (slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK))


def _checked_out(out, shape: tuple, dtype) -> np.ndarray:
    """``out`` if it is an ndarray of ``shape`` and ``dtype``, else ValueError."""
    if not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == dtype):
        got = f"{out.dtype} {out.shape}" if isinstance(out, np.ndarray) else type(out).__name__
        raise ValueError(f"out must be a {np.dtype(dtype)} array of shape {shape}, got {got}")
    return out


def _mix_block(v: np.ndarray) -> None:
    """:func:`mix64` applied in place to one block of uint64 (wrapping arithmetic)."""
    v ^= v >> _U(30)
    v *= _U(_MIX1)
    v ^= v >> _U(27)
    v *= _U(_MIX2)
    v ^= v >> _U(31)


def _mix_inplace(x: np.ndarray) -> None:
    """:func:`mix64` applied in place to a uint64 array, block by block."""
    for blk in _blocks(len(x)):
        _mix_block(x[blk])


def _canonical_bytes(element) -> bytes:
    if isinstance(element, bytes):
        return element
    if isinstance(element, bytearray) or isinstance(element, memoryview):
        return bytes(element)
    if isinstance(element, str):
        return element.encode("utf-8")
    if isinstance(element, (int, np.integer)) and not isinstance(element, bool):
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
    ``bytes``/``bytearray``/``memoryview`` of equal content.  A ``bool``
    is refused like ``np.bool_``, not hashed as the int 0 or 1.
    """
    data = _canonical_bytes(element)
    state = mix64((seed ^ _SEED_TWEAK) & MASK64)
    for off in range(0, len(data), 8):
        block = int.from_bytes(data[off:off + 8], "little")
        state = mix64(state ^ block)
    return mix64(state ^ len(data))


def hash64_u64_array(values: np.ndarray, seed: int = 0,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized :func:`hash64` for arrays of 64-bit integer elements.

    Bit-identical to ``hash64(int(v).to_bytes(8, 'little'), seed)`` for
    every entry, so batch-built sketches match element-at-a-time ones.
    The digests go to ``out`` (a uint64 array of ``values``' shape) if
    given, else to a fresh copy; ``out=values`` hashes in place.
    """
    if out is None:
        state = values.astype(np.uint64)
    else:
        state = _checked_out(out, values.shape, np.uint64)
        if state is not values:
            np.copyto(state, values, casting="unsafe")
    start = _U(mix64((seed ^ _SEED_TWEAK) & MASK64))
    for blk in _blocks(len(state)):
        v = state[blk]
        v ^= start
        _mix_block(v)
        v ^= _U(8)  # byte length of one u64 block
        _mix_block(v)
    return state


#: ``_BYTE_MASKS[i]`` keeps the low ``i`` bytes of a little-endian word.
_BYTE_MASKS = np.array([(1 << (8 * i)) - 1 for i in range(9)], dtype=np.uint64)


def check_int_pair(a, b, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)`` as arrays of their own dtypes; ValueError unless 1-D integer arrays of one length.

    Each caller checks the range before it narrows or computes in a dtype of its own.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 1 or b.ndim != 1 or len(a) != len(b):
        raise ValueError(f"{what} need 1-D arrays of one length, got {a.shape} and {b.shape}")
    if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
        raise ValueError(f"{what} need integer arrays, got {a.dtype} and {b.dtype}")
    return a, b


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
    # as int64, a uint64 past ``2**63 - 1`` comes back negative, for the range check to refuse
    starts, ends = (a.astype(np.int64, copy=False)
                    for a in check_int_pair(starts, ends, "token bounds"))
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


def rho_array(y: np.ndarray, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized :func:`rho` on a uint64 array, as int64 ranks.

    Reads only the low ``width`` bits of each word:
    ``rho_array(y, w) == rho(y & (2**w - 1), w)``, so callers need not
    mask.  ``y ^ (y - 1)`` sets exactly the trailing zeros of ``y`` and
    its lowest set bit (all 64 bits for ``y == 0``), so its popcount is
    the rank, and clamping it at ``width + 1`` is the saturation of
    :func:`rho`.  The ranks go to ``out`` (an int64 array of ``y``'s
    shape) if given.
    """
    if not 1 <= width <= 64:
        raise ValueError(f"width must be in [1, 64], got {width}")
    y = y.astype(np.uint64, copy=False)
    rank = np.empty(y.shape, dtype=np.int64) if out is None else _checked_out(out, y.shape, np.int64)
    cap = np.int64(width + 1)
    for blk in _blocks(len(y)):
        v, r = y[blk], rank[blk]
        low = v - _U(1)
        low ^= v
        np.bitwise_count(low, out=r)
        np.minimum(r, cap, out=r)
    if width == 64:
        rank[y == 0] = 65  # the one rank a popcount of 64 bits cannot reach
    return rank


#: Precisions ``b`` whose ``m = 2**b`` registers take the top-bits layout.
PRECISIONS = range(4, 19)
PRECISION_SPAN = f"[{PRECISIONS[0]}, {PRECISIONS[-1]}]"


def as_integer(value, name: str) -> int:
    """``value`` as a Python int, numpy integers included; a bool, float or str is a TypeError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def check_precision(b: int) -> int:
    """``b`` as an int if it is one of :data:`PRECISIONS`, else ValueError."""
    b = as_integer(b, "precision b")
    if b not in PRECISIONS:
        raise ValueError(f"precision b must be in {PRECISION_SPAN}, got {b}")
    return b


def top_bits_precision(m: int) -> int | None:
    """``b`` if ``m = 2**b`` with ``b`` in :data:`PRECISIONS` (the top-bits layout), else None."""
    m = as_integer(m, "register count")
    b = m.bit_length() - 1
    return b if m == 1 << b and b in PRECISIONS else None


def check_registers(m: int) -> int:
    """``m`` as an int if it is a register count in ``[1, 2**32]``, else ValueError.

    Above ``2**32`` the 32/32 bucket ``(m * top32) >> 32`` would wrap a
    64-bit word.
    """
    m = as_integer(m, "register count")
    if not 1 <= m <= 1 << 32:
        raise ValueError(f"register count must be in [1, 2**32], got {m}")
    return m


def split_hash(raw: int, m: int) -> tuple[int, int]:
    """Split a digest for an arbitrary register count ``m``.

    Power-of-two ``m`` uses the classic top-bits layout.  Otherwise the
    bucket is ``(m * top32) >> 32`` and the rank comes from the low 32
    bits, so bucket and rank stay independent.  ``m`` above ``2**32``
    raises ValueError.
    """
    b = top_bits_precision(m)
    if b is not None:
        w = 64 - b
        return raw >> w, rho(raw & ((1 << w) - 1), w)
    m = check_registers(m)
    return (m * (raw >> 32)) >> 32, rho(raw & 0xFFFFFFFF, 32)


def bucket_array(raw: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """The buckets of :func:`split_hash` of each digest, as int64.

    ``raw`` is left as it is.  The buckets go to ``out``, an int64 array
    of ``raw``'s shape that does not overlap it, if given.  Both bucket
    formulas leave the top bit clear, so they are computed on the array
    viewed as uint64.
    """
    b = top_bits_precision(m)
    if b is None:
        m = check_registers(m)
    raw = raw.astype(np.uint64, copy=False)
    bucket = np.empty(raw.shape, np.int64) if out is None else _checked_out(out, raw.shape, np.int64)
    lanes = bucket.view(np.uint64)
    if b is not None:
        np.right_shift(raw, _U(64 - b), out=lanes)
    else:
        np.right_shift(raw, _U(32), out=lanes)
        lanes *= _U(m)
        lanes >>= _U(32)
    return bucket


def split_hash_array(raw: np.ndarray, m: int, out: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`split_hash`; returns int64 (buckets, ranks).

    It is :func:`bucket_array` and :func:`rho_array` at
    :func:`geo_width` of ``m``.  ``raw`` is left as it is.  The pair goes
    to ``out``, two int64 arrays of ``raw``'s shape that do not overlap
    it, if given.
    """
    bucket, rank = (None, None) if out is None else out
    return bucket_array(raw, m, bucket), rho_array(raw, geo_width(m), rank)


def geo_width(m: int) -> int:
    """Width of the rank domain for register count ``m`` (max rank is width+1)."""
    b = top_bits_precision(m)
    return 32 if b is None else 64 - b


def stream_u64(n: int, stream_seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """A synthetic stream of exactly ``n`` distinct 64-bit elements.

    Seeded counters through the bijective mixer: injective, hence exactly
    ``n`` distinct values, with no coupon-collector correction needed.
    The seed itself is mixed first so that nearby seeds (trial indices)
    yield counter blocks that are astronomically unlikely to overlap.
    The stream goes to ``out`` (a uint64 array of shape ``(n,)``) if given.
    """
    stream = np.empty(n, dtype=np.uint64) if out is None else _checked_out(out, (n,), np.uint64)
    start = mix64(stream_seed & MASK64)
    for blk in _blocks(n):
        v = stream[blk]
        np.add(_IOTA[:len(v)], _U((start + blk.start) & MASK64), out=v)
        _mix_block(v)
    return stream
