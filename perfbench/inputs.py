"""Seeded input generators; they run before any timed region.

Nothing here imports ``ehll``: the program under test receives only the
generated inputs, and each generator records the true distinct count
that the output checks compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_ASCII = np.frombuffer(
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.:/@", dtype=np.uint8)
_NON_ASCII = [c.encode() for c in "éüßøñçΩπжあいう日本語中文€🙂"]


# ---------------------------------------------------------------------------
# tokens-cli: a newline-delimited Zipf token stream


@dataclass(frozen=True)
class TokenFile:
    path: Path
    tokens: int
    distinct: int
    non_ascii: int   # distinct tokens holding a multi-byte character
    multi_block: int  # distinct tokens longer than one 8-byte hash block


_PHI = (5 ** 0.5 - 1) / 2


def _lengths(size: int) -> list[int]:
    """Token length of each Zipf rank: log-uniform over 1..64 bytes, the same for every seed.

    A golden-ratio sequence spreads the lengths evenly over the ranks at
    every scale, so the lengths of the heavy ranks, and with them the
    hashing work per token, do not change with the seed.  A length whose
    ASCII token space is half used moves the rank up by one byte.
    """
    want = np.exp((0.5 + _PHI * np.arange(size)) % 1.0 * np.log(64.5)).astype(np.int64)
    used: dict[int, int] = {}
    out = []
    for n in want.clip(1, 64).tolist():
        while used.get(n, 0) >= len(_ASCII) ** n // 2:
            n += 1
        used[n] = used.get(n, 0) + 1
        out.append(n)
    return out


def _vocabulary(rng: np.random.Generator, size: int) -> list[bytes]:
    """``size`` distinct tokens with the lengths of ``_lengths``, rank by rank.

    10% are drawn with a multi-byte first character; those too short for
    it, or colliding, stay ASCII, so about 7% end up non-ASCII.
    """
    lengths = _lengths(size)
    pool = _ASCII[rng.integers(0, len(_ASCII), sum(lengths))].tobytes()
    wide = (rng.random(size) < 0.10).tolist()
    picks = rng.integers(0, len(_NON_ASCII), size).tolist()
    vocab: dict[bytes, None] = {}
    end = 0
    for n, w, pick in zip(lengths, wide, picks):
        tok = pool[end:end + n]
        end += n
        ch = _NON_ASCII[pick]
        if w and len(ch) <= n:
            tok = ch + tok[len(ch):]
        while tok in vocab:  # redrawn as ASCII: short wide tokens are few
            tok = _ASCII[rng.integers(0, len(_ASCII), n)].tobytes()
        vocab[tok] = None
    return list(vocab)


def token_file(seed: int, path: Path, tokens: int, vocab_size: int,
               zipf_s: float = 0.9) -> TokenFile:
    """Draws from a finite Zipf law (P(rank r) ~ r^-s) over a seeded vocabulary."""
    rng = np.random.default_rng([seed, 1])
    vocab = _vocabulary(rng, vocab_size)
    weights = np.arange(1, vocab_size + 1, dtype=float) ** -zipf_s
    ranks = rng.choice(vocab_size, size=tokens, p=weights / weights.sum())
    path.write_bytes(b"\n".join(vocab[r] for r in ranks.tolist()) + b"\n")
    seen = [vocab[r] for r in np.unique(ranks).tolist()]
    return TokenFile(
        path=path, tokens=tokens, distinct=len(seen),
        non_ascii=sum(1 for t in seen if max(t) >= 0x80),
        multi_block=sum(1 for t in seen if len(t) > 8),
    )


# ---------------------------------------------------------------------------
# shard-rollup: overlapping shards of u64 elements in micro-batches

#: Shard i covers element ids [start_i, start_i + n_i); shard i+1 starts
#: ``SHARD_OVERLAP * n_i`` ids before shard i ends, so neighbours share ids.
SHARD_OVERLAP = 0.30
#: Each shard also repeats ``DUP_SHARE * n_i`` of its own ids at random.
DUP_SHARE = 0.25
#: Shard cardinalities: log-uniform over [2^11, 2^17], one per stratum.
SHARD_LOG2 = (11.0, 17.0)
#: Batch sizes: log-uniform over [256, 16384], stratified in cycles of 16.
BATCH_RANGE = (256, 16384)
BATCH_STRATA = 16

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True)
class Shard:
    elements: np.ndarray  # uint64, arrival order
    batches: np.ndarray   # int64 cut points, batches[i]:batches[i+1]
    start: int            # id interval [start, stop)
    stop: int


@dataclass(frozen=True)
class ShardSet:
    shards: list[Shard]

    def distinct(self, lo: int, hi: int) -> int:
        """Exact distinct count of the union of shards ``lo .. hi-1``."""
        spans = sorted((s.start, s.stop) for s in self.shards[lo:hi])
        total, cur_lo, cur_hi = 0, spans[0][0], spans[0][1]
        for a, b in spans[1:]:
            if a > cur_hi:
                total += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        return total + cur_hi - cur_lo

    @property
    def elements(self) -> int:
        return sum(len(s.elements) for s in self.shards)


def _stratified(rng: np.random.Generator, lo: float, hi: float, k: int) -> np.ndarray:
    """One uniform draw from each of ``k`` equal strata of [lo, hi), shuffled."""
    edges = lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k
    return rng.permutation(edges)


def shard_set(seed: int, shards: int) -> ShardSet:
    rng = np.random.default_rng([seed, 2])
    offset = np.uint64(int(rng.integers(0, 2**63)))
    sizes = np.round(2.0 ** _stratified(rng, *SHARD_LOG2, shards)).astype(np.int64)
    log_lo, log_hi = np.log(BATCH_RANGE[0]), np.log(BATCH_RANGE[1] + 1)
    batch_pool: list[int] = []
    out = []
    start = 0
    for n in sizes.tolist():
        ids = np.arange(start, start + n, dtype=np.uint64)
        dups = ids[rng.integers(0, n, int(DUP_SHARE * n))]
        stream = rng.permutation(np.concatenate([ids, dups]))
        elements = stream * _GOLDEN + offset  # bijective on u64: ids stay distinct
        cuts = [0]
        while cuts[-1] < len(elements):
            if not batch_pool:
                batch_pool = np.exp(_stratified(rng, log_lo, log_hi, BATCH_STRATA)).astype(
                    np.int64).tolist()
            cuts.append(min(cuts[-1] + batch_pool.pop(), len(elements)))
        out.append(Shard(elements, np.asarray(cuts, dtype=np.int64), start, start + n))
        start += int(round((1.0 - SHARD_OVERLAP) * n))
    return ShardSet(out)
