"""The batch paths against the scalar rule and the oracle.

``insert_batch`` reduces a batch to its cells by scatter and unions them
in; the register codec packs eight registers per 64-bit word.  Both must
give the bytes of element-at-a-time inserts, at any batch size, any
register count and any interleaving with merges and file round trips.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from ehll.hashing import hash64_u64_array, split_hash_array, stream_u64
from ehll.martingale import MartingaleCounter
from ehll.oracle import derive_cells, shadow_from_stream
from ehll.registers import BitArray, PackedRegisterArray
from ehll.serialization import SKETCHES, deserialize, serialize
from ehll.tailcut import OFFSET_MAX, _TailCutBase

KINDS = tuple(SKETCHES)


def scalar_replay(cls, values, **shape):
    """A sketch fed the split pairs of ``values`` one at a time."""
    s = cls(**shape)
    for j, g in zip(*(a.tolist() for a in s._split_batch(values))):
        s._insert_bg(j, g)
    return s


def batched(cls, values, size, **shape):
    s = cls(**shape)
    for lo in range(0, len(values), size):
        s.insert_batch(values[lo:lo + size])
    return s


def spikes(m: int, seed: int = 0, rank: int = 17) -> np.ndarray:
    """Elements whose rank under ``(m, seed)`` is at least ``rank``."""
    pool = stream_u64(1 << 19, 99)
    _, geo = split_hash_array(hash64_u64_array(pool, seed), m)
    return pool[geo >= rank]


# ---------------------------------------------------------------------------
# cell reduction

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("size", [1, 256, 4096, 65_536])
def test_batch_equals_scalar_at_b14(kind, size):
    # batch size 1 costs a whole-array union per element, so it gets a short stream
    values = stream_u64(3 * size if size > 1 else 300, size)
    cls = SKETCHES[kind]
    assert batched(cls, values, size, b=14) == scalar_replay(cls, values, b=14)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [1195, 1280])
def test_batch_equals_scalar_at_unaligned_m(kind, m):
    values = stream_u64(5000, m)
    cls = SKETCHES[kind]
    assert batched(cls, values, 700, m=m) == scalar_replay(cls, values, m=m)


@pytest.mark.parametrize("kind", KINDS)
def test_empty_and_all_duplicate_batches(kind):
    cls = SKETCHES[kind]
    values = stream_u64(2000, 8)
    s = batched(cls, values, 2000, b=10)
    before = s.copy()
    s.insert_batch(np.zeros(0, dtype=np.uint64))
    assert s == before
    s.insert_batch(np.concatenate([values[::3], values[::3]]))
    assert s == before
    one = cls(b=10)
    one.insert_batch(np.full(1000, values[0]))
    assert one == scalar_replay(cls, values[:1], b=10)
    if kind != "pcsa":
        assert s.change_probability() == before.change_probability()


def count_calls(monkeypatch, cls, name):
    """Record each call of ``cls.name`` made while the test runs."""
    calls, method = [], vars(cls)[name]
    monkeypatch.setattr(cls, name, lambda self, *a: calls.append(name) or method(self, *a))
    return calls


@pytest.mark.parametrize("kind", ["hll", "ehll", "hll-tc", "ehll-tc"])
def test_empty_batch_reads_and_writes_no_register(kind, monkeypatch):
    s = batched(SKETCHES[kind], stream_u64(2000, 8), 2000, b=10)
    counter = MartingaleCounter(s.copy())
    before, q = s.copy(), s.change_probability()
    io = [count_calls(monkeypatch, cls, name) for cls in (PackedRegisterArray, BitArray)
          for name in ("values", "set_values")]
    s.insert_batch(np.zeros(0, dtype=np.uint64))
    empty = np.zeros(0, dtype=np.int64)
    out = counter.insert_bg_batch(empty, empty)
    assert sum(map(len, io)) == 0
    assert [len(a) for a in out] == [0, 0, 0]
    for got in (s, counter.inner):
        assert got == before and got.change_probability() == q


@pytest.mark.parametrize("kind", ["hll-tc", "ehll-tc"])
def test_tailcut_reads_its_offsets_once_per_load_and_per_run(kind, monkeypatch):
    cls = SKETCHES[kind]
    data = serialize(batched(cls, stream_u64(5000, 3), 5000, b=10))
    reads = count_calls(monkeypatch, PackedRegisterArray, "values")
    deserialize(data)
    assert len(reads) == 1
    # cell 0 keeps its zero offset, so the base holds and every run scans for lifts;
    # the three ranks above the ceiling cut the batch into four runs
    bucket = np.arange(300) % 15 + 1
    geo = np.full(300, 3)
    geo[[50, 120, 121]] = 20
    for walk in (cls(m=16)._insert_bg_batch, MartingaleCounter(cls(m=16)).insert_bg_batch):
        reads.clear()
        walk(bucket, geo)
        assert len(reads) == 4


@pytest.mark.parametrize("kind", ["hll-tc", "ehll-tc"])
@pytest.mark.parametrize("size", [1, 256, 4096])
def test_tailcut_streams_opening_with_clamps(kind, size):
    cls = SKETCHES[kind]
    values = np.concatenate([spikes(1 << 14), stream_u64(3 * size if size > 1 else 300, 5)])
    got = batched(cls, values, size, b=14)
    assert got == scalar_replay(cls, values, b=14)
    # the opening ranks were truncated against a base of 0
    assert got.base == 0 and (got.offsets.values() == OFFSET_MAX).any()


@pytest.mark.parametrize("kind", ["hll-tc", "ehll-tc"])
def test_tailcut_batch_across_base_promotions(kind):
    # few cells: the base moves many times inside one batch, with clamps in between
    rng = np.random.default_rng(7)
    cls = SKETCHES[kind]
    for m in (1, 2, 16, 16, 64):
        n = 3000
        bucket = rng.integers(0, m, n)
        geo = rng.geometric(0.5, n)
        spike = rng.random(n) < 0.05
        geo[spike] = rng.integers(10, 34, int(spike.sum()))
        seq = cls(m=m)
        for j, g in zip(bucket.tolist(), geo.tolist()):
            seq._insert_bg(j, g)
        bat = cls(m=m)
        cuts = np.unique(np.r_[0, rng.integers(0, n, 6), n])
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            bat._insert_bg_batch(bucket[lo:hi], geo[lo:hi])
        assert bat == seq and bat.base == seq.base > 3
        assert bat._zero_offsets == seq._zero_offsets


# ---------------------------------------------------------------------------
# register codec

def bitwise_pack(vals, width: int) -> bytes:
    """The packed layout, bit by bit: register j holds bits j*width .. j*width+width-1."""
    out = bytearray((len(vals) * width + 7) // 8)
    for j, v in enumerate(vals):
        for t in range(width):
            if v >> t & 1:
                bit = j * width + t
                out[bit >> 3] |= 1 << (bit & 7)
    return bytes(out)


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 8), m=st.integers(1, 200), data=st.data())
def test_codec_round_trip_matches_bitwise_layout(width, m, data):
    vals = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=m, max_size=m))
    a = PackedRegisterArray(m, width)
    a.set_values(np.array(vals))
    assert a.buffer.tobytes() == bitwise_pack(vals, width)
    assert a.values().tolist() == vals
    assert [a.get(j) for j in range(m)] == vals


# ---------------------------------------------------------------------------
# interleaved operations against the oracle and scalar replay

B, SEED = 4, 3
SPIKES = spikes(1 << B, SEED, rank=16)
elements = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SPIKES.tolist()))
batches = st.lists(elements, max_size=40)
tokens = st.lists(st.binary(max_size=12), max_size=20)


class SketchMachine(RuleBasedStateMachine):
    """One sketch under random interleavings of every entry point.

    Order-free kinds are checked against the oracle cells of everything
    inserted or merged in; TailCut kinds against a twin that takes every
    element through scalar ``insert`` and merges the scalar twin of each
    merged sketch.
    """

    kind = ""

    def __init__(self):
        super().__init__()
        self.cls = SKETCHES[self.kind]
        self.sketch = self.cls(b=B, seed=SEED)
        self.twin = self.cls(b=B, seed=SEED)
        self.stream = []

    def _scalar(self, items):
        twin = self.cls(b=B, seed=SEED)
        for e in items:
            twin.insert(e)
        return twin

    @rule(e=elements)
    def insert(self, e):
        self.sketch.insert(e)
        self.twin.insert(e)
        self.stream.append(e)

    @rule(items=batches)
    def insert_batch(self, items):
        self.sketch.insert_batch(np.array(items, dtype=np.uint64))
        for e in items:
            self.twin.insert(e)
        self.stream += items

    @rule(items=tokens)
    def insert_tokens(self, items):
        lens = np.array([len(t) for t in items], dtype=np.int64)
        ends = np.cumsum(lens)
        self.sketch.insert_tokens(b"".join(items), ends - lens, ends)
        for t in items:
            self.twin.insert(t)
        self.stream += items

    @rule(items=batches)
    def merge(self, items):
        other = self.cls(b=B, seed=SEED)
        other.insert_batch(np.array(items, dtype=np.uint64))
        self.sketch = self.sketch.merge(other)
        self.twin = self.twin.merge(self._scalar(items))
        self.stream += items

    @rule()
    def round_trip(self):
        self.sketch = deserialize(serialize(self.sketch))

    @invariant()
    def matches_reference(self):
        s = self.sketch
        if isinstance(s, _TailCutBase):
            assert s == self.twin
        else:
            shadow = shadow_from_stream(self.stream, s.m, SEED)
            if self.kind == "pcsa":
                bits = s.bitmaps.values().reshape(s.m, s.L)
                assert [set(np.flatnonzero(row) + 1) for row in bits] == shadow
            else:
                hll_cells, ehll_cells = derive_cells(shadow)
                k, x = s._cells()
                if x is None:
                    assert k.tolist() == hll_cells
                else:
                    assert list(zip(k.tolist(), x.tolist())) == ehll_cells
        assert s.copy()._loaded()
        if self.kind != "pcsa":
            exact = s.copy()
            exact.resync_term_sum()
            assert s.change_probability() == pytest.approx(exact.change_probability(), rel=1e-12)


for _kind in KINDS:
    _name = _kind.replace("-", "_")
    _machine = type(f"SketchMachine_{_name}", (SketchMachine,), {"kind": _kind})
    _machine.TestCase.settings = settings(max_examples=25, stateful_step_count=12, deadline=None)
    globals()[f"TestInterleaved_{_name}"] = _machine.TestCase
del _kind, _name, _machine
