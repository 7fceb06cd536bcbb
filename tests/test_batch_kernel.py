"""The batch paths against the scalar rule and the oracle.

``insert_batch`` unions a batch into the cells in place: a run of
fewer than ``m`` pairs touches only the cells it hits, and a longer one
sets the neighbor bits over the whole cell array.  The register codec
packs eight registers per 64-bit word.  Both must give
the bytes of element-at-a-time inserts, at any batch size, any register
count and any interleaving with merges and file round trips.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from ehll.hashing import hash64_u64_array, split_hash_array, stream_u64
from ehll.martingale import MartingaleCounter
from ehll.oracle import derive_cells, shadow_from_stream
from ehll.registers import BitArray, PackedRegisterArray
from ehll.serialization import SKETCHES, deserialize, serialize
from ehll.sketches import cell_indicator, estimate_cells, merge_ehll_cells
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
    # batch size 1 pays a batch call's fixed cost per element, so it gets a short stream
    values = stream_u64(3 * size if size > 1 else 300, size)
    cls = SKETCHES[kind]
    assert batched(cls, values, size, b=14) == scalar_replay(cls, values, b=14)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [1024, 1195, 1280])
def test_batch_equals_scalar_at_unaligned_m(kind, m):
    # m = 1024 is the aligned control; the batch sizes sit on both sides of
    # the two-field union's switch at m pairs, and the stream opens with
    # TailCut clamps and runs long enough to promote its base
    values = np.concatenate([spikes(m), stream_u64(16 * m, m)])
    cls = SKETCHES[kind]
    want = scalar_replay(cls, values, m=m)
    hll_cells, ehll_cells = derive_cells(shadow_from_stream(values.tolist(), m))
    for size in (700, m - 1, m, m + 1, 3 * m):
        got = batched(cls, values, size, m=m)
        assert got == want, size
        if kind == "pcsa":
            continue
        k, x = got._cells()
        if isinstance(got, _TailCutBase):
            # clamped at the opening, then the base promoted past 0
            assert got.base > 0 and (np.array(hll_cells) > k).any()
            assert got._zero_offsets == want._zero_offsets
        elif x is None:
            assert k.tolist() == hll_cells
        else:
            assert list(zip(k.tolist(), x.tolist())) == ehll_cells


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


@pytest.mark.parametrize("kind", ["hll", "ehll", "hll-tc", "ehll-tc", "pcsa"])
def test_empty_batch_reads_and_writes_no_register(kind, monkeypatch):
    s = batched(SKETCHES[kind], stream_u64(2000, 8), 2000, b=10)
    before = s.copy()
    counter = MartingaleCounter(s.copy()) if kind != "pcsa" else None
    io = [count_calls(monkeypatch, cls, name) for cls in (PackedRegisterArray, BitArray)
          for name in ("values", "set_values")]
    io.append(count_calls(monkeypatch, BitArray, "set_ones"))
    s.insert_batch(np.zeros(0, dtype=np.uint64))
    if counter is None:
        assert sum(map(len, io)) == 0 and s == before
        return
    empty = np.zeros(0, dtype=np.int64)
    out = counter.insert_bg_batch(empty, empty)
    assert sum(map(len, io)) == 0
    assert [len(a) for a in out] == [0, 0, 0]
    for got in (s, counter.inner):
        assert got == before and got.change_probability() == before.change_probability()


@pytest.mark.parametrize("kind", ["hll-tc", "ehll-tc"])
def test_tailcut_reads_its_offsets_once_per_load_and_per_run(kind, monkeypatch):
    """A file load decodes the offsets once; a run walker reads and packs none."""
    cls = SKETCHES[kind]
    data = serialize(batched(cls, stream_u64(5000, 3), 5000, b=10))
    reads = count_calls(monkeypatch, PackedRegisterArray, "values")
    writes = count_calls(monkeypatch, PackedRegisterArray, "set_values")
    deserialize(data)
    assert len(reads) == 1
    runs = count_calls(monkeypatch, _TailCutBase, "_run_end")
    # cell 0 keeps its zero offset, so the base holds and every martingale run scans
    # for lifts; the three ranks above the ceiling go in alone between three runs
    bucket = np.arange(300) % 15 + 1
    geo = np.full(300, 3)
    geo[[50, 120, 121]] = 20
    for walk in (cls(m=16)._insert_bg_batch, MartingaleCounter(cls(m=16)).insert_bg_batch):
        for calls in (reads, writes, runs):
            calls.clear()
        walk(bucket, geo)
        assert (len(reads), len(writes), len(runs)) == (0, 0, 6)


# ---------------------------------------------------------------------------
# the cells are the state; registers are packed only into the file payload

RANK_KINDS = [kind for kind in KINDS if kind != "pcsa"]


def cells_of(s):
    return [a.copy() for a in s._cells() if a is not None]


@pytest.mark.parametrize("kind", RANK_KINDS)
def test_resync_after_a_batch_keeps_the_state(kind):
    s = batched(SKETCHES[kind], stream_u64(3000, 4), 1000, b=10)
    ref = s.copy()
    s.resync_term_sum()
    assert all(map(np.array_equal, cells_of(s), cells_of(ref)))
    assert serialize(s) == serialize(ref)
    assert s.estimate().value == ref.estimate().value


@pytest.mark.parametrize("kind", RANK_KINDS)
def test_estimate_after_scalar_steps_resums_the_cells(kind):
    # ranks up to 60 over 16 cells: the running (Kahan) term sum soon differs
    # from the estimator's pairwise sum in its last bits
    rng = np.random.default_rng(1)
    s = SKETCHES[kind](m=16)
    s._insert_bg_batch(rng.integers(0, 16, 40), rng.integers(1, 20, 40))
    for j, g in zip(rng.integers(0, 16, 300).tolist(), rng.integers(1, 61, 300).tolist()):
        s._insert_bg(j, g)
        cells = s._cells()
        assert s.estimate().value == estimate_cells(s.m, *cells).value
        assert s.indicator() == cell_indicator(*cells)


def wide_pairs(s, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` (bucket, rank) pairs for ``s``, a fifth of them at ranks 30 up to the largest."""
    rng = np.random.default_rng(seed)
    geo = np.where(rng.random(n) < 0.2, rng.integers(30, s.width + 2, n), rng.integers(1, 8, n))
    return rng.integers(0, s.m, n), geo


@pytest.mark.parametrize("kind", ["hll", "ehll"])
def test_a_full_write_leaves_the_pairwise_term_sum(kind):
    # terms from 2^-1 to 2^-55 beside a sum near 200 need more bits than a
    # double holds, so a sum in another order, or a compensated running sum,
    # misses the pairwise sum of the cells in its last bits; TailCut's terms
    # span at most 15 ranks above the base and sum exactly in any order
    cls = SKETCHES[kind]

    def pairwise(s):
        return s.change_probability() * s.m == float(s._terms(*s._cells()).sum())

    def scalar_steps(s, seed):
        for j, g in zip(*(a.tolist() for a in wide_pairs(s, 50, seed))):
            s._insert_bg(j, g)

    s = cls(b=10)
    s._insert_bg_batch(*wide_pairs(s, 2000, 1))
    terms = s._terms(*s._cells())
    assert float(np.cumsum(terms)[-1]) != float(terms.sum())  # the order shows
    assert pairwise(s)
    scalar_steps(s, 2)
    s._insert_bg_batch(*wide_pairs(s, 300, 3))
    assert pairwise(s)
    scalar_steps(s, 4)
    other = cls(b=10)
    other._insert_bg_batch(*wide_pairs(other, 2000, 5))
    s = s.merge(other)
    assert pairwise(s)
    scalar_steps(s, 6)
    s = deserialize(serialize(s))
    assert pairwise(s)
    scalar_steps(s, 7)
    s.resync_term_sum()
    assert pairwise(s)


@pytest.mark.parametrize("kind", RANK_KINDS)
def test_copy_then_insert_leaves_the_original(kind):
    s = batched(SKETCHES[kind], stream_u64(3000, 4), 1000, b=10)
    packed = serialize(s)
    cells, q = cells_of(s), s.change_probability()
    dup = s.copy()
    dup.insert_all(range(500))  # scalar steps write the copied cells in place
    dup.insert_batch(stream_u64(3000, 5))
    serialize(dup)
    assert all(map(np.array_equal, cells_of(s), cells))
    assert s.change_probability() == q
    assert serialize(s) == packed


@pytest.mark.parametrize("kind", RANK_KINDS)
def test_memory_bits_packs_nothing(kind, monkeypatch):
    s = batched(SKETCHES[kind], stream_u64(2000, 8), 2000, b=10)
    writes = [count_calls(monkeypatch, cls, "set_values") for cls in (PackedRegisterArray, BitArray)]
    bits = s.memory_bits()
    assert sum(map(len, writes)) == 0
    assert bits == 8 * sum(len(part) for part in s._payload())


@pytest.mark.parametrize("kind", KINDS)
def test_deserialize_packs_nothing_and_serialize_packs_each_array_once(kind, monkeypatch):
    s = batched(SKETCHES[kind], stream_u64(2000, 8), 2000, b=14)
    writes = [count_calls(monkeypatch, cls, "set_values") for cls in (PackedRegisterArray, BitArray)]
    data = serialize(s)
    # the bitmap is kept packed; a rank sketch packs each payload array from its cells
    assert sum(map(len, writes)) == (0 if kind == "pcsa" else len(s._layout()))
    for calls in writes:
        calls.clear()
    deserialize(data)
    assert sum(map(len, writes)) == 0


@pytest.mark.parametrize("kind", RANK_KINDS)
def test_merge_shares_no_memory_with_its_operands(kind):
    cls = SKETCHES[kind]
    a = batched(cls, np.concatenate([spikes(1 << 10), stream_u64(3000, 4)]), 1000, b=10)
    b = batched(cls, stream_u64(3000, 5), 1000, b=10)
    before = [(cells_of(s), serialize(s)) for s in (a, b)]
    operands = [cells for s in (a, b) for cells in s._cells() if cells is not None]
    for out in (a.merge(b), b.merge(a), a.merge(a)):
        assert not any(np.shares_memory(got, cells) for got in out._cells() if got is not None
                       for cells in operands)
        out.insert_batch(stream_u64(3000, 6))  # writes to the result reach neither operand
        out.insert_all(range(200))
    for s, (cells, data) in zip((a, b), before):
        assert all(map(np.array_equal, cells_of(s), cells))
        assert serialize(s) == data


def traced_peak(fn, *args) -> int:
    """Peak bytes traced while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", KINDS)
def test_a_small_batch_costs_its_batch_not_the_register_count(kind):
    s = batched(SKETCHES[kind], stream_u64(5000, 1), 5000, b=18)
    # far below one int64 array of m cells (2 MiB here)
    assert traced_peak(s.insert_batch, stream_u64(64, 2)) < 8 * s.m // 4


@pytest.mark.parametrize("kind", RANK_KINDS)
def test_deserialize_allocates_only_the_decoded_cells(kind):
    s = batched(SKETCHES[kind], stream_u64(5000, 1), 5000, b=18)
    data = serialize(s)
    cells = sum(a.nbytes for a in s._cells() if a is not None)
    # the decoded int64 cells plus decode temporaries of well under 8 bytes a cell
    assert traced_peak(deserialize, data) < cells + 8 * s.m // 2


@pytest.mark.parametrize("kind", KINDS)
def test_two_loads_of_one_file_share_no_cells(kind):
    data = serialize(batched(SKETCHES[kind], np.concatenate(
        [spikes(1 << 10), stream_u64(3000, 4)]), 1000, b=10))
    a, b = deserialize(data), deserialize(data)
    before = [b.bitmaps.values()] if kind == "pcsa" else cells_of(b)
    a.insert_batch(stream_u64(3000, 5))
    a.insert_all(range(200))
    assert serialize(a) != data and serialize(b) == data
    after = [b.bitmaps.values()] if kind == "pcsa" else cells_of(b)
    assert all(map(np.array_equal, before, after))


@pytest.mark.parametrize("kind", ["hll-tc", "ehll-tc"])
@pytest.mark.parametrize("size", [1, 256, 4096])
def test_tailcut_streams_opening_with_clamps(kind, size):
    cls = SKETCHES[kind]
    values = np.concatenate([spikes(1 << 14), stream_u64(3 * size if size > 1 else 300, 5)])
    got = batched(cls, values, size, b=14)
    assert got == scalar_replay(cls, values, b=14)
    # the opening ranks were truncated against a base of 0
    assert got.base == 0 and (got._cells()[0] - got.base == OFFSET_MAX).any()


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


@pytest.mark.parametrize("kind", ["hll-tc", "ehll-tc"])
def test_a_plain_tailcut_batch_steps_only_at_clamps(kind, monkeypatch):
    """One batch across many promotions takes a scalar step at each clamp and nowhere else."""
    rng = np.random.default_rng(11)
    cls = SKETCHES[kind]
    m, n = 16, 4000
    bucket = rng.integers(0, m, n)
    geo = rng.geometric(0.5, n)
    spike = rng.random(n) < 0.01
    geo[spike] = rng.integers(12, 40, int(spike.sum()))
    seq, clamps, promotions = cls(m=m), [], set()
    for i, (j, g) in enumerate(zip(bucket.tolist(), geo.tolist())):
        base = seq.base
        if g > base + OFFSET_MAX:
            clamps.append(i)
        seq._insert_bg(j, g)
        if seq.base != base:
            promotions.add(i)
    assert len(clamps) > 10 and len(promotions - set(clamps)) > 5
    steps = []
    step = cls._insert_bg
    monkeypatch.setattr(cls, "_insert_bg", lambda s, j, g: steps.append((j, g)) or step(s, j, g))
    bat = cls(m=m)
    bat._insert_bg_batch(bucket, geo)
    assert steps == list(zip(bucket[clamps].tolist(), geo[clamps].tolist()))
    assert bat == seq and bat.base == seq.base
    assert bat._zero_offsets == seq._zero_offsets


# ---------------------------------------------------------------------------
# the two-field union below m pairs

@st.composite
def crowded_union(draw):
    """Valid prior cells of ``m`` and a run of pairs crowded onto a few of them at ranks 1-3."""
    m = draw(st.integers(4, 24))
    k = np.array(draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)))
    x = np.array(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    x[k <= 1] = 1  # ranks 0 and 1 have no neighbor to miss
    cells = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, m - 1))
    bucket = np.array(draw(st.lists(st.sampled_from(cells), min_size=n, max_size=n)))
    geo = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    return k, x, bucket, geo


@pytest.mark.parametrize("kind", RANK_KINDS)
@settings(max_examples=150, deadline=None)
@given(case=crowded_union())
def test_a_run_below_m_pairs_is_the_union_with_its_own_cells(kind, case):
    """Repeated buckets of a short run each write their cell once, and all agree."""
    k, x, bucket, geo = case
    s = SKETCHES[kind](m=len(k))
    s._load(k.copy(), x.copy() if s.neighbor_bit else None)  # no rank clamps here
    s._insert_bg_batch(bucket, geo)
    shadow = [set() for _ in k]
    for j, g in zip(bucket.tolist(), geo.tolist()):
        shadow[j].add(g)
    hll_cells, ehll_cells = derive_cells(shadow)
    got_k, got_x = s._cells()
    if s.neighbor_bit:
        want_k, want_x = merge_ehll_cells(k, x, *map(np.array, zip(*ehll_cells)))
        assert np.array_equal(got_x, want_x)
    else:
        want_k = np.maximum(k, hll_cells)
    assert np.array_equal(got_k, want_k)


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
    merged sketch.  A rank sketch's cells, and the estimate and indicator
    read from them, must survive a file round trip, and a copy's insert
    must leave the original's cells alone.  After a plain kind's batch
    write, a merge, a round trip or a resync, and until the next scalar
    insert, the term sum is the one computed from the cells, bit for bit;
    a TailCut batch may end in a scalar step.
    """

    kind = ""

    def __init__(self):
        super().__init__()
        self.cls = SKETCHES[self.kind]
        self.sketch = self.cls(b=B, seed=SEED)
        self.twin = self.cls(b=B, seed=SEED)
        self.stream = []
        self.exact_sum = True

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
        self.exact_sum = False

    @rule(items=batches)
    def insert_batch(self, items):
        self.sketch.insert_batch(np.array(items, dtype=np.uint64))
        for e in items:
            self.twin.insert(e)
        self.stream += items
        self.exact_sum = not issubclass(self.cls, _TailCutBase)

    @rule(items=tokens)
    def insert_tokens(self, items):
        lens = np.array([len(t) for t in items], dtype=np.int64)
        ends = np.cumsum(lens)
        self.sketch.insert_tokens(b"".join(items), ends - lens, ends)
        for t in items:
            self.twin.insert(t)
        self.stream += items
        self.exact_sum = not issubclass(self.cls, _TailCutBase)

    @rule(items=batches)
    def merge(self, items):
        other = self.cls(b=B, seed=SEED)
        other.insert_batch(np.array(items, dtype=np.uint64))
        self.sketch = self.sketch.merge(other)
        self.twin = self.twin.merge(self._scalar(items))
        self.stream += items
        self.exact_sum = True

    @rule()
    def round_trip(self):
        self.sketch = deserialize(serialize(self.sketch))
        self.exact_sum = True

    def _state(self):
        """Copies of the cell arrays a reader sees, and the estimate."""
        s = self.sketch
        cells = (s.bitmaps.values(),) if self.kind == "pcsa" else s._cells()
        return [a.copy() for a in cells if a is not None], s.estimate().value

    @rule(e=elements)
    def copy_then_insert(self, e):
        cells, est = self._state()
        self.sketch.copy().insert(e)
        after, after_est = self._state()
        assert all(map(np.array_equal, cells, after)) and after_est == est

    @precondition(lambda self: self.kind != "pcsa")
    @rule()
    def resync(self):
        self.sketch.resync_term_sum()
        self.exact_sum = True

    @invariant()
    def cells_survive_a_round_trip(self):
        s = self.sketch
        back = deserialize(serialize(s))  # raises on a state no insert can produce
        assert back == s and back.estimate().value == s.estimate().value
        if self.kind == "pcsa":
            return
        k, x = back._cells()
        assert np.array_equal(k, s._cells()[0])
        assert (x is None) if s._cells()[1] is None else np.array_equal(x, s._cells()[1])
        assert s.estimate().value == estimate_cells(s.m, k, x).value
        assert s.indicator() == cell_indicator(k, x)

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
        if self.kind != "pcsa":
            exact = s.copy()
            exact.resync_term_sum()
            if self.exact_sum:
                assert s.change_probability() == exact.change_probability()
            else:
                assert s.change_probability() == pytest.approx(exact.change_probability(), rel=1e-12)


for _kind in KINDS:
    _name = _kind.replace("-", "_")
    _machine = type(f"SketchMachine_{_name}", (SketchMachine,), {"kind": _kind})
    _machine.TestCase.settings = settings(max_examples=25, stateful_step_count=12, deadline=None)
    globals()[f"TestInterleaved_{_name}"] = _machine.TestCase
del _kind, _name, _machine
