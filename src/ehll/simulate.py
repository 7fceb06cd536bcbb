"""Monte-Carlo accuracy campaigns: many seeded streams, checkpointed estimates.

Each trial builds a fresh synthetic stream of exactly ``n`` distinct
64-bit elements (seeded counters through the bijective mixer), feeds it
to one sketch configuration, and records the estimate at evenly spaced
checkpoints.  Aggregates are relative bias and relative RMSE per
checkpoint, emitted as CSV (and optionally a simple SVG chart).

Matched-memory mode sizes the compared sketches to equal register
payload bits within one register of rounding: two-field kinds keep
``m0 = 2**b`` cells, and a max-rank kind of ``w`` bits per cell gets
``ceil((w + 1) / w * m0)``, its two-field twin's bits (``ceil(7/6 * m0)``
for ``hll``, ``5/4 * m0`` for ``hll-tc``).

Trials are vectorized: each trial feeds the production sketch one stream
segment per checkpoint through the batch path, and reads the estimate,
one sum of table-looked-up terms over the cells.  A segment shorter
than ``m`` costs its length; a longer one, such as the 2,000 pairs of a
checkpoint at n = 10^5 and m = 1024, also takes a few passes over the
cells to set the neighbor bits, cheaper than masks over its pairs.  A
TailCut batch steps alone only at a clamp and promotes its base at most
once per run.  A trial neither decodes nor packs a register: batches,
scalar steps and estimates work on the cells the sketch owns, which are
packed only when something reads the bytes, and a trial reads none.  A
martingale trial feeds its whole stream to a
:class:`~ehll.martingale.MartingaleCounter` as one block, which returns
E and V after each state change (a few thousand per trial), and reads
the checkpoints off that trace; the counter's block path is tested
against the element-at-a-time counter.  The block path unions the
stream chunk by chunk and scans only the pairs that can change a cell
as their chunk finds it, 6-7% of the pairs at n = 10^5 and m = 1024.

A trial's stream, hashes and (bucket, rank) pairs come from the in-place
array kernels of :mod:`ehll.hashing`.  Per-trial RNG streams are derived
from ``(seed, trial index)`` alone, so every kind of a call sees the
same 64-bit hashes.  One call cuts its trials evenly into one block per
worker, and a block runs its trials for every kind of the call: it
hashes each trial's stream once, splits the hashes once per distinct
register count ``m`` (matched-memory kinds differ in ``m``), and hands
that read-only split to each kind of that ``m`` before the next ``m`` is
split.  The calling process runs the first block itself, and each
other block runs in a child process of its own, forked after every
kind's bias constant is cached and before the caller starts its block;
a child sends its block's estimates back over a one-way pipe, and
``workers=1`` starts no child.  Blocks are filed by their first trial,
so any worker count yields the same aggregate rows as a sequential run.

Each block owns one workspace of three ``n``-word arrays (hashes,
bucket, rank), about 2.4 MB at n = 10^5 and 24 MB at n = 10^6, which it
allocates before its first trial.  Every trial is streamed, hashed and
split into it, so a trial after the first writes to no fresh pages, and
a process's peak stays at what one trial's fresh arrays took.  Nothing
of it outlives the block, and no state is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hashing import (
    MASK64,
    _SEED_TWEAK,
    as_integer,
    check_precision,
    hash64_u64_array,
    mix64,
    split_hash_array,
    stream_u64,
)
from .martingale import MartingaleCounter
from .serialization import SKETCHES
from .sketches import bias_constant

@dataclass(frozen=True)
class SimulationConfig:
    kinds: tuple[str, ...] = ("ehll",)
    b: int = 10
    n: int = 100_000
    trials: int = 2000
    checkpoints: int = 50
    seed: int = 0
    martingale: bool = False
    match_memory: bool = False
    asymptotic: bool = False
    workers: int = 1

    def __post_init__(self):
        for name in ("b", "n", "trials", "checkpoints", "seed", "workers"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        for name in ("martingale", "match_memory", "asymptotic"):
            flag = getattr(self, name)
            if not isinstance(flag, (bool, np.bool_)):
                raise TypeError(f"{name} must be a bool, got {flag!r}")
            object.__setattr__(self, name, bool(flag))
        check_precision(self.b)
        if self.trials < 2:
            raise ValueError("trials must be >= 2")
        if self.checkpoints < 1:
            raise ValueError("checkpoints must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if isinstance(self.kinds, str):
            raise ValueError(f"kinds must be a sequence of sketch kinds, got {self.kinds!r}")
        if not self.kinds:
            raise ValueError("a campaign needs at least one sketch kind")
        for kind in self.kinds:
            if kind not in SKETCHES:
                raise ValueError(f"unknown sketch kind {kind!r}")
            if self.kinds.count(kind) > 1:
                raise ValueError(f"sketch kind {kind!r} is given more than once")
            if self.match_memory and kind == "pcsa":
                raise ValueError(f"matched-memory mode does not size {kind!r}")
            if self.martingale and kind == "pcsa":
                raise ValueError("the bitmap sketch has no change probability")

    def registers_for(self, kind: str) -> int:
        m0 = 1 << self.b
        if not self.match_memory or SKETCHES[kind].neighbor_bit:
            return m0
        # a max-rank cell of w bits plus one bit is its two-field twin's cell
        w = SKETCHES[kind](m=1).memory_bits()
        return -(-(w + 1) * m0 // w)  # ceil

    def checkpoint_positions(self) -> np.ndarray:
        step = -(-self.n // self.checkpoints)
        pos = np.minimum(np.arange(1, self.checkpoints + 1) * step, self.n)
        return np.unique(pos)


@dataclass(frozen=True)
class SimulationRow:
    sketch: str
    m: int
    memory_bits: int
    n: int
    mean_est: float
    rel_bias: float
    rel_rmse: float
    trials: int


def trial_stream_seed(seed: int, trial: int) -> int:
    """Deterministic per-trial stream seed; never a shared mutable RNG."""
    return mix64((seed + (trial + 1) * _SEED_TWEAK) & MASK64)


# ---------------------------------------------------------------------------
# vectorized trial paths

def martingale_trace(kind: str, m: int, bucket: np.ndarray, geo: np.ndarray,
                     positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, V) of the martingale estimator at each checkpoint.

    The whole stream goes through one
    :meth:`~ehll.martingale.MartingaleCounter.insert_bg_batch`, whose
    trace of E and V after each state change is read at the checkpoints.
    """
    counter = MartingaleCounter(SKETCHES[kind](m=m))
    arrivals, e, v = counter.insert_bg_batch(bucket, geo)
    idx = np.searchsorted(arrivals, positions)  # changes among the first ``pos`` pairs
    return np.concatenate(([0.0], e))[idx], np.concatenate(([0.0], v))[idx]


def run_trial(kind: str, m: int, n: int, positions: np.ndarray, seed: int,
              trial: int, martingale: bool, asymptotic: bool, *,
              pairs: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Checkpoint estimates for one seeded trial of one sketch configuration.

    The sketch takes the stream one segment per checkpoint; a martingale
    trial is :func:`martingale_trace`.  ``pairs``, if given, must be the
    trial's ``(bucket, rank)`` split for ``m``, which this call then
    reads instead of hashing the stream itself.
    """
    if pairs is None:
        # nested, so the hashes are freed before the sketch allocates
        pairs = split_hash_array(_trial_hashes(n, seed, trial), m)
    bucket, geo = pairs
    if martingale:
        return martingale_trace(kind, m, bucket, geo, positions)[0]
    sketch = SKETCHES[kind](m=m, seed=seed)
    out = np.empty(len(positions))
    prev = 0
    for i, pos in enumerate(positions):
        sketch._insert_bg_batch(bucket[prev:pos], geo[prev:pos])
        out[i] = sketch.estimate(asymptotic=asymptotic).value
        prev = pos
    return out


def _trial_hashes(n: int, seed: int, trial: int, out: np.ndarray | None = None) -> np.ndarray:
    """The trial's stream, hashed in place: in ``out`` (``n`` uint64 words) if given."""
    stream = stream_u64(n, trial_stream_seed(seed, trial), out=out)
    return hash64_u64_array(stream, seed, out=stream)


def _trial_block(args: tuple[SimulationConfig, int, int]) -> tuple[int, dict[str, np.ndarray]]:
    """Trials ``[lo, hi)`` of every kind: one hash per trial, one split per m.

    The block allocates one workspace (hashes, bucket, rank) before its
    first trial and hashes every trial into it, so trials after the first
    allocate nothing of the stream's size.  Each split is read-only to
    the kinds of its m, which share it, and the next m overwrites it.
    """
    config, lo, hi = args
    n, positions = config.n, config.checkpoint_positions()
    hashes = np.empty(n, np.uint64)
    bucket, rank = np.empty(n, np.int64), np.empty(n, np.int64)
    pairs = bucket.view(), rank.view()
    for arr in pairs:
        arr.setflags(write=False)
    by_m: dict[int, list[str]] = {}
    for kind in config.kinds:
        by_m.setdefault(config.registers_for(kind), []).append(kind)
    blocks = {kind: np.empty((hi - lo, len(positions))) for kind in config.kinds}
    for t in range(lo, hi):
        _trial_hashes(n, config.seed, t, out=hashes)
        for m, kinds in by_m.items():
            split_hash_array(hashes, m, out=(bucket, rank))
            for kind in kinds:
                blocks[kind][t - lo] = run_trial(kind, m, n, positions, config.seed, t,
                                                 config.martingale, config.asymptotic,
                                                 pairs=pairs)
    return lo, blocks


def _send_block(conn, task: tuple[SimulationConfig, int, int]) -> None:
    """A child's block: send its result, or the exception it raised, to the caller.

    The exception reaches the caller without the child's stack, so the
    child prints its traceback to stderr first.
    """
    try:
        result = _trial_block(task)
    except Exception as exc:
        import traceback

        traceback.print_exc()
        result = exc
    conn.send(result)
    conn.close()


def _estimates(config: SimulationConfig) -> dict[str, np.ndarray]:
    """Per kind, the (trials, checkpoints) estimate matrix of the campaign.

    The trials are cut evenly into one block per worker, each run for
    every kind of the call.  This process runs the block of trial 0, and
    each other block runs in a child process of its own, forked before
    this one starts its block and sending its result back over a one-way
    pipe; ``workers=1`` starts no child.  Blocks are filed by their first
    trial, so the matrices do not depend on the worker count or on the
    order blocks finish in.  If a block fails, so does the call, and no
    child outlives it.
    """
    if not config.martingale:
        # quadrature here, once per kind: forked children inherit the cached constants
        for kind in config.kinds:
            if kind != "pcsa":
                bias_constant(config.registers_for(kind), SKETCHES[kind].neighbor_bit,
                              config.asymptotic)
    k = min(config.workers, config.trials)
    tasks = [(config, i * config.trials // k, (i + 1) * config.trials // k) for i in range(k)]
    if k > 1:
        # imported here: `import ehll` loads this module, and no CLI start should pay for it
        import multiprocessing
    blocks, children = [], []
    try:
        for task in tasks[1:]:
            conn, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_send_block, args=(send, task))
            child.start()
            send.close()  # now a child that dies unsent reads as EOF, not as a hang
            children.append((child, conn))
        blocks.append(_trial_block(tasks[0]))
        for child, conn in children:  # receive before joining: a block can outgrow the pipe
            try:
                block = conn.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a campaign block process exited with code "
                                   f"{child.exitcode} before sending its trials") from None
            if isinstance(block, Exception):
                raise block
            blocks.append(block)
    except BaseException:
        for child, _ in children:  # a paper-scale block runs for minutes
            child.terminate()
        raise
    finally:
        for child, conn in children:
            child.join()
            conn.close()
    out = {kind: np.empty((config.trials, len(config.checkpoint_positions())))
           for kind in config.kinds}
    for lo, block in blocks:
        for kind, rows in block.items():
            out[kind][lo:lo + len(rows)] = rows
    return out


def simulate(config: SimulationConfig) -> list[SimulationRow]:
    """Run the campaign and aggregate per-checkpoint accuracy rows."""
    positions = config.checkpoint_positions()
    estimates = _estimates(config)
    rows: list[SimulationRow] = []
    for kind, est in estimates.items():
        m = config.registers_for(kind)
        mem = SKETCHES[kind](m=m, seed=config.seed).memory_bits()
        label = f"martingale-{kind}" if config.martingale else kind
        for i, pos in enumerate(positions):
            rel = est[:, i] / pos - 1.0
            rows.append(SimulationRow(
                sketch=label, m=m, memory_bits=mem, n=int(pos),
                mean_est=float(est[:, i].mean()),
                rel_bias=float(rel.mean()),
                rel_rmse=float(np.sqrt(np.mean(rel * rel))),
                trials=config.trials,
            ))
    rows.sort(key=lambda r: (r.sketch, r.n))
    return rows


CSV_HEADER = "sketch,m,memory_bits,n,mean_est,rel_bias,rel_rmse,trials"


def rows_to_csv(rows: list[SimulationRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.sketch},{r.m},{r.memory_bits},{r.n},"
                     f"{r.mean_est:.10g},{r.rel_bias:.10g},{r.rel_rmse:.10g},{r.trials}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# minimal static SVG rendering (convenience only)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_SVG_WIDTH, _SVG_HEIGHT = 640, 420  # pixels


def rows_to_svg(rows: list[SimulationRow]) -> str:
    """One polyline of relative RMSE vs n per sketch label."""
    groups: dict[str, list[SimulationRow]] = {}
    for r in rows:
        groups.setdefault(r.sketch, []).append(r)
    xs = sorted({r.n for r in rows})
    ys = [r.rel_rmse for r in rows]
    if not xs or not ys:
        raise ValueError("no rows to plot")
    x0, x1 = min(xs), max(xs)
    y1 = max(ys) * 1.05 or 1.0
    ml, mr, mt, mb = 60, 16, 20, 44
    pw, ph = _SVG_WIDTH - ml - mr, _SVG_HEIGHT - mt - mb

    def px(n: float) -> float:
        return ml + (0.0 if x1 == x0 else (n - x0) / (x1 - x0)) * pw

    def py(v: float) -> float:
        return mt + ph - v / y1 * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{_SVG_HEIGHT - 10}" text-anchor="middle">'
        "distinct elements n</text>",
        f'<text x="14" y="{mt + ph / 2:.1f}" transform="rotate(-90 14 {mt + ph / 2:.1f})" '
        'text-anchor="middle">relative RMSE</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = y1 * frac
        parts.append(f'<line x1="{ml - 4}" y1="{py(v):.1f}" x2="{ml}" y2="{py(v):.1f}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{py(v) + 4:.1f}" text-anchor="end">'
                     f"{v:.4g}</text>")
    for x in (x0, (x0 + x1) // 2, x1):
        parts.append(f'<line x1="{px(x):.1f}" y1="{mt + ph}" x2="{px(x):.1f}" '
                     f'y2="{mt + ph + 4}" stroke="black"/>')
        parts.append(f'<text x="{px(x):.1f}" y="{mt + ph + 16}" text-anchor="middle">'
                     f"{x}</text>")
    for i, (label, group) in enumerate(sorted(groups.items())):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(r.n):.2f},{py(r.rel_rmse):.2f}"
                       for r in sorted(group, key=lambda r: r.n))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = mt + 14 + 16 * i
        parts.append(f'<line x1="{ml + pw - 150}" y1="{ly - 4}" x2="{ml + pw - 126}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + pw - 120}" y="{ly}">{label} (m={group[0].m})</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def paper_scale(config: SimulationConfig) -> SimulationConfig:
    """The full published campaign: 25,000 streams of 10^6 elements."""
    return replace(config, n=1_000_000, trials=25_000)
