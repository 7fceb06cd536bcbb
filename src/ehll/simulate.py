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
segment per checkpoint through the batch path, whose cost is linear in
the segment plus the register count.  A martingale trial feeds its whole
stream to a :class:`~ehll.martingale.MartingaleCounter` as one block,
which returns E and V after each state change (a few thousand per
trial), and reads the checkpoints off that trace; the counter's block
path is tested against the element-at-a-time counter.  The block path
scans and unions only the pairs that can change a cell (a rank not
below its cell's max at the start of an 8,192-pair chunk, less one
with neighbor bits), a sixth to a tenth of the pairs at n = 10^5.

A trial's stream, hashes and (bucket, rank) pairs come from the in-place
array kernels of :mod:`ehll.hashing`.  Per-trial RNG streams are derived
from ``(seed, trial index)`` alone.  One call cuts every kind's trials
into blocks and runs them in one pass: in-process at ``workers=1``,
otherwise through a single process pool, forked after every kind's bias
constant is cached, so the pool starts once per call.  Blocks are filed
by ``(kind, first trial)``, so any worker count yields the same
aggregate rows as a sequential run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hashing import (
    MASK64,
    _SEED_TWEAK,
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
        check_precision(self.b)
        if self.trials < 2:
            raise ValueError("trials must be >= 2")
        if self.checkpoints < 1:
            raise ValueError("checkpoints must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
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
              trial: int, martingale: bool, asymptotic: bool) -> np.ndarray:
    """Checkpoint estimates for one seeded trial of one sketch configuration.

    The sketch takes the stream one segment per checkpoint; a martingale
    trial is :func:`martingale_trace`.
    """
    # nested, so the stream and its hashes are freed before the sketch allocates
    bucket, geo = split_hash_array(
        hash64_u64_array(stream_u64(n, trial_stream_seed(seed, trial)), seed), m)
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


def _trial_block(args) -> tuple[str, int, np.ndarray]:
    kind, m, n, positions, seed, lo, hi, martingale, asymptotic = args
    block = np.empty((hi - lo, len(positions)))
    for t in range(lo, hi):
        block[t - lo] = run_trial(kind, m, n, positions, seed, t, martingale, asymptotic)
    return kind, lo, block


def _estimates(config: SimulationConfig) -> dict[str, np.ndarray]:
    """Per kind, the (trials, checkpoints) estimate matrix of the campaign.

    Every kind's trials are cut into the same blocks and run in one pass:
    in this process at ``workers=1``, else through one process pool for
    the whole call.  Blocks are filed by ``(kind, lo)``, so the matrices
    do not depend on the worker count or on the order blocks finish in.
    """
    positions = config.checkpoint_positions()
    sizes = {kind: config.registers_for(kind) for kind in config.kinds}
    if not config.martingale:
        # quadrature here, once per kind: forked workers inherit the cached constants
        for kind, m in sizes.items():
            if kind != "pcsa":
                bias_constant(m, SKETCHES[kind].neighbor_bit, config.asymptotic)
    chunk = -(-config.trials // (config.workers * 4))
    tasks = [(kind, m, config.n, positions, config.seed, lo,
              min(lo + chunk, config.trials), config.martingale, config.asymptotic)
             for kind, m in sizes.items() for lo in range(0, config.trials, chunk)]
    if config.workers == 1:
        blocks = list(map(_trial_block, tasks))
    else:
        # imported here: the pool machinery is most of this module's import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            blocks = list(pool.map(_trial_block, tasks))
    out = {kind: np.empty((config.trials, len(positions))) for kind in config.kinds}
    for kind, lo, block in blocks:
        out[kind][lo:lo + len(block)] = block
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
