"""shard-rollup: per-shard micro-batch ingest for all five kinds, then merge queries.

Write phase: every kind at b=14 ingests every seeded shard through
``insert_batch`` in micro-batches of log-uniform size, and each shard
sketch is ``serialize``d.  The per-call cell reduction and the whole-array
``values``/``set_values`` repack dominate it.  Read phase: each query
``deserialize``s a window of one kind's shard blobs, ``merge``s them and
``estimate``s, so a storage change that speeds writes but slows reads
shows up.
"""

from __future__ import annotations

import math
from functools import reduce
from time import perf_counter

import numpy as np

import harness
import inputs

NAME = "shard-rollup"
#: Run on one CPU, the one the calibrations run on (see run.py).
ONE_CPU = True
ENTRY = "ehll"
B = 14
M = 1 << B
CONSTANTS = [("gamma_m", M), ("alpha_m", M)]
SHARDS = 8
KINDS = ("pcsa", "hll", "ehll", "hll-tc", "ehll-tc")
TAILCUT = ("hll-tc", "ehll-tc")
#: Kinds whose merge is exact: merged shard bytes equal the union stream's bytes.
EXACT = ("pcsa", "hll", "ehll")
SIGMAS = 6.0
MIN_ROUNDS = 3
#: Query plans per round, so that queries take about a sixth of each round.
READ_PLANS = 3


class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.shards = inputs.shard_set(seed, SHARDS)
        # pcsa has no small-range correction: at these loads its estimates
        # run several times too high, so it gets no band; the run record
        # keeps its error range and the exact-merge check still covers it.
        self.rse = {k: harness.rse(k, M) for k in KINDS if k != "pcsa"}
        self.reference: dict[str, list[bytes]] | None = None
        self.pcsa_rel_err: list[float] = []
        self.band = harness.Band(SIGMAS)
        self.unscaled: dict[str, float] = {}

    def in_band(self, kind: str, est: float, true: int) -> bool:
        if kind == "pcsa":
            self.pcsa_rel_err.append(est / true - 1.0)
            return math.isfinite(est) and est > 0
        return self.band.ok(est, true, M, self.rse[kind])

    def record(self) -> dict:
        return {"band": vars(self.band),
                "pcsa_rel_err_range": [min(self.pcsa_rel_err), max(self.pcsa_rel_err)],
                "unscaled": self.unscaled}

    def query_plan(self, plan_no: int) -> list[tuple[str, int, int]]:
        """Every kind with every window length 2..SHARDS once, at seeded offsets."""
        rng = np.random.default_rng([self.seed, 3, plan_no])
        plan = [(kind, int(rng.integers(0, SHARDS - w + 1)), w)
                for kind in KINDS for w in range(2, SHARDS + 1)]
        return [plan[i] for i in rng.permutation(len(plan))]


def _classes():
    from ehll import EhllSketch, EhllTcSketch, HllSketch, HllTcSketch, PcsaSketch

    return dict(zip(KINDS, (PcsaSketch, HllSketch, EhllSketch, HllTcSketch, EhllTcSketch)))


def write_phase(state: State, scaler: harness.Scaler | None = None):
    """Ingest every shard for every kind.

    Returns the blobs and, per kind, (wall seconds, scaled seconds); each
    kind is one sample of ``scaler``, and without one both are the wall time.
    """
    from ehll import serialization

    blobs, seconds = {}, {}
    for kind, cls in _classes().items():
        if scaler:
            scaler.begin()
        t0 = perf_counter()
        out = []
        for shard in state.shards.shards:
            sketch = cls(b=B)
            cuts = shard.batches.tolist()
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                sketch.insert_batch(shard.elements[lo:hi])
            out.append(serialization.serialize(sketch))
        wall = perf_counter() - t0
        seconds[kind] = (wall, scaler.scale(wall) if scaler else wall)
        blobs[kind] = out
    return blobs, seconds


def merge_blobs(blobs: list[bytes]):
    """``deserialize`` each blob and ``merge`` them left to right."""
    from ehll import serialization

    return reduce(lambda a, b: a.merge(b), map(serialization.deserialize, blobs))


def check_writes(state: State, blobs, checks: harness.Checks) -> None:
    """First round: per-shard estimate bands and the exact-merge fixed point.

    Later rounds: the same bytes again.
    """
    from ehll import serialization

    if state.reference is not None:
        for kind in KINDS:
            checks.record(blobs[kind] == state.reference[kind], f"{kind}: shard bytes changed")
        return
    state.reference = blobs
    classes = _classes()
    for kind in KINDS:
        for i, blob in enumerate(blobs[kind]):
            est = serialization.deserialize(blob).estimate().value
            checks.record(state.in_band(kind, est, state.shards.distinct(i, i + 1)),
                          f"{kind} shard {i}: estimate {est}")
    union = np.concatenate([s.elements for s in state.shards.shards])
    for kind in EXACT:
        whole = classes[kind](b=B)
        whole.insert_batch(union)
        checks.record(serialization.serialize(merge_blobs(blobs[kind])) == serialization.serialize(whole),
                      f"{kind}: merged shard bytes differ from the union stream's")


def read_phase(state: State, blobs, plan_no: int, checks: harness.Checks,
               scaler: harness.Scaler | None = None):
    """Run one query plan, which is one sample of ``scaler``.

    Returns per query (wall seconds, scaled seconds), and the estimates.
    """
    plan = state.query_plan(plan_no)
    lat, estimates = [], []
    if scaler:
        scaler.begin()
    t_plan = perf_counter()
    for kind, lo, w in plan:
        t0 = perf_counter()
        est = merge_blobs(blobs[kind][lo:lo + w]).estimate().value
        lat.append(perf_counter() - t0)
        estimates.append(est)
    wall = perf_counter() - t_plan
    factor = scaler.scale(wall) / wall if scaler else 1.0
    for (kind, lo, w), est in zip(plan, estimates):
        true = state.shards.distinct(lo, lo + w)
        checks.record(state.in_band(kind, est, true),
                      f"query {kind}[{lo}:{lo + w}]: estimate {est} vs true {true}")
    return [(x, x * factor) for x in lat], estimates


def prepare(seed: int, trace: bool, checks: harness.Checks, scaler: harness.Scaler) -> State:
    """Generate the shards; the first write round runs the first-round checks."""
    return State(seed)


def measure(state: State, deadline: float, checks: harness.Checks,
            scaler: harness.Scaler) -> dict[str, float]:
    elements = state.shards.elements
    plain = [k for k in KINDS if k not in TAILCUT]
    rounds, latencies = [], []
    plan_no = 0
    while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
        blobs, seconds = write_phase(state, scaler)
        rounds.append(seconds)
        check_writes(state, blobs, checks)
        for _ in range(READ_PLANS):
            plan_no += 1
            lat, _ = read_phase(state, blobs, plan_no, checks, scaler)
            latencies += lat

    def metrics(i: int) -> dict[str, float]:
        """The metrics on wall times (``i`` = 0) or on scaled times (1)."""
        def rate(kinds):
            return harness.median(elements * len(kinds) / sum(r[k][i] for k in kinds)
                                  for r in rounds)
        ms = [x[i] * 1e3 for x in latencies]
        return {
            "rate_per_s": rate(KINDS),
            "rate2_per_s": rate(plain),
            "tailcut_rate_per_s": rate(TAILCUT),
            "request_p50_ms": harness.percentile(ms, 50),
            "request_p95_ms": harness.percentile(ms, 95),
        }

    state.unscaled = metrics(0)
    return {**metrics(1), "peak_rss_mb": harness.self_peak_rss_mb()}


def one_pass(state: State, checks: harness.Checks) -> list:
    """One write round and one query plan; returns every output for comparison."""
    blobs, _ = write_phase(state)
    check_writes(state, blobs, checks)
    _, estimates = read_phase(state, blobs, 0, checks)
    return [blobs, estimates]
