"""accuracy-campaign: the paper-reproduction job, three ``simulate()`` calls.

It exercises ``simulate``'s vectorized trial paths, the sorts in
``martingale_trace``, ``stream_u64`` and the process pool; it does no
scalar hashing outside the TailCut martingale fallback and no
serialization.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from time import perf_counter
from typing import Callable

import harness

NAME = "accuracy-campaign"
#: The pool of ``simulate`` needs every CPU; only set-up runs on one (see run.py).
ONE_CPU = False
ENTRY = "ehll"
B = 10
WORKERS = 2
MIN_ROUNDS = 3
#: (label, SimulationConfig fields); all share b, checkpoints and workers.
CALLS = (
    ("matched", dict(kinds=("ehll", "hll", "hll-tc", "ehll-tc"), n=100_000, trials=16,
                     match_memory=True)),
    ("martingale", dict(kinds=("ehll", "hll"), n=100_000, trials=16, martingale=True)),
    ("tc-martingale", dict(kinds=("ehll-tc",), n=10_000, trials=24, martingale=True)),
)
#: Matched-memory register counts at b=10 (ehll and ehll-tc 1024, hll 1195, hll-tc 1280).
CONSTANTS = [("gamma_m", 1024), ("alpha_m", 1195), ("alpha_m", 1280)]
PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())[NAME]


def campaign(seed: int, workers: int,
             before_call: Callable[[], None] | None = None) -> list[tuple[str, float, str]]:
    """(label, wall seconds, CSV text) for each of the three calls."""
    from ehll import SimulationConfig, rows_to_csv, simulate

    out = []
    for label, fields in CALLS:
        cfg = SimulationConfig(b=B, checkpoints=50, seed=seed, workers=workers, **fields)
        if before_call:
            before_call()
        t0 = perf_counter()
        rows = simulate(cfg)
        out.append((label, perf_counter() - t0, rows_to_csv(rows)))
    return out


def digest(results) -> str:
    return hashlib.sha256("".join(csv for _, _, csv in results).encode()).hexdigest()


class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.reference: dict[str, str] = {}
        self.unscaled: dict[str, float] = {}

    def record(self) -> dict:
        return {"pins": PINS, "unscaled": self.unscaled}

    def check(self, label: str, csv: str, checks: harness.Checks) -> None:
        """Final-checkpoint rel_rmse inside the pinned band; same bytes every time."""
        lo, hi = PINS["rel_rmse_band"]
        fields = dict(CALLS)[label]
        bad = []
        for line in csv.splitlines()[1:]:
            sketch, m, _, n, _, _, rmse, _ = line.split(",")
            if int(n) != fields["n"]:
                continue
            ratio = float(rmse) / harness.rse(sketch.removeprefix("martingale-"), int(m))
            if not lo <= ratio <= hi:
                bad.append(f"{sketch} rel_rmse {rmse} = {ratio:.3f} x sqrt(beta/m)")
        ref = self.reference.setdefault(label, csv)
        checks.record(not bad and csv == ref, f"{label}: {bad or 'CSV bytes changed'}")


def prepare(seed: int, trace: bool, checks: harness.Checks, scaler: harness.Scaler) -> State:
    """Warm the constants (forked workers inherit them) and check the pinned digest.

    The pinned seed's campaign is an unrecorded warm-up round.  A traced
    run also runs this seed's campaign at ``workers=2``, whose CSV the
    ``workers=1`` passes must reproduce.
    """
    from ehll import analysis

    for fn, m in CONSTANTS:
        getattr(analysis, fn)(m)
    state = State(seed)
    pinned = campaign(PINS["seed"], WORKERS)
    checks.record(digest(pinned) == PINS["csv_sha256"],
                  f"seed {PINS['seed']} CSV digest {digest(pinned)} != pinned {PINS['csv_sha256']}")
    own = pinned if seed == PINS["seed"] else campaign(seed, WORKERS) if trace else []
    for label, _, csv in own:
        state.check(label, csv, checks)
    return state


def measure(state: State, deadline: float, checks: harness.Checks,
            scaler: harness.Scaler) -> dict[str, float]:
    """Rates and latencies of the calls, scaled by the run's median speed of every CPU.

    The pool runs on every CPU, whose speeds change independently, so
    each CPU is calibrated in turn before each call.  A calibration right
    after a call is disturbed by the pool's exit, so the run's median
    speed scales every call, not the speed measured beside it.
    """
    cpus = os.sched_getaffinity(0)
    walls: dict[str, list[float]] = {label: [] for label, _ in CALLS}
    speeds: list[float] = []
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        rounds += 1
        for label, wall, csv in campaign(state.seed, WORKERS,
                                         lambda: speeds.append(scaler.speed_of_cpus(cpus))):
            walls[label].append(wall)
            state.check(label, csv, checks)

    def metrics(factor: float) -> dict[str, float]:
        def rate(label):
            fields = dict(CALLS)[label]
            return harness.median(fields["trials"] * len(fields["kinds"]) / (w * factor)
                                  for w in walls[label])
        ms = [w * factor * 1e3 for label in walls for w in walls[label]]
        return {
            "rate_per_s": rate("matched"),
            "rate2_per_s": rate("martingale"),
            "tailcut_rate_per_s": rate("tc-martingale"),
            "request_p50_ms": harness.percentile(ms, 50),
            "request_p95_ms": harness.percentile(ms, 95),
        }

    state.unscaled = metrics(1.0)
    return {**metrics(harness.median(speeds)), "peak_rss_mb": harness.self_peak_rss_mb()}


def one_pass(state: State, checks: harness.Checks) -> list:
    """The three calls at ``workers=1``, so every span stays in this process.

    Their CSV must equal the ``workers=2`` bytes (a fixed point of ``simulate``).
    """
    results = campaign(state.seed, 1)
    for label, _, csv in results:
        state.check(label, csv, checks)
    return [csv for _, _, csv in results]
