"""Span tracing of ``ehll``'s layers, installed from outside the package.

Wrappers replace each layer's entry points where its callers look them
up: module globals such as ``ehll.sketches.hash64`` (the name
``_SketchBase._split`` resolves) and class attributes such as
``PackedRegisterArray.values``.  A span is (name, start, end, parent);
spans live in flat arrays until the run ends.  A span's self time is its
duration minus the time its child spans cover, so the self times of all
spans under one root add up to the root's duration.

``Tracer.remove`` restores every original attribute; ``find_wrappers``
proves that none survived.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

MARK = "__perfbench_wrapper__"
KINDS = ("pcsa", "hll", "ehll", "hll-tc", "ehll-tc")


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    Children of one parent never overlap (one thread, strictly nested
    calls), so subtracting their durations removes exactly the covered part.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(sid)

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by ``make(original)``."""
        original = vars(owner)[attr]
        wrapper = make(original)
        setattr(wrapper, MARK, True)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span ``name`` around each call; ``after(args, result)`` counts."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(sid)
                if after is not None:
                    after(args, result)
                return result
            return wrapper

        self.patch(owner, attr, make)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        own = self_times(np.frombuffer(self.parent, dtype=np.int32), start, end)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=end - start, minlength=k)
        selfs = np.bincount(name, weights=own, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
                for i, n in enumerate(self.names)}

    def write(self, path: Path, extra: dict) -> None:
        """Spans to ``path`` (.npz), the per-name summary beside it (.json)."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
        path.with_suffix(".json").write_text(json.dumps(
            {"summary": self.summary(), "counts": dict(self.counts), **extra}, indent=1))


def find_wrappers() -> list[str]:
    """Every attribute of an ``ehll`` module or class that is still a wrapper."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "ehll" or mod_name.startswith("ehll.")):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type):
                found += [f"{mod_name}.{attr}.{a}" for a, v in vars(value).items()
                          if getattr(v, MARK, False)]
    return found


def instrument(tr: Tracer) -> None:
    """Install a span or counter at each layer entry point of ``ehll``."""
    # by module path: the package re-exports a function named ``simulate``
    analysis, cli, serialization, simulate, sketches, tailcut = (
        importlib.import_module(f"ehll.{name}")
        for name in ("analysis", "cli", "serialization", "simulate", "sketches", "tailcut"))
    from ehll.martingale import MartingaleCounter
    from ehll.registers import BitArray, PackedRegisterArray

    counts = tr.counts

    def add(key, amount=1):
        counts[key] += amount

    # hashing, as bound in the modules that call it
    tr.wrap(sketches, "hash64", "hashing.hash64")
    tr.wrap(sketches, "split_hash", "hashing.split_hash")
    for mod in (sketches, simulate):
        tr.wrap(mod, "hash64_u64_array", "hashing.hash64_u64_array")
        tr.wrap(mod, "split_hash_array", "hashing.split_hash_array")
    tr.wrap(simulate, "stream_u64", "hashing.stream_u64")

    # registers
    for cls in (PackedRegisterArray, BitArray):
        tr.wrap(cls, "get", "registers.scalar")
        tr.wrap(cls, "set", "registers.scalar")
        tr.wrap(cls, "values", "registers.values",
                after=lambda a, r: add("registers.values.cells", a[0].m))
        tr.wrap(cls, "set_values", "registers.set_values")

    # sketches; TailCut batch reduction is its own child span
    classes = (sketches.PcsaSketch, sketches.HllSketch, sketches.EhllSketch,
               tailcut.HllTcSketch, tailcut.EhllTcSketch)
    for cls in classes:
        tr.wrap(cls, "insert", "sketches.insert",
                after=lambda a, r: add("sketches.insert.changed", bool(r)))
        tr.wrap(cls, "insert_batch", f"sketches.insert_batch.{cls.kind}",
                after=lambda a, r: add("sketches.insert_batch.elems", len(a[1])))
        tr.wrap(cls, "merge", "sketches.merge")
        tr.wrap(cls, "estimate", "sketches.estimate")

    batch_nid = tr.name_id("tailcut.insert_batch")

    def tc_batch(fn):
        def wrapper(self, bucket, geo):
            counts["tailcut.elems"] += len(bucket)
            counts["tailcut.in_batch"] += 1
            sid = tr.open(batch_nid)
            try:
                return fn(self, bucket, geo)
            finally:
                tr.close(sid)
                counts["tailcut.in_batch"] -= 1
        return wrapper

    def tc_replay(fn):
        def wrapper(self, bucket, geo):
            if counts["tailcut.in_batch"]:
                counts["tailcut.replayed"] += 1
            return fn(self, bucket, geo)
        return wrapper

    for cls in classes[3:]:
        tr.patch(cls, "_insert_bg_batch", tc_batch)
        tr.patch(cls, "_insert_bg", tc_replay)

    def promote(fn):
        def wrapper(self):
            before = self.base
            fn(self)
            if self.base > before:
                counts["tailcut.base_promotions"] += 1
        return wrapper

    def encode(fn):
        def wrapper(self, eff):
            result = fn(self, eff)
            counts["tailcut.merge.truncated_cells"] += int(np.count_nonzero(result[2]))
            return result
        return wrapper

    tr.patch(tailcut._TailCutBase, "_promote_base", promote)
    tr.patch(tailcut._TailCutBase, "_encode_effective", encode)

    # martingale
    tr.wrap(MartingaleCounter, "insert", "martingale.insert")

    def resync(fn):
        def wrapper(self):
            counts["martingale.resyncs"] += 1
            return fn(self)
        return wrapper

    tr.patch(MartingaleCounter, "resync", resync)

    # constants, files, campaign, command line
    tr.wrap(analysis, "power_integrals", "analysis.power_integrals")
    tr.wrap(serialization, "serialize", "serialization.serialize",
            after=lambda a, r: add("serialization.bytes", len(r)))
    tr.wrap(serialization, "deserialize", "serialization.deserialize",
            after=lambda a, r: add("serialization.bytes", len(a[0])))
    tr.wrap(simulate, "run_trial", "simulate.run_trial")
    tr.wrap(simulate, "martingale_trace", "simulate.martingale_trace")
    tr.wrap(cli, "main", "cli.main")


#: Per-layer metrics with their units; every traced run reports all of them.
#: Comments name the end-to-end metric each group should move, and where.
LAYER_METRICS = {
    # tokens-cli rates (scalar path)
    "hashing.hash64.calls": "count",
    "hashing.hash64.self_s": "s",
    "hashing.split_hash.self_s": "s",
    # campaign rates; a small share of shard-rollup ingest
    "hashing.hash64_u64_array.self_s": "s",
    "hashing.split_hash_array.self_s": "s",
    "hashing.stream_u64.self_s": "s",
    # tokens-cli rates
    "registers.scalar.calls": "count",
    "registers.scalar.self_s": "s",
    # shard-rollup ingest and query latency
    "registers.values.calls": "count",
    "registers.values.cells": "count",
    "registers.values.self_s": "s",
    "registers.set_values.calls": "count",
    "registers.set_values.self_s": "s",
    # shard-rollup ingest (self time is the cell reduction)
    "sketches.insert_batch.elems": "count",
    "sketches.insert_batch.self_s": "s",
    **{f"sketches.insert_batch.{k}.self_s": "s" for k in KINDS},
    # tokens-cli rates
    "sketches.insert.calls": "count",
    "sketches.insert.changed_ratio": "ratio",
    "sketches.insert.self_s": "s",
    # shard-rollup query latency
    "sketches.merge.self_s": "s",
    "sketches.estimate.self_s": "s",
    # shard-rollup TailCut ingest; campaign matched and TailCut martingale rates
    "tailcut.insert_batch.self_s": "s",
    "tailcut.scalar_replay_ratio": "ratio",
    "tailcut.base_promotions": "count",
    "tailcut.merge.truncated_cells": "count",
    # tokens-cli martingale rate; campaign TailCut martingale rate
    "martingale.insert.calls": "count",
    "martingale.insert.self_s": "s",
    "martingale.resyncs": "count",
    # setup_s everywhere; tokens-cli rates (every CLI run starts cold)
    "analysis.power_integrals.calls": "count",
    "analysis.power_integrals.s": "s",
    "setup.import_s": "s",
    # shard-rollup query latency
    "serialization.serialize.self_s": "s",
    "serialization.deserialize.self_s": "s",
    "serialization.bytes": "bytes",
    # campaign matched and martingale rates
    "simulate.run_trial.calls": "count",
    "simulate.run_trial.self_s": "s",
    "simulate.martingale_trace.self_s": "s",
    # tokens-cli rates (argument parsing, token reading, the insert loop)
    "cli.main.self_s": "s",
    # the trace itself: harness time outside every layer, totals, overhead
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "machine.calib_s": "s",
}

ROOT_SPAN = "bench"


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The span- and counter-derived entries of ``LAYER_METRICS``."""
    summary = tr.summary()
    counts = tr.counts

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for key in LAYER_METRICS:
        base, _, field = key.rpartition(".")
        if field == "self_s":
            out[key] = float(get(base, "self_s"))
        elif field == "calls":
            out[key] = float(get(base, "calls"))
    out["sketches.insert_batch.self_s"] = sum(out[f"sketches.insert_batch.{k}.self_s"] for k in KINDS)
    inserts = get("sketches.insert", "calls")
    out["sketches.insert.changed_ratio"] = counts["sketches.insert.changed"] / inserts if inserts else 0.0
    out["tailcut.scalar_replay_ratio"] = (
        counts["tailcut.replayed"] / counts["tailcut.elems"] if counts["tailcut.elems"] else 0.0)
    out["analysis.power_integrals.s"] = float(get("analysis.power_integrals", "total_s"))
    for key in ("registers.values.cells", "sketches.insert_batch.elems", "tailcut.base_promotions",
                "tailcut.merge.truncated_cells", "martingale.resyncs", "serialization.bytes"):
        out[key] = float(counts[key])
    out["bench.self_s"] = float(get(ROOT_SPAN, "self_s"))
    out["trace.wall_s"] = float(get(ROOT_SPAN, "total_s"))
    out["trace.self_sum_s"] = float(sum(row["self_s"] for row in summary.values()))
    out["trace.spans"] = float(len(tr.start))
    return out
