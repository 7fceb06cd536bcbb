"""The benchmark's own tests: span arithmetic, output identity, wrapper removal.

Run with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io
import json

import numpy as np
import pytest

import inputs
import run
import spans

import ehll.cli
from ehll import serialization


def test_self_times_on_a_synthetic_tree():
    # root [0,10] -> a [1,4] -> a1 [2,3];  root -> b [5,9] -> b1 [6,7], b2 [7,8.5]
    parent = np.array([-1, 0, 1, 0, 3, 3])
    start = np.array([0.0, 1.0, 2.0, 5.0, 6.0, 7.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 7.0, 8.5])
    own = spans.self_times(parent, start, end)
    assert own.tolist() == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert own.sum() == pytest.approx(end[0] - start[0])


def test_summary_groups_by_name_and_self_times_add_up():
    tr = spans.Tracer()
    with tr.span("root"):
        for _ in range(3):
            with tr.span("outer"):
                with tr.span("inner"):
                    pass
    summary = tr.summary()
    assert {k: v["calls"] for k, v in summary.items()} == {"root": 1, "outer": 3, "inner": 3}
    for row in summary.values():
        assert 0.0 <= row["self_s"] <= row["total_s"]
    total = sum(row["self_s"] for row in summary.values())
    assert total == pytest.approx(summary["root"]["total_s"], rel=1e-9)


@contextlib.contextmanager
def traced():
    tr = spans.Tracer()
    spans.instrument(tr)
    try:
        with tr.span(spans.ROOT_SPAN):
            yield tr
    finally:
        tr.remove()


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ehll.cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("extra", [["--sketch", "ehll"], ["--sketch", "hll-tc"],
                                   ["--sketch", "ehll", "--martingale"]])
def test_cli_estimate_and_saved_bytes_identical_under_tracing(tmp_path, extra):
    tokens = inputs.token_file(5, tmp_path / "tokens.txt", tokens=3_000, vocab_size=4_000)
    outputs = []
    for mode in ("plain", "traced"):
        save = tmp_path / f"{mode}.ehs"
        argv = ["estimate", *extra, "--b", "10", "--save", str(save), str(tokens.path)]
        if mode == "plain":
            code, out = _cli(argv)
        else:
            with traced() as tr:
                code, out = _cli(argv)
            assert tr.summary()["cli.main"]["calls"] == 1
            assert tr.summary()["hashing.hash64"]["calls"] == tokens.tokens
        assert code == 0
        outputs.append((out, save.read_bytes()))
    assert outputs[0] == outputs[1]


def _shard_blobs(shards):
    from wl_shards import KINDS, _classes

    blobs = {}
    for kind, cls in _classes().items():
        for shard in shards.shards:
            sketch = cls(b=10)
            cuts = shard.batches.tolist()
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                sketch.insert_batch(shard.elements[lo:hi])
            blobs.setdefault(kind, []).append(serialization.serialize(sketch))
        merged = serialization.deserialize(blobs[kind][0]).merge(
            serialization.deserialize(blobs[kind][1]))
        blobs[kind].append(serialization.serialize(merged))
    assert set(blobs) == set(KINDS)
    return blobs


def test_ehs1_bytes_identical_under_tracing():
    shards = inputs.shard_set(7, 3)
    plain = _shard_blobs(shards)
    with traced() as tr:
        blobs = _shard_blobs(shards)
    assert blobs == plain
    metrics = spans.layer_metrics(tr)
    assert metrics["sketches.insert_batch.elems"] == 5 * shards.elements
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_no_wrapper_survives_the_traced_run():
    import ehll.sketches
    from ehll.registers import PackedRegisterArray

    before = (ehll.sketches.hash64, vars(PackedRegisterArray)["values"], ehll.cli.main)
    with traced():
        assert spans.find_wrappers()
        assert ehll.sketches.hash64 is not before[0]
    assert spans.find_wrappers() == []
    assert (ehll.sketches.hash64, vars(PackedRegisterArray)["values"], ehll.cli.main) == before


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((run.harness.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
