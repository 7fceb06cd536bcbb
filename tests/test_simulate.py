"""Simulation harness: vectorized paths vs reference sketches, determinism."""

import importlib
import os
import signal
import time
from collections import Counter

import numpy as np
import pytest

from ehll.hashing import geo_width, hash64_u64_array, split_hash_array, stream_u64
from ehll.martingale import MartingaleCounter
from ehll.simulate import (
    CSV_HEADER,
    SimulationConfig,
    martingale_trace,
    rows_to_csv,
    rows_to_svg,
    run_trial,
    simulate,
    trial_stream_seed,
)
from ehll.sketches import EhllSketch, HllSketch


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(kinds=("hll",), trials=1)
    with pytest.raises(ValueError):
        SimulationConfig(kinds=("nope",))
    with pytest.raises(ValueError):
        SimulationConfig(kinds=("pcsa",), martingale=True)
    with pytest.raises(ValueError):
        SimulationConfig(kinds=("pcsa",), match_memory=True)
    with pytest.raises(ValueError):
        SimulationConfig(kinds=("hll",), checkpoints=0)
    with pytest.raises(ValueError, match="given more than once"):
        SimulationConfig(kinds=("ehll", "hll", "ehll"))
    with pytest.raises(ValueError, match="at least one sketch kind"):
        SimulationConfig(kinds=())
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            SimulationConfig(kinds=("hll",), workers=workers)
    for b in (3, 19, 40):  # outside the precisions a sketch accepts
        with pytest.raises(ValueError, match=r"precision b must be in \[4, 18\]"):
            SimulationConfig(kinds=("ehll",), b=b)
    for field in ("b", "n", "trials", "checkpoints", "seed", "workers"):
        for bad in (2.0, True, "2"):
            with pytest.raises(TypeError, match=f"{field} must be an integer"):
                SimulationConfig(kinds=("hll",), **{field: bad})
    with pytest.raises(ValueError, match="sequence of sketch kinds"):
        SimulationConfig(kinds="hll")
    for flag in ("martingale", "match_memory", "asymptotic"):
        for bad in ("no", 0, 1, 1.0, None, np.int64(1)):
            with pytest.raises(TypeError, match=f"{flag} must be a bool"):
                SimulationConfig(kinds=("hll",), **{flag: bad})


def test_config_takes_numpy_bools_as_python_bools():
    flags = dict(martingale=True, match_memory=False, asymptotic=True)
    cfg = SimulationConfig(kinds=("ehll", "hll"), **{k: np.bool_(v) for k, v in flags.items()})
    assert cfg == SimulationConfig(kinds=("ehll", "hll"), **flags)
    assert all(type(getattr(cfg, k)) is bool for k in flags)


def test_config_takes_numpy_integers_as_python_ints():
    fields = dict(b=4, n=300, trials=4, checkpoints=3, seed=13, workers=2)
    cfg = SimulationConfig(kinds=("ehll", "hll"), **{k: np.int64(v) for k, v in fields.items()})
    assert cfg == SimulationConfig(kinds=("ehll", "hll"), **fields)
    assert all(type(getattr(cfg, k)) is int for k in fields)


def test_matched_memory_register_counts():
    cfg = SimulationConfig(kinds=("ehll", "hll", "hll-tc", "ehll-tc"),
                           b=10, match_memory=True)
    assert cfg.registers_for("ehll") == 1024
    assert cfg.registers_for("hll") == 1195       # ceil(7/6 * 1024)
    assert cfg.registers_for("hll-tc") == 1280    # 5/4 * 1024
    assert cfg.registers_for("ehll-tc") == 1024
    # payload bits match within one register's rounding
    assert EhllSketch(m=1024).memory_bits() == 7168
    assert HllSketch(m=1195).memory_bits() == 7170


def test_checkpoint_positions():
    cfg = SimulationConfig(kinds=("hll",), n=100, trials=2, checkpoints=3)
    assert cfg.checkpoint_positions().tolist() == [34, 68, 100]
    cfg = SimulationConfig(kinds=("hll",), n=100_000, trials=2, checkpoints=50)
    pos = cfg.checkpoint_positions()
    assert pos[0] == 2000 and pos[-1] == 100_000 and len(pos) == 50


def test_trial_stream_seeds_differ():
    seeds = {trial_stream_seed(0, t) for t in range(1000)}
    assert len(seeds) == 1000


@pytest.mark.parametrize("kind", ["pcsa", "hll", "ehll", "hll-tc", "ehll-tc"])
def test_run_trial_matches_reference_sketch(kind):
    from ehll.serialization import SKETCHES

    m, n, seed = 64, 3000, 5
    positions = np.array([1000, 2000, 3000])
    got = run_trial(kind, m, n, positions, seed, trial=7,
                    martingale=False, asymptotic=False)
    elements = stream_u64(n, trial_stream_seed(seed, 7))
    ref = SKETCHES[kind](m=m, seed=seed)
    expected = []
    prev = 0
    for pos in positions:
        ref.insert_all(elements[prev:pos].tolist())
        prev = pos
        expected.append(ref.estimate().value)
    assert np.allclose(got, expected, rtol=1e-12)


@pytest.mark.parametrize("kind", ["pcsa", "hll", "ehll", "hll-tc", "ehll-tc"])
@pytest.mark.parametrize("m, checkpoints", [(1024, 5), (1024, 8), (1024, 21), (1195, 13),
                                            (1 << 14, 3), (16, 4)])
def test_run_trial_equals_an_estimate_per_checkpoint(kind, m, checkpoints):
    """Stacked checkpoint estimates are the sketch's own estimates, bit for bit.

    A stack holds 8 rows at m = 1024 and 6 at 1195, so the counts fall
    below, at and above one stack; the first checkpoints are in the
    linear-counting range, and at m = 16 the TailCut base rises.
    """
    from ehll.serialization import SKETCHES

    n, seed, trial = 40_000, 3, 2
    positions = SimulationConfig(kinds=(kind,), n=n, checkpoints=checkpoints
                                 ).checkpoint_positions()
    bucket, geo = split_hash_array(
        hash64_u64_array(stream_u64(n, trial_stream_seed(seed, trial)), seed), m)
    for asymptotic in (False, True):
        got = run_trial(kind, m, n, positions, seed, trial, False, asymptotic)
        sketch, want, prev = SKETCHES[kind](m=m, seed=seed), [], 0
        for pos in positions:
            sketch._insert_bg_batch(bucket[prev:pos], geo[prev:pos])
            prev = pos
            want.append(sketch.estimate(asymptotic=asymptotic).value)
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


@pytest.mark.parametrize("kind", ["hll", "ehll", "hll-tc", "ehll-tc"])
def test_matched_trial_decodes_each_array_once(kind, monkeypatch):
    """A matched trial neither decodes nor packs a register array, for any kind.

    Batches, TailCut's scalar steps and estimates all work on the cells the
    sketch owns; they are packed only when something reads the bytes.  The
    only scalar steps are TailCut's clamps.
    """
    from ehll.registers import BitArray, PackedRegisterArray
    from ehll.serialization import SKETCHES

    cfg = SimulationConfig(kinds=(kind,), b=10, checkpoints=50, match_memory=True)
    m = cfg.registers_for(kind)
    # trial 1 clamps twice; at hll-tc's m a segment's union also promotes the base
    # past a rank that is above the ceiling at the segment's start
    bucket, geo = split_hash_array(
        hash64_u64_array(stream_u64(cfg.n, trial_stream_seed(0, 1)), 0), m)
    cls = SKETCHES[kind]
    replay, clamps = cls(m=m), []
    for j, g in zip(bucket.tolist(), geo.tolist()):
        if replay._clamp(g, 1)[0] < g:  # the codec truncates this rank now
            clamps.append((j, g))
        replay._insert_bg(j, g)
    assert len(clamps) == (2 if kind.endswith("-tc") else 0)

    codec, steps = Counter(), []
    for array_cls in (PackedRegisterArray, BitArray):
        for name in ("values", "set_values"):
            monkeypatch.setattr(array_cls, name,
                                lambda self, *a, f=vars(array_cls)[name], n=name:
                                codec.update([n]) or f(self, *a))
    step = cls._insert_bg
    monkeypatch.setattr(cls, "_insert_bg", lambda s, j, g: steps.append((j, g)) or step(s, j, g))
    run_trial(kind, m, cfg.n, cfg.checkpoint_positions(), seed=0, trial=1,
              martingale=False, asymptotic=False)
    assert codec == Counter()
    assert steps == clamps


@pytest.mark.parametrize("kind", ["hll", "ehll", "hll-tc", "ehll-tc"])
def test_martingale_trace_matches_counter(kind):
    from ehll.serialization import SKETCHES

    rng = np.random.default_rng(71)
    for trial in range(5):
        m = int(rng.choice([16, 64]))
        n = int(rng.integers(500, 3000))
        elements = rng.integers(0, 2**63, size=n, dtype=np.uint64)
        # duplicates stress the no-change path
        elements[rng.integers(0, n, size=n // 10)] = elements[0]
        seed = int(rng.integers(2**63))
        bucket, geo = split_hash_array(hash64_u64_array(elements, seed), m)
        positions = np.array([n // 3, n // 2, n])
        e_vec, v_vec = martingale_trace(kind, m, bucket, geo, positions)

        counter = MartingaleCounter(SKETCHES[kind](m=m, seed=seed))
        expected_e, expected_v = [], []
        prev = 0
        for pos in positions:
            counter.insert_all(elements[prev:pos].tolist())
            prev = pos
            expected_e.append(counter.estimate())
            expected_v.append(counter.retro_variance())
        if kind.endswith("-tc"):  # exact term sums: bit-identical
            assert e_vec.tolist() == expected_e
            assert v_vec.tolist() == expected_v
        else:
            assert np.allclose(e_vec, expected_e, rtol=1e-9)
            assert np.allclose(v_vec, expected_v, rtol=1e-9)


def test_retrospective_variance_tracks_true_variance():
    # Var(E_n) equals E[V_n] exactly in expectation; check the sampled
    # agreement within 10% at three (n, m) scales via the traced paths
    for n, m, seed in ((1000, 64, 81), (10_000, 256, 82), (100_000, 1024, 83)):
        trials = 2000
        final_e = np.empty(trials)
        final_v = np.empty(trials)
        positions = np.array([n])
        for t in range(trials):
            elements = stream_u64(n, trial_stream_seed(seed, t))
            bucket, geo = split_hash_array(hash64_u64_array(elements, seed), m)
            e_at, v_at = martingale_trace("ehll", m, bucket, geo, positions)
            final_e[t], final_v[t] = e_at[0], v_at[0]
        var_emp = float(final_e.var(ddof=1))
        var_retro = float(final_v.mean())
        assert abs(var_emp - var_retro) / var_retro < 0.10, (n, m)


def test_martingale_trace_handles_fresh_positions():
    bucket = np.array([0, 1, 0])
    geo = np.array([2, 1, 2])
    e, v = martingale_trace("ehll", 16, bucket, geo, np.array([1, 2, 3]))
    assert e[0] == pytest.approx(1.0)  # first element: q = 1
    assert v[0] == pytest.approx(0.0)
    assert e[2] == e[1]  # duplicate outcome changes nothing


def test_pool_workers_inherit_constants_from_the_parent():
    from ehll import analysis

    analysis._cache.clear()
    cfg = SimulationConfig(kinds=("ehll", "hll"), b=4, n=300, trials=4,
                           checkpoints=2, seed=1, workers=2)
    simulate(cfg)
    # computed in this process before the children forked, not only in the children
    assert set(analysis._cache) == {("ehll", 16), ("hll", 16)}


def test_simulate_rows_shape_and_invariants():
    cfg = SimulationConfig(kinds=("ehll", "hll"), b=4, n=400, trials=8,
                           checkpoints=4, seed=3)
    rows = simulate(cfg)
    assert len(rows) == 8
    assert [r.sketch for r in rows] == sorted(r.sketch for r in rows)
    for r in rows:
        assert r.rel_rmse >= abs(r.rel_bias)
        assert r.trials == 8
        assert r.memory_bits in (7 * 16, 6 * 16)


def test_rows_are_the_per_checkpoint_column_reductions():
    """Whole-matrix aggregation has the bits of one reduction per checkpoint column.

    Past 8 trials a pairwise sum and a running sum differ in the last
    bits, so 37 trials tell them apart.
    """
    from ehll.simulate import _estimates

    cfg = SimulationConfig(kinds=("ehll", "hll-tc"), b=4, n=400, trials=37, checkpoints=5,
                           seed=3)
    estimates = _estimates(cfg)
    got = {(r.sketch, r.n): r for r in simulate(cfg)}
    for kind, est in estimates.items():
        for i, pos in enumerate(cfg.checkpoint_positions()):
            rel = est[:, i] / pos - 1.0
            row = got[kind, int(pos)]
            assert row.mean_est == float(est[:, i].mean())
            assert row.rel_bias == float(rel.mean())
            assert row.rel_rmse == float(np.sqrt(np.mean(rel * rel)))


def test_simulate_deterministic_and_worker_independent():
    cfg = SimulationConfig(kinds=("ehll",), b=4, n=300, trials=6,
                           checkpoints=2, seed=11)
    csv_a = rows_to_csv(simulate(cfg))
    csv_b = rows_to_csv(simulate(cfg))
    assert csv_a == csv_b
    cfg2 = SimulationConfig(kinds=("ehll",), b=4, n=300, trials=6,
                            checkpoints=2, seed=11, workers=2)
    assert rows_to_csv(simulate(cfg2)) == csv_a


#: Multi-kind campaigns; 25 trials make the chunk size differ per worker count.
_MULTI_KIND = {
    "matched": dict(kinds=("ehll", "hll", "hll-tc", "ehll-tc"), match_memory=True),
    "martingale": dict(kinds=("ehll", "hll"), martingale=True),
    "plain": dict(kinds=("pcsa", "hll", "ehll")),
}


@pytest.mark.parametrize("name", sorted(_MULTI_KIND))
def test_multi_kind_simulate_is_worker_independent(name):
    csvs = {workers: rows_to_csv(simulate(SimulationConfig(
                b=4, n=300, trials=25, checkpoints=3, seed=13, workers=workers,
                **_MULTI_KIND[name])))
            for workers in (1, 2, 3)}
    assert csvs[2] == csvs[1] and csvs[3] == csvs[1]


def test_more_workers_than_trials_is_the_sequential_campaign():
    cfgs = [SimulationConfig(b=4, n=300, trials=2, checkpoints=3, seed=13, workers=workers,
                             **_MULTI_KIND["matched"]) for workers in (1, 3)]
    assert rows_to_csv(simulate(cfgs[1])) == rows_to_csv(simulate(cfgs[0]))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(_MULTI_KIND))
def test_every_kind_matrix_equals_its_own_trials(name, workers):
    """A block shares one hash per trial between kinds and changes no estimate."""
    from ehll.simulate import _estimates

    cfg = SimulationConfig(b=4, n=300, trials=9, checkpoints=3, seed=13,
                           workers=workers, **_MULTI_KIND[name])
    positions = cfg.checkpoint_positions()
    got = _estimates(cfg)
    assert list(got) == list(cfg.kinds)
    for kind in cfg.kinds:
        expected = np.stack([run_trial(kind, cfg.registers_for(kind), cfg.n, positions,
                                       cfg.seed, t, cfg.martingale, cfg.asymptotic)
                             for t in range(cfg.trials)])
        assert np.array_equal(got[kind], expected), kind


@pytest.mark.parametrize("name", sorted(_MULTI_KIND))
def test_one_stream_hash_per_trial_and_one_split_per_m(name, monkeypatch):
    sim = importlib.import_module("ehll.simulate")  # the package re-exports simulate()
    calls, writable = Counter(), []

    def counted(fn, f):
        def wrapper(*args, **kwargs):
            calls.update([fn])
            if kwargs.get("pairs") is not None:
                writable.extend(a.flags.writeable for a in kwargs["pairs"])
            return f(*args, **kwargs)
        return wrapper

    for fn in ("stream_u64", "hash64_u64_array", "split_hash_array", "rho_array",
               "bucket_array", "run_trial"):
        monkeypatch.setattr(sim, fn, counted(fn, getattr(sim, fn)))
    cfg = SimulationConfig(b=4, n=300, trials=9, checkpoints=3, seed=13,
                           **_MULTI_KIND[name])
    sim._estimates(cfg)
    # a split is one rank pass per rank width, shared by every m of that width
    # (all m that are not powers of two read 32 low bits), and one bucket pass per m
    ms = {cfg.registers_for(kind) for kind in cfg.kinds}
    widths = {geo_width(m) for m in ms}
    assert calls == {"stream_u64": cfg.trials, "hash64_u64_array": cfg.trials,
                     "rho_array": cfg.trials * len(widths),
                     "bucket_array": cfg.trials * len(ms),
                     "run_trial": cfg.trials * len(cfg.kinds)}
    assert len(widths) < len(ms) or name != "matched"  # hll@1195 and hll-tc@1280 share one
    assert len(writable) == 2 * calls["run_trial"] and not any(writable)


@pytest.mark.parametrize("kind", ["pcsa", "hll", "ehll", "hll-tc", "ehll-tc"])
def test_batch_paths_take_read_only_pairs(kind):
    """Kinds may share one split: no batch path writes its (bucket, rank) input."""
    from ehll.serialization import SKETCHES

    m, n = 16, 6000
    bucket, geo = split_hash_array(hash64_u64_array(stream_u64(n, 29), 29), m)
    bucket.setflags(write=False)
    geo.setflags(write=False)
    before = bucket.copy(), geo.copy()
    sketch, ref = SKETCHES[kind](m=m), SKETCHES[kind](m=m)
    for lo, hi in ((0, 1), (1, 700), (700, 3000), (3000, n)):
        sketch._insert_bg_batch(bucket[lo:hi], geo[lo:hi])
        ref._insert_bg_batch(bucket[lo:hi].copy(), geo[lo:hi].copy())
    assert sketch == ref
    if kind != "pcsa":
        counter = MartingaleCounter(SKETCHES[kind](m=m))
        got = counter.insert_bg_batch(bucket, geo)
        expected = MartingaleCounter(SKETCHES[kind](m=m)).insert_bg_batch(
            bucket.copy(), geo.copy())
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
    assert np.array_equal(bucket, before[0]) and np.array_equal(geo, before[1])


@pytest.mark.parametrize("name", ["matched", "plain"])
def test_later_trials_of_a_block_allocate_no_stream_sized_array(name, monkeypatch):
    """A block hashes and splits every trial into one workspace made before its first."""
    import tracemalloc

    sim = importlib.import_module("ehll.simulate")  # the package re-exports simulate()
    cfg = SimulationConfig(b=10, n=100_000, trials=3, checkpoints=50, seed=13,
                           **_MULTI_KIND[name])
    marks, stream = [], sim.stream_u64

    def marked(*args, **kwargs):  # (current, peak since the last mark) at each trial's start
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return stream(*args, **kwargs)

    monkeypatch.setattr(sim, "stream_u64", marked)
    tracemalloc.start()
    try:
        sim._trial_block((cfg, 0, cfg.trials))
        marks.append(tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(marks) == cfg.trials + 1
    # what trial t allocated above the memory it started with: under half of one
    # array of n words, where hashing into fresh arrays would take three
    grown = [marks[t + 1][1] - marks[t][0] for t in range(1, cfg.trials)]
    assert max(grown) < 8 * cfg.n // 2, grown


def test_a_sequential_call_leaves_no_workspace_behind():
    import tracemalloc

    sim = importlib.import_module("ehll.simulate")
    cfg = SimulationConfig(b=10, n=100_000, trials=3, checkpoints=5, seed=13,
                           **_MULTI_KIND["matched"])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = sim._estimates(cfg)
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < 8 * cfg.n // 2  # the estimate matrices, not a buffer of n words
    assert sum(m.nbytes for m in got.values()) <= left


def _started_processes(monkeypatch) -> list:
    """The list of every ``multiprocessing.Process`` started from now on, in start order."""
    import multiprocessing

    started = []

    class CountingProcess(multiprocessing.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(multiprocessing, "Process", CountingProcess)
    return started


def _log_blocks(monkeypatch, log, fail=None):
    """Wrap ``_trial_block``: log ``pid lo`` per block, then run ``fail(lo)`` if given.

    A forked child inherits the wrapper, and the log file gathers the
    lines of every process.
    """
    sim = importlib.import_module("ehll.simulate")
    run = sim._trial_block

    def logged(task):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {task[1]}\n")
        if fail:
            fail(task[1])
        return run(task)

    monkeypatch.setattr(sim, "_trial_block", logged)


def test_the_caller_runs_the_first_block_and_a_child_runs_each_other(monkeypatch, tmp_path):
    import multiprocessing

    started = _started_processes(monkeypatch)
    log = tmp_path / "blocks.log"
    _log_blocks(monkeypatch, log)
    for workers, trials in ((1, 4), (2, 4), (3, 4), (3, 2), (2, 5)):
        started.clear()
        log.write_text("")
        simulate(SimulationConfig(kinds=("ehll", "hll", "hll-tc"), b=4, n=200, trials=trials,
                                  checkpoints=2, seed=2, workers=workers))
        k = min(workers, trials)
        assert len(started) == k - 1  # workers=1 starts no process
        runs = sorted((int(lo), int(pid)) for pid, lo in map(str.split, log.read_text().splitlines()))
        assert [lo for lo, _ in runs] == [i * trials // k for i in range(k)]  # one block each
        assert runs[0][1] == os.getpid()  # the caller runs the block of trial 0
        assert {pid for _, pid in runs[1:]} == {p.pid for p in started}
        assert not multiprocessing.active_children()


def _fails_in_the_last_child(lo):
    if lo == 2:
        raise ZeroDivisionError(f"block {lo}")


def _exits_in_the_last_child(lo):
    if lo == 2:
        os._exit(3)


def _fails_in_the_caller(lo):
    if lo:
        time.sleep(60)  # a long child block, which the caller must not wait out
    raise KeyError("the caller's block")


def _hung(signum, frame):
    raise TimeoutError("the call hung")


@pytest.mark.parametrize("fail, error, match", [
    (_fails_in_the_last_child, ZeroDivisionError, "block 2"),
    (_exits_in_the_last_child, RuntimeError, "exited with code 3"),
    (_fails_in_the_caller, KeyError, "the caller's block"),
])
def test_a_failing_block_fails_the_call_and_leaves_no_process(monkeypatch, tmp_path, capfd,
                                                              fail, error, match):
    import multiprocessing

    started = _started_processes(monkeypatch)
    _log_blocks(monkeypatch, tmp_path / "blocks.log", fail)
    previous = signal.signal(signal.SIGALRM, _hung)  # a hang fails the test
    signal.alarm(30)
    try:
        with pytest.raises(error, match=match):
            simulate(SimulationConfig(kinds=("ehll",), b=4, n=200, trials=3, checkpoints=2,
                                      seed=2, workers=3))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(started) == 2 and not multiprocessing.active_children()
    if fail is _fails_in_the_caller:  # terminated, not waited for
        assert [p.exitcode for p in started] == [-signal.SIGTERM] * 2
    if fail is _fails_in_the_last_child:  # the child's own traceback
        assert "in _fails_in_the_last_child" in capfd.readouterr().err


def test_martingale_simulate_smoke():
    cfg = SimulationConfig(kinds=("ehll", "hll"), b=4, n=500, trials=6,
                           checkpoints=2, seed=5, martingale=True)
    rows = simulate(cfg)
    assert {r.sketch for r in rows} == {"martingale-ehll", "martingale-hll"}
    final = [r for r in rows if r.n == 500]
    for r in final:
        assert abs(r.rel_bias) < 0.5


def test_tailcut_martingale_slow_path():
    cfg = SimulationConfig(kinds=("ehll-tc",), b=4, n=200, trials=3,
                           checkpoints=2, seed=5, martingale=True)
    rows = simulate(cfg)
    assert rows[0].sketch == "martingale-ehll-tc"


def test_csv_format():
    cfg = SimulationConfig(kinds=("hll",), b=4, n=100, trials=2,
                           checkpoints=1, seed=1)
    text = rows_to_csv(simulate(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "hll" and fields[1] == "16"
    assert len(fields) == 8


def test_svg_renders():
    cfg = SimulationConfig(kinds=("hll", "ehll"), b=4, n=200, trials=4,
                           checkpoints=3, seed=2)
    svg = rows_to_svg(simulate(cfg))
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    assert "relative RMSE" in svg


def test_asymptotic_constants_mode():
    cfg = SimulationConfig(kinds=("ehll",), b=4, n=2000, trials=3,
                           checkpoints=1, seed=9, asymptotic=True)
    rows = simulate(cfg)
    cfg2 = SimulationConfig(kinds=("ehll",), b=4, n=2000, trials=3,
                            checkpoints=1, seed=9)
    rows2 = simulate(cfg2)
    # same streams, slightly different bias constant
    assert rows[0].mean_est != rows2[0].mean_est
    assert abs(rows[0].mean_est / rows2[0].mean_est - 1) < 0.1
