"""Simulation harness: vectorized paths vs reference sketches, determinism."""

import numpy as np
import pytest

from ehll.hashing import hash64_u64_array, split_hash_array, stream_u64
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
    # computed in this process before the pool forked, not only in the workers
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


def test_one_pool_per_simulate_call(monkeypatch):
    import concurrent.futures

    made = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    for workers, pools in ((1, []), (2, [2]), (3, [3])):
        made.clear()
        simulate(SimulationConfig(kinds=("ehll", "hll", "hll-tc"), b=4, n=200, trials=4,
                                  checkpoints=2, seed=2, workers=workers))
        assert made == pools


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
