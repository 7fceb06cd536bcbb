"""Acceptance gate: the contract criteria, each at its stated tolerance.

Heavy Monte-Carlo runs are shared across criteria through module-scoped
fixtures; every test prints one PASS/FAIL line (visible with ``-s`` or
``-rA``).  Budget: the whole module runs in a few minutes on a laptop.
"""

import math
import time

import numpy as np
import pytest

from ehll import analysis
from ehll.analysis import (
    asymptotic_constants,
    beta_m,
    ehll_kernel,
    gamma_m,
    integral_asymptotics,
    mvp_report,
    power_integrals,
)
from ehll.oracle import (
    derive_cells,
    enumerate_change_probability,
    exact_expectation_Y,
    exact_second_moment_Y,
    shadow_from_stream,
)
from ehll.simulate import SimulationConfig, paper_scale, run_trial
from ehll.sketches import EhllSketch, HllSketch, PcsaSketch
from ehll.hashing import stream_u64

TRIALS = 2000
N = 100_000


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _final_estimates(kind: str, m: int, n: int, trials: int, seed: int,
                     martingale: bool = False) -> np.ndarray:
    positions = np.array([n])
    out = np.empty(trials)
    for t in range(trials):
        out[t] = run_trial(kind, m, n, positions, seed, t, martingale, False)[0]
    return out


@pytest.fixture(scope="module")
def ehll_1024():
    t0 = time.time()
    est = _final_estimates("ehll", 1024, N, TRIALS, seed=101)
    return est, time.time() - t0


@pytest.fixture(scope="module")
def hll_1024():
    return _final_estimates("hll", 1024, N, TRIALS, seed=102)


@pytest.fixture(scope="module")
def hll_1195():
    return _final_estimates("hll", 1195, N, TRIALS, seed=103)


@pytest.fixture(scope="module")
def mg_ehll_1024():
    return _final_estimates("ehll", 1024, N, TRIALS, seed=104, martingale=True)


@pytest.fixture(scope="module")
def mg_hll_1024():
    return _final_estimates("hll", 1024, N, TRIALS, seed=105, martingale=True)


@pytest.fixture(scope="module")
def mg_hll_1195():
    return _final_estimates("hll", 1195, N, TRIALS, seed=106, martingale=True)


def _rel_rmse(est: np.ndarray, n: int) -> float:
    rel = est / n - 1.0
    return float(np.sqrt((rel * rel).mean()))


def test_criterion_1_ehll_accuracy(ehll_1024):
    est, elapsed = ehll_1024
    rmse = _rel_rmse(est, N)
    target = math.sqrt(0.776 / 1024)
    ok = abs(rmse - target) / target < 0.10 and elapsed <= 120
    _report(1, ok, f"two-field RMSE {rmse:.5f} vs {target:.5f} "
                   f"(|dev| {abs(rmse - target) / target:.1%}), {elapsed:.0f}s")


def test_criterion_2_hll_accuracy(hll_1024):
    rmse = _rel_rmse(hll_1024, N)
    target = 1.04 / math.sqrt(1024)
    ok = abs(rmse - target) / target < 0.10
    _report(2, ok, f"max-rank RMSE {rmse:.5f} vs {target:.5f} "
                   f"(|dev| {abs(rmse - target) / target:.1%})")


def test_criterion_3_matched_memory_ratio(ehll_1024, hll_1195):
    ratio = _rel_rmse(ehll_1024[0], N) / _rel_rmse(hll_1195, N)
    target = math.sqrt(0.837)
    ok = abs(ratio - target) < 0.07
    _report(3, ok, f"matched-memory RMSE ratio {ratio:.4f} vs {target:.4f}")


def test_criterion_4_martingale_variances(mg_ehll_1024, mg_hll_1024, mg_hll_1195):
    var_e = float(mg_ehll_1024.var(ddof=1)) / N**2
    var_h = float(mg_hll_1024.var(ddof=1)) / N**2
    ok_e = abs(var_e - 0.52 / 1024) / (0.52 / 1024) < 0.10
    ok_h = abs(var_h - 0.69 / 1024) / (0.69 / 1024) < 0.10
    ratio = float(mg_ehll_1024.std(ddof=1) / mg_hll_1195.std(ddof=1))
    target = math.sqrt(7.0 / 6.0 * 0.52 / 0.69)
    ok_r = abs(ratio - target) < 0.07
    _report(4, ok_e and ok_h and ok_r,
            f"var*m/n^2: two-field {var_e * 1024:.4f} vs 0.52, "
            f"max-rank {var_h * 1024:.4f} vs 0.69, ratio {ratio:.4f} vs {target:.4f}")


def test_criterion_5_constants():
    analysis._cache.clear()
    t0 = time.time()
    gamma_inf, beta_inf = asymptotic_constants()
    g = gamma_m(1 << 16)
    b = beta_m(1 << 16)
    i0, i1 = power_integrals(ehll_kernel, 1024)
    a0, a1 = integral_asymptotics(1024)
    elapsed = time.time() - t0
    ok = (abs(g - gamma_inf) < 1e-3 and abs(b - 0.7761) < 1e-2
          and abs(i0 - a0) / a0 < 1e-4 and abs(i1 - a1) / a1 < 1e-4
          and elapsed <= 10)
    _report(5, ok, f"gamma {g:.6f} (limit {gamma_inf:.6f}), beta {b:.6f}, "
                   f"I0 rel {abs(i0 - a0) / a0:.2e}, I1 rel {abs(i1 - a1) / a1:.2e}, "
                   f"{elapsed:.1f}s")


def _mc_mean_Y(n: int, m: int, K: int, trials: int, rng) -> float:
    g = np.minimum(rng.geometric(0.5, size=(trials, n)), K)
    b = rng.integers(0, m, size=(trials, n))
    tsum = np.zeros(trials)
    for j in range(m):
        sel = b == j
        gg = np.where(sel, g, 0)
        c1 = gg.max(axis=1)
        hit = (gg == (c1[:, None] - 1)) & sel
        c2 = np.where(c1 <= 1, 1, hit.any(axis=1).astype(int))
        tsum += np.where(c1 == 0, 1.0, 0.5**c1 * (3 - 2 * c2))
    return float((1.0 / tsum).mean())


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(660)
    trials, K = 1_000_000, 64
    zs = []
    for m in (1, 2):
        exact = exact_expectation_Y(10, m, K)
        second = exact_second_moment_Y(10, m, K)
        sigma = math.sqrt((second - exact * exact) / trials)
        mc = _mc_mean_Y(10, m, K, trials, rng)
        zs.append(abs(mc - exact) / sigma)
    ok_mc = all(z < 3 for z in zs)

    worst = 0.0
    for _ in range(100):
        m = int(rng.choice([1, 2, 4]))
        s = EhllSketch(m=m)
        ranks, bits = np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64)
        for j in range(m):
            r = rng.random()
            if r < 0.2:
                continue
            k = int(rng.integers(1, 21))
            ranks[j] = k
            bits[j] = 1 if k < 2 else int(rng.integers(0, 2))
        s._derive(ranks, bits)
        diff = s.change_probability() - enumerate_change_probability(s, 20)
        worst = max(worst, abs(diff))
        ok_mc = ok_mc and 0 <= diff <= 2.0**-20 + 1e-12
    _report(6, ok_mc, f"MC z-scores {zs[0]:.2f}/{zs[1]:.2f} (3-sigma gate), "
                      f"enumeration gap <= {worst:.2e} (bound 2^-20)")


def test_criterion_7_merge_exactness():
    rng = np.random.default_rng(770)
    pairs = 10_000
    failures = 0
    for kind, cls in (("pcsa", PcsaSketch), ("hll", HllSketch), ("ehll", EhllSketch)):
        for t in range(pairs):
            pool = rng.integers(0, 2**63, size=64, dtype=np.uint64)
            cut_a = int(rng.integers(1, 63))
            cut_b = int(rng.integers(1, 63))
            sa, sb = pool[:cut_a], pool[cut_b:]
            a = cls(b=4, seed=7)
            a.insert_batch(sa)
            b = cls(b=4, seed=7)
            b.insert_batch(sb)
            u = cls(b=4, seed=7)
            u.insert_batch(np.concatenate([sa, sb]))
            merged = a.merge(b)
            if merged != u or merged != b.merge(a) or a.merge(a) != a:
                failures += 1
    _report(7, failures == 0,
            f"{pairs} random stream pairs per kind, {failures} mismatches")


def test_criterion_8_shadow_register_equivalence():
    rng = np.random.default_rng(880)
    streams = 1000
    bad = 0
    for t in range(streams):
        b = (4, 6, 10)[t % 3]
        n = int(rng.integers(1, 1001))
        stream = rng.integers(0, 2**63, size=n, dtype=np.uint64).tolist()
        h = HllSketch(b=b, seed=t)
        e = EhllSketch(b=b, seed=t)
        h.insert_all(stream)
        e.insert_all(stream)
        hll_cells, ehll_cells = derive_cells(shadow_from_stream(stream, 1 << b, seed=t))
        if h._cells()[0].tolist() != hll_cells:
            bad += 1
        elif list(zip(*(a.tolist() for a in e._cells()))) != ehll_cells:
            bad += 1
    _report(8, bad == 0, f"{streams} streams (b in 4/6/10), {bad} register mismatches")


def test_criterion_9_small_range_regime():
    trials, n, m = 1000, 50, 1024
    est = np.empty(trials)
    regimes_ok = True
    for t in range(trials):
        s = EhllSketch(m=m, seed=0)
        s.insert_batch(stream_u64(n, 40_000 + t))
        r = s.estimate()
        est[t] = r.value
        regimes_ok = regimes_ok and r.regime == "linear-counting"
    mean = float(est.mean())
    ok_mean = abs(mean - n) / n < 0.02
    # the other side of the boundary reports the raw regime
    big = EhllSketch(m=m, seed=0)
    big.insert_batch(stream_u64(50_000, 7))
    regimes_ok = regimes_ok and big.estimate().regime == "raw"
    _report(9, ok_mean and regimes_ok,
            f"mean {mean:.2f} vs 50 ({abs(mean - n) / n:.2%}), regime flags correct")


def test_criterion_10_martingale_unbiasedness(mg_ehll_1024):
    oks, details = [], []
    for n, m, seed in ((1000, 64, 107), (10_000, 256, 108)):
        est = _final_estimates("ehll", m, n, TRIALS, seed=seed, martingale=True)
        se = est.std(ddof=1) / math.sqrt(TRIALS)
        z = (float(est.mean()) - n) / se
        oks.append(abs(z) < 3)
        details.append(f"n={n} z={z:+.2f}")
    se = mg_ehll_1024.std(ddof=1) / math.sqrt(TRIALS)
    z = (float(mg_ehll_1024.mean()) - N) / se
    oks.append(abs(z) < 3)
    details.append(f"n={N} z={z:+.2f}")
    _report(10, all(oks), "mean(E_n) within 3 standard errors: " + ", ".join(details))


def test_criterion_11_paper_scale_is_optional():
    cfg = paper_scale(SimulationConfig(kinds=("ehll",), trials=2000))
    ok = cfg.n == 1_000_000 and cfg.trials == 25_000
    from ehll.cli import build_parser
    args = build_parser().parse_args(
        ["simulate", "--sketch", "ehll", "--paper-scale"])
    _report(11, ok and args.paper_scale,
            "full 25,000 x 10^6 campaign available behind --paper-scale "
            "(documented optional replication, not a gate)")


def test_criterion_12_mvp_table():
    rows = {r.sketch: r for r in mvp_report(64)}
    devs = {
        "pcsa": abs(rows["pcsa"].mvp - 38.9) / 38.9,
        "hll": abs(rows["hll"].mvp - 6.48) / 6.48,
        "ehll": abs(rows["ehll"].mvp - 5.46) / 5.46,
    }
    ok = all(d < 0.01 for d in devs.values())
    _report(12, ok, "MVP rows " + ", ".join(
        f"{k}={rows[k].mvp:.3f} ({d:.2%})" for k, d in devs.items()))
