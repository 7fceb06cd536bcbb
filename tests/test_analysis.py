"""Numeric constants: kernels, power integrals, asymptotic cross-checks."""

import math

import numpy as np
import pytest

from ehll.analysis import (
    LN2,
    QuadratureError,
    alpha_m,
    asymptotic_constants,
    beta_hll_m,
    beta_m,
    ehll_kernel,
    gamma_m,
    hll_kernel,
    integral_asymptotics,
    linear_counting,
    mvp_report,
    power_integrals,
)


def test_kernel_values():
    assert ehll_kernel(0.0) == pytest.approx(1.0, abs=1e-14)
    # log2(3/2) + log2(7/6) - log2(5/4) collapses to log2(1.4)
    assert ehll_kernel(1.0) == pytest.approx(math.log2(1.4), abs=1e-14)
    assert hll_kernel(0.0) == pytest.approx(1.0, abs=1e-14)
    assert hll_kernel(2.0) == pytest.approx(math.log2(4.0 / 3.0), abs=1e-14)


def test_kernel_positive_decreasing():
    u = np.linspace(0.0, 200.0, 10_001)
    f = ehll_kernel(u)
    assert (f > 0).all()
    assert (np.diff(f) < 0).all()


def test_kernel_envelope_bounds():
    # upper bound 1/(1+u) on [1, 100]
    u = np.linspace(1.0, 100.0, 10_000)
    assert (ehll_kernel(u) < 1.0 / (1.0 + u)).all()
    # 1 - u/2 dominates on (0, 1]
    u = np.linspace(1e-6, 1.0, 1000)
    assert (1.0 - u / 2.0 > ehll_kernel(u)).all()


def test_two_field_kernel_below_max_rank_kernel():
    u = np.linspace(1e-9, 100.0, 10_000)
    assert (ehll_kernel(u) < hll_kernel(u)).all()


def test_power_integrals_require_m_ge_2():
    # the kernels decay like 1/u, so I0 diverges at m = 1 and I1 at m = 2
    with pytest.raises(ValueError):
        power_integrals(hll_kernel, 1)
    with pytest.raises(ValueError):
        power_integrals(ehll_kernel, 1)
    with pytest.raises(ValueError):
        power_integrals(hll_kernel, 2)
    with pytest.raises(ValueError):
        power_integrals(ehll_kernel, 2)


def test_integrals_match_asymptotics_at_1024():
    i0, i1 = power_integrals(ehll_kernel, 1024)
    a0, a1 = integral_asymptotics(1024)
    assert abs(i0 - a0) / a0 < 1e-4
    assert abs(i1 - a1) / a1 < 1e-4


def test_quadrature_self_consistency():
    i0, i1 = power_integrals(ehll_kernel, 256)
    j0, j1 = power_integrals(ehll_kernel, 256, epsabs=5e-13, epsrel=5e-11)
    assert abs(i0 - j0) <= 1e-10 * abs(i0)
    assert abs(i1 - j1) <= 1e-10 * abs(i1)


def test_quadrature_reports_nonconvergence():
    # an unmeetable tolerance must raise, not silently return garbage
    with pytest.raises(QuadratureError):
        power_integrals(ehll_kernel, 64, epsabs=1e-300, epsrel=1e-300)


def test_gamma_beta_limits():
    gamma_inf, beta_inf = asymptotic_constants()
    assert gamma_inf == pytest.approx(0.9617966939, abs=1e-9)
    assert beta_inf == pytest.approx(0.7761896502, abs=1e-9)
    assert round(gamma_inf, 3) == 0.962
    assert round(beta_inf, 3) == 0.776
    # algebraic identity, not a decimal
    assert gamma_inf * 3.0 * LN2 / 2.0 == pytest.approx(1.0, abs=1e-15)
    assert abs(gamma_m(1 << 16) - gamma_inf) < 1e-3
    assert abs(beta_m(1 << 16) - beta_inf) < 1e-2


def test_alpha_matches_known_values():
    # the same quadrature reproduces the classic max-rank constants
    assert abs(alpha_m(1 << 16) - 1.0 / (2.0 * LN2)) < 1e-3
    assert alpha_m(16) == pytest.approx(0.673, abs=1e-3)
    assert beta_hll_m(1 << 16) == pytest.approx(3.0 * LN2 - 1.0, abs=1e-2)


def test_gamma_m_value_and_direction():
    # frozen from the quadrature and cross-checked against the asymptotic
    # form gamma_inf / (1 + c/m): the finite-m value sits BELOW the limit
    gamma_inf, c = asymptotic_constants()
    g1024 = gamma_m(1024)
    assert g1024 == pytest.approx(0.961068, abs=2e-5)
    assert g1024 == pytest.approx(gamma_inf / (1.0 + c / 1024), rel=1e-5)
    assert g1024 < gamma_inf


def test_gamma_m_monotone_with_ratio():
    gamma_inf, _ = asymptotic_constants()
    gaps = []
    for e in range(4, 17):
        gaps.append(abs(gamma_m(1 << e) - gamma_inf))
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    # O(1/m) convergence: halving the gap when m doubles, within 20%
    for g1, g2 in zip(gaps[2:10], gaps[3:11]):
        assert 0.4 < g2 / g1 < 0.6


def test_constants_cached():
    a = gamma_m(2048)
    b = gamma_m(2048)
    assert a == b


def test_constants_domain():
    with pytest.raises(ValueError):
        gamma_m(8)
    with pytest.raises(ValueError):
        alpha_m(15)


def test_linear_counting():
    assert linear_counting(16, 16) == 0.0
    assert linear_counting(1024, 512) == pytest.approx(1024 * math.log(2.0), abs=1e-9)
    assert linear_counting(1024, 512) == pytest.approx(709.78, abs=0.01)
    with pytest.raises(ValueError):
        linear_counting(16, 0)
    with pytest.raises(ValueError):
        linear_counting(16, 17)


def test_mvp_report_reproduces_published_rows():
    rows = {r.sketch: r for r in mvp_report(64)}
    assert abs(rows["pcsa"].mvp - 38.9) / 38.9 < 0.01
    assert abs(rows["hll"].mvp - 6.48) / 6.48 < 0.01
    assert abs(rows["ehll"].mvp - 5.46) / 5.46 < 0.01
    assert rows["hll"].bits_per_cell == 6.0
    assert rows["ehll"].bits_per_cell == 7.0
    assert rows["pcsa"].bits_per_cell == 64.0
    with pytest.raises(ValueError):
        mvp_report(16)
