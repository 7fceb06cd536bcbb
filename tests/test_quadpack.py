"""The QAGS port against the compiled QUADPACK in ``scipy.integrate.quad``.

The port claims bit identity, not closeness: every comparison here is
``==`` on ``(result, abserr, last, ier)``.
"""

import math
import warnings

import pytest
from scipy.integrate import IntegrationWarning, quad

from ehll import analysis, quadpack
from ehll.analysis import QuadratureError, _integrand, ehll_kernel, hll_kernel, power_integrals

# scipy reports a nonzero ier as one of these messages
_SCIPY_IER = {"The maximum number": 1, "The occurrence of roundoff": 2, "Extremely bad": 3,
              "The algorithm does not converge": 4, "The integral is probably divergent": 5}

POWER_MS = [*range(16, 1025), *(1 << e for e in range(11, 21)), 1195, 1280]


def scipy_qags(f, a, b, epsabs, epsrel, limit):
    """``(result, abserr, last, ier)`` of scipy's compiled ``dqagse``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        est, err, info, *msg = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                                    full_output=1)
    ier = 0
    if msg:
        (ier,) = [v for k, v in _SCIPY_IER.items() if msg[0].startswith(k)]
    return est, err, info["last"], ier


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("kernel", [ehll_kernel, hll_kernel])
def test_power_integrands_match_scipy_bit_for_bit(kernel, p, monkeypatch):
    extrapolations = []
    qelg = quadpack._qelg
    monkeypatch.setattr(quadpack, "_qelg", lambda *a: extrapolations.append(1) or qelg(*a))
    for m in POWER_MS:
        f = _integrand(kernel, m, p)
        # the tolerances power_integrals passes
        args = (0.0, 1.0, analysis._EPSABS * m, analysis._EPSREL * 0.1, 200)
        assert tuple(quadpack.qags(f, *args)) == scipy_qags(f, *args), m
    assert len(extrapolations) > 500  # the epsilon algorithm is exercised


def _inv_sqrt(x):
    return 1.0 / math.sqrt(x) if x > 0.0 else 0.0


HARD = {
    "inverse-sqrt": (_inv_sqrt, 0.0, 1.0),
    "log": (lambda x: math.log(x) if x > 0.0 else 0.0, 0.0, 1.0),
    "divergent": (lambda x: 1.0 / x, 0.0, 1.0),
    "x^-0.99": (lambda x: x ** -0.99, 0.0, 1.0),
    "oscillating": (lambda x: math.sin(50.0 * x), 0.0, math.pi),
    "kink": (lambda x: abs(x - 0.3), 0.0, 1.0),
    "step": (lambda x: 1.0 if x > 0.3141 else 0.0, 0.0, 1.0),
    "reversed": (lambda x: math.exp(-x), 3.0, -1.0),
    "cos(1/x)": (lambda x: math.cos(1.0 / x) if x > 0.0 else 0.0, 0.0, 1.0),
    "zero": (lambda x: 0.0, 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(HARD))
def test_hard_integrands_match_scipy_on_every_exit_path(name):
    f, a, b = HARD[name]
    for epsabs, epsrel in [(1.49e-8, 1.49e-8), (0.0, 1e-12), (1e-14, 0.0), (6.4e-299, 1e-300)]:
        for limit in (1, 2, 3, 10, 50, 200):
            args = (a, b, epsabs, epsrel, limit)
            assert tuple(quadpack.qags(f, *args)) == scipy_qags(f, *args), (epsabs, epsrel, limit)


def test_hard_integrands_reach_every_error_flag():
    seen = set()
    for f, a, b in HARD.values():
        for epsabs, epsrel in [(1.49e-8, 1.49e-8), (0.0, 1e-12), (6.4e-299, 1e-300)]:
            for limit in (1, 10, 200):
                seen.add(quadpack.qags(f, a, b, epsabs, epsrel, limit).ier)
    assert {0, 1, 2, 3, 4} <= seen


def test_exhausted_limit_sets_ier_1():
    res = quadpack.qags(_inv_sqrt, 0.0, 1.0, 0.0, 1e-12, limit=3)
    assert res.ier == 1 and res.last == 3
    assert quadpack.qags(_inv_sqrt, 0.0, 1.0, 0.0, 1e-12, limit=200).ier == 0


def test_invalid_input_sets_ier_6():
    assert quadpack.qags(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=0.0).ier == 6
    assert quadpack.qags(math.exp, 0.0, 1.0, limit=0).ier == 6


def test_power_integrals_raise_on_a_nonzero_ier(monkeypatch):
    def short_qags(f, a, b, epsabs, epsrel, limit):
        return quadpack.qags(f, a, b, epsabs, epsrel, limit=2)

    monkeypatch.setattr(analysis, "qags", short_qags)
    with pytest.raises(QuadratureError, match="subdivisions"):
        power_integrals(ehll_kernel, 1024)
