"""Bias and variance constants derived from first principles.

The raw indicator of each estimator concentrates, for ``n/m`` large,
around ``n/m`` times a power integral of a fixed kernel:

* HyperLogLog kernel      ``h(u) = log2((2+u)/(1+u))``
* ExtendedHyperLogLog kernel
  ``g(u) = log2((2+u)/(1+u)) + log2((4+3u)/(3+3u)) - log2((4+u)/(3+u))``

With ``I0(m) = int_0^inf k(u)^m du`` and ``I1(m) = int_0^inf u k(u)^m du``
the bias correction is ``1/(m I0)`` and the relative-variance constant is
``m (I1/I0^2 - 1)``.  Everything here is computed by adaptive quadrature
(:func:`ehll.quadpack.qags`, a plain-Python port of QUADPACK's QAGS that
matches ``scipy.integrate.quad`` bit for bit), never from hardcoded
decimal tables; the closed-form large-``m`` limits

    gamma = 2/(3 ln 2) ~ 0.962      beta = 41 ln 2 / 16 - 1 ~ 0.776

serve only as cross-checks (and as an opt-in estimator mode for
comparison runs).  The same machinery applied to the HyperLogLog kernel
reproduces the classic constants: ``alpha_16 = 0.673``,
``alpha_inf = 1/(2 ln 2) = 0.72135``, variance ``3 ln 2 - 1 = 1.0794``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadpack import MESSAGES, qags

LN2 = math.log(2.0)

#: Bitmap-sketch constants: E[first-zero index] ~ log2(phi * n), and the
#: stochastic-averaged relative error is ~0.78/sqrt(m).
PCSA_PHI = 0.77351
PCSA_RELERR = 0.78


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its tolerance."""


def ehll_kernel(u):
    """Limiting integrand kernel for the two-field (rank, neighbor-bit) cell."""
    return (
        np.log2((2.0 + u) / (1.0 + u))
        + np.log2((4.0 + 3.0 * u) / (3.0 + 3.0 * u))
        - np.log2((4.0 + u) / (3.0 + u))
    )


def hll_kernel(u):
    """Limiting integrand kernel for the max-rank cell."""
    return np.log2((2.0 + u) / (1.0 + u))


def _integrand(kernel: Callable[[float], float], m: int, p: int) -> Callable[[float], float]:
    """Integrand on ``t`` in [0, 1) whose integral is ``m^(p+1) Ip``.

    ``u^p kernel(u)^m`` under ``u = s/m``, ``s = t/(1-t)``, evaluated one
    float at a time and in logs, so the m-th power cannot underflow
    before the Jacobian ``1/(1-t)^2`` is applied.
    """
    def integrand(t: float) -> float:
        s = t / (1.0 - t)
        val = kernel(s / m)
        if val <= 0.0 or (s == 0.0 and p):
            return 0.0
        logv = m * math.log(val) + (p * math.log(s) if p else 0.0)
        return math.exp(logv) / (1.0 - t) ** 2
    return integrand


def power_integrals(kernel: Callable[[float], float], m: int,
                    epsabs: float = 1e-12, epsrel: float = 1e-10) -> tuple[float, float]:
    """``(I0, I1)`` where ``Ip = int_0^inf u^p kernel(u)^m du``.

    The integral is rescaled by ``u = s/m`` (the kernel falls off like
    ``1 - Theta(u)`` near zero, so the mass sits at ``u = O(1/m)``), then
    mapped onto the unit interval by ``s = t/(1-t)``.  For ``m >= 3`` both
    transformed integrands vanish at ``t = 1`` and :func:`ehll.quadpack.qags`
    integrates them with nodes inside each subinterval.  (At ``m = 2`` the
    ``I1`` integrand grows like ``1/(1-t)``, and QAGS would bisect toward
    ``t = 1`` until a node rounds onto it.)

    Raises :class:`QuadratureError` if the quadrature reports an error
    (subdivision budget exhausted, roundoff, ...) or its error estimate
    is above tolerance, and ``ValueError`` for ``m < 3``: the kernels
    decay like ``1/u``, so ``I0`` diverges at ``m = 1`` and ``I1`` at
    ``m = 2``.
    """
    if m < 3:
        raise ValueError("power_integrals requires m >= 3 "
                         "(I0 diverges at m = 1, I1 at m = 2)")
    results = []
    for p in (0, 1):
        est, err, _, ier = qags(_integrand(kernel, m, p), 0.0, 1.0, epsabs=epsabs * m,
                                epsrel=epsrel * 0.1, limit=200)
        if ier:
            raise QuadratureError(
                f"power integral p={p}, m={m} did not converge: {MESSAGES[ier]}")
        if err > max(epsabs * m, abs(est) * epsrel):
            raise QuadratureError(
                f"power integral p={p}, m={m}: error estimate {err:.3e} above tolerance")
        results.append(est)
    return results[0] / m, results[1] / (m * m)


def integral_asymptotics(m: int) -> tuple[float, float]:
    """Leading two-term expansions of the cell-kernel power integrals.

    ``I0 ~ (ln 8 / 2m)(1 + c/m)`` and ``I1 ~ (ln 8 / 2m)^2 (1 + 3c/m)``
    with ``c = 41 ln 2 / 16 - 1``; used as an O(m^-2) cross-check of the
    quadrature, never as the estimator's constants.
    """
    c = 41.0 * LN2 / 16.0 - 1.0
    lead = math.log(8.0) / (2.0 * m)
    return lead * (1.0 + c / m), lead * lead * (1.0 + 3.0 * c / m)


def asymptotic_constants() -> tuple[float, float]:
    """Large-``m`` limits ``(gamma, beta)``, computed from their closed forms."""
    return 2.0 / (3.0 * LN2), 41.0 * LN2 / 16.0 - 1.0


_cache: dict[tuple[str, int], tuple[float, float]] = {}


def _constants(kernel_name: str, m: int) -> tuple[float, float]:
    """Cached ``(bias correction, variance constant)`` for one kernel and m."""
    if m < 16:
        raise ValueError("bias constants are defined for m >= 16")
    key = (kernel_name, m)
    if key not in _cache:
        kernel = ehll_kernel if kernel_name == "ehll" else hll_kernel
        i0, i1 = power_integrals(kernel, m)
        _cache[key] = (1.0 / (m * i0), m * (i1 / (i0 * i0) - 1.0))
    return _cache[key]


def gamma_m(m: int) -> float:
    """Bias correction for the two-field estimator at register count ``m``."""
    return _constants("ehll", m)[0]


def beta_m(m: int) -> float:
    """Relative-variance constant of the two-field estimator (RMSE ~ sqrt(beta/m))."""
    return _constants("ehll", m)[1]


def alpha_m(m: int) -> float:
    """Bias correction for the max-rank estimator, same quadrature footing."""
    return _constants("hll", m)[0]


def beta_hll_m(m: int) -> float:
    """Relative-variance constant of the max-rank estimator (~1.08 for large m)."""
    return _constants("hll", m)[1]


def linear_counting(m: int, zero_registers: int) -> float:
    """Occupancy estimate ``m ln(m / V)`` from the count of zero registers."""
    if not 1 <= zero_registers <= m:
        raise ValueError("linear counting needs 1 <= V <= m")
    return m * math.log(m / zero_registers)


@dataclass(frozen=True)
class MvpRow:
    """One memory-variance-product row: payload bits/cell x relative variance x m."""

    sketch: str
    bits_per_cell: float
    variance_constant: float
    mvp: float


def mvp_report(u_bits: int = 64) -> list[MvpRow]:
    """Memory-variance products for cardinalities up to ``2**u_bits``.

    Bits per cell: the bitmap sketch stores the whole ``log2 U`` coupon
    range; the max-rank sketch needs ``log2 log2 U`` bits; the two-field
    cell adds one bit.  Variance constants come from this module's own
    quadrature (at ``m = 2**16``, effectively the asymptote) except for
    the bitmap sketch, whose published relative error 0.78/sqrt(m) is
    squared.
    """
    if not 32 <= u_bits <= 64:
        raise ValueError("u_bits must be in [32, 64]")
    loglog = math.log2(u_bits)
    big = 1 << 16
    return [
        MvpRow("pcsa", u_bits, PCSA_RELERR ** 2, PCSA_RELERR ** 2 * u_bits),
        MvpRow("hll", loglog, beta_hll_m(big), beta_hll_m(big) * loglog),
        MvpRow("ehll", loglog + 1, beta_m(big), beta_m(big) * (loglog + 1)),
    ]
