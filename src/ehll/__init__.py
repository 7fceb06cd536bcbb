"""Streaming cardinality sketches and their numeric foundations.

Mergeable sketches (bitmap, max-rank, two-field), TailCut low-memory
variants, martingale sequential estimators, bias/variance constants
derived by quadrature, brute-force oracles, and a Monte-Carlo harness.
"""

from .analysis import (
    alpha_m,
    asymptotic_constants,
    beta_hll_m,
    beta_m,
    ehll_kernel,
    gamma_m,
    hll_kernel,
    linear_counting,
    mvp_report,
    power_integrals,
)
from .hashing import hash64, rho
from .martingale import MartingaleCounter
from .registers import BitArray, PackedRegisterArray
from .serialization import deserialize, load, save, serialize
from .simulate import SimulationConfig, SimulationRow, rows_to_csv, simulate
from .sketches import EhllSketch, HllSketch, PcsaSketch, RawEstimate
from .tailcut import EhllTcSketch, HllTcSketch

__version__ = "0.1.0"

__all__ = [
    "BitArray",
    "EhllSketch",
    "EhllTcSketch",
    "HllSketch",
    "HllTcSketch",
    "MartingaleCounter",
    "PackedRegisterArray",
    "PcsaSketch",
    "RawEstimate",
    "SimulationConfig",
    "SimulationRow",
    "alpha_m",
    "asymptotic_constants",
    "beta_hll_m",
    "beta_m",
    "deserialize",
    "ehll_kernel",
    "gamma_m",
    "hash64",
    "hll_kernel",
    "linear_counting",
    "load",
    "mvp_report",
    "power_integrals",
    "rho",
    "rows_to_csv",
    "save",
    "serialize",
    "simulate",
]
