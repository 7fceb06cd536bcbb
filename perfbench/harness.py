"""Shared plumbing of the benchmark: paths, children, statistics, run record.

Nothing here imports ``ehll`` at module level; the package is reached
through ``SRC`` (put on ``sys.path`` by ``run.py`` and on ``PYTHONPATH``
for children).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], tag: str, timeout: float = 120.0) -> Child:
    """Run a child to completion; wall time from spawn to reap, plus its peak RSS.

    Output goes to files so the child never blocks on a full pipe, and
    ``wait4`` returns the child's own resource usage.
    """
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        try:
            deadline = t0 + timeout
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"{argv[:3]} ran past {timeout} s")
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def python_child(code: str, *args: str) -> list[str]:
    return [sys.executable, "-c", code, *args]


_CALIB_DATA: tuple | None = None


def _calib_work(loops: int, reps: int) -> None:
    global _CALIB_DATA
    import numpy as np

    if _CALIB_DATA is None:
        rng = np.random.default_rng(12345)
        _CALIB_DATA = (rng.integers(0, 2**63, 1 << 16, dtype=np.uint64),
                       rng.integers(0, 1 << 14, 1 << 16))
    words, cells = _CALIB_DATA
    acc = 0
    for i in range(loops):
        acc = (acc + i * i) % 1_000_003
    for _ in range(reps):
        np.sort(words)
        top = (words * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(50)
        regs = np.zeros(1 << 14, np.uint8)
        np.maximum.at(regs, cells, (top & np.uint64(63)).astype(np.uint8))
        np.bincount(top.astype(np.int64), minlength=1 << 14)


def calib_loop() -> float:
    """A fixed pure-Python loop plus fixed numpy sorts, hashes and scatters.

    It imports nothing from ``ehll``; timed beside each sample, it shows
    the host's speed at that moment.  A short untimed pass first brings
    its code and data back into the caches, which the sample before it
    may have evicted.
    """
    _calib_work(2_000, 1)
    t0 = time.perf_counter()
    _calib_work(60_000, 4)
    return time.perf_counter() - t0


#: ``calib_loop()``'s time on the host the bounds were set on (2 cores of
#: an Intel Xeon at 2.0 GHz, in its fast state), in seconds.
CALIB_REF_S = 0.010


class Scaler:
    """Scales each sample's wall time to the host speed at which ``CALIB_REF_S`` holds.

    A shared host switches between speed states that last seconds and
    differ by up to 1.5x, so raw medians of one run move with the share of
    time it spent in each state.  ``calib_loop`` runs just before and just
    after each sample (one calibration serves as the next sample's
    "before" when nothing runs in between), and the sample's wall time is
    multiplied by ``CALIB_REF_S`` over the mean of the two.  Every
    calibration is kept in ``calib`` for the run record.
    """

    #: A calibration older than this is stale as the next sample's "before".
    STALE_S = 0.005

    def __init__(self) -> None:
        self.calib: list[float] = []
        self._before: float | None = None
        self._at = -math.inf

    def calibrate(self) -> float:
        c = calib_loop()
        self.calib.append(c)
        self._at = time.perf_counter()
        return c

    def begin(self) -> None:
        """Call right before a sample starts."""
        if self._before is None or time.perf_counter() - self._at > self.STALE_S:
            self._before = self.calibrate()

    def scale(self, seconds: float) -> float:
        """Call right after the sample that ``begin`` opened; its scaled time."""
        if self._before is None:
            raise RuntimeError("scale() without begin()")
        after = self.calibrate()
        scaled = seconds * 2.0 * CALIB_REF_S / (self._before + after)
        self._before = after
        return scaled

    def speed_of_cpus(self, cpus: set[int]) -> float:
        """Calibrate on each of ``cpus`` in turn; their mean speed, 1 at ``CALIB_REF_S``.

        The CPUs' speeds change independently, and a pool spread over
        them runs at about their mean speed.
        """
        mine = os.sched_getaffinity(0)
        speed = 0.0
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                speed += CALIB_REF_S / self.calibrate()
        finally:
            os.sched_setaffinity(0, mine)
        return speed / len(cpus)


def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, q: float) -> float:
    """Inclusive-method percentile ``q`` in (0, 100)."""
    xs = sorted(xs)
    if len(xs) == 1:
        return float(xs[0])
    return float(statistics.quantiles(xs, n=100, method="inclusive")[round(q) - 1])


def self_peak_rss_mb() -> float:
    """Peak RSS of this process and of every reaped child, whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class Checks:
    """Operations attempted and failed; a failed output check is a failed operation."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 50:
                self.messages.append(what)
        return ok


#: Loads n/m over which the raw estimators carry the transition bias
#: documented at ``ehll.sketches.LC_THRESHOLD`` (switch at n = 2.5 m):
#: a mean bias of up to +8% for ehll and +3% for hll near n = 2.4-2.5 m
#: (12 streams each at m = 4096 and 16384), fading by n = 4.5 m.  The band
#: widens by HUMP_BIAS on the upper side there.
HUMP_LOADS = (2.0, 4.5)
HUMP_BIAS = 0.09


def rse(kind: str, m: int) -> float:
    """Relative standard error ``sqrt(beta/m)`` of a kind's estimator at ``m`` registers."""
    from ehll import analysis

    beta = analysis.beta_m if kind.startswith("ehll") else analysis.beta_hll_m
    return math.sqrt(beta(m) / m)


@dataclass
class Band:
    """Accepted estimate: within +-``sigmas`` relative standard errors of the truth.

    Regime-switching estimators get ``HUMP_BIAS`` more on the upper side
    inside ``HUMP_LOADS``; those estimates are counted so the run record
    shows how many needed it and the largest error among them.
    """

    sigmas: float
    hump_estimates: int = 0
    hump_max_rel_err: float = 0.0

    def ok(self, est: float, true: int, m: int, rel_se: float, switching: bool = True) -> bool:
        rel = est / true - 1.0
        upper = self.sigmas * rel_se
        if switching and HUMP_LOADS[0] <= true / m <= HUMP_LOADS[1]:
            upper += HUMP_BIAS
            self.hump_estimates += 1
            self.hump_max_rel_err = max(self.hump_max_rel_err, rel)
        return math.isfinite(est) and -self.sigmas * rel_se <= rel <= upper


_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import {entry}
t1 = time.perf_counter()
from ehll import analysis
for fn, m in {constants!r}:
    getattr(analysis, fn)(m)
t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "quad_s": t2 - t1}}))
"""


def measure_setup(entry: str, constants: list[tuple[str, int]], reps: int,
                  checks: Checks, scaler: Scaler) -> dict:
    """Median over fresh interpreters of the entry import plus cold quadrature.

    ``setup_s`` is scaled by the calibrations around each child;
    ``unscaled_s`` and ``import_s`` are raw.
    """
    code = _SETUP_CODE.format(entry=entry, constants=constants)
    scaled, total, imports = [], [], []
    for i in range(reps):
        scaler.begin()
        child = run_child(python_child(code), f"setup-{i}")
        factor = scaler.scale(child.wall_s) / child.wall_s
        if not checks.record(child.code == 0, f"setup child exit {child.code}: {child.stderr[-300:]}"):
            continue
        row = json.loads(child.stdout.strip().splitlines()[-1])
        total.append(row["import_s"] + row["quad_s"])
        scaled.append(total[-1] * factor)
        imports.append(row["import_s"])
    if not total:
        raise RuntimeError("no setup child succeeded")
    return {"setup_s": median(scaled), "unscaled_s": median(total), "import_s": median(imports),
            "samples": total}


def _git_commit() -> str | None:
    """HEAD of the repository rooted exactly at ROOT; None for an exported tree."""
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_record(workload: str, seed: int, trace: bool, calib: list[float]) -> dict:
    import numpy
    import scipy

    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "ehll").glob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_ehll_lines": lines,
        "machine.calib_s": {
            "median": median(calib) if calib else None,
            "min": min(calib) if calib else None,
            "max": max(calib) if calib else None,
            "samples": len(calib),
        },
    }
