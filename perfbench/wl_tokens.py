"""tokens-cli: ``ehll estimate`` subprocesses over a seeded Zipf token file.

The only workload on the scalar path (``hash64`` -> ``insert`` ->
``PackedRegisterArray.get/set``), on ``MartingaleCounter`` and on
interpreter start-up; it does no batch reduction.  Rates are measured on
wall time including interpreter start, which users pay on every run.
"""

from __future__ import annotations

import contextlib
import io
from time import perf_counter

import harness
import inputs

NAME = "tokens-cli"
#: Run on one CPU, which the CLI children inherit (see run.py).
ONE_CPU = True
ENTRY = "ehll.cli"
B = 12
M = 1 << B
CONSTANTS = [("gamma_m", M), ("alpha_m", M)]
TOKENS = 40_000
VOCAB = 60_000
SIGMAS = 6.0  # estimate band, in units of sqrt(beta / m); see harness.Band
MIN_ROUNDS = 3

#: The console-script body of the installed ``ehll`` command.
CLI_CODE = "import sys\nfrom ehll.cli import main\nsys.exit(main())"


class State:
    def __init__(self, seed: int):
        harness.OUT.mkdir(exist_ok=True)
        self.tokens = inputs.token_file(seed, harness.OUT / f"tokens-{seed}.txt", TOKENS, VOCAB)
        self.save_path = harness.OUT / f"tokens-{seed}-hll-tc.ehs"
        self.invocations = [
            ("ehll", ["estimate", "--sketch", "ehll", "--b", str(B)]),
            ("hll-tc", ["estimate", "--sketch", "hll-tc", "--b", str(B), "--save", str(self.save_path)]),
            ("martingale", ["estimate", "--sketch", "ehll", "--martingale", "--b", str(B)]),
        ]
        self.rse = {"ehll": harness.rse("ehll", M), "hll-tc": harness.rse("hll-tc", M),
                    "martingale": harness.rse("ehll", M)}
        self.memory_bits = {"ehll": 7 * M, "hll-tc": 4 * M, "martingale": 7 * M}
        self.reference: dict[str, tuple[str, bytes | None]] = {}
        self.band = harness.Band(SIGMAS)
        self.unscaled: dict[str, float] = {}

    def record(self) -> dict:
        return {"tokens": {k: v for k, v in vars(self.tokens).items() if k != "path"},
                "band": vars(self.band), "unscaled": self.unscaled}

    def check(self, label: str, code: int, stdout: str, saved: bytes | None,
              checks: harness.Checks) -> None:
        """Exit code, estimate band, memory line, saved file, run-to-run identity."""
        from ehll import serialization

        fields = dict(line.split(" ", 1) for line in stdout.strip().splitlines() if " " in line)
        try:
            est = float(fields["estimate"])
            ok = (code == 0 and int(fields["memory_bits"]) == self.memory_bits[label]
                  and self.band.ok(est, self.tokens.distinct, M, self.rse[label],
                                   switching=label != "martingale"))
            if ok and label == "hll-tc":
                sketch = serialization.deserialize(saved)
                ok = (sketch.kind == "hll-tc" and sketch.m == M
                      and f"{sketch.estimate().value:.6g}" == fields["estimate"])
        except (KeyError, ValueError) as exc:
            ok, est = False, repr(exc)
        ref = self.reference.setdefault(label, (stdout, saved))
        checks.record(ok and ref == (stdout, saved),
                      f"{label}: exit {code}, estimate {est} vs true {self.tokens.distinct}")

    def read_saved(self, label: str) -> bytes | None:
        """The ``--save`` file of the hll-tc run (empty if it was not written)."""
        if label != "hll-tc":
            return None
        return self.save_path.read_bytes() if self.save_path.exists() else b""


def prepare(seed: int, trace: bool, checks: harness.Checks, scaler: harness.Scaler) -> State:
    """Generate the token file.

    A traced run first runs one round of subprocesses, whose outputs the
    in-process passes must then reproduce.
    """
    state = State(seed)
    if trace:
        _cli_round(state, checks, scaler)
    return state


def _cli_round(state: State, checks: harness.Checks,
               scaler: harness.Scaler) -> list[tuple[str, harness.Child, float]]:
    """Each invocation once, as one sample of ``scaler``: (label, child, scaled wall)."""
    out = []
    for label, argv in state.invocations:
        if state.save_path.exists():
            state.save_path.unlink()
        scaler.begin()
        child = harness.run_child(
            harness.python_child(CLI_CODE, *argv, str(state.tokens.path)), f"cli-{label}")
        scaled = scaler.scale(child.wall_s)
        state.check(label, child.code, child.stdout, state.read_saved(label), checks)
        out.append((label, child, scaled))
    return out


def measure(state: State, deadline: float, checks: harness.Checks,
            scaler: harness.Scaler) -> dict[str, float]:
    walls: dict[str, list[tuple[float, float]]] = {label: [] for label, _ in state.invocations}
    rss = []
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        for label, child, scaled in _cli_round(state, checks, scaler):
            walls[label].append((child.wall_s, scaled))
            rss.append(child.maxrss_mb)
        rounds += 1

    def metrics(i: int) -> dict[str, float]:
        """The metrics on wall times (``i`` = 0) or on scaled times (1)."""
        def rate(*labels):
            return harness.median(state.tokens.tokens / w[i] for label in labels
                                  for w in walls[label])
        ms = [w[i] * 1e3 for label in walls for w in walls[label]]
        return {
            "rate_per_s": rate("ehll", "hll-tc"),
            "rate2_per_s": rate("martingale"),
            "tailcut_rate_per_s": rate("hll-tc"),
            "request_p50_ms": harness.percentile(ms, 50),
            "request_p95_ms": harness.percentile(ms, 95),
        }

    state.unscaled = metrics(0)
    return {**metrics(1), "peak_rss_mb": max(rss)}


def one_pass(state: State, checks: harness.Checks) -> list:
    """The three invocations in-process through ``ehll.cli.main``.

    The constants cache is cleared before each call, as a fresh process
    would start without it.
    """
    import ehll.cli
    from ehll import analysis

    outputs = []
    for label, argv in state.invocations:
        if state.save_path.exists():
            state.save_path.unlink()
        analysis._cache.clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ehll.cli.main([*argv, str(state.tokens.path)])
        saved = state.read_saved(label)
        state.check(label, code, buf.getvalue(), saved, checks)
        outputs.append((label, buf.getvalue(), saved))
    return outputs
