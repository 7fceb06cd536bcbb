"""Benchmark of the ``ehll`` package, driven from outside through its API and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each one closed-loop client in this process; besides the fresh
interpreters that time set-up, the only other processes are the CLI
children of ``tokens-cli`` and the ``workers=2`` pool of ``simulate`` in
``accuracy-campaign``):

* ``tokens-cli``        -- ``ehll estimate`` subprocesses on a Zipf token file;
* ``shard-rollup``      -- micro-batch ingest of overlapping shards, then merge queries;
* ``accuracy-campaign`` -- three ``simulate()`` calls.

Every run prints the same end-to-end metrics; each means the following
on each workload (tokens-cli | shard-rollup | accuracy-campaign):

* ``rate_per_s``         CLI tokens/s, plain runs | elements/s ingested | matched-memory trials/s
* ``rate2_per_s``        CLI tokens/s with --martingale | pcsa/hll/ehll elements/s | martingale trials/s
* ``tailcut_rate_per_s`` CLI tokens/s of hll-tc --save | TailCut-kind elements/s | ehll-tc martingale trials/s
* ``request_p50_ms``, ``request_p95_ms``: latency of one request, i.e. one
  CLI run | one query | one ``simulate()`` call
* ``setup_s``     median over fresh interpreters of importing the entry point
  plus the cold ``gamma_m``/``alpha_m`` quadrature the workload needs
* ``peak_rss_mb`` peak resident set of the process doing the work
* ``ok_ratio``    1 - failed/attempted operations; a failed output check is a
  failed operation

Rates and latencies are medians (or percentiles) over the samples of one
run, which damps short stalls.  A shared host also switches between
speed states that last seconds and differ by up to 1.5x, so the timed
metrics and ``setup_s`` are scaled by a fixed calibration loop
(``harness.Scaler``) and read as wall time at the host speed where that
loop takes ``harness.CALIB_REF_S``.  Set-up, and the whole of
``tokens-cli`` and ``shard-rollup``, run on one CPU (the CLI children
inherit it); there each sample (a set-up child, a CLI run, one kind's
ingest, one query plan) is scaled by the calibrations just before and
after it.  The ``simulate()`` pool of ``accuracy-campaign`` gets every
CPU back; each CPU is calibrated in turn before each call, and the
calls are scaled by the run's median speed of all of them.
The run record (printed before the result) keeps the unscaled figures
under ``unscaled`` and the calibrations under ``machine.calib_s``.

``--trace 1`` runs the workload once untraced and once with span wrappers
(``spans.py``) and prints the per-layer metrics instead.  The CLI then runs
in-process and the campaign at ``workers=1``, so that every span is seen.
Spans are written to ``.perfbench_out/trace-<workload>.npz``.

The last line of stdout is the JSON result; exit code 2 means the
package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

import harness
import spans
import wl_campaign
import wl_shards
import wl_tokens

E2E_METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "rate_per_s": "1/s",
    "rate2_per_s": "1/s",
    "tailcut_rate_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
}


WORKLOADS = {wl.NAME: wl for wl in (wl_tokens, wl_shards, wl_campaign)}


def traced_metrics(wl, state, checks: harness.Checks, scaler: harness.Scaler) -> dict[str, float]:
    """Untraced pass, then the same pass under span wrappers; layer metrics."""
    leftovers = spans.find_wrappers()
    checks.record(not leftovers, f"wrappers present before the untraced pass: {leftovers}")
    scaler.calibrate()
    t0 = perf_counter()
    plain = wl.one_pass(state, checks)
    untraced = perf_counter() - t0

    tracer = spans.Tracer()
    scaler.calibrate()
    try:
        spans.instrument(tracer)
        with tracer.span(spans.ROOT_SPAN):
            traced = wl.one_pass(state, checks)
    finally:
        tracer.remove()
    leftovers = spans.find_wrappers()
    checks.record(not leftovers, f"wrappers survived the traced pass: {leftovers}")
    checks.record(traced == plain, "traced outputs differ from untraced outputs")

    metrics = spans.layer_metrics(tracer)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / untraced - 1.0
    checks.record(abs(metrics["trace.self_sum_s"] - metrics["trace.wall_s"])
                  <= 1e-6 * metrics["trace.wall_s"], "span self times do not add up to the wall time")
    tracer.write(harness.OUT / f"trace-{wl.NAME}.npz", {"workload": wl.NAME, "metrics": metrics})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SRC / "ehll" / "__init__.py").is_file():
        print(f"error: package source not found at {harness.SRC / 'ehll'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    harness.OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    checks = harness.Checks()
    scaler = harness.Scaler()

    # The calibrations and the timed children run on one CPU, so that they
    # see the same speed; the campaign's pool then gets every CPU back.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    setup = harness.measure_setup(wl.ENTRY, wl.CONSTANTS, 3 if args.trace else 7, checks, scaler)
    if not wl.ONE_CPU:
        os.sched_setaffinity(0, cpus)
    state = wl.prepare(args.seed, bool(args.trace), checks, scaler)
    if args.trace:
        values = traced_metrics(wl, state, checks, scaler)
        values["setup.import_s"] = setup["import_s"]
        values["machine.calib_s"] = harness.median(scaler.calib)
        units = spans.LAYER_METRICS
    else:
        deadline = perf_counter() + args.seconds
        values = wl.measure(state, deadline, checks, scaler)
        values["setup_s"] = setup["setup_s"]
        units = E2E_METRICS
    values["ok_ratio"] = 1.0 - checks.failed / max(checks.attempted, 1)

    record = harness.run_record(wl.NAME, args.seed, bool(args.trace), scaler.calib)
    record["setup"] = setup
    record["failures"] = checks.messages
    record.update(state.record())
    (harness.OUT / f"record-{wl.NAME}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
