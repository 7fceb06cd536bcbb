"""Command-line harness.

Subcommands: ``estimate`` streams newline-delimited tokens through a
sketch, ``merge`` combines saved sketch files, ``simulate`` runs the
Monte-Carlo accuracy campaigns, ``constants`` and ``mvp`` print the
derived numeric constants, ``oracle`` exposes the brute-force reference
computations for auditing.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import analysis, serialization
from .hashing import top_bits_precision
from .martingale import MartingaleCounter
from .simulate import SimulationConfig, paper_scale, rows_to_csv, rows_to_svg, simulate

KINDS = tuple(serialization.SKETCHES)


def _add_sketch_args(p: argparse.ArgumentParser) -> None:
    # no argparse defaults (ehll, 10, 0): --load must see which flags were given
    p.add_argument("--sketch", choices=KINDS)
    p.add_argument("--b", type=int, help="precision: m = 2^b registers")
    p.add_argument("--seed", type=lambda s: int(s, 0) & 0xFFFFFFFFFFFFFFFF,
                   help="64-bit unsigned hash seed")


#: Bytes read per block of ``estimate`` input; a line longer than this
#: grows its block until the line ends.
BLOCK_BYTES = 1 << 20


def _line_tokens(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the tokens in ``data``, whole lines ending in b"\\n".

    A token is a line with ``rstrip(b"\\r\\n")`` applied; blank tokens are
    skipped.
    """
    ends = np.flatnonzero(data == 10)
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    # one pass per trailing carriage return, over the lines that still end in one
    cr = np.flatnonzero((ends > starts) & (data[ends - 1] == 13))
    while len(cr):
        ends[cr] -= 1
        cr = cr[(ends[cr] > starts[cr]) & (data[ends[cr] - 1] == 13)]
    keep = ends > starts
    return starts[keep], ends[keep]


def _token_blocks(path: str):
    """Yield ``(buffer, starts, ends)`` for each block of newline-delimited tokens.

    Reads ``BLOCK_BYTES`` at a time and carries a partial last line into
    the next block, so memory stays bounded by the block and the longest
    line on unbounded input.  A last line without a newline still counts.
    """
    fh = sys.stdin.buffer if path == "-" else open(path, "rb")
    try:
        pending: list[bytes] = []  # the block so far: a partial line, in pieces
        while True:
            chunk = fh.read(BLOCK_BYTES)
            pending.append(chunk or b"\n")
            if chunk and b"\n" not in chunk:
                continue  # the line goes on; join its pieces once it ends
            data = b"".join(pending)
            cut = data.rfind(b"\n") + 1
            pending = [data[cut:]]
            starts, ends = _line_tokens(np.frombuffer(data, dtype=np.uint8, count=cut))
            if len(starts):
                yield data, starts, ends
            if not chunk:
                return
    finally:
        if fh is not sys.stdin.buffer:
            fh.close()


def _check_change_probability(kind: str | None) -> None:
    """Refuse a sketch kind that keeps no change probability."""
    if kind == "pcsa":
        raise ValueError("the bitmap sketch has no change probability")


def _resume(args):
    """The sketch saved at ``--load``, refusing flags that contradict it."""
    if args.martingale:
        raise ValueError("--martingale cannot resume from --load: sketch files "
                         "do not keep the running estimate")
    sketch = serialization.load(args.load)
    stored = {"sketch": sketch.kind, "b": top_bits_precision(sketch.m), "seed": sketch.seed}
    for name, value in stored.items():
        given = getattr(args, name)
        if given is not None and given != value:
            raise ValueError(f"--{name} {given} does not match the loaded sketch ({value})")
    return sketch


def cmd_estimate(args) -> int:
    if args.martingale:
        _check_change_probability(args.sketch)
    if args.load:
        sketch = _resume(args)
    else:
        sketch = serialization.SKETCHES[args.sketch or "ehll"](
            b=10 if args.b is None else args.b, seed=args.seed or 0)
    target = MartingaleCounter(sketch) if args.martingale else sketch
    for block in _token_blocks(args.input):
        target.insert_tokens(*block)
    if args.martingale:
        print(f"estimate {target.estimate():.6g}")
        print(f"stderr {target.standard_error():.6g}")
        print(f"memory_bits {sketch.memory_bits()}")
    else:
        est = sketch.estimate()
        print(f"estimate {est.value:.6g}")
        print(f"regime {est.regime}")
        print(f"memory_bits {sketch.memory_bits()}")
    if args.save:
        if args.martingale:
            print("warning: --save keeps only the sketch; the martingale estimate "
                  "and variance are not saved", file=sys.stderr)
        serialization.save(sketch, args.save)
    return 0


def cmd_merge(args) -> int:
    if len(args.inputs) < 2:
        raise ValueError("merge needs at least two sketch files")
    sketches = [serialization.load(p) for p in args.inputs]
    merged = sketches[0]
    for other in sketches[1:]:
        merged = merged.merge(other)
    if merged.kind in ("hll-tc", "ehll-tc"):
        print("warning: tail-cut merge is approximate "
              "(saturated offsets cannot be recovered)", file=sys.stderr)
    serialization.save(merged, args.output)
    est = merged.estimate()
    print(f"estimate {est.value:.6g}")
    print(f"regime {est.regime}")
    return 0


def cmd_simulate(args) -> int:
    config = SimulationConfig(
        kinds=tuple(args.sketch), b=args.b, n=args.n, trials=args.trials,
        checkpoints=args.checkpoints, seed=args.seed,
        martingale=args.martingale, match_memory=args.match_memory,
        asymptotic=args.asymptotic_constants, workers=args.workers,
    )
    if args.paper_scale:
        config = paper_scale(config)
        print("warning: paper-scale campaign (25,000 x 10^6): the paper's headline "
              "configurations take 0.76-0.83 CPU hours, about 25 minutes at "
              "--workers 2 on a 2-core host (see README)", file=sys.stderr)
    t0 = time.perf_counter()
    rows = simulate(config)
    wall = time.perf_counter() - t0
    csv_text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
        sys.stdout.flush()  # the CSV, then the timing line, on a shared terminal
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(rows_to_svg(rows))
    trials = config.trials * len(config.kinds)
    print(f"simulate: kinds={','.join(sorted({r.sketch for r in rows}))} trials={trials} "
          f"workers={config.workers} wall_s={wall:.3f} trials_per_s={trials / wall:.1f}",
          file=sys.stderr)
    return 0


def cmd_constants(args) -> int:
    m = args.m
    gamma, beta = analysis.gamma_m(m), analysis.beta_m(m)
    alpha = analysis.alpha_m(m)
    gamma_inf, beta_inf = analysis.asymptotic_constants()
    alpha_inf = 1.0 / (2.0 * analysis.LN2)
    print(f"m {m}")
    print(f"gamma_m {gamma:.9f} asymptote {gamma_inf:.9f} diff {abs(gamma - gamma_inf):.3e}")
    print(f"beta_m  {beta:.9f} asymptote {beta_inf:.9f} diff {abs(beta - beta_inf):.3e}")
    print(f"alpha_m {alpha:.9f} asymptote {alpha_inf:.9f} diff {abs(alpha - alpha_inf):.3e}")
    i0, i1 = analysis.power_integrals(analysis.ehll_kernel, m)
    a0, a1 = analysis.integral_asymptotics(m)
    print(f"I0 {i0:.12e} asymptotic {a0:.12e} rel {abs(i0 - a0) / a0:.3e}")
    print(f"I1 {i1:.12e} asymptotic {a1:.12e} rel {abs(i1 - a1) / a1:.3e}")
    return 0


def cmd_mvp(args) -> int:
    rows = analysis.mvp_report(args.bits)  # validates --bits before any output
    print("sketch,bits_per_cell,variance_constant,mvp")
    for row in rows:
        print(f"{row.sketch},{row.bits_per_cell:.6g},"
              f"{row.variance_constant:.6g},{row.mvp:.6g}")
    return 0


def cmd_oracle_expectation(args) -> int:
    from . import oracle  # only the oracle commands need it

    if args.sketch == "ehll":
        value = oracle.exact_expectation_Y(args.n, args.m, args.k)
    else:
        value = oracle.exact_expectation_Z(args.n, args.m, args.k)
    print(f"expectation {value:.12g}")
    print(f"truncation_bound {oracle.truncation_bound(args.n, args.k):.6g}")
    return 0


def cmd_oracle_change_probability(args) -> int:
    from . import oracle

    sketch = serialization.load(args.load)
    _check_change_probability(sketch.kind)
    enum = oracle.enumerate_change_probability(sketch, args.depth)
    incremental = sketch.change_probability()
    print(f"enumerated {enum:.12g}")
    print(f"incremental {incremental:.12g}")
    print(f"tail_bound {2.0 ** -args.depth:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ehll",
                                     description="streaming cardinality sketches")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="count distinct tokens from a stream")
    _add_sketch_args(p)
    p.add_argument("input", nargs="?", default="-",
                   help="newline-delimited token file, '-' for stdin")
    p.add_argument("--martingale", action="store_true")
    p.add_argument("--save", help="write the final sketch to this path")
    p.add_argument("--load", help="resume from a saved sketch file")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("merge", help="merge saved sketch files")
    p.add_argument("inputs", nargs="+", help="two or more sketch files")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("simulate", help="Monte-Carlo accuracy campaign")
    p.add_argument("--sketch", choices=KINDS, action="append", required=True,
                   help="repeatable; each kind gets its own rows")
    p.add_argument("--b", type=int, default=10)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--checkpoints", type=int, default=50)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=0)
    p.add_argument("--martingale", action="store_true")
    p.add_argument("--match-memory", action="store_true",
                   help="size each kind to the 2^b two-field baseline's bits")
    p.add_argument("--asymptotic-constants", action="store_true",
                   help="use the large-m limits instead of quadrature constants")
    p.add_argument("--paper-scale", action="store_true")
    p.add_argument("--workers", type=int, default=1,
                   help="processes that run trial blocks, this one included")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--svg", help="also render a simple chart")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("constants", help="derived bias/variance constants")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("mvp", help="memory-variance product table")
    p.add_argument("--bits", type=int, default=64)
    p.set_defaults(func=cmd_mvp)

    p = sub.add_parser("oracle", help="brute-force reference computations")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("expectation", help="exact truncated E[indicator]")
    q.add_argument("--sketch", choices=("hll", "ehll"), default="ehll")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--k", type=int, default=64, help="truncation depth")
    q.set_defaults(func=cmd_oracle_expectation)
    q = osub.add_parser("change-probability",
                        help="enumerate outcomes against the incremental sum")
    q.add_argument("--load", required=True, help="sketch file to inspect")
    q.add_argument("--depth", type=int, default=20)
    q.set_defaults(func=cmd_oracle_change_probability)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, serialization.SketchFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
