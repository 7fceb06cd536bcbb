"""Command-line interface: outputs, exit codes, file round trips."""

import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ehll
import ehll.cli
from ehll.cli import main
from ehll.oracle import exact_expectation_Y
from ehll.serialization import SKETCHES, load, serialize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, _ = run(capsys, "estimate", "--b", "10", str(empty))
    assert code == 0
    assert "estimate 0" in out
    assert "regime linear-counting" in out
    assert "memory_bits 7168" in out


def test_estimate_repeated_token(tmp_path, capsys):
    path = tmp_path / "rep.txt"
    path.write_text("same-token\n" * 1000)
    code, out, _ = run(capsys, "estimate", "--b", "10", str(path))
    assert code == 0
    value = float(out.split()[1])
    # occupancy estimate with a single filled register
    assert value == pytest.approx(1024 * math.log(1024 / 1023), rel=1e-4)
    assert value == pytest.approx(1.0005, abs=1e-3)


def test_estimate_fixed_seed_regression(tmp_path, capsys):
    path = tmp_path / "tokens.txt"
    path.write_text("".join(f"user-{i}\n" for i in range(100_000)))
    code, out, _ = run(capsys, "estimate", "--sketch", "ehll", "--b", "10",
                       "--seed", "0", str(path))
    assert code == 0
    value = float(out.split()[1])
    assert out.splitlines()[0] == "estimate 99803"  # frozen build-time value
    assert abs(value - 100_000) < 3 * 0.0275 * 100_000


def test_estimate_martingale_output(tmp_path, capsys):
    path = tmp_path / "tok.txt"
    path.write_text("".join(f"t{i}\n" for i in range(5000)))
    code, out, _ = run(capsys, "estimate", "--sketch", "ehll", "--b", "8",
                       "--martingale", str(path))
    assert code == 0
    assert out.startswith("estimate ")
    assert "stderr " in out
    value = float(out.split()[1])
    assert abs(value - 5000) < 0.25 * 5000


def test_save_and_load_roundtrip(tmp_path, capsys):
    path = tmp_path / "tok.txt"
    path.write_text("a\nb\nc\n")
    out_file = tmp_path / "s.bin"
    code, out, _ = run(capsys, "estimate", "--sketch", "hll", "--b", "6",
                       "--seed", "9", str(path), "--save", str(out_file))
    assert code == 0
    sketch = load(out_file)
    assert sketch.kind == "hll" and sketch.m == 64 and sketch.seed == 9
    # resuming from the saved file and adding nothing reports the same value
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out2, _ = run(capsys, "estimate", "--load", str(out_file), str(empty))
    assert code == 0
    assert out2.splitlines()[0] == out.splitlines()[0]


def test_estimate_martingale_load_exits_2(tmp_path, capsys):
    path = tmp_path / "tok.txt"
    path.write_text("".join(f"t{i}\n" for i in range(500)))
    f = tmp_path / "s.bin"
    assert run(capsys, "estimate", "--b", "6", str(path), "--save", str(f))[0] == 0
    # the file holds the sketch only, not the martingale E and V
    code, out, err = run(capsys, "estimate", "--martingale", "--load", str(f), str(path))
    assert code == 2
    assert out == "" and "martingale" in err


def test_estimate_pcsa_martingale_exits_2(tmp_path, capsys):
    path = tmp_path / "tok.txt"
    path.write_text("a\nb\n")
    code, out, err = run(capsys, "estimate", "--sketch", "pcsa", "--martingale", str(path))
    assert code == 2 and out == ""
    assert err == "error: the bitmap sketch has no change probability\n"


def test_estimate_load_conflicting_flags_exit_2(tmp_path, capsys):
    path = tmp_path / "tok.txt"
    path.write_text("a\nb\nc\n")
    f = tmp_path / "s.bin"
    code, out, _ = run(capsys, "estimate", "--sketch", "hll", "--b", "6",
                       "--seed", "9", str(path), "--save", str(f))
    assert code == 0
    for flags in (["--sketch", "ehll"], ["--b", "7"], ["--seed", "3"]):
        code, _, err = run(capsys, "estimate", "--load", str(f), *flags, str(path))
        assert code == 2, flags
        assert "does not match" in err
    # flags that agree with the file are accepted
    code, again, _ = run(capsys, "estimate", "--load", str(f), "--sketch", "hll",
                         "--b", "6", "--seed", "9", str(path))
    assert code == 0 and again == out


def test_merge_shards_equals_whole(tmp_path, capsys):
    whole = tmp_path / "whole.txt"
    shard1 = tmp_path / "s1.txt"
    shard2 = tmp_path / "s2.txt"
    tokens = [f"tok{i}" for i in range(2000)]
    whole.write_text("".join(t + "\n" for t in tokens))
    shard1.write_text("".join(t + "\n" for t in tokens[:1200]))
    shard2.write_text("".join(t + "\n" for t in tokens[800:]))
    f_whole, f1, f2, f_merged = (tmp_path / n for n in
                                 ("w.bin", "a.bin", "b.bin", "m.bin"))
    for src, dst in ((whole, f_whole), (shard1, f1), (shard2, f2)):
        assert run(capsys, "estimate", "--sketch", "ehll", "--b", "6",
                   str(src), "--save", str(dst))[0] == 0
    code, out, err = run(capsys, "merge", str(f1), str(f2), "-o", str(f_merged))
    assert code == 0
    assert f_merged.read_bytes() == f_whole.read_bytes()
    assert "warning" not in err


def test_merge_self_is_identity(tmp_path, capsys):
    path = tmp_path / "tok.txt"
    path.write_text("x\ny\n")
    f = tmp_path / "s.bin"
    run(capsys, "estimate", "--sketch", "pcsa", "--b", "4", str(path),
        "--save", str(f))
    merged = tmp_path / "m.bin"
    code, _, _ = run(capsys, "merge", str(f), str(f), "-o", str(merged))
    assert code == 0
    assert merged.read_bytes() == f.read_bytes()


def test_merge_single_input_exits_2(tmp_path, capsys):
    path = tmp_path / "tok.txt"
    path.write_text("x\n")
    f = tmp_path / "a.bin"
    run(capsys, "estimate", "--sketch", "hll", "--b", "4", str(path), "--save", str(f))
    code, _, err = run(capsys, "merge", str(f), "-o", str(tmp_path / "m.bin"))
    assert code == 2
    assert "two" in err


def test_merge_mismatched_precision_exits_2(tmp_path, capsys):
    path = tmp_path / "tok.txt"
    path.write_text("x\n")
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    run(capsys, "estimate", "--sketch", "hll", "--b", "4", str(path), "--save", str(a))
    run(capsys, "estimate", "--sketch", "hll", "--b", "5", str(path), "--save", str(b))
    code, _, err = run(capsys, "merge", str(a), str(b), "-o", str(tmp_path / "m.bin"))
    assert code == 2
    assert "error" in err


def test_merge_tailcut_warns(tmp_path, capsys):
    path = tmp_path / "tok.txt"
    path.write_text("x\ny\nz\n")
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    run(capsys, "estimate", "--sketch", "hll-tc", "--b", "4", str(path), "--save", str(a))
    run(capsys, "estimate", "--sketch", "hll-tc", "--b", "4", str(path), "--save", str(b))
    code, _, err = run(capsys, "merge", str(a), str(b), "-o", str(tmp_path / "m.bin"))
    assert code == 0
    assert "approximate" in err


def test_simulate_smoke_csv(tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    code, _, _ = run(capsys, "simulate", "--sketch", "ehll", "--b", "4",
                     "--n", "100", "--trials", "2", "--checkpoints", "1",
                     "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "sketch,m,memory_bits,n,mean_est,rel_bias,rel_rmse,trials"
    assert len(lines) == 2
    assert lines[1].startswith("ehll,16,112,100,")


def test_simulate_stdout_and_svg(tmp_path, capsys):
    svg_path = tmp_path / "chart.svg"
    code, out, _ = run(capsys, "simulate", "--sketch", "hll", "--sketch", "ehll",
                       "--b", "4", "--n", "200", "--trials", "3",
                       "--checkpoints", "2", "--svg", str(svg_path))
    assert code == 0
    assert out.startswith("sketch,m,")
    assert svg_path.read_text().startswith("<svg")


def test_simulate_reports_its_throughput_on_stderr(tmp_path, capsys):
    argv = ["simulate", "--sketch", "hll", "--sketch", "ehll", "--martingale", "--b", "4",
            "--n", "200", "--trials", "3", "--checkpoints", "2", "--workers", "2"]
    config = ehll.SimulationConfig(kinds=("hll", "ehll"), b=4, n=200, trials=3,
                                   checkpoints=2, martingale=True)
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == ehll.rows_to_csv(ehll.simulate(config))
    line = re.fullmatch(r"simulate: kinds=martingale-ehll,martingale-hll trials=6 workers=2 "
                        r"wall_s=(\d+\.\d{3}) trials_per_s=(\d+\.\d)\n", err)
    assert line, err
    assert float(line[2]) == pytest.approx(6 / float(line[1]), rel=0.1, abs=0.1)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "r.csv"))
    assert code == 0 and out == ""
    assert (tmp_path / "r.csv").read_text() == ehll.rows_to_csv(ehll.simulate(config))
    assert err.startswith("simulate: kinds=martingale-ehll,martingale-hll trials=6 workers=2 ")


def test_simulate_bad_config_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "--sketch", "pcsa", "--martingale",
                       "--n", "10", "--trials", "2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("extra", [[], ["--martingale"]])
@pytest.mark.parametrize("b", ["3", "19"])
def test_simulate_precision_out_of_range_exits_2(capsys, b, extra):
    code, out, err = run(capsys, "simulate", "--sketch", "ehll", "--b", b, *extra,
                         "--n", "10", "--trials", "2", "--checkpoints", "1")
    assert code == 2 and out == ""
    assert err == f"error: precision b must be in [4, 18], got {b}\n"


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_simulate_workers_below_one_exits_2(capsys, workers):
    code, out, err = run(capsys, "simulate", "--sketch", "ehll", "--n", "10",
                         "--trials", "2", "--workers", workers)
    assert code == 2 and out == ""
    assert err == f"error: workers must be >= 1, got {workers}\n"


def test_simulate_repeated_sketch_exits_2(capsys):
    code, out, err = run(capsys, "simulate", "--sketch", "ehll", "--sketch", "ehll",
                         "--b", "4", "--n", "10", "--trials", "2", "--checkpoints", "1")
    assert code == 2 and out == ""
    assert err == "error: sketch kind 'ehll' is given more than once\n"


def test_constants_output(capsys):
    code, out, _ = run(capsys, "constants", "--m", "1024")
    assert code == 0
    values = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    gamma = float(values["gamma_m"][0])
    # quadrature value sits just below the asymptote (ratio-test verified)
    assert gamma == pytest.approx(0.961068, abs=2e-5)
    assert float(values["alpha_m"][0]) == pytest.approx(0.720587, abs=2e-5)
    rel_i0 = float(values["I0"][4])
    assert rel_i0 < 1e-4


def test_mvp_output(capsys):
    code, out, _ = run(capsys, "mvp", "--bits", "64")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",") for line in out.splitlines()[1:]}
    assert float(rows["pcsa"][3]) == pytest.approx(38.9, rel=0.01)
    assert float(rows["hll"][3]) == pytest.approx(6.48, rel=0.01)
    assert float(rows["ehll"][3]) == pytest.approx(5.46, rel=0.01)


@pytest.mark.parametrize("bits", ["0", "31", "65"])
def test_mvp_bad_bits_prints_nothing(capsys, bits):
    code, out, err = run(capsys, "mvp", "--bits", bits)
    assert code == 2
    assert out == ""
    assert "u_bits" in err


def test_oracle_expectation_command(capsys):
    code, out, _ = run(capsys, "oracle", "expectation", "--sketch", "ehll",
                       "--n", "10", "--m", "2", "--k", "64")
    assert code == 0
    value = float(out.splitlines()[0].split()[1])
    assert value == pytest.approx(exact_expectation_Y(10, 2, 64), rel=1e-10)
    assert "truncation_bound" in out


def test_oracle_expectation_domain_error(capsys):
    code, _, err = run(capsys, "oracle", "expectation", "--n", "10", "--m", "5")
    assert code == 2
    assert "error" in err


def test_oracle_change_probability_command(tmp_path, capsys):
    path = tmp_path / "tok.txt"
    path.write_text("".join(f"t{i}\n" for i in range(60)))
    f = tmp_path / "s.bin"
    run(capsys, "estimate", "--sketch", "ehll", "--b", "4", str(path), "--save", str(f))
    code, out, _ = run(capsys, "oracle", "change-probability", "--load", str(f),
                       "--depth", "22")
    assert code == 0
    lines = dict(line.split() for line in out.splitlines())
    diff = float(lines["incremental"]) - float(lines["enumerated"])
    assert 0 <= diff <= 2.0**-22 + 1e-12


@pytest.mark.parametrize("depth", ["0", "-5"])
def test_oracle_change_probability_depth_below_one_exits_2(tmp_path, capsys, depth):
    f = tmp_path / "s.bin"
    f.write_bytes(serialize(SKETCHES["ehll"](b=4)))
    code, out, err = run(capsys, "oracle", "change-probability", "--load", str(f),
                         "--depth", depth)
    assert code == 2 and out == ""
    assert err == f"error: enumeration depth must be >= 1, got {depth}\n"


def test_oracle_change_probability_of_pcsa_exits_2(tmp_path, capsys):
    f = tmp_path / "s.bin"
    f.write_bytes(serialize(SKETCHES["pcsa"](b=4)))
    code, out, err = run(capsys, "oracle", "change-probability", "--load", str(f))
    assert code == 2 and out == ""
    assert err == "error: the bitmap sketch has no change probability\n"


def test_missing_input_file_exits_1(capsys):
    code, _, err = run(capsys, "estimate", "/nonexistent/path.txt")
    assert code == 1
    assert "error" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--sketch", "bogus", "x"])
    assert exc.value.code == 2


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io
    import sys

    class FakeStdin:
        buffer = io.BytesIO(b"a\nb\nc\na\n")

    monkeypatch.setattr(sys, "stdin", FakeStdin())
    code, out, _ = run(capsys, "estimate", "--sketch", "hll", "--b", "10")
    assert code == 0
    value = float(out.split()[1])
    # three distinct tokens, three occupied registers
    assert value == pytest.approx(1024 * math.log(1024 / 1021), rel=1e-3)


# ---------------------------------------------------------------------------
# block token ingestion

#: Awkward line endings: CRLF, runs of CR, blank and CR-only lines, embedded
#: CR and NUL, non-ASCII, and a last line with no newline.
AWKWARD = (b"alpha\r\nbeta\n\n\r\n\r\r\r\ngamma\r\r\n mid\rcr \n\x00nul\x00\n"
           + "日本語\n".encode() + b"alpha\n" + b"x" * 40 + b"\r\n\n\n" + b"tail-no-newline\r")


def reference_tokens(data: bytes) -> list[bytes]:
    """Line by line, as the file iterator and ``rstrip(b"\\r\\n")`` give them."""
    lines = (line.rstrip(b"\r\n") for line in io.BytesIO(data))
    return [tok for tok in lines if tok]


def block_tokens(path) -> list[bytes]:
    return [data[s:e] for data, starts, ends in ehll.cli._token_blocks(str(path))
            for s, e in zip(starts.tolist(), ends.tolist())]


def test_token_lines_follow_the_line_rules(tmp_path):
    path = tmp_path / "awkward.txt"
    for data in (AWKWARD, AWKWARD + b"\n", b"", b"\n\n", b"\r", b"only", b"a\nb"):
        path.write_bytes(data)
        assert block_tokens(path) == reference_tokens(data), data


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_tokens_straddling_block_boundaries(tmp_path, monkeypatch, block):
    monkeypatch.setattr(ehll.cli, "BLOCK_BYTES", block)
    path = tmp_path / "awkward.txt"
    data = AWKWARD + b"".join(f"user-{i}\r\n".encode() for i in range(50))
    path.write_bytes(data)
    assert block_tokens(path) == reference_tokens(data)


@pytest.mark.parametrize("kind", list(SKETCHES))
def test_saved_sketch_equals_scalar_inserts(tmp_path, monkeypatch, capsys, kind):
    # spans several blocks; b=4 makes the TailCut kinds clamp and cut batches
    monkeypatch.setattr(ehll.cli, "BLOCK_BYTES", 4096)
    data = AWKWARD + b"".join(f"tok-{i % 3000}\n".encode() for i in range(6000))
    path, saved = tmp_path / "tok.txt", tmp_path / "s.bin"
    path.write_bytes(data)
    for b in (4, 10):
        code, _, _ = run(capsys, "estimate", "--sketch", kind, "--b", str(b),
                         "--seed", "5", str(path), "--save", str(saved))
        assert code == 0
        ref = SKETCHES[kind](b=b, seed=5)
        ref.insert_all(reference_tokens(data))
        assert saved.read_bytes() == serialize(ref), (kind, b)


@pytest.mark.parametrize("extra", [[], ["--martingale"], ["--sketch", "ehll-tc", "--martingale"]])
def test_stdin_output_equals_file_output(tmp_path, monkeypatch, capsys, extra):
    data = AWKWARD + b"".join(f"user-{i % 700}\r\n".encode() for i in range(2000))
    path = tmp_path / "tok.txt"
    path.write_bytes(data)
    from_file = run(capsys, "estimate", "--b", "8", *extra, str(path))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    from_stdin = run(capsys, "estimate", "--b", "8", *extra, "-")
    assert from_stdin == from_file
    assert from_file[0] == 0


def test_martingale_save_warns_that_e_and_v_are_not_kept(tmp_path, capsys):
    path = tmp_path / "tok.txt"
    path.write_text("".join(f"t{i}\n" for i in range(500)))
    f = tmp_path / "s.bin"
    _, plain_out, plain_err = run(capsys, "estimate", "--martingale", "--b", "6", str(path))
    code, out, err = run(capsys, "estimate", "--martingale", "--b", "6", str(path),
                         "--save", str(f))
    assert code == 0
    assert out == plain_out and plain_err == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("warning:") and "martingale" in err
    assert load(f).kind == "ehll"
    # a plain save says nothing
    assert run(capsys, "estimate", "--b", "6", str(path), "--save", str(f))[2] == ""


def _fresh_python(code: str, *argv: str) -> str:
    """stdout of ``code`` in a new interpreter that imports this ``ehll``."""
    src = str(Path(ehll.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    res = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return res.stdout


def test_cli_import_and_martingale_run_leave_scipy_unloaded(tmp_path):
    assert _fresh_python("import sys, ehll.cli; print('scipy' in sys.modules)") == "False\n"
    path = tmp_path / "tok.txt"
    path.write_text("".join(f"t{i}\n" for i in range(3000)))
    out = _fresh_python(
        "import sys\nfrom ehll.cli import main\n"
        "code = main(['estimate', '--martingale', '--b', '8', sys.argv[1]])\n"
        "print('scipy', 'scipy' in sys.modules, code)", str(path))
    assert out.startswith("estimate ")
    assert out.splitlines()[-1] == "scipy False 0"
    # an estimate needs the quadrature constants, which come from ehll.quadpack
    out = _fresh_python(
        "import sys\nfrom ehll.cli import main\n"
        "code = main(['estimate', '--b', '8', sys.argv[1]])\n"
        "print('scipy', 'scipy' in sys.modules, code)", str(path))
    assert out.splitlines()[-1] == "scipy False 0"


def test_cli_import_loads_no_process_machinery():
    # simulate() imports multiprocessing only when it starts a child
    out = _fresh_python("import sys, ehll.cli\n"
                        "print(sorted(name for name in sys.modules\n"
                        "             if name.partition('.')[0] in ('multiprocessing', 'concurrent')))")
    assert out == "[]\n"


def test_only_the_oracle_commands_import_the_oracle(tmp_path):
    path = tmp_path / "tok.txt"
    path.write_text("".join(f"t{i}\n" for i in range(300)))
    out = _fresh_python(
        "import sys\nfrom ehll.cli import main\n"
        "print('oracle', 'ehll.oracle' in sys.modules)\n"
        "main(['estimate', '--martingale', '--b', '6', sys.argv[1]])\n"
        "print('oracle', 'ehll.oracle' in sys.modules)\n"
        "main(['oracle', 'expectation', '--n', '10', '--m', '4'])\n"
        "print('oracle', 'ehll.oracle' in sys.modules)", str(path))
    assert [ln for ln in out.splitlines() if ln.startswith("oracle ")] == \
        ["oracle False", "oracle False", "oracle True"]


def test_no_command_loads_scipy(tmp_path):
    tokens = tmp_path / "tok.txt"
    tokens.write_text("".join(f"t{i}\n" for i in range(3000)))
    more = tmp_path / "more.txt"
    more.write_text("".join(f"u{i}\n" for i in range(3000)))
    a, b, union = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "u.bin"
    commands = [
        ["estimate", "--sketch", "hll-tc", "--b", "8", "--save", str(a), str(tokens)],
        ["estimate", "--sketch", "hll-tc", "--b", "8", "--save", str(b), str(more)],
        ["merge", str(a), str(b), "-o", str(union)],
        ["constants", "--m", "1024"],
        ["simulate", "--sketch", "ehll", "--sketch", "hll-tc", "--b", "6", "--n", "500",
         "--trials", "2", "--checkpoints", "3"],
    ]
    out = _fresh_python(
        "import json, sys\nfrom ehll.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print('scipy', 'scipy' in sys.modules, main(argv))", json.dumps(commands))
    assert [ln for ln in out.splitlines() if ln.startswith("scipy ")] == \
        ["scipy False 0"] * len(commands)
    assert load(union).kind == "hll-tc"
