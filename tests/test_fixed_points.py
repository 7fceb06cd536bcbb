"""Output bytes pinned across refactors: EHS1 files, estimate bits, simulate CSV, CLI stdout.

Each digest below was recorded from the package before its sketch
classes were restructured; any change to a saved file, a campaign CSV or
a command's text output moves a digest.  A deliberate format change
must re-record them and say so.
"""

import contextlib
import functools
import hashlib
import io

import numpy as np
import pytest

from ehll import (
    EhllSketch,
    EhllTcSketch,
    HllSketch,
    HllTcSketch,
    PcsaSketch,
    SimulationConfig,
    deserialize,
    rows_to_csv,
    serialize,
    simulate,
)
from ehll.cli import main
from ehll.hashing import hash64_u64_array, split_hash_array, stream_u64

CLASSES = {"pcsa": PcsaSketch, "hll": HllSketch, "ehll": EhllSketch,
           "hll-tc": HllTcSketch, "ehll-tc": EhllTcSketch}
SIZES = (40, 3000, 20_000)

EHS1_SHA256 = {
    "pcsa/4": "f5d731da8f0e0c1f915f30f2afde7b1341130a18c883f660261befc717ce6394",
    "pcsa/10": "a135a9ca6bee989999a9ba07f9d83f82c459a5b921b3afad7eb98372d0ccbd1d",
    "pcsa/14": "51d5808c14984736739b1517b6301a91687b109d8acecf8f73536793cbae5af4",
    "hll/4": "38d9fd9bed98d04df8ae11af5632f5c7bc006539fcbbdd8b8a7baa3af7468d74",
    "hll/10": "a6f95226dd86fc08e76e4c0b069d99bbb1c3e4a66a91fe3e0f4d2387c04aabf8",
    "hll/14": "c0e7e933755ee4eb70acb424f98b42ab6706b69530e6684d461b80afeae71f02",
    "ehll/4": "d8bffbb65067e6cf3d2d9877f53baf84a82b10ff46afbf5e93ae9f81d225f68f",
    "ehll/10": "92e5a7a23ca245699297ec6d733031fe5fd4c9408995e859185a89fee3b3dd23",
    "ehll/14": "88c5824393e00c4592086cd071982763db38b7ce2a884e91821b2e54cd30b00c",
    "hll-tc/4": "11260b15aab3a55a33f4038902be1fbdaf3809576d9c66a627a395d23ee51233",
    "hll-tc/10": "b9da548fab85b141c1ea2e28e60336868d419ab6b6a21cf7e1671407841c90d9",
    "hll-tc/14": "8796f753f7682dd03b69bae206babc4374602b9f81b98ab8df7e4a055efc5673",
    "ehll-tc/4": "0460ebae477adb0454b99123a3c31a629c9aaf636fc556aaaf6bafeb29f2bfb0",
    "ehll-tc/10": "344e6487ed3bdca2b2a1d2a1b5a86caefcaa31d81eebff282a7cc168551b672a",
    "ehll-tc/14": "7cfcf80e9c74073e90013257a11a052d4708256fdf65732be0b216e4ee56fdc1",
}

CSV_CONFIGS = {
    "all-kinds": dict(kinds=tuple(CLASSES), b=6, n=3000, trials=4, checkpoints=5, seed=3),
    "matched-memory": dict(kinds=("ehll", "hll", "hll-tc", "ehll-tc"), b=6, n=3000,
                           trials=4, checkpoints=5, seed=4, match_memory=True),
    "asymptotic": dict(kinds=("hll", "ehll", "ehll-tc"), b=5, n=2000, trials=3,
                       checkpoints=4, seed=5, asymptotic=True),
    "martingale": dict(kinds=("ehll", "hll", "hll-tc", "ehll-tc"), b=5, n=1500,
                       trials=3, checkpoints=4, seed=6, martingale=True),
}
CSV_SHA256 = {
    "all-kinds": "98b4f7dc05f6ccf3e1c7c9aed10594b140e50ad075f91a1b5b0b76a3710f42d0",
    "matched-memory": "6c7bcf2dbb4ee02690214966df569694a236b7d8f0cad0243a19fc5b8ff8ab11",
    "asymptotic": "e764d1797d1d791bac73b4a3bb9a18682c84318566853c882721551b435ff54c",
    "martingale": "913b518af54b0d96ec9bedfa7db6d2b774aaeded58f9cda6e70e6b1120e0007f",
}

# every float bit counts here: the CSV prints estimates to 10 digits only
ESTIMATE_BITS_SHA256 = "099dc767d5884173740fa3cef0c43c7eeb3cfdd9c5a8bacd62a1fc54dcb6335a"

CLI_SHA256 = {
    "estimate-merge": "c7e027b85d8732917a3ec3a5f15649131e2ef8e70cfc20ecdfcae1140f83a47d",
}


def spikes(b: int) -> np.ndarray:
    """Elements of rank >= 17 under seed ``b``: they saturate fresh TailCut cells."""
    pool = stream_u64(1 << 18, 99)
    _, geo = split_hash_array(hash64_u64_array(pool, b), 1 << b)
    return pool[geo >= 17]


def ehs1_sketches(kind: str, b: int) -> list:
    """Batch, scalar, bytes-token and merged sketches over three stream sizes.

    Each integer stream opens with a few rank-17+ elements, so TailCut
    clamps, batch cuts and truncating merges are all covered.
    """
    cls = CLASSES[kind]
    out = []
    for n in SIZES:
        stream = np.concatenate([spikes(b), stream_u64(n, n + b)])
        n = len(stream)
        batch = cls(b=b, seed=b)
        cut = n // 3
        batch.insert_batch(stream[:cut])
        batch.insert_batch(stream[cut:])
        scalar = cls(b=b, seed=b)
        for v in stream.tolist():
            scalar.insert(v)
        tokens = cls(b=b, seed=b)
        tokens.insert_all(f"tok-{i}".encode() for i in range(n // 2, n + n // 2))
        out += [batch, scalar, tokens, batch.merge(tokens)]
    return out


def ehs1_blobs(kind: str, b: int) -> bytes:
    """The files of :func:`ehs1_sketches`, concatenated."""
    return b"".join(serialize(s) for s in ehs1_sketches(kind, b))


def estimate_bits(kind: str, b: int) -> bytes:
    """float64 bytes of every estimator readout of the EHS1 sketches.

    Read from each sketch of :func:`ehs1_sketches`, from their merge
    taken left to right, and from that merge after a file round trip:
    the estimate, finite-m and asymptotic, and for a rank sketch also
    the indicator and the change probability.
    """
    sketches = ehs1_sketches(kind, b)
    merged = functools.reduce(lambda a, c: a.merge(c), sketches)
    values = []
    for s in (*sketches, merged, deserialize(serialize(merged))):
        values += [s.estimate().value, s.estimate(asymptotic=True).value]
        if kind != "pcsa":
            values += [s.indicator(), s.change_probability()]
    return np.array(values, dtype=np.float64).tobytes()


def cli_stdout(tmp_path) -> bytes:
    """Concatenated stdout of estimate (every kind, martingale, resume) and merge."""
    tokens = tmp_path / "tokens.txt"
    tokens.write_text("".join(f"user-{i % 1700}\n" for i in range(2500)))
    half = tmp_path / "half.txt"
    half.write_text("".join(f"user-{i}\n" for i in range(1000, 3000)))
    runs = []
    for kind in CLASSES:
        a, c = tmp_path / f"{kind}-a.bin", tmp_path / f"{kind}-c.bin"
        runs += [["estimate", "--sketch", kind, "--b", "8", str(tokens), "--save", str(a)],
                 ["estimate", "--sketch", kind, "--b", "8", str(half), "--save", str(c)],
                 ["estimate", "--load", str(a), str(half)],
                 ["merge", str(a), str(c), "-o", str(tmp_path / f"{kind}-m.bin")]]
        if kind != "pcsa":
            runs.append(["estimate", "--sketch", kind, "--b", "6", "--martingale",
                         str(tokens)])
    out = io.StringIO()
    for argv in runs:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
    return out.getvalue().encode()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("key", sorted(EHS1_SHA256))
def test_ehs1_bytes(key):
    kind, b = key.rsplit("/", 1)
    assert _sha(ehs1_blobs(kind, int(b))) == EHS1_SHA256[key]


def test_estimate_bits():
    blob = b"".join(estimate_bits(kind, b) for kind in CLASSES for b in (4, 10, 14))
    assert _sha(blob) == ESTIMATE_BITS_SHA256


@pytest.mark.parametrize("name", sorted(CSV_CONFIGS))
def test_simulate_csv_bytes(name):
    rows = simulate(SimulationConfig(**CSV_CONFIGS[name]))
    assert _sha(rows_to_csv(rows).encode()) == CSV_SHA256[name]


def test_cli_stdout_bytes(tmp_path):
    assert _sha(cli_stdout(tmp_path)) == CLI_SHA256["estimate-merge"]


def test_pins_cover_every_kind():
    assert sorted(EHS1_SHA256) == sorted(f"{k}/{b}" for k in CLASSES for b in (4, 10, 14))
    assert np.all([len(v) == 64 for v in (*EHS1_SHA256.values(), *CSV_SHA256.values(),
                                          ESTIMATE_BITS_SHA256)])
