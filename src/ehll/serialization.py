"""Binary sketch files.

Layout (all integers little-endian):

    magic   4 bytes  b"EHS1"
    version 1 byte   currently 1
    kind    1 byte   1=pcsa 2=hll 3=ehll 4=hll-tc 5=ehll-tc
    b       1 byte   precision (register count is 2**b)
    seed    8 bytes  hash seed
    base    1 byte   TailCut kinds only
    payload          packed register bytes, then bit-array bytes,
                     least-significant-bit first within each byte

The payload is the packed form that the sketches' memory accounting
counts.  A rank sketch builds it from its cells only here
(``_payload()``) and decodes it only on load (``_loaded(parts)``).
Payload sizes are implied exactly by (kind, b), by arithmetic over the
kind's ``_layout()``; deserialization rejects wrong magic, version, kind
tag, or any length mismatch before touching the payload, and then any
cell state that no insert sequence can produce (see :func:`deserialize`).
Only power-of-two sketches are serializable: the one-byte precision
field cannot express the ad-hoc register counts used by matched-memory
experiments.
"""

from __future__ import annotations

import numpy as np

from .hashing import PRECISION_SPAN, PRECISIONS, top_bits_precision
from .sketches import EhllSketch, HllSketch, PcsaSketch
from .tailcut import EhllTcSketch, HllTcSketch

MAGIC = b"EHS1"
VERSION = 1

#: The one kind registry: kind name -> class; the EHS1 tag is the position.
SKETCHES = {cls.kind: cls for cls in
            (PcsaSketch, HllSketch, EhllSketch, HllTcSketch, EhllTcSketch)}
KIND_TAGS = {kind: tag for tag, kind in enumerate(SKETCHES, start=1)}
TAG_KINDS = {tag: kind for kind, tag in KIND_TAGS.items()}


class SketchFormatError(ValueError):
    """Raised when bytes do not parse as a valid sketch file."""


def _precision_of(sketch) -> int:
    b = top_bits_precision(sketch.m)
    if b is None:
        raise ValueError(
            f"only power-of-two sketches serialize (m={sketch.m}); "
            "matched-memory register counts are in-memory only")
    return b


def serialize(sketch) -> bytes:
    """Encode a sketch; ``deserialize(serialize(s)) == s`` bit-exactly."""
    b = _precision_of(sketch)
    header = bytearray(MAGIC)
    header.append(VERSION)
    header.append(KIND_TAGS[sketch.kind])
    header.append(b)
    header += sketch.seed.to_bytes(8, "little")
    for name in sketch._header:
        value = getattr(sketch, name)
        if not 0 <= value <= 0xFF:
            raise ValueError(f"{name} {value} does not fit the header byte")
        header.append(value)
    return b"".join([header, *sketch._payload()])


def deserialize(data: bytes):
    """Decode a sketch file, rejecting malformed input without partial reads.

    Beyond the byte layout, the decoded state must be one that inserts can
    produce: ranks within the hash width, no neighbor bit of 0 below rank
    2, and a TailCut zero offset.  Anything else raises SketchFormatError.
    """
    if len(data) < 15:
        raise SketchFormatError("file shorter than the fixed header")
    if data[:4] != MAGIC:
        raise SketchFormatError(f"bad magic {data[:4]!r}")
    if data[4] != VERSION:
        raise SketchFormatError(f"unsupported version {data[4]}")
    tag, b = data[5], data[6]
    if tag not in TAG_KINDS:
        raise SketchFormatError(f"unknown sketch kind tag {tag}")
    if b not in PRECISIONS:
        raise SketchFormatError(f"precision {b} out of range {PRECISION_SPAN}")
    seed = int.from_bytes(data[7:15], "little")
    sketch = SKETCHES[TAG_KINDS[tag]]._unloaded(b, seed)
    pos = 15 + len(sketch._header)
    if len(data) < pos:
        raise SketchFormatError(f"file shorter than the {sketch.kind} header")
    for i, name in enumerate(sketch._header):
        setattr(sketch, name, data[15 + i])

    sizes = [(n * width + 7) // 8 for n, width in sketch._layout()]
    if len(data) != pos + sum(sizes):
        raise SketchFormatError(
            f"payload length {len(data) - pos} does not match expected {sum(sizes)}")
    parts = []
    for size in sizes:
        parts.append(np.frombuffer(data, dtype=np.uint8, count=size, offset=pos))
        pos += size

    if not sketch._loaded(parts):
        raise SketchFormatError(f"{sketch.kind} payload holds a state no insert can produce")
    return sketch


def save(sketch, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(sketch))


def load(path):
    with open(path, "rb") as fh:
        return deserialize(fh.read())
