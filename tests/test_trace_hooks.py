"""The benchmark's tracer still installs on, and comes off, every layer entry point.

``perfbench/spans.py`` patches methods in each class's own ``__dict__``,
so a method that a refactor leaves inherited breaks ``--trace 1``; this
catches it without running the benchmark.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_installs_and_removes_every_wrapper():
    spans = _load_spans()
    tr = spans.Tracer()
    try:
        spans.instrument(tr)
        installed = spans.find_wrappers()
    finally:
        tr.remove()
    for cls in ("PackedRegisterArray", "BitArray"):
        for name in ("get", "set", "values", "set_values"):
            assert f"ehll.registers.{cls}.{name}" in installed
    assert spans.find_wrappers() == []
