"""The benchmark's tracer wraps dtregge functions by name: each must exist."""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    """``perfbench/spans.py`` run from its source, so no bytecode is written."""
    module = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_in_its_module():
    spans = _spans()
    names = spans.SPANNED + spans.COUNTED
    assert names
    for qualname in names:
        module_name, attr = qualname.split(".")
        module = importlib.import_module("dtregge." + module_name)
        assert callable(getattr(module, attr, None)), qualname
