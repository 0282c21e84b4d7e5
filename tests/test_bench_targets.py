"""The benchmark's tracer wraps solver functions by module and name; a
refactor that moves or renames one of them must fail here, not leave the
tracer silently recording nothing."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "nidbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("nidbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
