"""The benchmark's tracer wraps solver functions by module and name, and
the benchmark calls some of them with fixed arguments; a refactor that
moves, renames or changes the signature of one of them must fail here,
not leave the tracer silently recording nothing or the benchmark run
failing."""

import importlib
import importlib.util
import inspect
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


def _twice(x):
    return 2 * x


def test_the_calls_the_benchmark_makes_still_bind():
    from nidpipe import blackbox, cascade
    from nidpipe.parallel import PipelineConfig, work_crew
    from nidpipe.polyhedral import TieDetected, supports_of
    from nidpipe.systems import cyclic, embed

    inspect.signature(blackbox.decompose).bind(cyclic(3), 3, 7, 2, mode="process")
    assert work_crew([0, 1], 2, _twice, mode="process") == [0, 2]
    assert PipelineConfig(p=2).mode == "process"
    assert issubclass(TieDetected, Exception)
    total = 0

    def emit(cell):
        nonlocal total
        total += cell.volume

    lifted = cascade.lift_supports(supports_of(embed(cyclic(4), 1, 7).system), 7, 0)
    cascade.enumerate_cells(lifted, emit)
    assert total == 20
