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


def test_the_start_system_calls_the_names_the_trace_divides_by(monkeypatch):
    # a traced run divides by the time spent in these calls: a solver
    # that stops making them through ``cascade`` kills that run
    from nidpipe import cascade
    from nidpipe.systems import cyclic, embed

    calls = {"enumerate_cells": 0, "emit": 0, "solve_cell": 0}
    enumerate_cells, solve_cell = cascade.enumerate_cells, cascade.solve_cell

    def counted_enumerate_cells(lifted, emit):
        calls["enumerate_cells"] += 1

        def counted_emit(cell):
            calls["emit"] += 1
            return emit(cell)

        return enumerate_cells(lifted, counted_emit)

    def counted_solve_cell(*args, **kwargs):
        calls["solve_cell"] += 1
        return solve_cell(*args, **kwargs)

    monkeypatch.setattr(cascade, "enumerate_cells", counted_enumerate_cells)
    monkeypatch.setattr(cascade, "solve_cell", counted_solve_cell)
    _, _, stats = cascade.solve_start_system(embed(cyclic(4), 1, 7).system, 7, p=1)
    assert stats.cells > 0
    assert calls == {
        "enumerate_cells": stats.lifting_attempt + 1,
        "emit": stats.cells,
        "solve_cell": stats.cells,
    }


def test_the_pipelined_start_system_calls_pipeline_run(monkeypatch):
    from nidpipe import cascade
    from nidpipe.parallel import PipelineConfig
    from nidpipe.systems import cyclic, embed

    runs = []
    pipeline_run = cascade.pipeline_run

    def recorded_pipeline_run(*args, **kwargs):
        result = pipeline_run(*args, **kwargs)
        runs.append((args, result))
        return result

    monkeypatch.setattr(cascade, "pipeline_run", recorded_pipeline_run)
    _, sols, _ = cascade.solve_start_system(embed(cyclic(4), 1, 7).system, 7, p=2)
    assert len(sols) == 20 and runs
    for args, result in runs:
        assert isinstance(args[2], PipelineConfig)
        assert isinstance(result[1].producer_blocked, float)
