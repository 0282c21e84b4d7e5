"""The benchmark's tracer wraps solver functions by module and name, and
the benchmark calls some of them with fixed arguments; a refactor that
moves, renames or changes the signature of one of them must fail here,
not leave the tracer silently recording nothing or the benchmark run
failing."""

import importlib
import importlib.util
import inspect
import subprocess
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
    emitted, batches = [], []
    enumerate_cells, solve_cell = cascade.enumerate_cells, cascade.solve_cell

    def counted_enumerate_cells(lifted, emit):
        calls["enumerate_cells"] += 1
        emitted.clear()
        batches.clear()  # a tie throws the cells of that search away

        def counted_emit(cell):
            calls["emit"] += 1
            emitted.append(cell)
            return emit(cell)

        return enumerate_cells(lifted, counted_emit)

    def counted_solve_cell(cells, *args, **kwargs):
        calls["solve_cell"] += 1
        batches.append(list(cells))
        return solve_cell(cells, *args, **kwargs)

    monkeypatch.setattr(cascade, "enumerate_cells", counted_enumerate_cells)
    monkeypatch.setattr(cascade, "solve_cell", counted_solve_cell)
    monkeypatch.setattr(cascade, "PATH_CAP", 6)  # several batches from cyclic-4's 20 paths
    _, _, stats = cascade.solve_start_system(embed(cyclic(4), 1, 7).system, 7, p=1)
    assert stats.cells > 0 and len(batches) > 1
    assert calls == {
        "enumerate_cells": stats.lifting_attempt + 1,
        "emit": stats.cells,
        "solve_cell": len(batches),
    }
    assert [cell for batch in batches for cell in batch] == emitted
    for batch in batches[:-1]:  # cut as soon as the waiting cells hold PATH_CAP paths
        volumes = [cell.volume for cell in batch]
        assert sum(volumes) >= 6 > sum(volumes[:-1])


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


def test_the_benchmark_self_test_passes():
    # it runs the benchmark's own checks against this solver: a change
    # that breaks the benchmark fails here, not in a benchmark run
    selftest = SPANS.parent / "selftest.py"
    out = subprocess.run([sys.executable, str(selftest)], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
