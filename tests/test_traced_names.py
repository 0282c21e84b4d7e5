"""The benchmark's tracer records a span only for a call the solver makes
through the traced module attribute (``nidbench/spans.py``); a refactor
that calls a function by another route leaves its metrics at zero
without failing anything.  This drives one run at two tasks with every
traced name wrapped and checks that the solver still calls each of the
names it calls today through that name."""

import functools
import importlib
import importlib.util
import os
import sys
from pathlib import Path

from nidpipe.blackbox import decompose
from nidpipe.systems import demo_system

SPANS = Path(__file__).resolve().parent.parent / "nidbench" / "spans.py"

CALLED = {
    ("nidpipe.blackbox", name)
    for name in ("square_up", "embed", "solve_top", "run_cascade", "filter_junk", "classify_isolated")
} | {
    ("nidpipe.polyhedral", "lift_supports"),
    ("nidpipe.filtering", "newton_refine"),
    ("nidpipe.filtering", "refine_dd"),
} | {
    ("nidpipe.cascade", name)
    for name in (
        "solve_start_system",
        "cascade_step",
        "enumerate_cells",
        "solve_cell",
        "work_crew",
        "pipeline_run",
        "newton_refine",
    )
}


def _targets(monkeypatch):
    spec = importlib.util.spec_from_file_location("nidbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look their module up here
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _ in spans.TARGETS]


def test_the_solver_calls_the_traced_names_it_calls_today(monkeypatch, tmp_path):
    # a call in a forked worker (the cells at two tasks) appends its line
    # to the same file as one in this process
    targets = _targets(monkeypatch)
    assert CALLED <= set(targets)
    log = tmp_path / "calls"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)

            @functools.wraps(original)
            def wrapper(*args, _line=f"{module_name} {attr}\n".encode(), _original=original, **kwargs):
                os.write(fd, _line)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, attr, wrapper)
        decompose(demo_system(), top_dimension=3, seed=7, tasks=2)
    finally:
        os.close(fd)
    called = {tuple(line.split()) for line in log.read_text().splitlines()}
    assert sorted(CALLED - called) == []
