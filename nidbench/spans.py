"""Spans around calls into the solver's layers, recorded from outside.

The solver's modules look up the functions they call in their own
module namespace at call time (``nidpipe.cascade.track``,
``nidpipe.filtering.work_crew`` ...).  ``Tracer.install`` replaces those
names with wrappers that record a span (name, start, end, parent) and
restores them on ``remove``; the solver's source is not touched.

Spans live in memory.  A span recorded inside a forked worker stays in
that worker, so per-path numbers need a run with one task.  Parents are
tracked per thread; the cell-enumeration thread of the pipelined start
system records its spans as roots.  No lock is taken, because a worker
forked while another thread held it would deadlock on its first span.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, span name): the span name is "<layer>.<function>"
TARGETS = (
    ("nidpipe.blackbox", "square_up", "systems.square_up"),
    ("nidpipe.blackbox", "embed", "systems.embed"),
    ("nidpipe.blackbox", "solve_top", "cascade.solve_top"),
    ("nidpipe.blackbox", "run_cascade", "cascade.run_cascade"),
    ("nidpipe.blackbox", "filter_junk", "filtering.filter_junk"),
    ("nidpipe.blackbox", "classify_isolated", "filtering.classify_isolated"),
    ("nidpipe.cascade", "solve_start_system", "cascade.solve_start_system"),
    ("nidpipe.cascade", "cascade_step", "cascade.cascade_step"),
    ("nidpipe.cascade", "lift_supports", "polyhedral.lift_supports"),
    ("nidpipe.cascade", "enumerate_cells", "polyhedral.enumerate_cells"),
    ("nidpipe.cascade", "solve_cell", "polyhedral.solve_cell"),
    ("nidpipe.cascade", "work_crew", "parallel.work_crew"),
    ("nidpipe.cascade", "pipeline_run", "parallel.pipeline_run"),
    ("nidpipe.cascade", "track", "tracker.track"),
    ("nidpipe.cascade", "newton_refine", "tracker.newton_refine"),
    ("nidpipe.polyhedral", "lift_supports", "polyhedral.lift_supports"),
    ("nidpipe.polyhedral", "track", "tracker.track"),
    ("nidpipe.filtering", "membership_test", "filtering.membership_test"),
    ("nidpipe.filtering", "work_crew", "parallel.work_crew"),
    ("nidpipe.filtering", "track", "tracker.track"),
    ("nidpipe.filtering", "newton_refine", "tracker.newton_refine"),
    ("nidpipe.filtering", "refine_dd", "dd.refine_dd"),
)
EMIT = "emit"  # the callback enumerate_cells hands each cell to


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None
    raised: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def within(self, name: str) -> bool:
        s = self.parent
        while s is not None:
            if s.name == name:
                return True
            s = s.parent
        return False


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _saved: list = field(default_factory=list)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None, args=args, kwargs=kwargs)
        self.spans.append(span)
        stack.append(span)
        try:
            span.result = fn(*args, **kwargs)
            return span.result
        except BaseException:
            span.raised = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.child_s += span.seconds

    def wrap(self, name: str, fn):
        tracer = self

        if name == "polyhedral.enumerate_cells":

            @functools.wraps(fn)
            def wrapper(lifted, emit):
                traced_emit = lambda cell: tracer.call(EMIT, emit, (cell,), {})  # noqa: E731
                return tracer.call(name, fn, (lifted, traced_emit), {})

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    def install(self) -> "Tracer":
        import importlib

        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        return self

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.self_s
        return out
