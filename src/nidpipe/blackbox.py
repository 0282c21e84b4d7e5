"""The fixed-recipe solver: square up, embed, solve the top system,
cascade down, filter, report.  One required input: the expected top
dimension, at least n - m for m rows in n variables."""

from __future__ import annotations

import time

from .cascade import run_cascade, solve_top
from .filtering import classify_isolated, filter_junk
from .parallel import check_backend
from .polynomials import PolySystem
from .report import DecompositionReport, Timings
from .systems import embed, square_up, zero_rows
from .tracker import _dd_polished, vanishing


def check_top_dimension(f: PolySystem, top_dimension: int, name: str = "top dimension") -> None:
    """Raise ValueError unless top_dimension is in z..n-1, where z is
    the number of zero rows that ``square_up`` leaves in f."""
    low, high = zero_rows(f), f.nvars - 1
    if low > high:
        raise ValueError("every polynomial is zero")
    if not low <= top_dimension <= high:
        raise ValueError(f"{name} must be in {low}..{high}, got {top_dimension}")


def decompose(
    f: PolySystem,
    top_dimension: int | None = None,
    seed: int = 0,
    tasks: int = 1,
    precision: str = "double",
    mode: str = "process",
    cell_log: list | None = None,
    input_path: str | None = None,
) -> DecompositionReport:
    """Full numerical irreducible decomposition of a polynomial system.

    The top dimension is at least n - m for m rows in n variables; a
    reported point at which a row of f does not vanish is dropped.
    ``mode`` names the worker backend for tasks > 1; forked processes
    are the only one.
    """
    check_backend(mode)
    warnings: list[str] = []
    square, record = square_up(f, seed)
    if record.kind != "already-square":
        warnings.append(f"input squared: {record.kind} ({record.count})")
    n = square.nvars
    if top_dimension is None:
        top_dimension = n - 1
        warnings.append(
            f"no top dimension given; defaulting to {top_dimension} "
            "(an overestimate causes significant extra work)"
        )
    check_top_dimension(square, top_dimension)
    if precision not in ("double", "dd"):
        raise ValueError(f"unknown precision {precision!r}")
    timings = Timings()

    emb = embed(square, top_dimension, seed)
    top_results, top_stats = solve_top(emb, tasks, cell_log=cell_log)
    timings.start_system = top_stats.time_start_system
    timings.continuation = top_stats.time_continuation

    t0 = time.perf_counter()
    superset = run_cascade(top_results, emb, tasks)
    timings.cascade = time.perf_counter() - t0

    t0 = time.perf_counter()
    witness_sets, stages = filter_junk(superset, tasks)
    isolated, suspects, iso_stages = classify_isolated(
        superset.candidates(0), witness_sets, square, tasks
    )
    for w in witness_sets:
        w.points = vanishing(f, w.points)
    witness_sets = [w for w in witness_sets if w.points]
    isolated, suspects = vanishing(f, isolated), vanishing(f, suspects)
    if precision == "dd":
        # each reported point is polished once, on the system it solves
        for w in witness_sets:
            w.points = [_dd_polished(w.embedding.system, s, 3) for s in w.points]
        isolated = [_dd_polished(square, s, 3) for s in isolated]
        suspects = [_dd_polished(square, s, 3) for s in suspects]
    timings.filtering = time.perf_counter() - t0

    return DecompositionReport(
        seed=seed,
        top_dimension=top_dimension,
        tasks=tasks,
        precision=precision,
        nvars=n,
        names=square.names,
        witness_sets=witness_sets,
        isolated=isolated,
        suspects=suspects,
        cascade_counts=[lv.counts for lv in superset.levels],
        filter_stages=stages + iso_stages,
        top_stats=top_stats,
        timings=timings,
        input_path=input_path,
        warnings=warnings,
    )
