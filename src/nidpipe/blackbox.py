"""The fixed-recipe solver: embed, solve the top system, cascade down,
filter, report.  One required input: the expected top dimension."""

from __future__ import annotations

import time

from .cascade import run_cascade, solve_top
from .filtering import classify_isolated, filter_junk
from .parallel import check_backend
from .polynomials import PolySystem
from .report import DecompositionReport, Timings
from .systems import embed, square_up
from .tracker import TrackParams


def reject_zero_polynomials(f: PolySystem) -> None:
    """Raise ValueError naming the first polynomial of f that is zero:
    such a row carries no equation, and the solver would answer wrongly."""
    zero = [i + 1 for i, p in enumerate(f.polys) if p.is_zero]
    if zero:
        raise ValueError(f"polynomial {zero[0]} is zero")


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

    ``mode`` names the worker backend for tasks > 1; forked processes
    are the only one.
    """
    check_backend(mode)
    reject_zero_polynomials(f)
    warnings: list[str] = []
    square, record = square_up(f, seed)
    if record.kind != "already-square":
        warnings.append(f"input was not square: {record.kind} ({record.count})")
    n = square.nvars
    if top_dimension is None:
        top_dimension = n - 1
        warnings.append(
            f"no top dimension given; defaulting to {top_dimension} "
            "(an overestimate causes significant extra work)"
        )
    if not 0 <= top_dimension < n:
        raise ValueError(f"top dimension must be in 0..{n - 1}, got {top_dimension}")
    if precision not in ("double", "dd"):
        raise ValueError(f"unknown precision {precision!r}")
    params = TrackParams(precision="double_double" if precision == "dd" else "double")
    timings = Timings()

    emb = embed(square, top_dimension, seed)
    top_results, top_stats = solve_top(emb, tasks, params=params, cell_log=cell_log)
    timings.start_system = top_stats.time_start_system
    timings.continuation = top_stats.time_continuation

    t0 = time.perf_counter()
    superset = run_cascade(top_results, emb, tasks, params)
    timings.cascade = time.perf_counter() - t0

    t0 = time.perf_counter()
    witness_sets, stages = filter_junk(superset, tasks, params)
    isolated, suspects, iso_stages = classify_isolated(
        superset.candidates(0), witness_sets, square, tasks, params
    )
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
