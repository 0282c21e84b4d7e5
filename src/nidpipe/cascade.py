"""Solving the top-dimensional embedded system and cascading down.

Stage one solves a random-coefficient system on the supports of the
embedded target, with the origin added to each, through pipelined
polyhedral homotopies; stage two continues its solutions to the
embedded system with a gamma-trick homotopy on the work crew.  Each cascade step deforms the last
hyperplane row to the corresponding slack variable, carrying solutions
with nonzero slacks one dimension down; endpoints classify three ways
(at infinity / zero slack / nonzero slack) and the zero-slack points
are the candidate generic points at that dimension.

After the start system, every stage is one ``track_stage`` on the work
crew: the continuation, each cascade step and each membership stage of
``filtering``.  It ends with ``guard_jumps`` on the gathered paths, as
the start system does over all its cells; the number of paths that
still coincide after the re-track is kept for the report's warnings.
``PATH_CAP`` sizes the batches of every stage; a path's result does not
depend on its batch, so neither does the payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .parallel import PipelineConfig, PipelineStats, pipeline_run, raise_failures, work_crew
from .polyhedral import (  # noqa: F401  (``lift_supports`` stays a module attribute for tracing tools)
    MixedCell,
    cell_homotopy,
    enumerate_cells,
    generic_lifting,
    lift_supports,
    random_coefficient_system,
    solve_cell,
    supports_of,
    with_origin,
)
from .polynomials import PolySystem, make_poly, variable_poly
from .systems import EmbeddedSystem, zero_rows
from .tracker import (  # noqa: F401  (``track`` stays a module attribute for tracing tools)
    AT_INFINITY,
    ZERO_SLACK,
    Homotopy,
    LinearHomotopy,
    PathResult,
    Solution,
    classify,
    guard_jumps,
    newton_refine,
    retracker,
    track,
    track_paths,
)

PATH_CAP = 128  # paths per tracking batch: fewer pay numpy's per-call cost on few rows, more step slower


@dataclass
class TopStats:
    cells: int = 0
    mixed_volume: int = 0
    start_paths: int = 0
    start_failures: int = 0
    continuation_paths: int = 0
    at_infinity: int = 0
    finite: int = 0
    failures: int = 0
    lifting_attempt: int = 0
    time_start_system: float = 0.0
    time_continuation: float = 0.0
    time_cell_search: float = 0.0  # the search's own time over every lifting tried, consumers excluded
    time_first_cell: float | None = None  # from the stage's start to the accepted lifting's first cell
    pipeline: PipelineStats | None = None  # the cell pipeline's counts, at p >= 2
    start_jumps: int = 0  # paths whose endpoints still coincide after the re-track
    continuation_jumps: int = 0


@dataclass
class CascadeLevel:
    """Classification of the solutions entering one dimension.

    ``starts`` counts the paths tracked into this level (for the top
    level, the continuation paths), so starts = at_infinity +
    len(zero_slack) + len(nonzero_slack) + failures.  ``jumps`` counts
    those whose endpoints still coincide after the re-track.
    """

    dimension: int
    embedding: EmbeddedSystem
    starts: int
    at_infinity: int
    zero_slack: list[Solution] = field(default_factory=list)
    nonzero_slack: list[Solution] = field(default_factory=list)
    failures: int = 0
    jumps: int = 0

    @property
    def counts(self) -> dict:
        return {
            "dimension": self.dimension,
            "starts": self.starts,
            "at_infinity": self.at_infinity,
            "zero_slack": len(self.zero_slack),
            "nonzero_slack": len(self.nonzero_slack),
            "failures": self.failures,
        }


def solve_start_system(
    emb_system: PolySystem,
    seed: int,
    p: int = 1,
    cell_log: list | None = None,
) -> tuple[PolySystem, list[Solution], TopStats]:
    """Polyhedral solve of the random-coefficient system on the embedded
    system's supports, each with the origin added (``with_origin``), so
    that roots with a zero coordinate are reached.  The cell search runs
    in the calling thread; ``emit`` hands its cells to ``put`` in batches,
    one as soon as the waiting cells hold ``PATH_CAP`` paths and the rest
    at the end, so no batch depends on timing.  At p = 1 ``put`` tracks
    a batch right there (``solve_cell``), at p >= 2 it goes to the p-1
    forked consumers of a 2-stage pipeline.  A tie restarts the search,
    counters and waiting cells included, on the next lifting
    (``generic_lifting``); ``cell_log``, when given, receives the cells
    of the accepted lifting.  The paths of all cells end on roots of g, so
    they are guarded as one stage: once a jump is found, ``retracker``
    tracks the jumped paths again on the homotopy of all the cells
    (``cell_homotopy``), as every other stage does.  The search's own
    time leaves out the time ``put`` takes: the paths tracked at p = 1,
    the waits on a full queue at p >= 2."""
    stats = TopStats()
    supports = with_origin(supports_of(emb_system))
    g = random_coefficient_system(supports, emb_system.nvars, seed)
    t0 = time.perf_counter()

    def search(lifted) -> tuple[list[MixedCell], list[list[PathResult]]]:
        stats.cells = stats.mixed_volume = 0
        stats.time_first_cell = None
        cells: list[MixedCell] = []

        def produce(put):
            handing = 0.0
            waiting: list[MixedCell] = []

            def emit(cell: MixedCell):
                nonlocal handing, waiting
                t = time.perf_counter()
                if stats.time_first_cell is None:
                    stats.time_first_cell = t - t0
                stats.cells += 1
                stats.mixed_volume += cell.volume
                cells.append(cell)
                waiting.append(cell)
                if sum(c.volume for c in waiting) >= PATH_CAP:
                    put(waiting)
                    waiting = []  # not clear(): the pipeline's queue pickles the batch after put returns
                handing += time.perf_counter() - t

            t = time.perf_counter()
            try:
                enumerate_cells(lifted, emit)
            finally:
                stats.time_cell_search += time.perf_counter() - t - handing
            if waiting:
                put(waiting)

        if p == 1:
            outs: list[list[PathResult]] = []
            produce(lambda batch: outs.append(solve_cell(batch, g, supports)))
            return cells, outs
        cfg = PipelineConfig(p=p)
        pairs, stats.pipeline = pipeline_run(produce, lambda batch: solve_cell(batch, g, supports), cfg)
        return cells, raise_failures([out for _, out in pairs], "cell worker")

    (cells, outs), stats.lifting_attempt = generic_lifting(supports, seed, search)
    if cell_log is not None:
        cell_log[:] = cells
    results, stats.start_jumps = guard_jumps(
        [r for out in outs for r in out], lambda idx: retracker(*cell_homotopy(cells, g, supports))(idx)
    )
    stats.time_start_system = time.perf_counter() - t0
    sols = [r.endpoint for r in results if r.succeeded and r.endpoint is not None]
    stats.start_paths, stats.start_failures = len(results), len(results) - len(sols)
    return g, sols, stats


def track_stage(h: Homotopy, starts: np.ndarray, p: int, groups=None) -> tuple[list[PathResult], int]:
    """Track one stage's n paths on p workers in k = min(n, max(p,
    ceil(n / PATH_CAP))) chunks, chunk i the paths idx = arange(i, n, k)
    as one batch on h.select(idx), and ``guard_jumps`` them, by
    ``groups`` when given: the results in the order of starts and the
    number of paths that still coincide.  A job that raised fails the
    run."""
    n = len(starts)
    k = min(n, max(p, -(-n // PATH_CAP)))
    chunks = [np.arange(i, n, k) for i in range(k)]
    tracked = work_crew(chunks, p, lambda idx: track_paths(h.select(idx), starts[idx]))
    results: list = [None] * n
    for i, out in enumerate(raise_failures(tracked, "path tracking job")):
        results[i::k] = out
    return guard_jumps(results, retracker(h, starts), groups)


def solve_top(
    emb: EmbeddedSystem,
    p: int = 1,
    cell_log: list | None = None,
) -> tuple[list[PathResult], TopStats]:
    """Solve the embedded system: polyhedral start, then continuation."""
    system = emb.system if emb.k > 0 else emb.base
    g, g_sols, stats = solve_start_system(system, emb.seed, p, cell_log)
    gamma = complex(rngmod.unit_complex(rngmod.stream(emb.seed, rngmod.GAMMA)))
    h = LinearHomotopy(g, system, gamma)
    t0 = time.perf_counter()
    starts = np.array([s.coordinates for s in g_sols])
    results, stats.continuation_jumps = track_stage(h, starts, p)
    stats.time_continuation = time.perf_counter() - t0
    for r in results:
        stats.continuation_paths += 1
        if r.status == AT_INFINITY:
            stats.at_infinity += 1
        elif r.succeeded:
            stats.finite += 1
        else:
            stats.failures += 1
    if stats.continuation_paths and stats.finite == 0:
        raise RuntimeError("all continuation paths failed")
    return results, stats


def _classify_level(
    results: list[PathResult], emb_level: EmbeddedSystem, dimension: int
) -> CascadeLevel:
    """Split tracked paths into the level's three-way classification.
    The endpoints are refined on the level's system in one stacked
    ``newton_refine``, each cut to the system's first variables: a
    cascade step's target row pins its last slack to 0, and the next
    level drops it."""
    system = emb_level.system if emb_level.k else emb_level.base
    ends = [r.endpoint.coordinates[: system.nvars] for r in results if r.succeeded]
    at_infinity = sum(r.status == AT_INFINITY for r in results)
    level = CascadeLevel(dimension, emb_level, starts=len(results), at_infinity=at_infinity)
    level.failures = len(results) - at_infinity - len(ends)
    for sol in newton_refine(system, np.array(ends), tol=1e-13, max_iters=6):
        cls = classify(sol.coordinates, emb_level.n_original)
        if cls == AT_INFINITY:
            level.at_infinity += 1
        elif cls == ZERO_SLACK:
            level.zero_slack.append(sol)
        else:
            level.nonzero_slack.append(sol)
    return level


def _slack_removal_homotopy(emb: EmbeddedSystem, gamma: complex) -> LinearHomotopy:
    """Deform the last hyperplane row of the level-d embedding into
    z_d = 0; every other row stays fixed."""
    system = emb.system
    nvars = system.nvars
    rows_start = list(system.polys)
    rows_target = list(system.polys)
    last = len(rows_start) - 1
    deformed = make_poly(nvars, [(e, gamma * c) for e, c in rows_start[last].terms])
    rows_start[last] = deformed
    rows_target[last] = variable_poly(nvars, nvars - 1)
    start = PolySystem(nvars, tuple(rows_start), system.names)
    target = PolySystem(nvars, tuple(rows_target), system.names)
    return LinearHomotopy(start, target)


def cascade_step(level: CascadeLevel, p: int = 1) -> CascadeLevel:
    """Track the level's nonzero-slack solutions one dimension down."""
    if level.dimension < 1:
        raise ValueError("cannot cascade below dimension 0")
    emb = level.embedding
    next_emb = emb.level(emb.k - 1)
    if not level.nonzero_slack:
        return CascadeLevel(level.dimension - 1, next_emb, starts=0, at_infinity=0)
    gamma = complex(rngmod.unit_complex(rngmod.stream(emb.seed, rngmod.GAMMA, level.dimension)))
    h = _slack_removal_homotopy(emb, gamma)
    starts = np.array([s.coordinates for s in level.nonzero_slack])
    tracked, jumps = track_stage(h, starts, p)
    next_level = _classify_level(tracked, next_emb, level.dimension - 1)
    next_level.jumps = jumps
    return next_level


def run_cascade(
    top_results: list[PathResult],
    emb: EmbeddedSystem,
    p: int = 1,
) -> list[CascadeLevel]:
    """The levels of the cascade steps, top dimension first, down to the
    number of zero rows of the base system: no component lies below it.
    A level's zero-slack points are its candidate generic points."""
    levels = [_classify_level(top_results, emb, emb.k)]
    while levels[-1].dimension > zero_rows(emb.base):
        levels.append(cascade_step(levels[-1], p))
    return levels
