"""Solving the top-dimensional embedded system and cascading down.

Stage one solves a random-coefficient system on the supports of the
embedded target, with the origin added to each, through pipelined
polyhedral homotopies; stage two continues its solutions to the
embedded system with a gamma-trick homotopy on the work crew.  Each cascade step deforms the last
hyperplane row to the corresponding slack variable, carrying solutions
with nonzero slacks one dimension down; endpoints classify three ways
(at infinity / zero slack / nonzero slack) and the zero-slack points
are the candidate generic points at that dimension.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .parallel import PipelineConfig, pipeline_run, raise_failures, work_crew
from .polyhedral import (  # noqa: F401  (``lift_supports`` stays a module attribute for tracing tools)
    MixedCell,
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
    newton_refine,
    track,
    track_paths,
)


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


@dataclass
class CascadeLevel:
    """Classification of the solutions entering one dimension.

    ``starts`` counts the paths tracked into this level (for the top
    level, the continuation paths), so starts = at_infinity +
    len(zero_slack) + len(nonzero_slack) + failures.
    """

    dimension: int
    embedding: EmbeddedSystem
    starts: int
    at_infinity: int
    zero_slack: list[Solution] = field(default_factory=list)
    nonzero_slack: list[Solution] = field(default_factory=list)
    failures: int = 0

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


@dataclass
class WitnessSuperset:
    """Candidate generic points per dimension, top dimension first."""

    levels: list[CascadeLevel]
    embedding: EmbeddedSystem
    seed: int

    def candidates(self, dimension: int) -> list[Solution]:
        for level in self.levels:
            if level.dimension == dimension:
                return level.zero_slack
        return []


def solve_start_system(
    emb_system: PolySystem,
    seed: int,
    p: int = 1,
    cell_log: list | None = None,
) -> tuple[PolySystem, list[Solution], TopStats]:
    """Polyhedral solve of the random-coefficient system on the embedded
    system's supports, each with the origin added (``with_origin``), so
    that roots with a zero coordinate are reached.  The cell search runs
    in the calling thread and hands each cell to one ``emit``: at p = 1
    its paths are tracked right there, at p >= 2 it goes to the p-1
    forked consumers of a 2-stage pipeline.  A tie restarts the search, counters and cell
    log included, on the next lifting (``generic_lifting``)."""
    stats = TopStats()
    supports = with_origin(supports_of(emb_system))
    g = random_coefficient_system(supports, emb_system.nvars, seed)

    def search(lifted) -> list[PathResult]:
        stats.cells = stats.mixed_volume = 0
        if cell_log is not None:
            cell_log.clear()

        def produce(put):
            def emit(cell: MixedCell):
                stats.cells += 1
                stats.mixed_volume += cell.volume
                if cell_log is not None:
                    cell_log.append(cell)
                put(cell)

            enumerate_cells(lifted, emit)

        if p == 1:
            results: list[PathResult] = []
            produce(lambda cell: results.extend(solve_cell(cell, g, supports)))
            return results
        cfg = PipelineConfig(p=p)
        pairs, _ = pipeline_run(produce, lambda cell: solve_cell(cell, g, supports), cfg)
        outs = raise_failures([out for _, out in pairs], "cell worker")
        return [r for out in outs for r in out]

    t0 = time.perf_counter()
    results, stats.lifting_attempt = generic_lifting(supports, seed, search)
    stats.time_start_system = time.perf_counter() - t0
    sols = []
    for r in results:
        stats.start_paths += 1
        if r.succeeded and r.endpoint is not None:
            sols.append(r.endpoint)
        else:
            stats.start_failures += 1
    return g, sols, stats


def track_on_crew(h: Homotopy, starts: list[np.ndarray], p: int) -> list[PathResult]:
    """Track one stage's paths on p workers: worker i takes the strided
    chunk starts[i::p] as one batch.  Results come back in the order of
    starts; a job that raised fails the run with a RuntimeError."""
    chunks = [np.array(starts[i::p]) for i in range(min(p, len(starts)))]
    tracked = work_crew(chunks, p, lambda chunk: track_paths(h, chunk))
    results: list = [None] * len(starts)
    for i, out in enumerate(raise_failures(tracked, "path tracking job")):
        results[i::p] = out
    return results


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
    results = track_on_crew(h, [s.coordinates for s in g_sols], p)
    stats.time_continuation = time.perf_counter() - t0
    out = []
    for r in results:
        stats.continuation_paths += 1
        if r.status == AT_INFINITY:
            stats.at_infinity += 1
        elif r.succeeded:
            stats.finite += 1
        else:
            stats.failures += 1
        out.append(r)
    if stats.continuation_paths and stats.finite == 0:
        raise RuntimeError("all continuation paths failed")
    return out, stats


def _classify_level(
    results: list[PathResult], emb_level: EmbeddedSystem, dimension: int
) -> CascadeLevel:
    """Split tracked paths into the level's three-way classification."""
    level = CascadeLevel(dimension, emb_level, starts=len(results), at_infinity=0)
    system = emb_level.system if emb_level.k else emb_level.base
    for r in results:
        if r.status == AT_INFINITY:
            level.at_infinity += 1
            continue
        if not r.succeeded or r.endpoint is None:
            level.failures += 1
            continue
        sol = newton_refine(system, r.endpoint.coordinates, tol=1e-13, max_iters=6)
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
    results = []
    for r in track_on_crew(h, [s.coordinates for s in level.nonzero_slack], p):
        if r.succeeded and r.endpoint is not None:
            # the target row pins z_d = 0: drop that coordinate
            coords = r.endpoint.coordinates[:-1]
            r = PathResult(r.status, Solution(coords, r.endpoint.residual, r.endpoint.condition), r.steps_used, r.t_reached)
        results.append(r)
    return _classify_level(results, next_emb, level.dimension - 1)


def run_cascade(
    top_results: list[PathResult],
    emb: EmbeddedSystem,
    p: int = 1,
) -> WitnessSuperset:
    """Iterate cascade steps from the top dimension down to the number
    of zero rows of the base system: no component lies below it."""
    top_level = _classify_level(top_results, emb, emb.k)
    levels = [top_level]
    while levels[-1].dimension > zero_rows(emb.base):
        levels.append(cascade_step(levels[-1], p))
    return WitnessSuperset(levels, emb, emb.seed)
