"""The three benchmark workloads: how each one is solved and how its
answer is checked against a known answer.

Each workload parses its text once (set-up), then ``solve(systems,
seed, tasks)`` runs the solver and returns an ``Outcome``: the wall time
of the measured call, a plain-data answer for the checker, and the path
counts behind ``failed_path_ratio``.  The checkers take plain data, so the
self-test can hand them a deliberately wrong answer.

Callers put the repository's ``src`` directory on ``sys.path`` before
importing this module.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nidpipe import blackbox, cascade
from nidpipe.polyhedral import TieDetected, supports_of
from nidpipe.polytext import parse_system
from nidpipe.systems import embed, square_up

import texts

POINT_TOL = 1e-6  # coordinates of an exact answer, and distinctness of roots
RESIDUAL_TOL = 1e-8

DEMO_DEGREES = {3: 1, 2: 1, 1: 12}
DEMO_ISOLATED = ((3, 2, 2, 1), (3, 3, 2, 1), (4, 2, 2, 1), (4, 3, 2, 1))
# each line fixes three coordinates: {index: value}
DEMO_LINES = tuple(
    [{0: 2, 1: b, fixed: 1} for b in (2, 3) for fixed in (2, 3)]
    + [{0: a, 1: 1, 2: c} for a in (3, 4) for c in (1, 2)]
    + [{0: a, 1: b, 2: 1} for a in (3, 4) for b in (2, 3)]
)
CYCLIC6_ROOTS = 156
ROOTCOUNT_VOLUMES = (258, 924)  # cyclic(6) embedded at dimension 1; cyclic(7), the published root count


@dataclass
class Outcome:
    seconds: float
    answer: dict
    paths: int = 0
    failed_paths: int = 0
    report: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    dimension: int  # top dimension of the (first) system
    tasks: int
    solver: Callable[["Workload", list, int, int], Outcome]
    check: Callable[[dict], list[str]]
    # Repeats of a timed run solve seed, seed + 1000, ... when the answer
    # cannot depend on the seed but the work does (a mixed volume does not
    # depend on the lifting); a decomposition repeats the seed itself.
    vary_seed: bool = False

    def parse(self) -> list:
        return [parse_system(t) for t in texts.WORKLOAD_TEXTS[self.name]()]

    def solve(self, systems: list, seed: int, tasks: int) -> Outcome:
        return self.solver(self, systems, seed, tasks)

    def kernel_system(self, systems: list, seed: int):
        """The embedded system the workload's paths (or cells) live on."""
        return enumeration_system(systems[0], self.dimension, seed)


# -- known-answer checks ----------------------------------------------------


def _on(point, fixed: dict) -> bool:
    return all(abs(point[i] - v) <= POINT_TOL for i, v in fixed.items())


def check_demo(answer: dict) -> list[str]:
    problems = []
    if answer["degrees"] != DEMO_DEGREES:
        problems.append(f"degrees {answer['degrees']}, expected {DEMO_DEGREES}")
    if answer["suspects"]:
        problems.append(f"{answer['suspects']} singular suspects, expected none")
    isolated = answer["isolated"]
    matched = [sum(_on(p, dict(enumerate(q))) for p in isolated) for q in DEMO_ISOLATED]
    if len(isolated) != len(DEMO_ISOLATED) or matched != [1] * len(DEMO_ISOLATED):
        problems.append(f"isolated points {np.round(isolated, 6).tolist()}, expected {DEMO_ISOLATED}")
    witness = answer["witness"]
    if not all(_on(p, {0: 1}) for p in witness.get(3, [])):
        problems.append("a dimension-3 witness point is off the space x1=1")
    if not all(_on(p, {0: 2, 1: 1}) for p in witness.get(2, [])):
        problems.append("a dimension-2 witness point is off the plane x1=2, x2=1")
    hits = [[i for i, line in enumerate(DEMO_LINES) if _on(p, line)] for p in witness.get(1, [])]
    if any(len(h) != 1 for h in hits):
        problems.append("a dimension-1 witness point is on none of the 12 lines")
    elif sorted(h[0] for h in hits) != list(range(len(DEMO_LINES))):
        problems.append("the dimension-1 witness points do not cut each of the 12 lines once")
    return problems


def cyclic_residual(x) -> float:
    """Largest cyclic n-roots equation value at x, evaluated here rather
    than by the program under test."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    vals = [sum(np.prod([x[(i + l) % n] for l in range(j)]) for i in range(n)) for j in range(1, n)]
    vals.append(np.prod(x) - 1.0)
    return float(np.max(np.abs(vals)))


def check_cyclic6(answer: dict) -> list[str]:
    problems = []
    if answer["mixed_volume"] != CYCLIC6_ROOTS:
        problems.append(f"mixed volume {answer['mixed_volume']}, expected {CYCLIC6_ROOTS}")
    if answer["suspects"]:
        problems.append(f"{answer['suspects']} singular suspects, expected none")
    pts = np.asarray(answer["isolated"], dtype=np.complex128)
    if len(pts) != CYCLIC6_ROOTS:
        problems.append(f"{len(pts)} isolated points, expected {CYCLIC6_ROOTS}")
    worst = max((cyclic_residual(p) for p in pts), default=0.0)
    if worst > RESIDUAL_TOL:
        problems.append(f"an isolated point has residual {worst:.3g} > {RESIDUAL_TOL}")
    close = [
        (i, j) for i, j in itertools.combinations(range(len(pts)), 2)
        if np.max(np.abs(pts[i] - pts[j])) <= POINT_TOL
    ]
    if close:
        problems.append(f"{len(close)} pairs of isolated points coincide")
    return problems


def check_mixed_volumes(found, expected) -> list[str]:
    if tuple(found) != tuple(expected):
        return [f"mixed volumes {tuple(found)}, expected {tuple(expected)}"]
    return []


def check_rootcount(answer: dict) -> list[str]:
    return check_mixed_volumes(answer["mixed_volumes"], ROOTCOUNT_VOLUMES)


# -- solving ----------------------------------------------------------------


def decomposition_answer(rep) -> dict:
    n = rep.nvars
    return {
        "degrees": dict(rep.degrees),
        "isolated": [s.coordinates[:n] for s in rep.isolated],
        "suspects": len(rep.suspects),
        "witness": {w.dimension: [s.coordinates[:n] for s in w.points] for w in rep.witness_sets},
        "mixed_volume": rep.top_stats.mixed_volume,
    }


def report_paths(rep) -> tuple[int, int]:
    """Paths attempted and failed, from the report's start, continuation
    and cascade-level counts (the top level's starts are the
    continuation paths)."""
    top = rep.top_stats
    attempted = top.start_paths + sum(c["starts"] for c in rep.cascade_counts)
    failed = top.start_failures + sum(c["failures"] for c in rep.cascade_counts)
    return attempted, failed


def _decompose(w: Workload, systems: list, seed: int, tasks: int) -> Outcome:
    t0 = time.perf_counter()
    rep = blackbox.decompose(systems[0], w.dimension, seed, tasks, mode="process")
    seconds = time.perf_counter() - t0
    attempted, failed = report_paths(rep)
    return Outcome(seconds, decomposition_answer(rep), attempted, failed, rep)


def enumeration_system(f, dimension: int, seed: int):
    """The system whose supports ``solve_start_system`` would enumerate."""
    square, _ = square_up(f, seed)
    return embed(square, dimension, seed).system if dimension else square


def mixed_volume_by_enumeration(system, seed: int) -> tuple[int, float]:
    """Sum of cell volumes through ``enumerate_cells`` with the same
    outer relift loop as ``solve_start_system``; returns the volume and
    the time spent inside the enumeration calls."""
    supports = supports_of(system)
    spent = 0.0
    for attempt in range(6):
        lifted = cascade.lift_supports(supports, seed, attempt)
        total = 0

        def emit(cell):
            nonlocal total
            total += cell.volume

        t0 = time.perf_counter()
        try:
            cascade.enumerate_cells(lifted, emit)
            return total, spent + time.perf_counter() - t0
        except TieDetected:
            spent += time.perf_counter() - t0
    raise RuntimeError("no generic lifting found")


def _rootcount(w: Workload, systems: list, seed: int, tasks: int) -> Outcome:
    volumes, seconds = [], 0.0
    for f, dim in zip(systems, (w.dimension, 0)):
        vol, spent = mixed_volume_by_enumeration(enumeration_system(f, dim, seed), seed)
        volumes.append(vol)
        seconds += spent
    return Outcome(seconds, {"mixed_volumes": volumes})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo-d3-t2", 3, 2, _decompose, check_demo),
        Workload("cyclic6-d0-t1", 0, 1, _decompose, check_cyclic6),
        # cyclic(6) embedded at dimension 1, then cyclic(7) unembedded
        Workload("rootcount-cyclic", 1, 1, _rootcount, check_rootcount, vary_seed=True),
    )
}
