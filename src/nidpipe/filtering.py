"""Homotopy membership tests and junk removal.

A candidate point lies on a component represented by a witness set iff
moving the witness hyperplanes to pass through the candidate carries
some generic point onto it.  Filtering runs top-down: candidates at
dimension d are tested against every confirmed witness set of higher
dimension, survivors with a regular restricted Jacobian form the
dimension-d witness set, and dimension-0 candidates split into regular
isolated solutions and singular suspects that run the same membership
chain.

Each (candidate level, witness set) pair is one stage: a work crew runs
the stage's membership tests with the candidates as jobs, and each test
tracks the witness set's generic points as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cascade import WitnessSuperset
from .linalg import condition_and_rank
from .parallel import raise_failures, work_crew
from .polynomials import jacobian, residual
from .systems import EmbeddedSystem, slice_to_zero
from .tracker import (  # noqa: F401  (``track`` stays a module attribute for tracing tools)
    LinearHomotopy,
    Solution,
    newton_refine,
    refine_dd,
    track,
    track_paths,
)

MATCH_TOL = 1e-6
MATCH_FLOOR = 1e-8


class MembershipIndeterminate(RuntimeError):
    """Every membership path failed; the answer is neither yes nor no."""


@dataclass
class WitnessSet:
    """deg-many generic points on the dimension-d part of the solution
    set, cut out by the d hyperplanes of its embedding."""

    dimension: int
    embedding: EmbeddedSystem
    points: list[Solution]
    label: str = ""

    @property
    def degree(self) -> int:
        return len(self.points)


@dataclass
class FilterStage:
    """Bookkeeping for one membership stage (Corollary-style n_k * d_k)."""

    candidate_dimension: int
    against_dimension: int
    candidates: int
    degree: int
    paths_tracked: int
    removed: int


def points_match(a, b, tol: float = MATCH_TOL, floor: float = MATCH_FLOOR) -> bool:
    """Coordinate-wise relative match with an absolute floor."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    scale = max(1.0, float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) <= max(floor, tol * scale)


def membership_targets(w: WitnessSet, q) -> EmbeddedSystem:
    """The witness embedding with hyperplane constants moved so every
    hyperplane passes through q (with slack variables at zero)."""
    q = np.asarray(q, dtype=np.complex128)
    constants = []
    for row in w.embedding.hyper_coeffs:
        coeffs = np.asarray(row[1:], dtype=np.complex128)
        constants.append(-np.dot(coeffs, q))
    return w.embedding.with_hyper_constants(constants)


def membership_test(w: WitnessSet, q) -> bool:
    """Track the generic points of w, as one batch, toward hyperplanes
    through q; membership holds iff some endpoint coincides with q.

    Candidates that already sit on a witness point short-circuit to
    True without tracking (zero-length deformation).
    """
    q = np.asarray(q, dtype=np.complex128)
    n = w.embedding.n_original
    if q.shape != (n,):
        raise ValueError(f"candidate has dimension {q.shape}, expected {n}")
    for s in w.points:
        if points_match(s.coordinates[:n], q):
            return True
    target = membership_targets(w, q).system
    h = LinearHomotopy(w.embedding.system, target)
    results = track_paths(h, np.array([s.coordinates for s in w.points]))
    any_success = False
    for r in results:
        if not r.succeeded or r.endpoint is None:
            continue
        any_success = True
        if points_match(r.endpoint.coordinates[:n], q):
            return True
    if not any_success:
        raise MembershipIndeterminate(
            f"all {len(results)} membership paths failed for dimension {w.dimension}"
        )
    return False


def _membership_stage(
    w: WitnessSet,
    candidates: list[Solution],
    candidate_dimension: int,
    p: int,
) -> tuple[list[Solution], FilterStage]:
    """Test every candidate against w on one crew; returns the
    candidates not on w's component and the stage's bookkeeping.
    Indeterminate tests keep the candidate (a false positive only adds
    a suspect later; a false negative would lose a component); a test
    that raised fails the run with a RuntimeError."""
    n = w.embedding.n_original
    queries = [c.coordinates[:n] for c in candidates]

    def test(q) -> bool:
        try:
            return membership_test(w, q)
        except MembershipIndeterminate:
            return False

    verdicts = raise_failures(work_crew(queries, p, test), "membership test")
    kept = [c for c, member in zip(candidates, verdicts) if not member]
    tracked = w.degree * sum(
        1 for q in queries if not any(points_match(s.coordinates[:n], q) for s in w.points)
    )
    stage = FilterStage(candidate_dimension, w.dimension, len(candidates), w.degree, tracked,
                        len(candidates) - len(kept))
    return kept, stage


def _restricted_regular(emb: EmbeddedSystem, sol: Solution) -> bool:
    """Regularity of a zero-slack point as a solution of the embedding
    restricted to zero slacks (full column rank of the sliced Jacobian)."""
    n = emb.n_original
    sliced = slice_to_zero(emb)
    J = jacobian(sliced, sol.coordinates[:n])
    _, rank = condition_and_rank(J)
    return rank == n


def _dedup(points: list[Solution], n: int | None = None) -> list[Solution]:
    """Cluster by the matching tolerance; lowest residual represents."""
    kept: list[Solution] = []
    for s in sorted(points, key=lambda s: s.residual):
        coords = s.coordinates if n is None else s.coordinates[:n]
        if not any(
            points_match(coords, k.coordinates if n is None else k.coordinates[:n])
            for k in kept
        ):
            kept.append(s)
    return kept


def filter_junk(
    superset: WitnessSuperset, p: int = 1
) -> tuple[list[WitnessSet], list[FilterStage]]:
    """Remove candidates lying on higher dimensional components.

    Returns confirmed witness sets for every positive dimension with at
    least one surviving generic point, top dimension first, plus the
    per-stage path accounting.  Indeterminate memberships keep the
    candidate (a false positive only adds a suspect later; a false
    negative would lose a component).
    """
    witness_sets: list[WitnessSet] = []
    stages: list[FilterStage] = []
    n = superset.embedding.n_original
    for level in superset.levels:
        d = level.dimension
        if d == 0:
            continue
        candidates = _dedup(list(level.zero_slack), n)
        for w in witness_sets:
            if not candidates:
                break
            candidates, stage = _membership_stage(w, candidates, d, p)
            stages.append(stage)
        survivors = [c for c in candidates if _restricted_regular(level.embedding, c)]
        if survivors:
            witness_sets.append(
                WitnessSet(d, level.embedding, survivors, label=f"dimension-{d}")
            )
    return witness_sets, stages


def _refine_isolated(base_system, cand: Solution) -> tuple[Solution, bool]:
    """Refine a dimension-0 candidate against the base system; True when
    its Jacobian there has full rank."""
    refined = newton_refine(base_system, cand.coordinates, tol=1e-13, max_iters=8)
    # points on multiple components stall at ~sqrt(eps) in double
    # precision, right at the rank threshold; double-double Newton
    # settles the regularity question (linear rate needs the extra
    # iterations to push a 1e-7 defect decisively below 1e-8)
    polished = refine_dd(base_system, refined.coordinates, steps=12)
    remeasured = newton_refine(base_system, polished, tol=0.0, max_iters=0)
    if remeasured.residual <= max(refined.residual * 10, 1e-12):
        refined = remeasured
    _, rank = condition_and_rank(jacobian(base_system, refined.coordinates))
    return refined, rank == base_system.nvars


def classify_isolated(
    candidates: list[Solution],
    witness_sets: list[WitnessSet],
    base_system,
    p: int = 1,
) -> tuple[list[Solution], list[Solution], list[FilterStage]]:
    """Split dimension-0 candidates into regular isolated solutions and
    singular suspects, running singular candidates through membership
    tests against each witness set from the highest dimension down,
    until no candidate is left; a stage with no candidate is not run or
    listed.  The candidates are refined on one crew, as jobs."""
    regular: list[Solution] = []
    singular: list[Solution] = []
    refine = lambda cand: _refine_isolated(base_system, cand)  # noqa: E731
    for refined, is_regular in raise_failures(
        work_crew(candidates, p, refine), "refining a dimension-0 candidate"
    ):
        (regular if is_regular else singular).append(refined)
    regular = _dedup(regular)
    singular = _dedup(singular)
    stages: list[FilterStage] = []
    for w in sorted(witness_sets, key=lambda w: -w.dimension):
        if not singular:
            break
        singular, stage = _membership_stage(w, singular, 0, p)
        stages.append(stage)
    return regular, singular, stages
