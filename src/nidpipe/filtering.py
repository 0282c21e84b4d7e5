"""Homotopy membership tests and junk removal.

A candidate point lies on a component represented by a witness set iff
moving the witness hyperplanes to pass through the candidate carries
some generic point onto it.  Filtering runs top-down: candidates at
dimension d are tested against every confirmed witness set of higher
dimension, survivors with a regular restricted Jacobian form the
dimension-d witness set, and dimension-0 candidates split into regular
isolated solutions and singular suspects that run the same chain of
stages, ``_membership_chain``.

Each (candidate level, witness set) pair is one stage: every witness
point moves toward the hyperplanes through every candidate not already
on one, and these n_k * d_k paths (the count ``filter_speedup`` models)
are one ``track_stage`` on a ``SliceHomotopy`` with one worker, in
chunks of at most ``PATH_CAP`` paths in the calling process.  The paths
of one candidate share a target, so ``guard_jumps`` checks each
candidate's group for paths that jumped; paths of different candidates
may end at one point.  Points match by the tracker's one rule,
``matching``.  A stage that raises fails the run with its own error,
which the command line reports as a failed solve.  The dimension-0
candidates are polished in one batched ``refine_dd`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import CascadeLevel, track_stage
from .linalg import condition_and_rank
from .parallel import work_crew  # noqa: F401  (a module attribute for tracing tools)
from .systems import EmbeddedSystem, slice_to_zero
from .tracker import (  # noqa: F401  (``track`` stays a module attribute for tracing tools)
    SliceHomotopy,
    Solution,
    _coinciding,
    matching,
    newton_refine,
    refine_dd,
    track,
)


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
    jumps: int = 0  # paths whose endpoints still coincide after the re-track


def membership_verdicts(w: WitnessSet, queries) -> tuple[list[bool | None], int, int]:
    """Whether each candidate q of queries lies on w's component, the
    number of paths tracked, and the number of paths whose endpoints
    still coincide after ``guard_jumps`` (grouped by candidate).

    Shifting their constants moves the hyperplanes of w through q (with
    slack variables at zero), for all candidates in one batch of one
    path per (candidate, witness point).  Membership holds iff one of
    q's endpoints coincides with q, and is None (indeterminate) when all
    its paths failed.  A candidate that already sits on a witness point
    is a member without tracking (zero-length deformation).
    """
    n = w.embedding.n_original
    queries = np.array(queries, dtype=np.complex128).reshape(-1, n)
    points = np.array([s.coordinates for s in w.points])
    moved = np.flatnonzero(~matching(points[None, :, :n], queries[:, None]).any(axis=1))
    hyper = np.array(w.embedding.hyper_coeffs)
    shift = np.zeros((len(moved), w.embedding.nvars), dtype=np.complex128)
    for row, q in zip(shift, queries[moved]):
        row[n:] = -(hyper[:, 1:] @ q) - hyper[:, 0]
    h = SliceHomotopy(w.embedding.system, np.repeat(shift, w.degree, axis=0))
    candidate = np.repeat(np.arange(len(moved)), w.degree)
    results, jumps = track_stage(h, np.tile(points, (len(moved), 1)), 1, candidate)
    ok = np.array([r.succeeded for r in results], dtype=bool).reshape(len(moved), w.degree)
    ends = np.array([r.endpoint.coordinates[:n] if r.succeeded else np.zeros(n) for r in results],
                    dtype=np.complex128).reshape(len(moved), w.degree, n)
    landed = (matching(ends, queries[moved][:, None]) & ok).any(axis=1)
    verdicts: list[bool | None] = [True] * len(queries)
    for i, hit, tracked in zip(moved, landed, ok.any(axis=1)):
        verdicts[i] = bool(hit) if tracked else None
    return verdicts, len(results), jumps


def membership_test(w: WitnessSet, q) -> bool:
    """The one-candidate case of ``membership_verdicts``; indeterminate raises."""
    (verdict,), paths, _ = membership_verdicts(w, [q])
    if verdict is None:
        raise MembershipIndeterminate(f"all {paths} membership paths failed at dim {w.dimension}")
    return verdict


def _membership_chain(
    candidates: list[Solution], witness_sets: list[WitnessSet], d: int
) -> tuple[list[Solution], list[FilterStage]]:
    """The dimension-d candidates on no component of witness_sets, tested
    against each in turn while any is left, and one ``FilterStage`` per
    test.  An indeterminate verdict keeps the candidate (a false positive
    only adds a suspect; a false negative would lose a component)."""
    stages: list[FilterStage] = []
    for w in witness_sets:
        if not candidates:
            break
        n = w.embedding.n_original
        verdicts, tracked, jumps = membership_verdicts(w, [c.coordinates[:n] for c in candidates])
        kept = [c for c, member in zip(candidates, verdicts) if not member]
        stages.append(FilterStage(d, w.dimension, len(candidates), w.degree, tracked, len(candidates) - len(kept), jumps))
        candidates = kept
    return candidates, stages


def _restricted_regular(emb: EmbeddedSystem, sols: list[Solution]) -> list[bool]:
    """The regularity of each zero-slack point of sols as a solution of
    the embedding restricted to zero slacks (full column rank of the
    sliced Jacobian), from one stacked Jacobian."""
    n = emb.n_original
    sliced = slice_to_zero(emb)
    x = np.array([s.coordinates[:n] for s in sols]).reshape(len(sols), n)
    _, rank = condition_and_rank(sliced._jac_evaluator()(x).reshape(len(sols), len(sliced.polys), n))
    return (rank == n).tolist()


def _dedup(points: list[Solution], n: int | None = None) -> list[Solution]:
    """Cluster by the matching tolerance; lowest residual represents.
    In order of residual, a point is kept unless it matches a kept
    point (``matching`` against the kept point), which only a point
    that ``_coinciding`` finds can do."""
    ordered = sorted(points, key=lambda s: s.residual)
    if not ordered:
        return []
    coords = np.array([s.coordinates[:n] for s in ordered])
    hit = _coinciding(coords, np.zeros(len(coords), dtype=int))
    kept = ~hit
    for i in np.flatnonzero(hit):
        kept[i] = not matching(coords[i], coords[:i][kept[:i] & hit[:i]]).any()
    return [s for s, k in zip(ordered, kept) if k]


def filter_junk(levels: list[CascadeLevel]) -> tuple[list[WitnessSet], list[FilterStage]]:
    """Remove candidates lying on higher dimensional components.

    Returns confirmed witness sets for every positive dimension of the
    cascade's levels with at least one surviving generic point, top
    dimension first, plus the per-stage path accounting.
    """
    witness_sets: list[WitnessSet] = []
    stages: list[FilterStage] = []
    for level in levels:
        d = level.dimension
        if d == 0:
            continue
        candidates = _dedup(list(level.zero_slack), level.embedding.n_original)
        candidates, level_stages = _membership_chain(candidates, witness_sets, d)
        stages += level_stages
        survivors = [c for c, ok in zip(candidates, _restricted_regular(level.embedding, candidates)) if ok]
        if survivors:
            witness_sets.append(
                WitnessSet(d, level.embedding, survivors, label=f"dimension-{d}")
            )
    return witness_sets, stages


def _refine_isolated(base_system, cands: list[Solution]) -> list[tuple[Solution, bool]]:
    """Refine dimension-0 candidates against the base system; each comes
    with True when its Jacobian there has full rank.

    A singular value counts as zero below SINGULARITY_TOL times the
    largest entry of the absolute-coefficient Jacobian at |x|, the
    system's own scale there: the Jacobian at a multiple root shrinks in
    every direction, and a rank relative to its largest singular value
    would call that root regular."""
    if not cands:
        return []
    refined = newton_refine(base_system, [c.coordinates for c in cands], tol=1e-13, max_iters=8)
    # points on multiple components stall at ~sqrt(eps) in double
    # precision, right at the rank threshold; double-double Newton
    # settles the regularity question (linear rate needs the extra
    # iterations to push a 1e-7 defect decisively below 1e-8)
    polished = refine_dd(base_system, np.array([r.coordinates for r in refined]), steps=12)
    refined = [
        m if m.residual <= max(r.residual * 10, 1e-12) else r
        for r, m in zip(refined, newton_refine(base_system, polished, tol=0.0, max_iters=0))
    ]
    x = np.array([r.coordinates for r in refined])
    scale = base_system._abs_jac_evaluator()(np.abs(x).astype(np.complex128)).real.max(axis=1)
    J = base_system._jac_evaluator()(x).reshape(len(x), len(base_system.polys), base_system.nvars)
    _, rank = condition_and_rank(J, scale=scale)
    return list(zip(refined, (rank == base_system.nvars).tolist()))


def classify_isolated(
    candidates: list[Solution],
    witness_sets: list[WitnessSet],
    base_system,
) -> tuple[list[Solution], list[Solution], list[FilterStage]]:
    """Split dimension-0 candidates into regular isolated solutions and
    singular suspects, running singular candidates through membership
    tests against each witness set from the highest dimension down,
    until no candidate is left; a stage with no candidate is not run or
    listed.  The candidates are polished in one batch."""
    regular: list[Solution] = []
    singular: list[Solution] = []
    for refined, is_regular in _refine_isolated(base_system, candidates):
        (regular if is_regular else singular).append(refined)
    witness_sets = sorted(witness_sets, key=lambda w: -w.dimension)
    singular, stages = _membership_chain(_dedup(singular), witness_sets, 0)
    return _dedup(regular), singular, stages
