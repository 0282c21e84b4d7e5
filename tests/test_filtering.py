"""Refining dimension-0 candidates, deduplicating points, the stacked
membership stages, and the failure policy of the cascade's crews and
the membership stages."""

import json

import numpy as np
import pytest

from nidpipe import cascade, cli, filtering, polyhedral, tracker
from nidpipe.blackbox import decompose
from nidpipe.filtering import (
    MembershipIndeterminate,
    _dedup,
    _refine_isolated,
    membership_test,
)
from nidpipe.report import report_to_json, summary_text
from nidpipe.systems import cyclic, demo_system
from nidpipe.tracker import (
    CONVERGED,
    FAILED,
    PathResult,
    SliceHomotopy,
    Solution,
    guard_jumps,
    matching,
    retracker,
    track_paths,
)

NEAR = 1e-7 * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
CYCLIC4_DIM1 = ["bench", "cyclic", "--n", "4", "--dim", "1", "--seed", "7", "--tasks", "1"]


@pytest.mark.parametrize("t", [0.5, 0.3 + 0.2j, -1.2 + 0.7j, 2.0, 3.0 + 1.0j])
def test_refining_a_point_near_a_line_keeps_it_where_it_was(t):
    # (4, 2, 1, t) is a line of the demo system; the double-double polish
    # can slide a point on it far along the line
    start = np.array([4, 2, 1, t]) + NEAR
    ((refined, regular),) = _refine_isolated(demo_system(), [Solution(start, 1e-7, 1e8)])
    assert not regular
    assert np.linalg.norm(refined.coordinates - start) <= 1.0


def test_a_cascade_job_that_raises_fails_the_run(monkeypatch):
    real = cascade.track_paths
    calls = []

    def raises_after_the_continuation(h, x0):
        calls.append(len(x0))
        if len(calls) > 1:
            raise ValueError("injected cascade failure")
        return real(h, x0)

    monkeypatch.setattr(cascade, "track_paths", raises_after_the_continuation)
    with pytest.raises(RuntimeError, match="injected cascade failure"):
        decompose(cyclic(4), top_dimension=1, seed=7, tasks=1)
    assert len(calls) == 2


def test_a_membership_test_that_raises_fails_the_run(monkeypatch, capsys):
    def raises(w, queries):
        raise ValueError("injected membership failure")

    monkeypatch.setattr(filtering, "membership_verdicts", raises)
    assert cli.main(CYCLIC4_DIM1) == cli.EXIT_SOLVE
    assert "injected membership failure" in capsys.readouterr().err


def test_an_indeterminate_membership_test_keeps_the_candidate(monkeypatch):
    def indeterminate(w, queries):
        return [None] * len(queries), w.degree * len(queries), 0

    monkeypatch.setattr(filtering, "membership_verdicts", indeterminate)
    rep = decompose(cyclic(4), top_dimension=1, seed=7, tasks=1)
    assert rep.degrees == {1: 4}
    assert rep.suspects


def test_each_membership_stage_of_the_demo_is_one_batch_with_one_candidate_verdicts(monkeypatch):
    # every stage of the solver tracks through ``cascade.track_paths``:
    # count the batches tracked while a membership stage runs; a stage
    # is as few batches of at most PATH_CAP paths as hold its paths
    stages, batches, testing = [], [], []
    verdicts, track_paths = filtering.membership_verdicts, cascade.track_paths

    def recorded(w, queries):
        testing.append(w)
        batches.append([])
        try:
            out = verdicts(w, queries)
        finally:
            testing.pop()
        stages.append((w, queries, out[0]))
        return out

    def counted(h, x0):
        if testing:
            batches[-1].append(len(x0))
        return track_paths(h, x0)

    monkeypatch.setattr(filtering, "membership_verdicts", recorded)
    monkeypatch.setattr(cascade, "track_paths", counted)
    rep = decompose(demo_system(), top_dimension=3, seed=7, tasks=1)
    assert len(stages) == len(rep.filter_stages) == 6
    assert [sum(b) for b in batches] == [s.paths_tracked for s in rep.filter_stages]
    assert [len(b) for b in batches] == [-(-s.paths_tracked // cascade.PATH_CAP) for s in rep.filter_stages]
    assert max(map(max, batches)) <= cascade.PATH_CAP < max(s.paths_tracked for s in rep.filter_stages)
    for w, queries, stacked in list(stages):
        alone = []
        for q in queries:
            try:
                alone.append(membership_test(w, q))
            except MembershipIndeterminate:
                alone.append(None)
        assert alone == stacked


def test_the_demo_polishes_each_batch_and_refines_each_cascade_level_in_one_stacked_pass(monkeypatch):
    # ``track_paths`` polishes its endpoints in one ``_finish`` call after
    # its stepping loop; each cascade level's endpoints are one stacked
    # ``newton_refine``, and the isolated candidates two, around their
    # double-double polish
    finishes, newtons, refines = [], [], {"cascade": 0, "filtering": 0}
    track_paths, finish, damped_newton = tracker.track_paths, tracker._finish, tracker._damped_newton

    def counted_track(*args, **kwargs):
        finishes.append(0)
        return track_paths(*args, **kwargs)

    def counted_finish(*args):
        finishes[-1] += 1
        return finish(*args)

    def counted_newton(*args):
        newtons.append(len(args[1]))
        return damped_newton(*args)

    for module in (tracker, cascade, polyhedral):
        monkeypatch.setattr(module, "track_paths", counted_track)
    monkeypatch.setattr(tracker, "_finish", counted_finish)
    monkeypatch.setattr(tracker, "_damped_newton", counted_newton)
    for name, module in (("cascade", cascade), ("filtering", filtering)):
        def counted_refine(*args, _name=name, _real=module.newton_refine, **kwargs):
            refines[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "newton_refine", counted_refine)
    rep = decompose(demo_system(), top_dimension=3, seed=7, tasks=1)
    assert rep.isolated and finishes and max(finishes) == 1
    assert refines == {"cascade": len(rep.cascade_counts), "filtering": 2}
    assert len(newtons) <= 20 and sum(newtons) >= rep.top_stats.continuation_paths


def _scalar_dedup(points, n=None):
    kept = []
    for s in sorted(points, key=lambda s: s.residual):
        if not any(matching(s.coordinates[:n], k.coordinates[:n]) for k in kept):
            kept.append(s)
    return kept


@pytest.mark.parametrize("seed", range(4))
def test_dedup_keeps_what_the_scalar_rule_keeps(seed):
    # clusters around centers of very different sizes, spread around the
    # matching tolerance, so some points merge and some do not
    rng = np.random.default_rng(seed)
    points = []
    for center in rng.normal(size=(8, 3)) * 10.0 ** rng.integers(-2, 4, size=(8, 1)):
        scale = max(1.0, np.max(np.abs(center)))
        for _ in range(6):
            jitter = rng.normal(size=3) + 1j * rng.normal(size=3)
            coords = center + jitter * scale * 10.0 ** rng.uniform(-9, -5)
            points.append(Solution(coords, float(rng.uniform(0, 1e-10)), 1.0))
    for n in (None, 2):
        kept = _dedup(points, n)
        assert [id(s) for s in kept] == [id(s) for s in _scalar_dedup(points, n)]
        assert 8 < len(kept) < len(points)


# -- the jump guard of each stage ----------------------------------------------


def _jump_in_the_continuation(monkeypatch, stick=False):
    """Make the second converged regular path of the continuation end on
    the first one's root, as a path that jumped does; with ``stick`` the
    re-track gives the same endpoints back.  Returns the list of index
    arrays re-tracked, per stage."""
    real_crew, real_retracker = cascade.work_crew, cascade.retracker
    retracked, jumped = [], []

    def crew(chunks, p, worker):
        outs = real_crew(chunks, p, worker)
        # the first crew of path indices is the continuation; the start
        # system's last batch of cells is a crew before it
        if not jumped and isinstance(chunks[0], np.ndarray):
            # path k of the stage is path k // m of chunk k % m, of m chunks
            m = len(chunks)
            results = [None] * sum(map(len, outs))
            for c, out in enumerate(outs):
                results[c::m] = out
            i, j = [k for k, r in enumerate(results) if r.status == CONVERGED and r.endpoint.is_regular][:2]
            results[j] = outs[j % m][j // m] = results[i]
            jumped.append(results)
        return outs

    def retracker(h, starts):
        again = real_retracker(h, starts)

        def retrack(idx):
            retracked.append(list(idx))
            return [jumped[0][i] for i in idx] if stick else again(idx)

        return retrack

    monkeypatch.setattr(cascade, "work_crew", crew)
    monkeypatch.setattr(cascade, "retracker", retracker)
    return retracked, jumped


def _stage_bits(results, jumps):
    return jumps, [
        (r.status, r.steps_used, r.t_reached, None if r.endpoint is None else r.endpoint.coordinates.tobytes())
        for r in results
    ]


def _demo_stages(monkeypatch):
    """The demo's continuation and its membership stages, as the
    (h, starts, p, groups) of their ``track_stage`` calls."""
    calls = []
    for module in (cascade, filtering):
        real = module.track_stage

        def recorded(h, starts, p, groups=None, real=real):
            calls.append((h, starts, p, groups))
            return real(h, starts, p, groups)

        monkeypatch.setattr(module, "track_stage", recorded)
    decompose(demo_system(), top_dimension=3, seed=7, tasks=1)
    monkeypatch.undo()
    return calls[0], [c for c in calls if c[3] is not None]


def test_a_stage_gives_the_bits_of_one_guarded_batch_on_any_number_of_workers(monkeypatch):
    # the demo's continuation and its first membership stage, each against
    # one ``track_paths`` batch guarded by hand; with a cap of 16 paths the
    # continuation's 61 are 4 chunks, which p = 2 and 3 fork
    track_stage = cascade.track_stage
    continuation, membership = _demo_stages(monkeypatch)
    monkeypatch.setattr(cascade, "PATH_CAP", 16)
    for h, starts, p, groups in (continuation, membership[0]):
        reference = _stage_bits(*guard_jumps(track_paths(h, starts), retracker(h, starts), groups))
        assert len(reference[1]) == len(starts) > 1
        for p in (1, 2, 3) if groups is None else (1,):
            assert _stage_bits(*track_stage(h, starts, p, groups)) == reference


def test_a_stage_within_the_cap_is_one_chunk_and_a_larger_one_is_at_least_one_per_worker(monkeypatch):
    # the demo's 61-path continuation, its crews run in this process:
    # only the number of chunks is looked at, and the bits stay those of
    # one batch
    h, starts, _, _ = _demo_stages(monkeypatch)[0]
    reference = _stage_bits(*guard_jumps(track_paths(h, starts), retracker(h, starts)))
    chunks = []
    real_crew = cascade.work_crew
    monkeypatch.setattr(cascade, "work_crew", lambda jobs, p, worker: chunks.append(len(jobs)) or real_crew(jobs, 1, worker))
    for cap, p, k in ((61, 2, 1), (61, 4, 1), (60, 1, 2), (60, 3, 3), (16, 1, 4), (16, 2, 4), (16, 6, 6)):
        monkeypatch.setattr(cascade, "PATH_CAP", cap)
        assert _stage_bits(*cascade.track_stage(h, starts, p)) == reference
        assert chunks.pop() == k


def test_a_membership_stage_in_chunks_on_two_workers_gives_the_bits_of_one_guarded_batch(monkeypatch):
    # a SliceHomotopy holds one shift row per path: each chunk must track
    # its own rows of it
    h, starts, _, groups = max(_demo_stages(monkeypatch)[1], key=lambda c: len(c[1]))
    assert isinstance(h, SliceHomotopy)
    reference = _stage_bits(*guard_jumps(track_paths(h, starts), retracker(h, starts), groups))
    monkeypatch.setattr(cascade, "PATH_CAP", 16)
    chunks = []
    real_crew = cascade.work_crew
    monkeypatch.setattr(cascade, "work_crew", lambda jobs, p, worker: chunks.append(jobs) or real_crew(jobs, p, worker))
    assert _stage_bits(*cascade.track_stage(h, starts, 2, groups)) == reference
    assert len(chunks[0]) == -(-len(starts) // 16) > 2


def test_a_path_that_jumped_is_retracked_alone_and_the_payload_is_task_independent(monkeypatch):
    reference = decompose(cyclic(4), top_dimension=1, seed=7, tasks=1)
    payloads = []
    for tasks in (1, 2):
        retracked, jumped = _jump_in_the_continuation(monkeypatch)
        rep = decompose(cyclic(4), top_dimension=1, seed=7, tasks=tasks)
        first = [k for k, r in enumerate(jumped[0]) if r.status == CONVERGED and r.endpoint.is_regular][:2]
        assert retracked == [first]
        assert rep.degrees == reference.degrees == {1: 4} and not rep.warnings
        payloads.append(report_to_json(rep).replace(f'"tasks": {tasks}', '"tasks": 0'))
    assert payloads[0] == payloads[1]


def test_paths_that_still_coincide_after_the_retrack_give_a_warning(monkeypatch):
    retracked, _ = _jump_in_the_continuation(monkeypatch, stick=True)
    rep = decompose(cyclic(4), top_dimension=1, seed=7, tasks=1)
    assert len(retracked) == 1
    (warning,) = rep.warnings
    assert warning.startswith("continuation: 2 paths end on a regular root shared with another path")
    assert f"WARNING: {warning}" in summary_text(rep)


def test_a_failed_start_path_gives_a_warning(monkeypatch):
    # the first path of the first batch fails: the run says so, the
    # payload counts it, and the text summary names it and lists each
    # cascade level's failed paths
    real = cascade.solve_cell

    def first_fails(cells, g, supports):
        results = real(cells, g, supports)
        if not first_fails.done:
            results[0] = PathResult(FAILED, None, results[0].steps_used, results[0].t_reached)
            first_fails.done = True
        return results

    first_fails.done = False
    monkeypatch.setattr(cascade, "solve_cell", first_fails)
    rep = decompose(cyclic(4), top_dimension=1, seed=7, tasks=1)
    assert (rep.top_stats.start_failures, rep.top_stats.start_paths, rep.top_stats.continuation_paths) == (1, 20, 19)
    assert rep.warnings == ["start system: 1 of 20 start paths failed; a point may be missing"]
    assert json.loads(report_to_json(rep))["counts"]["start_failures"] == 1
    text = summary_text(rep)
    assert "cells (1 of 20 start paths failed); 19 paths to the top system" in text.splitlines()[1]
    assert f"WARNING: {rep.warnings[0]}" in text
    assert "(starts / at infinity / zero slack / nonzero slack / failed):" in text
    for c in rep.cascade_counts:
        fields = [c[k] for k in ("at_infinity", "zero_slack", "nonzero_slack", "failures")]
        assert f"  dim {c['dimension']}: {c['starts']:>4} / " + " / ".join(f"{x:>3}" for x in fields) in text.splitlines()


def test_membership_paths_of_different_candidates_may_end_at_one_point(monkeypatch):
    # the same candidate twice, on a curve of cyclic-4: every path of the
    # first ends where the same path of the second does, and no path of
    # one candidate where another of that candidate does
    w = decompose(cyclic(4), top_dimension=1, seed=7, tasks=1).witness_sets[0]
    a = 0.3 + 0.4j
    q = np.array([a, 1 / a, -a, -1 / a])
    retracked = []
    real = cascade.retracker  # membership stages are guarded by ``cascade.track_stage``
    monkeypatch.setattr(
        cascade, "retracker", lambda h, x0: lambda idx: retracked.append(idx) or real(h, x0)(idx)
    )
    verdicts, paths, jumps = filtering.membership_verdicts(w, [q, q])
    assert verdicts == [True, True] and paths == 2 * w.degree and jumps == 0
    assert retracked == []
