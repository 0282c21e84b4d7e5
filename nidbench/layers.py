"""Per-layer metrics: the catalogue, and how each one is derived from a
traced run.

Every entry names the end-to-end metric and the workload it should
move; the traced run prints that next to the value.  A metric whose
layer does no work on a workload reads 0 and is listed in the run's
"not measured" notes with the reason.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from nidpipe import parallel
from nidpipe.linalg import condition_and_rank, newton_step
from nidpipe.polynomials import eval_system, jacobian
from nidpipe.tracker import AT_INFINITY, CONVERGED, FAILED, SINGULAR_ENDPOINT

from spans import EMIT, Tracer

STATUSES = (CONVERGED, AT_INFINITY, SINGULAR_ENDPOINT, FAILED)
STAGES = ("start_system", "continuation", "cascade", "filter")

_SETUP = "setup_s on every workload"
_POLY = "solve_s on rootcount-cyclic (all of its time); barely on cyclic6-d0-t1 and demo-d3-t2"
_TRACK = "solve_s on cyclic6-d0-t1 and demo-d3-t2, not on rootcount-cyclic; failed_path_ratio where paths are tracked"
_DD = "solve_s most on cyclic6-d0-t1, then demo-d3-t2, not on rootcount-cyclic"
_CASCADE = "solve_s on demo-d3-t2; cascade_s is ~0 on cyclic6-d0-t1"
_FILTER = "solve_s on demo-d3-t2"
_PARALLEL = "solve_s and peak_rss_mb on demo-d3-t2; no change on the single-process workloads"

# (name, unit, better, the end-to-end metric and workload it should move)
CATALOGUE = [
    ("setup.import_s", "s", "lower", _SETUP),
    ("setup.parse_ms", "ms", "lower", _SETUP),
    ("systems.embed_ms", "ms", "lower", "solve_s on demo-d3-t2 and cyclic6-d0-t1 (square_up and embed)"),
    ("polyhedral.cells", "count", "lower", _POLY),
    ("polyhedral.enumerate_self_s", "s", "lower", _POLY),
    ("polyhedral.cells_per_s", "1/s", "higher", _POLY),
    ("polyhedral.solve_cell_s", "s", "lower", "solve_s on cyclic6-d0-t1 and demo-d3-t2 (paths of the start system)"),
    ("polyhedral.lifting_attempts", "count", "lower", _POLY + "; outer attempts of the caller only"),
    ("polyhedral.relifts", "count", "lower", _POLY + "; relifts inside enumerate_cells"),
    ("polyhedral.self_s", "s", "lower", _POLY),
    ("tracker.paths", "count", "lower", _TRACK),
    *[(f"tracker.paths.{s}", "count", "lower" if s == FAILED else "higher", _TRACK) for s in STATUSES],
    ("tracker.steps", "count", "lower", _TRACK),
    ("tracker.path_ms.p50", "ms", "lower", _TRACK),
    ("tracker.path_ms.p99", "ms", "lower", _TRACK),
    ("tracker.step_us", "us", "lower", _TRACK),
    ("tracker.track_s", "s", "lower", _TRACK),
    ("tracker.self_s", "s", "lower", _TRACK),
    ("polynomials.eval_us", "us", "lower", _TRACK),
    ("polynomials.jac_us", "us", "lower", _TRACK),
    ("linalg.newton_step_us", "us", "lower", _TRACK),
    ("linalg.condition_and_rank_us", "us", "lower", _TRACK),
    ("dd.refine_dd.calls", "count", "lower", _DD),
    ("dd.refine_dd_s", "s", "lower", _DD),
    ("dd.refine_dd_ms", "ms", "lower", _DD),
    ("cascade.start_system_s", "s", "lower", _CASCADE),
    ("cascade.continuation_s", "s", "lower", _CASCADE),
    ("cascade.cascade_s", "s", "lower", _CASCADE),
    ("cascade.steps", "count", "lower", _CASCADE),
    ("cascade.level_paths", "count", "lower", _CASCADE),
    ("cascade.self_s", "s", "lower", _CASCADE),
    ("filtering.membership_tests", "count", "lower", _FILTER),
    ("filtering.membership_paths", "count", "lower", _FILTER),
    ("filtering.membership_ms.p50", "ms", "lower", _FILTER),
    ("filtering.removed_ratio", "ratio", "higher", _FILTER),
    ("filtering.classify_isolated_s", "s", "lower", "solve_s on cyclic6-d0-t1"),
    ("filtering.self_s", "s", "lower", _FILTER),
    ("parallel.crews", "count", "lower", _PARALLEL),
    ("parallel.crews_forking", "count", "lower", _PARALLEL),
    ("parallel.processes_forked", "count", "lower", _PARALLEL),
    ("parallel.crew_s", "s", "lower", _PARALLEL),
    ("parallel.pipeline_s", "s", "lower", _PARALLEL),
    ("parallel.pipeline.producer_blocked_s", "s", "lower", _PARALLEL),
    ("parallel.fork_roundtrip_ms", "ms", "lower", _PARALLEL),
    ("parallel.self_s", "s", "lower", _PARALLEL),
    *[
        (f"parallel.speedup.{stage}.{kind}", "x", "higher", _PARALLEL)
        for stage in STAGES
        for kind in ("measured", "model")
    ],
    ("error_ratio", "ratio", "lower", "itself, on every workload: solves that raised, timed out or failed the known-answer check"),
    ("failed_path_ratio", "ratio", "lower", "itself, on demo-d3-t2 and cyclic6-d0-t1; 0 on rootcount-cyclic"),
    ("trace.solve_s", "s", "lower", "none: solve_s of the traced solve"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced solve_s"),
]
UNITS = {name: unit for name, unit, _, _ in CATALOGUE}
MOVES = {name: moves for name, _, _, moves in CATALOGUE}


def _p(values, q: int) -> float:
    """q-th percentile; the single value when there is one sample."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def per_call_us(fn, calls: int = 300, repeats: int = 5) -> float:
    """Median over repeats of the mean time of one call, in microseconds."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def kernel_metrics(system, seed: int) -> dict[str, float]:
    """Evaluation, Jacobian, Newton step and condition estimate at one
    point derived from the seed, on the workload's own embedded system."""
    gen = np.random.default_rng(seed)
    x = gen.normal(size=system.nvars) + 1j * gen.normal(size=system.nvars)
    r = eval_system(system, x)
    J = jacobian(system, x)
    return {
        "polynomials.eval_us": per_call_us(lambda: eval_system(system, x)),
        "polynomials.jac_us": per_call_us(lambda: jacobian(system, x)),
        "linalg.newton_step_us": per_call_us(lambda: newton_step(J, r)),
        "linalg.condition_and_rank_us": per_call_us(lambda: condition_and_rank(J)),
    }


def _nothing(job):
    return None


def fork_roundtrip_ms(repeats: int = 5) -> float:
    """Median time of an empty 2-job process work crew at p=2."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        parallel.work_crew([0, 1], 2, _nothing, mode="process")
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _forks(span) -> int:
    """Processes the crew or pipeline behind a span forked."""
    if span.name == "parallel.pipeline_run":
        cfg = span.args[2]
        return cfg.p - 1 if cfg.mode == "process" else 0
    jobs, p = span.args[0], span.args[1]
    mode = span.kwargs.get("mode", span.args[3] if len(span.args) > 3 else "thread")
    if mode != "process" or p < 2 or len(jobs) < 2:
        return 0
    return min(p, len(jobs))


def path_metrics(tr: Tracer) -> dict[str, float]:
    """Polyhedral, tracker, dd, cascade and filtering numbers from a run
    whose paths were all tracked in this process."""
    m: dict[str, float] = {}
    enum = tr.named("polyhedral.enumerate_cells")
    emits = tr.named(EMIT)
    lifts = tr.named("polyhedral.lift_supports")
    enumerate_self = sum(s.seconds for s in enum) - sum(s.seconds for s in emits)
    m["polyhedral.cells"] = len(emits)
    m["polyhedral.enumerate_self_s"] = enumerate_self
    m["polyhedral.cells_per_s"] = len(emits) / enumerate_self if enumerate_self > 0 else 0.0
    m["polyhedral.solve_cell_s"] = sum(s.seconds for s in tr.named("polyhedral.solve_cell"))
    relifts = [s for s in lifts if s.parent is not None and s.parent.name == "polyhedral.enumerate_cells"]
    m["polyhedral.lifting_attempts"] = len(lifts) - len(relifts)
    m["polyhedral.relifts"] = len(relifts)

    paths = tr.named("tracker.track")
    ms = [s.seconds * 1e3 for s in paths]
    steps = sum(s.result.steps_used for s in paths if not s.raised)
    m["tracker.paths"] = len(paths)
    for status in STATUSES:
        m[f"tracker.paths.{status}"] = sum(1 for s in paths if not s.raised and s.result.status == status)
    m["tracker.steps"] = steps
    m["tracker.path_ms.p50"] = _p(ms, 50)
    m["tracker.path_ms.p99"] = _p(ms, 99)
    m["tracker.track_s"] = sum(ms) / 1e3
    m["tracker.step_us"] = m["tracker.track_s"] / steps * 1e6 if steps else 0.0

    dd = tr.named("dd.refine_dd")
    m["dd.refine_dd.calls"] = len(dd)
    m["dd.refine_dd_s"] = sum(s.seconds for s in dd)
    m["dd.refine_dd_ms"] = _p([s.seconds * 1e3 for s in dd], 50)

    m["cascade.steps"] = len(tr.named("cascade.cascade_step"))
    m["cascade.level_paths"] = sum(1 for s in paths if s.within("cascade.cascade_step"))

    tests = tr.named("filtering.membership_test")
    m["filtering.membership_tests"] = len(tests)
    m["filtering.membership_paths"] = sum(1 for s in paths if s.within("filtering.membership_test"))
    m["filtering.membership_ms.p50"] = _p([s.seconds * 1e3 for s in tests], 50)
    removed = sum(1 for s in tests if not s.raised and s.result)
    m["filtering.removed_ratio"] = removed / len(tests) if tests else 0.0
    m["filtering.classify_isolated_s"] = sum(s.seconds for s in tr.named("filtering.classify_isolated"))
    m["systems.embed_ms"] = 1e3 * sum(s.seconds for s in tr.spans if s.layer == "systems")
    return m


def parallel_metrics(tr: Tracer) -> dict[str, float]:
    """Crew and pipeline numbers from the parent's spans.  Of the
    program's PipelineStats only producer_blocked is read: in process
    mode first_consume_before_last_produce is not measured and
    consumer_idle is never set."""
    crews = tr.named("parallel.work_crew")
    pipes = tr.named("parallel.pipeline_run")
    return {
        "parallel.crews": len(crews),
        "parallel.crews_forking": sum(1 for s in crews if _forks(s)),
        "parallel.processes_forked": sum(_forks(s) for s in crews + pipes),
        "parallel.crew_s": sum(s.seconds for s in crews),
        "parallel.pipeline_s": sum(s.seconds for s in pipes),
        # measured by the program around each blocking put
        "parallel.pipeline.producer_blocked_s": sum(
            s.result[1].producer_blocked for s in pipes if not s.raised
        ),
    }


def self_times(tr: Tracer, layers) -> dict[str, float]:
    own = tr.layer_self_s()
    return {f"{layer}.self_s": own.get(layer, 0.0) for layer in layers}


def speedups(rep_1, rep_p, m_1: dict, p: int) -> tuple[dict[str, float], dict[str, str]]:
    """Measured S_p = T_1 / T_p of each stage next to the analytic model
    evaluated on the run's own counts; ``m_1`` holds the path metrics of
    the tasks=1 solve."""
    t1, tp = rep_1.timings, rep_p.timings
    measured = {
        "start_system": t1.start_system / tp.start_system,
        "continuation": t1.continuation / tp.continuation,
        "cascade": t1.cascade / tp.cascade,
        "filter": t1.filtering / tp.filtering,
    }
    cells = m_1["polyhedral.cells"]
    # solve_cell time per cell over enumeration self time per cell
    F = m_1["polyhedral.solve_cell_s"] / m_1["polyhedral.enumerate_self_s"]
    levels = [c["starts"] for c in rep_p.cascade_counts[1:]]
    stages = rep_p.filter_stages
    model = {
        "start_system": float(parallel.pipeline_speedup(cells, F, p)[2]),
        "continuation": float(parallel.path_speedup(rep_p.top_stats.continuation_paths, p)[1]),
        "cascade": float(parallel.cascade_speedup(levels, p).sp),
        "filter": float(
            parallel.filter_speedup([s.candidates for s in stages], [s.degree for s in stages], p).sp
        ),
    }
    inputs = {
        "start_system": f"pipeline_speedup(n={cells} cells, F={F:.3f}, p={p})",
        "continuation": f"path_speedup(n={rep_p.top_stats.continuation_paths}, p={p})",
        "cascade": f"cascade_speedup(starts={levels}, p={p})",
        "filter": "filter_speedup(candidates={}, degrees={}, p={})".format(
            [s.candidates for s in stages], [s.degree for s in stages], p
        ),
    }
    out = {}
    for stage in STAGES:
        out[f"parallel.speedup.{stage}.measured"] = measured[stage]
        out[f"parallel.speedup.{stage}.model"] = model[stage]
    return out, inputs
