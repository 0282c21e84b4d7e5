"""Work crew, pipeline, and the analytic speedup models."""

import multiprocessing as mp
import os
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidpipe import cascade, parallel
from nidpipe.blackbox import decompose
from nidpipe.cascade import solve_start_system
from nidpipe.parallel import (
    JobFailure,
    PipelineConfig,
    cascade_speedup,
    filter_speedup,
    path_speedup,
    pipeline_run,
    pipeline_speedup,
    schedule_to_csv,
    simulate_pipeline,
    work_crew,
)
from nidpipe.report import Timings
from nidpipe.systems import cyclic, embed


def test_work_crew_results_align_with_jobs():
    jobs = list(range(100))
    out = work_crew(jobs, 4, lambda x: x * x)
    assert out == [x * x for x in jobs]


def test_work_crew_runs_jobs_in_forked_processes():
    pids = work_crew(list(range(4)), 2, lambda _: os.getpid())
    assert os.getpid() not in pids


@pytest.mark.parametrize(
    "call",
    [
        lambda: work_crew([0, 1], 2, lambda x: x, mode="thread"),
        lambda: PipelineConfig(p=2, mode="thread"),
        lambda: decompose(cyclic(3), top_dimension=0, seed=1, tasks=2, mode="thread"),
    ],
    ids=["work_crew", "PipelineConfig", "decompose"],
)
def test_thread_backend_is_rejected(call):
    with pytest.raises(ValueError, match="'thread'"):
        call()


def test_work_crew_p1_runs_in_order():
    order = []
    work_crew(list(range(20)), 1, lambda x: order.append(x))
    assert order == list(range(20))


def test_work_crew_failure_isolated():
    def worker(x):
        if x == 3:
            raise RuntimeError("boom")
        return x

    out = work_crew(list(range(6)), 3, worker)
    assert isinstance(out[3], JobFailure)
    assert out[3].job_index == 3
    for i in (0, 1, 2, 4, 5):
        assert out[i] == i


def test_work_crew_process_mode():
    out = work_crew(list(range(24)), 3, lambda x: x + 1, mode="process")
    assert out == [x + 1 for x in range(24)]


def test_work_crew_process_mode_failure():
    def worker(x):
        if x == 2:
            raise ValueError("nope")
        return -x

    out = work_crew(list(range(5)), 2, worker, mode="process")
    assert isinstance(out[2], JobFailure)
    assert out[0] == 0 and out[4] == -4


def _puts(items):
    """A producer that puts the items in order."""

    def produce(put):
        for item in items:
            put(item)

    return produce


def _die_on_one(x):
    if x == 1:
        os._exit(3)
    return x


def test_work_crew_process_mode_dead_worker_raises():
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="exit code 3"):
        work_crew(list(range(6)), 2, _die_on_one, mode="process")
    assert time.perf_counter() - t0 < 5.0


def test_pipeline_process_mode_dead_worker_raises(monkeypatch):
    monkeypatch.setattr(parallel, "QUEUE_CAPACITY", 2)
    cfg = PipelineConfig(p=3, mode="process")
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="exit code 3"):
        pipeline_run(_puts(range(20)), _die_on_one, cfg)
    assert time.perf_counter() - t0 < 5.0


# -- analytic models ----------------------------------------------------------


def test_pipeline_speedup_reference_values():
    t1, tp, sp = pipeline_speedup(6, 3, 4)
    assert (t1, tp) == (24, 9)
    assert sp == Fraction(24, 9)


def test_pipeline_speedup_theorem_convergence():
    for p in (2, 4, 8, 16):
        _, _, sp = pipeline_speedup(10**6, p - 1, p)
        assert abs(float(sp) - p) < 1e-3


def test_pipeline_speedup_degenerate():
    t1, tp, sp = pipeline_speedup(1, 1, 2)
    assert (t1, tp, sp) == (2, 2, 1)


def test_pipeline_speedup_errors():
    with pytest.raises(ValueError):
        pipeline_speedup(6, 3, 1)
    with pytest.raises(ValueError):
        pipeline_speedup(0, 3, 4)


def test_path_speedup_reference_values():
    assert path_speedup(3, 8) == (1, 3, 3)
    tp, sp, r = path_speedup(10, 4)
    assert (tp, sp, r) == (3, Fraction(10, 3), 2)
    assert path_speedup(8, 4) == (2, 4, 0)


@given(st.integers(1, 500), st.integers(1, 32))
def test_path_speedup_bounds(n, p):
    tp, sp, r = path_speedup(n, p)
    assert sp <= p
    assert sp == min(n, p) or (r > 0 and sp < p)
    # S_p = T_1 / T_p exactly
    assert sp == Fraction(n, 1) / tp


@given(st.integers(1, 40), st.integers(1, 16))
def test_path_speedup_exact_at_multiples(k, p):
    _, sp, r = path_speedup(k * p, p)
    assert r == 0 and sp == p


def test_cascade_speedup_demo_counts():
    res = cascade_speedup([55, 54, 50, 26], 8)
    assert res.t1 == 185 and res.tp == 25
    assert res.sp == Fraction(185, 25) == Fraction(37, 5)


def test_cascade_speedup_single_stage_matches_path_speedup():
    for n, p in [(10, 4), (8, 4), (3, 8), (1, 1)]:
        tp, sp, _ = path_speedup(n, p)
        res = cascade_speedup([n], p)
        assert (res.tp, res.sp) == (tp, sp)


def test_cascade_speedup_small_stages():
    # every stage smaller than p costs one unit
    res = cascade_speedup([2, 3, 1], 8)
    assert res.tp == 3 and res.sp == Fraction(6, 3)


def test_filter_speedup_reference():
    res = filter_speedup([4, 1, 12], [1, 1, 1], 4)
    assert res.t1 == 17 and res.tp == 5 and res.sp == Fraction(17, 5)


def test_filter_speedup_single_stage_r0():
    res = filter_speedup([12], [1], 12)
    assert res.sp == 12


def test_filter_speedup_zero_work():
    res = filter_speedup([0, 0], [1, 1], 4)
    assert res.zero_work and res.sp == 1


def test_filter_speedup_length_mismatch():
    with pytest.raises(ValueError):
        filter_speedup([1, 2], [1], 4)


@given(st.lists(st.integers(0, 60), min_size=1, max_size=6), st.integers(1, 12))
def test_filter_reduces_to_cascade_with_unit_degrees(ns, p):
    a = filter_speedup(ns, [1] * len(ns), p)
    b = cascade_speedup(ns, p)
    assert (a.t1, a.tp, a.sp) == (b.t1, b.tp, b.sp)


# -- the discrete-event simulator ---------------------------------------------


def test_simulate_reference_schedule():
    schedule, makespan = simulate_pipeline(6, 3, 4)
    assert makespan == 9
    by_worker = {}
    for s in schedule:
        by_worker.setdefault(s.worker, []).append(s)
    assert [s.job for s in by_worker[0]] == [1, 2, 3, 4, 5, 6]
    # consumers take cells greedily as they are produced
    assert [s.job for s in by_worker[1]] == [1, 4]
    assert [s.job for s in by_worker[2]] == [2, 5]
    assert [s.job for s in by_worker[3]] == [3, 6]


def test_simulate_single_consumer_serial_bottleneck():
    _, makespan = simulate_pipeline(5, 3, 2)
    assert makespan == 1 + 3 * 5


def test_simulate_free_consumers_production_bound():
    _, makespan = simulate_pipeline(7, 0, 4)
    assert makespan == 7


@given(st.integers(1, 60), st.integers(1, 10), st.integers(2, 8))
@settings(max_examples=120)
def test_simulator_within_band_of_analytic_model(n, F, p):
    _, makespan = simulate_pipeline(n, F, p)
    t1, tp, _ = pipeline_speedup(n, F, p)
    # The analytic model idealizes the fill/drain tail; the band only
    # makes sense while the consumers stay saturated (F >= p-1) and the
    # cells split evenly.  Outside that regime the pipeline is
    # production-bound and the makespan is n + F instead.
    if F >= p - 1 and n % (p - 1) == 0:
        assert float(tp) - 1 <= makespan <= float(tp) + 1
    if F <= p - 1:
        assert makespan == n + F


def test_schedule_csv():
    schedule, _ = simulate_pipeline(2, 1, 2)
    text = schedule_to_csv(schedule)
    lines = text.strip().splitlines()
    assert lines[0] == "worker,job,start,end"
    assert len(lines) == 1 + 4


# -- the real pipeline --------------------------------------------------------


def test_pipeline_requires_two_workers():
    with pytest.raises(ValueError):
        PipelineConfig(p=1)


def test_pipeline_run_collects_everything_in_order(monkeypatch):
    monkeypatch.setattr(parallel, "QUEUE_CAPACITY", 4)
    cfg = PipelineConfig(p=3)
    results, stats = pipeline_run(_puts(range(20)), lambda x: x * 2, cfg)
    assert [v for _, v in results] == [2 * x for x in range(20)]
    assert stats.produced == stats.consumed == 20


def test_pipeline_process_mode_overlaps_production_and_consumption():
    unit = 0.05

    def producer(put):
        for i in range(6):
            time.sleep(unit)
            put(i)

    def consumer(i):
        time.sleep(3 * unit)
        return i

    cfg = PipelineConfig(p=4, mode="process")
    t0 = time.perf_counter()
    results, stats = pipeline_run(producer, consumer, cfg)
    elapsed = time.perf_counter() - t0
    assert [v for _, v in results] == list(range(6))
    assert stats.first_consume_before_last_produce
    assert elapsed < 20 * unit


def test_pipeline_producer_error_propagates_and_leaves_nothing_running():
    # 200 items of 20 KB overfill the queue's pipe: the consumers must
    # drain it, or the queue's feeder thread would stay blocked on it
    def producer(put):
        for _ in range(200):
            put(bytes(20_000))
        raise RuntimeError("producer died")

    with pytest.raises(RuntimeError, match="producer died"):
        pipeline_run(producer, len, PipelineConfig(p=3))
    assert mp.active_children() == []
    assert threading.enumerate() == [threading.main_thread()]


def test_dead_consumer_with_a_full_queue_leaves_nothing_running():
    # the one consumer dies on its first item while the queue's pipe is
    # full: the feeder thread writing to it must still end
    def producer(put):
        for _ in range(200):
            put(bytes(20_000))

    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="exit code 3"):
        pipeline_run(producer, lambda _: os._exit(3), PipelineConfig(p=2))
    assert time.perf_counter() - t0 < 5.0
    assert mp.active_children() == []
    assert threading.enumerate() == [threading.main_thread()]


def test_dead_consumer_found_after_the_producer_is_done():
    def producer(put):
        put(1)
        time.sleep(1.0)  # the one consumer dies on that item meanwhile

    with pytest.raises(RuntimeError, match="exit code 3"):
        pipeline_run(producer, _die_on_one, PipelineConfig(p=2))
    assert mp.active_children() == []


def test_pipeline_process_mode(monkeypatch):
    monkeypatch.setattr(parallel, "QUEUE_CAPACITY", 8)
    cfg = PipelineConfig(p=3, mode="process")
    results, stats = pipeline_run(_puts(range(15)), lambda x: x + 100, cfg)
    assert [v for _, v in results] == [x + 100 for x in range(15)]
    assert stats.produced == 15


@pytest.fixture
def alive_at_fork(monkeypatch):
    """The threads alive at each fork of a worker process."""
    ctx = mp.get_context("fork")
    alive = []
    start = ctx.Process.start

    def recording_start(self):
        alive.append(threading.enumerate())
        return start(self)

    monkeypatch.setattr(ctx.Process, "start", recording_start)
    return alive


def test_consecutive_crews_fork_with_no_thread_alive(alive_at_fork):
    for _ in range(3):
        assert work_crew(list(range(8)), 2, lambda x: x) == list(range(8))
    assert len(alive_at_fork) == 6
    assert all(threads == [threading.main_thread()] for threads in alive_at_fork)


def test_start_system_pipeline_forks_with_no_thread_alive(alive_at_fork):
    _, sols, stats = solve_start_system(embed(cyclic(4), 1, 7).system, 7, p=2)
    assert stats.mixed_volume == 20 and len(sols) == 20
    assert alive_at_fork
    assert all(threads == [threading.main_thread()] for threads in alive_at_fork)


def test_the_start_system_gives_the_same_bits_in_batches_of_any_size(monkeypatch):
    # every path's result is batch-independent, so the cut of the cells
    # into batches of PATH_CAP paths changes no bit, at p = 1 or 2
    system = embed(cyclic(5), 1, 7).system
    real_solve_cell, real_pipeline_run = cascade.solve_cell, cascade.pipeline_run

    def run(p):
        batches, cells = [], []

        def solve_cell(batch, g, supports):
            batches.append(batch)
            return real_solve_cell(batch, g, supports)

        def pipeline_run(produce, consumer, cfg):  # its consumers are forked: see the batches put
            return real_pipeline_run(lambda put: produce(lambda b: batches.append(b) or put(b)), consumer, cfg)

        monkeypatch.setattr(cascade, "solve_cell", solve_cell)
        monkeypatch.setattr(cascade, "pipeline_run", pipeline_run)
        _, sols, stats = solve_start_system(system, 7, p=p, cell_log=cells)
        assert [c for b in batches for c in b] == cells
        bits = [(s.coordinates.tobytes(), s.residual, s.condition, s.regularity) for s in sols]
        return bits, (stats.start_paths, stats.start_failures, stats.start_jumps), [[c.volume for c in b] for b in batches]

    reference, counts, volumes = run(1)
    assert len(reference) == counts[0] > 0 and len(volumes) == 1 < len(volumes[0])
    for cap in (1, 10**6):
        monkeypatch.setattr(cascade, "PATH_CAP", cap)
        for p in (1, 2):
            bits, again, volumes = run(p)
            assert (bits, again) == (reference, counts)
            assert max(map(sum, volumes)) <= max(cap, max(map(max, volumes)))
            assert all(len(v) == 1 for v in volumes) if cap == 1 else len(volumes) == 1


@pytest.mark.parametrize("p", [1, 2])
def test_the_start_system_times_its_cell_search(p):
    cells = []
    _, sols, stats = solve_start_system(embed(cyclic(4), 1, 7).system, 7, p=p, cell_log=cells)
    assert len(sols) == 20
    assert 0.0 < stats.time_first_cell <= stats.time_start_system
    assert 0.0 < stats.time_cell_search <= stats.time_start_system
    if p == 1:
        assert stats.pipeline is None
    else:
        # one pipeline item per batch of cells that hold PATH_CAP paths
        batches, waiting = 0, 0
        for cell in cells:
            waiting += cell.volume
            if waiting >= cascade.PATH_CAP:
                batches, waiting = batches + 1, 0
        batches += waiting > 0
        assert stats.pipeline.produced == stats.pipeline.consumed == batches
    table = Timings(cell_search=stats.time_cell_search, first_cell=stats.time_first_cell).table()
    assert "\n  cell search " in table and "\n  first cell " in table
    assert Timings().table().splitlines()[2].split() == ["first", "cell", "-"]

