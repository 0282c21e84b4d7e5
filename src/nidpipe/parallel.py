"""Work-crew scheduling, the 2-stage cell pipeline, and the analytic
speedup models for every stage of the solver.

Every crew and pipeline runs on one loop, ``_forked``: the calling
thread runs the producer, and each result comes back tagged with its
item's index, so reports stay deterministic.  With no worker (a crew at
p = 1 or of one job, the pipeline at p = 1) each item runs in the
calling thread as it is put; otherwise the first item forks a pool of
workers (the standard library's ``ProcessPoolExecutor``), at most
``QUEUE_CAPACITY`` items are in flight, and an idle worker takes the
next item the moment it finishes one, so load balances dynamically.
The solver hands a crew a stage's paths in chunks of at most
``cascade.PATH_CAP`` paths (``cascade.track_stage``): a stage that fits
one chunk runs in the calling process, a larger one is at least one
chunk per worker.  The pipeline's consumers get the full batches of
cells, the caller tracks the last one itself; a membership filter stage
is a crew of one.  A job that raises, or a forked worker that dies,
fails the call with a RuntimeError instead of leaving the parent waiting.

The speedup models compute exact rational T_1, T_p, S_p for the
pipeline, for a single stage of paths, for a cascade of stages, and for
membership filtering; the discrete-event simulator reproduces the
space-time diagram of the 2-stage pipeline with integer costs.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import threading
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

QUEUE_CAPACITY = 64  # items in flight to forked workers before ``put`` blocks


def _run_job(worker, i, item) -> tuple:
    """(i, result, None, start time) of one job, or (i, None, (its error
    on one line, its traceback), start time) when it raised."""
    started = time.perf_counter()
    try:
        return i, worker(item), None, started
    except Exception as exc:
        return i, None, (f"{type(exc).__name__}: {exc}", traceback.format_exc()), started


def _raise_failure(received) -> None:
    """Raise the RuntimeError of the first failed job among received: it
    names the job and its error, its cause carries the job's traceback."""
    for i, _, failure, _ in received:
        if failure is not None:
            line, tb = failure
            raise RuntimeError(f"job {i} failed: {line}") from Exception(tb)


def check_backend(mode: str) -> None:
    """Forked processes are the one worker backend; ``mode`` survives
    only so that callers naming it keep working."""
    if mode != "process":
        raise ValueError(f"unknown worker backend {mode!r}: only 'process' exists")


def work_crew(
    jobs: Sequence,
    p: int,
    worker: Callable,
    mode: str = "process",
) -> list:
    """Run all jobs on min(p, len(jobs)) forked workers, or in order in
    the calling process when p = 1 or there is one job; results align
    with job order.  Jobs and results travel between the processes by
    pickling; the worker itself is inherited through the fork, so it may
    be a closure."""
    check_backend(mode)
    jobs = list(jobs)
    if p < 1:
        raise ValueError("need at least one worker")

    def produce(put):
        for job in jobs:
            put(job)

    workers = min(p, len(jobs))
    pairs = _forked(produce, worker, workers if workers > 1 else 0, PipelineStats())
    return [out for _, out in pairs]


def _adopt(worker) -> None:
    """Pool initializer: keep the crew's worker, inherited through the fork, as ``_worker``."""
    global _worker
    _worker = worker


def _call(i, item) -> tuple:
    """One job of a forked pool worker: ``_run_job`` on its crew's worker."""
    return _run_job(_worker, i, item)


def _forked(produce: Callable, worker: Callable, workers: int, stats: PipelineStats) -> list:
    """Run ``produce(put)`` in the calling thread and ``worker`` on each
    item it puts; returns (index, result) pairs sorted by index.

    With ``workers`` = 0 each item runs in the calling thread as it is
    put.  Otherwise the first ``put`` makes a fork-context process pool
    whose initializer keeps ``worker`` (inherited: it may be a closure),
    and ``put`` blocks while ``QUEUE_CAPACITY`` items are in flight.  A
    job that raises fails the call with one RuntimeError, a worker process
    that dies with the pool's ``BrokenProcessPool`` (one too).  An error raised by ``produce`` propagates once the
    running jobs end; jobs not yet started are dropped.  No process or
    thread outlives the call.  Jobs record their start on the
    ``perf_counter`` clock, which is system-wide on Linux.
    """
    if not workers:
        received: list = []

        def put(item) -> None:
            received.append(_run_job(worker, len(received), item))
            _raise_failure(received[-1:])

        produce(put)
        produce_done = time.perf_counter()
    else:
        pool = None
        futures: list = []
        slots = threading.BoundedSemaphore(QUEUE_CAPACITY)

        def put(item) -> None:
            nonlocal pool
            if pool is None:  # imported here: a pipeline that is never put to costs nothing
                from concurrent.futures.process import ProcessPoolExecutor

                pool = ProcessPoolExecutor(workers, mp.get_context("fork"), initializer=_adopt, initargs=(worker,))
            t0 = time.perf_counter()
            slots.acquire()
            stats.producer_blocked += time.perf_counter() - t0
            futures.append(pool.submit(_call, len(futures), item))
            futures[-1].add_done_callback(lambda _: slots.release())
            if len(futures) == 1:  # that submit forked every worker, and this process never reads the call
                # queue: its open read end would let the feeder block for good on a full pipe to dead workers
                # (gh-94777; the pool closes it itself in Python 3.11.7, not in 3.11.2, which requires-python admits)
                pool._call_queue._reader.close()

        try:
            produce(put)
            produce_done = time.perf_counter()
            received = [f.result() for f in futures]
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
        _raise_failure(received)
    stats.first_consume_before_last_produce = any(started < produce_done for *_, started in received)
    return [(i, out) for i, out, _, _ in received]


@dataclass(frozen=True)
class PipelineConfig:
    """One producer plus p-1 consumers; at p = 1 the producer consumes
    each item itself."""

    p: int
    mode: str = "process"

    def __post_init__(self):
        check_backend(self.mode)
        if self.p < 1:
            raise ValueError("the pipeline needs p >= 1")


@dataclass
class PipelineStats:
    producer_blocked: float = 0.0
    first_consume_before_last_produce: bool = False


def pipeline_run(
    produce: Callable[[Callable], None],
    consumer: Callable,
    cfg: PipelineConfig,
) -> tuple[list, PipelineStats]:
    """Run ``produce(put)`` in the calling thread while p-1 forked
    consumers take each item it puts, or ``put`` consumes it right there
    at p = 1; results are (index, value) sorted by index.  Consumption
    starts at the first item.  Errors follow ``_forked``'s rules.
    """
    stats = PipelineStats()
    return _forked(produce, consumer, cfg.p - 1, stats), stats


# -- analytic speedup models ------------------------------------------------


def pipeline_speedup(n: int, F, p: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact T_1 = n + F n, T_p = (p-1) + F n/(p-1), S_p = T_1/T_p for
    one producer and p-1 consumers with tracking-cost multiplier F."""
    if p < 2:
        raise ValueError("pipeline speedup needs p >= 2")
    if n < 1:
        raise ValueError("need at least one cell")
    F = Fraction(F)
    if F <= 0:
        raise ValueError("cost multiplier must be positive")
    n = Fraction(n)
    t1 = n + F * n
    tp = (p - 1) + F * n / (p - 1)
    return t1, tp, t1 / tp


def path_speedup(n: int, p: int) -> tuple[Fraction, Fraction, int]:
    """Optimal time and speedup for n unit-cost paths on p workers.

    With q = n // p and r = n mod p: T_p = q+1 and S_p = p - (p-r)/T_p
    when r > 0, else T_p = q and S_p = p; n < p collapses to S_p = n.
    """
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 paths and p >= 1 workers")
    q, r = divmod(n, p)
    if r > 0:
        tp = Fraction(q + 1)
        sp = p - Fraction(p - r, q + 1)
    else:
        tp = Fraction(q)
        sp = Fraction(p)
    return tp, sp, r


@dataclass(frozen=True)
class StageSpeedup:
    t1: Fraction
    tp: Fraction
    sp: Fraction
    zero_work: bool = False


def cascade_speedup(n_list: Sequence[int], p: int) -> StageSpeedup:
    """Speedup for a sequence of stages of n_k unit-cost paths each.

    A stage with remainder r_k > 0 costs q_k + 1 time units; a stage
    whose remainder is zero costs q_k only (an empty remainder round
    would otherwise break the single-stage sanity case T_1 = n, S_p = p).
    """
    if p < 1:
        raise ValueError("need p >= 1")
    if any(n < 0 for n in n_list):
        raise ValueError("path counts must be nonnegative")
    t1 = Fraction(sum(n_list))
    if t1 == 0:
        return StageSpeedup(Fraction(0), Fraction(0), Fraction(1), zero_work=True)
    tp = Fraction(0)
    for n in n_list:
        q, r = divmod(n, p)
        tp += q + (1 if r else 0)
    return StageSpeedup(t1, tp, t1 / tp)


def filter_speedup(n_list: Sequence[int], d_list: Sequence[int], p: int) -> StageSpeedup:
    """Membership filtering tracks n_k * d_k paths per stage; the
    cascade model applies to those products."""
    if len(n_list) != len(d_list):
        raise ValueError("path counts and degrees must align")
    return cascade_speedup([n * d for n, d in zip(n_list, d_list)], p)


@dataclass(frozen=True)
class ScheduleEntry:
    worker: int
    job: int
    start: int
    end: int


def simulate_pipeline(
    n: int,
    consumer_cost: int,
    p: int,
    producer_cost: int = 1,
) -> tuple[list[ScheduleEntry], int]:
    """Discrete-event schedule of the 2-stage pipeline.

    Worker 0 produces cell j during [(j-1)c, jc]; each of the p-1
    consumers greedily takes the earliest emitted unclaimed cell.
    Returns the full space-time schedule and its makespan.
    """
    if p < 2:
        raise ValueError("pipeline needs p >= 2")
    if n < 1 or producer_cost < 0 or consumer_cost < 0:
        raise ValueError("bad pipeline simulation arguments")
    schedule = []
    for j in range(1, n + 1):
        schedule.append(ScheduleEntry(0, j, (j - 1) * producer_cost, j * producer_cost))
    free = [(0, w) for w in range(1, p)]  # (free_at, worker)
    heapq.heapify(free)
    makespan = n * producer_cost
    for j in range(1, n + 1):
        emitted = j * producer_cost
        free_at, w = heapq.heappop(free)
        start = max(emitted, free_at)
        end = start + consumer_cost
        schedule.append(ScheduleEntry(w, j, start, end))
        heapq.heappush(free, (end, w))
        makespan = max(makespan, end)
    return schedule, makespan


def schedule_to_csv(schedule: Sequence[ScheduleEntry]) -> str:
    lines = ["worker,job,start,end"]
    lines.extend(f"{s.worker},{s.job},{s.start},{s.end}" for s in schedule)
    return "\n".join(lines) + "\n"
