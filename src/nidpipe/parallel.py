"""Work-crew scheduling, the 2-stage cell pipeline, and the analytic
speedup models for every stage of the solver.

Every crew and pipeline runs on one loop, ``_forked``: the calling
thread runs the producer, and each result comes back tagged with its
item's index, so reports stay deterministic.  With no worker (a crew at
p = 1 or of one job, the pipeline at p = 1) each item runs in the
calling thread as it is put; otherwise items stream through a bounded
queue to workers forked at the first item, and an idle worker takes the
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
import queue
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

QUEUE_CAPACITY = 64  # items the workers' queue holds before ``put`` blocks


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


_POLL_S = 0.1  # how often a parent waiting on forked workers checks that they live


def _check_alive(procs) -> None:
    """Raise RuntimeError, after terminating the others, once a worker
    process has died (nonzero exit code)."""
    dead = [pr for pr in procs if pr.exitcode not in (None, 0)]
    if dead:
        for pr in procs:
            if pr.is_alive():
                pr.terminate()
            pr.join()
        raise RuntimeError(f"worker process {dead[0].pid} died with exit code {dead[0].exitcode}")


def _get(q, procs):
    """Next item from a result queue, polling the workers while waiting."""
    while True:
        try:
            return q.get(timeout=_POLL_S)
        except queue.Empty:
            _check_alive(procs)
            if all(pr.exitcode is not None for pr in procs):
                try:  # all exited cleanly: anything they sent is readable now
                    return q.get(timeout=_POLL_S)
                except queue.Empty:
                    raise RuntimeError("worker processes exited with results missing") from None


def _put(q, item, procs) -> None:
    """Put onto a bounded work queue, polling the workers while it is full."""
    while True:
        try:
            q.put(item, timeout=_POLL_S)
            return
        except queue.Full:
            _check_alive(procs)


def _forked(produce: Callable, worker: Callable, workers: int, stats: PipelineStats) -> list:
    """Run ``produce(put)`` in the calling thread and ``worker`` on each
    item it puts; returns (index, result) pairs sorted by index.

    With ``workers`` = 0 each item runs in the calling thread as it is
    put, and no queue, thread or process is made.  Otherwise the first
    ``put`` forks the workers, and each item goes through a queue of
    ``QUEUE_CAPACITY`` slots to the next idle one; ``put`` blocks while
    the queue is full (that is the back-pressure) and raises
    RuntimeError once a worker has died.  A job that raises fails the
    call with one RuntimeError: at once without workers, once they have
    stopped with them.  An error raised by ``produce`` propagates after
    the workers have finished what was queued and stopped, so no process
    or thread outlives the call.  Each job records the ``perf_counter``
    time it started; on Linux that clock is system-wide, so it compares
    with the end of production.
    """
    if not workers:
        received: list = []

        def put(item) -> None:
            received.append(_run_job(worker, len(received), item))
            _raise_failure(received[-1:])

        produce(put)
        produce_done = time.perf_counter()
    else:
        ctx = mp.get_context("fork")
        buf: mp.Queue = ctx.Queue(maxsize=QUEUE_CAPACITY)
        # as in concurrent.futures: a feeder thread still writing to workers
        # that are gone ends on EPIPE instead of blocking on a full pipe
        buf._ignore_epipe = True
        out_q: mp.Queue = ctx.Queue()

        def child():
            while True:
                got = buf.get()
                if got is None:
                    break
                out_q.put(_run_job(worker, *got))

        procs: list = []
        n = 0

        def put(item) -> None:
            nonlocal n
            if not procs:
                procs.extend(ctx.Process(target=child) for _ in range(workers))
                for pr in procs:
                    pr.start()
            t0 = time.perf_counter()
            _put(buf, (n, item), procs)
            stats.producer_blocked += time.perf_counter() - t0
            n += 1

        def stop() -> list:
            for _ in procs:
                _put(buf, None, procs)  # one stop token per worker
            received = [_get(out_q, procs) for _ in range(n)]
            for pr in procs:
                pr.join()
            return received

        try:
            try:
                produce(put)
            except BaseException:
                if any(pr.is_alive() for pr in procs):  # none is once a dead worker was found
                    stop()
                raise
            produce_done = time.perf_counter()
            received = stop()
        finally:
            # end this queue's feeder thread now, so the next fork sees no
            # thread; with our read end closed it cannot block on a full pipe
            buf._reader.close()
            buf.close()
            buf.join_thread()
        received.sort(key=lambda got: got[0])
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
