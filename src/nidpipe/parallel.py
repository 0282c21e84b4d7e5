"""Work-crew scheduling, the 2-stage cell pipeline, and the analytic
speedup models for every stage of the solver.

The work crew is a claim-guarded job queue: idle workers grab the next
job the moment they finish one, so load balances dynamically.  Thread
workers are enough for I/O- or sleep-bound jobs; CPU-bound path
tracking uses forked processes (jobs are inherited, results travel back
through a queue tagged with job ids so reports stay deterministic).
The solver hands a crew p chunks of a stage's paths, each tracked as
one batch, rather than one job per path; membership filtering runs one
crew per stage with the candidates as jobs.  A forked worker that dies
fails the run with a RuntimeError instead of leaving the parent
waiting for its results.

The speedup models compute exact rational T_1, T_p, S_p for the
pipeline, for a single stage of paths, for a cascade of stages, and for
membership filtering; the discrete-event simulator reproduces the
space-time diagram of the 2-stage pipeline with integer costs.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence


@dataclass
class JobFailure:
    """Per-job failure record; failures never abort the crew."""

    job_index: int
    message: str


class JobQueue:
    """A list of jobs with a lock-guarded claim cursor.

    Each claim returns a distinct (index, job) pair exactly once.
    """

    def __init__(self, jobs: Sequence):
        self._jobs = list(jobs)
        self._cursor = 0
        self._lock = threading.Lock()
        self.claims = 0

    def claim(self):
        with self._lock:
            if self._cursor >= len(self._jobs):
                return None
            i = self._cursor
            self._cursor += 1
            self.claims += 1
            return i, self._jobs[i]

    def __len__(self):
        return len(self._jobs)


def _run_job(worker, i, job):
    try:
        return worker(job)
    except Exception:
        return JobFailure(i, traceback.format_exc(limit=4))


def work_crew(
    jobs: Sequence,
    p: int,
    worker: Callable,
    mode: str = "thread",
) -> list:
    """Run all jobs on p workers; results align with job order.

    mode "thread" uses the claim-guarded queue directly (fine for jobs
    that release the GIL or for correctness tests); mode "process"
    forks p workers that inherit the job list and claim indices through
    a shared queue, giving real CPU parallelism for pure-Python jobs.
    """
    jobs = list(jobs)
    if p < 1:
        raise ValueError("need at least one worker")
    if not jobs:
        return []
    if p == 1 or len(jobs) == 1:
        return [_run_job(worker, i, job) for i, job in enumerate(jobs)]
    if mode == "thread":
        q = JobQueue(jobs)
        results: list = [None] * len(jobs)

        def loop():
            while True:
                claimed = q.claim()
                if claimed is None:
                    return
                i, job = claimed
                results[i] = _run_job(worker, i, job)

        threads = [threading.Thread(target=loop) for _ in range(p)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results
    if mode == "process":
        return _process_crew(jobs, p, worker)
    raise ValueError(f"unknown work crew mode {mode!r}")


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


def _process_crew(jobs: list, p: int, worker: Callable) -> list:
    ctx = mp.get_context("fork")
    claim_q: mp.Queue = ctx.Queue()
    result_q: mp.Queue = ctx.Queue()
    for i in range(len(jobs)):
        claim_q.put(i)
    for _ in range(p):
        claim_q.put(None)  # one stop token per worker

    def child():
        while True:
            i = claim_q.get()
            if i is None:
                break
            result_q.put((i, _run_job(worker, i, jobs[i])))

    procs = [ctx.Process(target=child) for _ in range(min(p, len(jobs)))]
    for pr in procs:
        pr.start()
    results: list = [None] * len(jobs)
    for _ in range(len(jobs)):
        i, res = _get(result_q, procs)
        results[i] = res
    for pr in procs:
        pr.join()
    return results


@dataclass(frozen=True)
class PipelineConfig:
    """One producer plus p-1 consumers over a bounded cell queue."""

    p: int
    queue_capacity: int = 64
    mode: str = "thread"

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("pipeline mode needs p >= 2 (one producer, one consumer)")
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be positive")


@dataclass
class PipelineStats:
    produced: int = 0
    consumed: int = 0
    makespan: float = 0.0
    producer_blocked: float = 0.0
    consumer_idle: float = 0.0
    first_consume_before_last_produce: bool = False
    producer_error: str | None = None


def pipeline_run(
    producer: Iterable,
    consumer: Callable,
    cfg: PipelineConfig,
) -> tuple[list, PipelineStats]:
    """Stream items from the producer through a bounded queue to p-1
    consumer workers; results are (index, value) sorted by index.

    Consumption starts as soon as the first item is queued.  A producer
    error closes the queue; consumers drain what was produced and the
    error is reported in the stats.
    """
    stats = PipelineStats()
    if cfg.mode == "process":
        return _pipeline_process(producer, consumer, cfg, stats)
    buf: queue.Queue = queue.Queue(maxsize=cfg.queue_capacity)
    results: list = []
    rlock = threading.Lock()
    produce_done_at = [None]
    first_consume_at = [None]

    def produce():
        idx = 0
        try:
            for item in producer:
                t0 = time.perf_counter()
                buf.put((idx, item))
                stats.producer_blocked += time.perf_counter() - t0
                idx += 1
        except Exception:
            stats.producer_error = traceback.format_exc(limit=4)
        finally:
            stats.produced = idx
            produce_done_at[0] = time.perf_counter()
            for _ in range(cfg.p - 1):
                buf.put(None)

    def consume():
        while True:
            t0 = time.perf_counter()
            got = buf.get()
            stats.consumer_idle += time.perf_counter() - t0
            if got is None:
                return
            i, item = got
            if first_consume_at[0] is None:
                first_consume_at[0] = time.perf_counter()
            out = _run_job(consumer, i, item)
            with rlock:
                results.append((i, out))

    t_start = time.perf_counter()
    pt = threading.Thread(target=produce)
    ct = [threading.Thread(target=consume) for _ in range(cfg.p - 1)]
    pt.start()
    for t in ct:
        t.start()
    pt.join()
    for t in ct:
        t.join()
    stats.makespan = time.perf_counter() - t_start
    stats.consumed = len(results)
    if first_consume_at[0] is not None and produce_done_at[0] is not None:
        stats.first_consume_before_last_produce = first_consume_at[0] < produce_done_at[0]
    results.sort(key=lambda pair: pair[0])
    return results, stats


def _pipeline_process(producer, consumer, cfg: PipelineConfig, stats: PipelineStats):
    """Fork-based pipeline: the producer runs in the calling thread and
    blocks when the bounded queue is full (that is the back-pressure).
    Each consumer sends the ``perf_counter`` time at which it started an
    item with the item's result; on Linux that clock is system-wide, so
    it compares with the parent's end of production."""
    ctx = mp.get_context("fork")
    buf: mp.Queue = ctx.Queue(maxsize=cfg.queue_capacity)
    out_q: mp.Queue = ctx.Queue()

    def child():
        while True:
            got = buf.get()
            if got is None:
                break
            i, item = got
            started = time.perf_counter()
            out_q.put((i, _run_job(consumer, i, item), started))

    workers = [ctx.Process(target=child) for _ in range(cfg.p - 1)]
    for w in workers:
        w.start()

    t_start = time.perf_counter()
    idx = 0
    items = iter(producer)
    while True:
        try:
            item = next(items)
        except StopIteration:
            break
        except Exception:
            stats.producer_error = traceback.format_exc(limit=4)
            break
        t0 = time.perf_counter()
        _put(buf, (idx, item), workers)
        stats.producer_blocked += time.perf_counter() - t0
        idx += 1
    stats.produced = idx
    produce_done = time.perf_counter()
    for _ in range(cfg.p - 1):
        _put(buf, None, workers)
    received = [_get(out_q, workers) for _ in range(idx)]
    for w in workers:
        w.join()
    stats.makespan = time.perf_counter() - t_start
    stats.consumed = len(received)
    stats.first_consume_before_last_produce = any(started < produce_done for _, _, started in received)
    results = sorted(((i, out) for i, out, _ in received), key=lambda pair: pair[0])
    return results, stats


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
