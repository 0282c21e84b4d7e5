"""Benchmark of the nidpipe solver: one command, three known-answer workloads.

    python3 nidbench/run.py --workload demo-d3-t2 --seed 7 --seconds 30 --trace 0

Run it from anywhere; it imports the solver from the ``src`` directory
next to ``nidbench``.  The workloads:

    demo-d3-t2        decompose the demo system at top dimension 3, tasks=2, process backend
    cyclic6-d0-t1     decompose cyclic(6) at dimension 0, tasks=1
    rootcount-cyclic  enumerate every mixed cell of cyclic(6) embedded at dimension 1, then of cyclic(7)

BENCHMARK.json lists demo-d3-t2 and rootcount-cyclic, with why each was
chosen.  cyclic6-d0-t1 runs the same way but is left out of it: with a
fixed seed per run its solve_s spread over seeds was 0.15 to 0.2 of the
median, and the time of a benchmark run allows two workloads a longer
window than three.

The benchmark writes each system's text itself and hands the solver only
that text.  ``--seed`` is the solver's seed, so it picks the random
embedding, gamma constants and lifting; the same seed gives the same
inputs.  Seed 7 is the recorded one and seed 3 is held out for checking
later claims.  Every answer is checked against the workload's known
answer, and a wrong one makes the command exit with code 1.

``--trace 0`` (timed run) solves the workload until ``--seconds`` have
passed and reports three end-to-end metrics: the median ``solve_s``, the
median ``setup_s`` of five fresh interpreters (start to solver imported
and text parsed), and ``peak_rss_mb``, the largest resident set of this
process or of any worker it forked.  The repeats solve the seed itself,
except on rootcount-cyclic, whose answer cannot depend on the seed:
there they take the liftings of seed, seed + 1000, seed + 2000 ... in
turn, so that one slow lifting cannot set the median.

``--trace 1`` (traced run) solves once untraced and once with spans
recorded around the calls into each layer (see spans.py), both with the
seed itself.  For demo-d3-t2 it also solves once traced at tasks=1:
spans inside forked workers never reach the parent, so the per-path
numbers come from that solve, and T_1 / T_2 of each stage gives the
measured speedups that are printed next to the analytic models.  It adds
kernel microbenchmarks, an empty fork round trip and set-up probes, and
reports every metric in ``layers.CATALOGUE`` with the end-to-end metric
it should move.

Lines before the last are for people: the environment, every solve,
every metric with its unit.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out FILE`` also writes the whole record as JSON.
Exit code 0 means every answer was right, 1 a wrong answer, an error or
a timeout, and 2 that the solver's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import texts

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 10.0
SOLVE_BUDGET_S = 130  # all solves of one run together
SEED_STRIDE = 1000  # solve i of a timed run of a vary_seed workload uses seed + i * SEED_STRIDE
END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SolveTimeout(BaseException):
    """Raised by the alarm; a BaseException so that the solver's own
    ``except Exception`` job guards cannot swallow it."""


def _alarm(signum, frame):
    raise SolveTimeout(f"solves did not finish within {SOLVE_BUDGET_S} s")


def environment() -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any waited-for child
    (the forked workers), in MiB; Linux reports ru_maxrss in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_probes(workload: str, count: int) -> list[dict]:
    """Start ``count`` fresh interpreters one after another; each probe's
    ``setup_s`` runs from its start to its ready line."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        out.append({"setup_s": ready, **json.loads(line)})
    return out


class Run:
    """The solves of one benchmark run and their known-answer checks."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + SOLVE_BUDGET_S
        self.systems = workload.parse()
        self.solves: list[dict] = []
        self.paths = 0
        self.failed_paths = 0

    @property
    def failed(self) -> int:
        return sum(1 for s in self.solves if not s["ok"])

    def solve(self, tasks: int, label: str = "", seed: int | None = None):
        """One solve; returns its Outcome, or None when it raised or
        failed the known-answer check."""
        seed = self.seed if seed is None else seed
        record = {"seed": seed, "tasks": tasks, "label": label, "ok": False, "seconds": None, "problems": []}
        self.solves.append(record)
        signal.alarm(max(1, int(self.deadline - time.monotonic())))
        try:
            outcome = self.workload.solve(self.systems, seed, tasks)
        except SolveTimeout as exc:
            record["problems"] = [str(exc)]
            print(f"solve {len(self.solves)} {label}: {exc}", flush=True)
            raise
        except Exception:
            record["problems"] = ["raised: " + traceback.format_exc(limit=6)]
            print(f"solve {len(self.solves)} {label}: raised", flush=True)
            traceback.print_exc()
            return None
        finally:
            signal.alarm(0)
        problems = self.workload.check(outcome.answer)
        record.update(ok=not problems, seconds=outcome.seconds, problems=problems,
                      paths=outcome.paths, failed_paths=outcome.failed_paths)
        self.paths += outcome.paths
        self.failed_paths += outcome.failed_paths
        verdict = "answer ok" if not problems else "WRONG ANSWER: " + "; ".join(problems)
        print(
            f"solve {len(self.solves)} {label}(seed {seed}, tasks={tasks}): {outcome.seconds:.4f} s, "
            f"{outcome.paths} paths ({outcome.failed_paths} failed), {verdict}",
            flush=True,
        )
        return outcome if not problems else None

    def ratios(self) -> dict:
        return {
            "error_ratio": self.failed / len(self.solves) if self.solves else 1.0,
            "failed_path_ratio": self.failed_paths / self.paths if self.paths else 0.0,
        }


def timed(run: Run, seconds: float) -> tuple[dict, dict]:
    """Solves until ``seconds`` have passed and reports the median."""
    t_end = time.perf_counter() + seconds
    times = []
    # run the number of solves whose total comes nearest to the window:
    # start another one while at most half of it would run past the end
    while not times or time.perf_counter() + statistics.median(times) / 2 <= t_end:
        stride = SEED_STRIDE if run.workload.vary_seed else 0
        outcome = run.solve(run.workload.tasks, seed=run.seed + stride * len(times))
        if outcome is None:
            break
        times.append(outcome.seconds)
    if not times:
        return {}, {}
    rss = peak_rss_mb()  # before the probes, which are not the benchmark's workers
    probes = setup_probes(run.workload.name, SETUP_PROBES)
    metrics = {
        "solve_s": statistics.median(times),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": rss,
    }
    notes = {
        "solve_s": f"median of {len(times)} solves",
        "setup_s": f"median of {len(probes)} fresh interpreters",
    }
    return metrics, notes


def traced(run: Run) -> tuple[dict, dict]:
    import layers
    from spans import Tracer

    w = run.workload
    untraced = run.solve(w.tasks, "untraced ")
    if untraced is None:
        return {}, {}
    with Tracer() as tr:
        own = run.solve(w.tasks, "traced ")
    if own is None:
        return {}, {}
    tr_1, single = tr, own
    if w.tasks > 1:
        with Tracer() as tr_1:
            single = run.solve(1, "traced ")
        if single is None:
            return {}, {}

    m = {name: 0.0 for name, *_ in layers.CATALOGUE}
    notes = {}
    paths = layers.path_metrics(tr_1)
    m.update(paths)
    m.update(layers.parallel_metrics(tr))
    m.update(layers.self_times(tr_1, ("polyhedral", "tracker", "cascade", "filtering")))
    m.update(layers.self_times(tr, ("parallel",)))
    m.update(layers.kernel_metrics(w.kernel_system(run.systems, run.seed), run.seed))
    m["parallel.fork_roundtrip_ms"] = layers.fork_roundtrip_ms()
    rep = own.report
    if rep is not None:
        m["cascade.start_system_s"] = rep.timings.start_system
        m["cascade.continuation_s"] = rep.timings.continuation
        m["cascade.cascade_s"] = rep.timings.cascade
    if w.tasks > 1:
        speed, inputs = layers.speedups(single.report, rep, paths, w.tasks)
        m.update(speed)
        notes.update({f"parallel.speedup.{k}.model": v for k, v in inputs.items()})
        notes["per-path metrics"] = (
            "spans inside forked workers never reach the parent: polyhedral, tracker, dd, "
            "cascade and filtering spans come from the traced tasks=1 solve, parallel spans "
            "and the report timings from the traced tasks=2 solve"
        )
    else:
        for stage in layers.STAGES:
            notes[f"parallel.speedup.{stage}"] = "not measured: tasks=1, no p=2 solve to compare"
    m["trace.solve_s"] = own.seconds
    m["trace.overhead_s"] = own.seconds - untraced.seconds
    notes.update(_absent(m, rep))

    probes = setup_probes(w.name, 3)
    m["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    m["setup.parse_ms"] = 1e3 * statistics.median(p["parse_s"] for p in probes)
    m.update(run.ratios())
    notes["polyhedral.lifting_attempts"] = (
        "outer lift_supports calls by the caller of enumerate_cells; the relifts "
        "enumerate_cells does on its own are polyhedral.relifts"
    )
    return m, notes


def _absent(m: dict, rep) -> dict:
    """Why a metric reads 0: its layer did no such work on this workload."""
    notes = {}
    if not m["tracker.paths"]:
        for name in ("tracker.path_ms.p50", "tracker.path_ms.p99", "tracker.step_us",
                     "polyhedral.solve_cell_s"):
            notes[name] = "not measured: no path is tracked on this workload"
    if not m["dd.refine_dd.calls"]:
        notes["dd.refine_dd_ms"] = "not measured: no refine_dd call on this workload"
    if not m["filtering.membership_tests"]:
        for name in ("filtering.membership_ms.p50", "filtering.removed_ratio"):
            notes[name] = "not measured: no membership test on this workload"
    if rep is None:
        for name in ("cascade.start_system_s", "cascade.continuation_s", "cascade.cascade_s",
                     "filtering.classify_isolated_s", "systems.embed_ms"):
            notes[name] = "not measured: no decompose call on this workload"
    if not m["parallel.pipeline_s"]:
        notes["parallel.pipeline.producer_blocked_s"] = "not measured: no cell pipeline at tasks=1"
    return notes


def _stop_children() -> None:
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(texts.WORKLOAD_TEXTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of a timed run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the whole record as JSON here")
    args = ap.parse_args(argv)
    if not (SRC / "nidpipe" / "__init__.py").is_file():
        print(f"error: the solver's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}", flush=True)
    run = Run(workloads.WORKLOADS[args.workload], args.seed)
    signal.signal(signal.SIGALRM, _alarm)
    timeout = None
    try:
        metrics, notes = traced(run) if args.trace else timed(run, args.seconds)
    except SolveTimeout as exc:
        timeout = str(exc)
        metrics, notes = {}, {}
    _stop_children()

    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": len(run.solves),
        "failed": run.failed,
        "metrics": {},
    }
    units = END_TO_END_UNITS
    if args.trace:
        import layers

        units = layers.UNITS
    for name, value in metrics.items():
        result["metrics"][name] = {"value": value, "unit": units[name]}
    _print_table(args.trace, metrics, units, notes, run)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "environment": env, "ratios": run.ratios(),
                  "solves": run.solves, "notes": notes, "result": result}
        Path(args.out).write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    if timeout is not None:
        # a solve may still own a thread that never returns; leave without joining it
        os._exit(1)
    return 0 if result["correct"] else 1


def _print_table(trace: int, metrics: dict, units: dict, notes: dict, run: Run) -> None:
    if not trace:
        ratios = run.ratios()
        print(f"error_ratio {ratios['error_ratio']:.4g} ({run.failed} of {len(run.solves)} solves); "
              f"failed_path_ratio {ratios['failed_path_ratio']:.4g} "
              f"({run.failed_paths} of {run.paths} paths)")
    if trace:
        import layers

        moves = layers.MOVES
    width = max((len(n) for n in metrics), default=0)
    last_moves = None
    for name, value in metrics.items():
        if trace and moves[name] != last_moves:
            last_moves = moves[name]
            print(f"should move: {last_moves}")
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]}")
        if name in notes:
            print(f"  {'':<{width}}    {notes[name]}")
    for key, text in notes.items():
        if key not in metrics:
            print(f"note {key}: {text}")


if __name__ == "__main__":
    sys.exit(main())
