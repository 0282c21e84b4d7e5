"""Command-line front end.

Subcommands: ``solve`` (blackbox decomposition of a system file),
``model`` (the analytic speedup models and the pipeline simulator), and
``bench`` (generate-and-solve cyclic systems, with an optional cell
budget for large instances).  Everything is set through flags.

Exit codes: 0 on success; 2 (``EXIT_PARSE``) for input it cannot take,
found before any work: a system file it cannot read or parse, a bad
flag, an output path that is a directory or in a missing one; 3
(``EXIT_SOLVE``) when the solve raises.  Each failure prints one line
on stderr, no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from .blackbox import check_tasks, check_top_dimension, decompose
from .parallel import (
    cascade_speedup,
    filter_speedup,
    path_speedup,
    pipeline_speedup,
    schedule_to_csv,
    simulate_pipeline,
)
from .polyhedral import MixedCell, enumerate_cells, generic_lifting, supports_of, with_origin
from .polytext import ParseError, load_system
from .report import report_to_json, summary_text
from .systems import cyclic, embed, square_up

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVE = 3


def _add_run_flags(sp: argparse.ArgumentParser, default_dim=None):
    sp.add_argument("--dim", type=int, default=default_dim,
                    help="expected top dimension (default: nvars - 1)")
    sp.add_argument("--tasks", "-t", type=int, default=1, help="number of workers")
    sp.add_argument("--precision", choices=("d", "dd"), default="d",
                    help="d = double, dd = double-double")
    sp.add_argument("--seed", type=int, help="run seed (default: time-derived, echoed in the report)")
    sp.add_argument("--out", help="write the JSON report here")
    sp.add_argument("--cell-log", help="write one JSON line per mixed cell here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nidpipe",
        description="blackbox numerical irreducible decomposition of polynomial systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="decompose a system from a file")
    sp.add_argument("file", help="polynomial system in the plain text format")
    _add_run_flags(sp)

    mp = sub.add_parser("model", help="analytic speedup models")
    msub = mp.add_subparsers(dest="model", required=True)
    m = msub.add_parser("pipeline", help="2-stage pipeline speedup")
    m.add_argument("--n", type=int, required=True, help="number of cells")
    m.add_argument("--F", type=float, required=True, help="tracking cost per cell relative to producing it")
    m.add_argument("--p", type=int, required=True)
    m = msub.add_parser("paths", help="one stage of unit-cost paths")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--p", type=int, required=True)
    m = msub.add_parser("cascade", help="sequence of stages")
    m.add_argument("--n-list", required=True, help="comma-separated path counts per stage")
    m.add_argument("--p", type=int, required=True)
    m = msub.add_parser("filter", help="membership filtering stages")
    m.add_argument("--n-list", required=True, help="comma-separated candidate counts")
    m.add_argument("--d-list", required=True, help="comma-separated component degrees")
    m.add_argument("--p", type=int, required=True)
    m = msub.add_parser("simulate", help="discrete-event pipeline schedule")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--F", type=int, required=True)
    m.add_argument("--p", type=int, required=True)
    m.add_argument("--csv", help="write the space-time schedule here")

    bp = sub.add_parser("bench", help="generate and solve benchmark systems")
    bsub = bp.add_subparsers(dest="family", required=True)
    b = bsub.add_parser("cyclic", help="the cyclic n-roots family")
    b.add_argument("--n", type=int, required=True)
    _add_run_flags(b, default_dim=1)
    b.add_argument("--budget-seconds", type=float,
                   help="abort cleanly after this much cell-enumeration time")
    b.add_argument("--max-cells", type=int, help="abort cleanly after this many cells")
    return ap


def _write_cell_log(path: str, cells: list[MixedCell]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in cells:
            fh.write(json.dumps({
                "pairs": [[list(a), list(b)] for a, b in c.pairs],
                "normal": list(c.normal),
                "volume": c.volume,
            }) + "\n")


def _check_output_path(path: str | None, flag: str) -> None:
    """Raise ValueError when ``path`` is given but no file can be written
    there: it is a directory, or its directory does not exist."""
    if path is not None and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ValueError(f"{flag}: cannot write a file at {path}")


def _rejects_input(system, args) -> bool:
    """True, after one line on stderr saying why, when the solver cannot
    take this system, top dimension, number of tasks or output paths."""
    try:
        check_top_dimension(system, system.nvars - 1 if args.dim is None else args.dim, "--dim")
        check_tasks(args.tasks, "--tasks")
        _check_output_path(args.out, "--out")
        _check_output_path(args.cell_log, "--cell-log")
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return True
    return False


def _seed(args) -> int:
    """The --seed flag, or a time-derived seed when it is not given."""
    return args.seed if args.seed is not None else int(time.time()) & 0x7FFFFFFF


def _run_solve(system, args, input_path=None) -> int:
    if _rejects_input(system, args):
        return EXIT_PARSE
    seed = _seed(args)
    cells: list[MixedCell] = []
    try:
        rep = decompose(
            system,
            top_dimension=args.dim,
            seed=seed,
            tasks=args.tasks,
            precision="dd" if args.precision == "dd" else "double",
            cell_log=cells if args.cell_log else None,
            input_path=input_path,
        )
    except Exception as exc:
        print(f"solve failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    print(summary_text(rep), end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(rep))
        sidecar = args.out + ".embedding.json"
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump({"k": rep.top_dimension, "seed": seed, "nvars": rep.nvars}, fh)
            fh.write("\n")
        print(f"report written to {args.out}")
    if args.cell_log:
        _write_cell_log(args.cell_log, cells)
        print(f"cell log written to {args.cell_log}")
    return EXIT_OK


def _format_fraction(x) -> str:
    return f"{x} = {float(x):.6g}"


def _print_speedup(t1, tp, sp, zero_work: bool = False) -> None:
    print(f"T_1 = {_format_fraction(t1)}")
    print(f"T_p = {_format_fraction(tp)}")
    print(f"S_p = {_format_fraction(sp)}" + ("  (zero work)" if zero_work else ""))


def _run_model(args) -> int:
    if args.model == "pipeline":
        _print_speedup(*pipeline_speedup(args.n, args.F, args.p))
    elif args.model == "paths":
        tp, sp, r = path_speedup(args.n, args.p)
        print(f"T_p = {_format_fraction(tp)}  (remainder r = {r})")
        print(f"S_p = {_format_fraction(sp)}")
    elif args.model == "cascade":
        ns = [int(v) for v in args.n_list.split(",")]
        res = cascade_speedup(ns, args.p)
        _print_speedup(res.t1, res.tp, res.sp, res.zero_work)
    elif args.model == "filter":
        ns = [int(v) for v in args.n_list.split(",")]
        ds = [int(v) for v in args.d_list.split(",")]
        res = filter_speedup(ns, ds, args.p)
        _print_speedup(res.t1, res.tp, res.sp, res.zero_work)
    elif args.model == "simulate":
        _check_output_path(args.csv, "--csv")
        schedule, makespan = simulate_pipeline(args.n, args.F, args.p)
        print(f"makespan = {makespan}")
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(schedule_to_csv(schedule))
            print(f"schedule written to {args.csv}")
    return EXIT_OK


def _run_bench(args) -> int:
    f = cyclic(args.n)
    if _rejects_input(f, args):
        return EXIT_PARSE
    for flag, value in (("--max-cells", args.max_cells), ("--budget-seconds", args.budget_seconds)):
        if value is not None and value <= 0:
            print(f"bad input: {flag} must be positive, got {value}", file=sys.stderr)
            return EXIT_PARSE
    seed = _seed(args)
    if args.budget_seconds is not None or args.max_cells is not None:
        square, _ = square_up(f, seed)
        emb = embed(square, args.dim, seed)
        t0 = time.monotonic()

        def search(lifted) -> dict:
            state = {"cells": 0, "volume": 0, "aborted": False}

            def emit(cell: MixedCell):
                state["cells"] += 1
                state["volume"] += cell.volume
                if args.max_cells and state["cells"] >= args.max_cells:
                    state["aborted"] = True
                    return False
                if args.budget_seconds and time.monotonic() - t0 > args.budget_seconds:
                    state["aborted"] = True
                    return False
                return True

            enumerate_cells(lifted, emit)
            return state

        # the cells the start system of ``solve`` would track
        state, _ = generic_lifting(with_origin(supports_of(emb.system)), seed, search)
        elapsed = time.monotonic() - t0
        verdict = "aborted cleanly" if state["aborted"] else "enumeration complete"
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(
            f"cyclic({args.n}) embedded at dimension {args.dim}: {state['cells']} cells, "
            f"volume {state['volume']} in {elapsed:.1f} s ({verdict}), "
            f"{state['cells'] / max(elapsed, 1e-9):.1f} cells/s, peak resident set {peak_mb:.1f} MB"
        )
        return EXIT_OK
    return _run_solve(f, args, input_path=f"cyclic({args.n})")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        try:
            system = load_system(args.file)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read {args.file}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        return _run_solve(system, args, input_path=args.file)
    if args.command == "model":
        try:
            return _run_model(args)
        except ValueError as exc:
            print(f"bad input: {exc}", file=sys.stderr)
            return EXIT_PARSE
    if args.command == "bench":
        return _run_bench(args)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
