"""Paired benchmark runs of two checkouts, summarised in one JSON file.

    python3 tools/bench_pairs.py --parent ../base --change . \\
        --workload demo-d3-t2 --seed 7 --seed 3 --seconds 20 --pairs 10 --out BENCH.json

Each pair runs ``nidbench/run.py --trace 0`` once in each checkout, with
the same workload, seed and ``--seconds``, and the side that runs first
alternates from pair to pair (the parent first in pair 0).  Each run
starts a fresh interpreter in its own checkout, so it builds what it
runs from that checkout's sources.  Every (workload, seed) given runs
all its pairs before the next starts.

The file holds the environment and the ``src/`` line count of each
side, every run (its metrics, number of solves, ``correct`` flag and
exit code; for a run that exits non-zero or is not correct, also the
last 2,000 characters of its stdout and stderr and the records of its
failed solves, with their problems), and per
workload, seed and end-to-end metric each side's median and quartiles
and the number of pairs the change won: a win is a value better than
the parent's in the direction ``BENCHMARK.json`` gives, and a tie wins
for neither side.  It is written again after every pair, so a run that
is cut short leaves the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUN_TIMEOUT_S = 900  # one benchmark run: its window, the set-up probes and its solve budget
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    """One timed benchmark run of a checkout: its record, or the failure."""
    out = scratch / "record.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, "nidbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "wall_s": time.perf_counter() - t0, "correct": False, "metrics": {},
                "stderr": f"no result within {RUN_TIMEOUT_S} s"}
    run = {"exit_code": proc.returncode, "wall_s": time.perf_counter() - t0}
    failed_solves = []
    if out.is_file():
        record = json.loads(out.read_text(encoding="utf-8"))
        result = record["result"]
        run.update(correct=result["correct"], solves=result["attempted"], environment=record["environment"],
                   metrics={name: m["value"] for name, m in result["metrics"].items()})
        failed_solves = [s for s in record["solves"] if not s["ok"]]
    else:
        run.update(correct=False, metrics={})
    if proc.returncode != 0 or not run["correct"]:
        run.update(stdout=proc.stdout[-2000:], stderr=proc.stderr[-2000:], failed_solves=failed_solves)
    return run


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarise(pairs: list[dict], better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins."""
    out = {}
    for name, direction in better.items():
        both = [p for p in pairs if all(name in p[s]["metrics"] for s in SIDES)]
        if not both:
            continue
        sign = -1.0 if direction == "lower" else 1.0
        wins = sum(1 for p in both if sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) > 0)
        out[name] = {s: quartiles([p[s]["metrics"][name] for p in both]) for s in SIDES}
        out[name].update(better=direction, pairs=len(both), change_wins=wins)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--seed", required=True, type=int, action="append")
    ap.add_argument("--seconds", required=True, type=float, help="timed window of every run")
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    doc = {"seconds": args.seconds, "pairs_per_case": args.pairs, "order": "parent first in even pairs",
           "environment": {}, "src_lines": {}, "cases": []}
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for workload in args.workload:
            for seed in args.seed:
                case = {"workload": workload, "seed": seed, "runs": [], "summary": {}}
                doc["cases"].append(case)
                for i in range(args.pairs):
                    pair = {"pair": i, "first": SIDES[i % 2]}
                    for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                        pair[side] = run_once(checkouts[side], workload, seed, args.seconds, scratch)
                        env = pair[side].pop("environment", None)
                        if env:
                            doc["src_lines"][side] = env.pop("src_lines")
                            doc["environment"] = env
                    case["runs"].append(pair)
                    case["summary"] = summarise(case["runs"], better)
                    case["all_correct"] = all(p[s]["correct"] and p[s]["exit_code"] == 0
                                              for p in case["runs"] for s in SIDES)
                    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
                    solve = {s: pair[s]["metrics"].get("solve_s") for s in SIDES}
                    print(f"{workload} seed {seed} pair {i}: parent {solve['parent']}, change {solve['change']}",
                          flush=True)
    return 0 if all(case["all_correct"] for case in doc["cases"]) else 1


if __name__ == "__main__":
    sys.exit(main())
