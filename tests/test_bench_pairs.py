"""``tools/bench_pairs.py`` keeps the evidence of a failed benchmark run."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

# a benchmark entry point whose second solve gives a wrong answer: it
# prints a long log, writes its record and exits 1, as nidbench/run.py does
FAILING_RUN = '''
import argparse, json, sys
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace", "--out"):
    ap.add_argument(flag)
args = ap.parse_args()
print("solve 1: answer ok\\n" * 200 + "solve 2: WRONG ANSWER: degree 3, expected 4")
print("Traceback: the last words", file=sys.stderr)
solves = [
    {"seed": 7, "tasks": 2, "ok": True, "problems": []},
    {"seed": 7, "tasks": 2, "ok": False, "problems": ["degree 3, expected 4"]},
]
result = {"correct": False, "attempted": 2, "metrics": {"solve_s": {"value": 1.5, "unit": "s"}}}
record = {"environment": {}, "solves": solves, "result": result}
open(args.out, "w").write(json.dumps(record))
sys.exit(1)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_failed_run_keeps_the_tail_of_its_output_and_its_failed_solves(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "nidbench").mkdir(parents=True)
    (checkout / "nidbench" / "run.py").write_text(FAILING_RUN, encoding="utf-8")
    end_to_end = [{"name": "solve_s", "better": "lower"}]
    (checkout / "BENCHMARK.json").write_text(json.dumps({"end_to_end": end_to_end}), encoding="utf-8")
    out = tmp_path / "bench.json"
    argv = ["--parent", str(checkout), "--change", str(checkout), "--workload", "demo-d3-t2",
            "--seed", "7", "--seconds", "1", "--pairs", "1", "--out", str(out)]
    assert _tool().main(argv) == 1
    (case,) = json.loads(out.read_text(encoding="utf-8"))["cases"]
    assert not case["all_correct"]
    (pair,) = case["runs"]
    for side in ("parent", "change"):
        run = pair[side]
        assert (run["exit_code"], run["correct"], run["solves"]) == (1, False, 2)
        assert run["metrics"] == {"solve_s": 1.5}
        assert len(run["stdout"]) == 2000
        assert run["stdout"].endswith("solve 2: WRONG ANSWER: degree 3, expected 4\n")
        assert run["stderr"] == "Traceback: the last words\n"
        assert run["failed_solves"] == [{"seed": 7, "tasks": 2, "ok": False, "problems": ["degree 3, expected 4"]}]
