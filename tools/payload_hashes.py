"""Payload hashes of the standard runs of one checkout.

    python3 tools/payload_hashes.py <checkout>

Solves each standard hash run with the ``nidpipe`` in ``<checkout>/src``
and prints one line per run: the case, the seed, the number of tasks
and the sha1 of ``report_to_json`` with the ``tasks`` field set to 0.
The runs are demo@3, cyclic-4@1 and cyclic-5@0 at seeds 7 and 3 and
tasks 1 and 2, plus demo@3 at seeds 103 and 106 with tasks 1.  Two
checkouts whose lines are equal give the same payloads.  The tool exits
1 when the hashes of a case at tasks 1 and 2 differ.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

# (case, top dimension, seed, task counts)
RUNS = [
    (case, dim, seed, (1, 2)) for case, dim in (("demo", 3), ("cyclic-4", 1), ("cyclic-5", 0)) for seed in (7, 3)
] + [("demo", 3, seed, (1,)) for seed in (103, 106)]


def payload_sha1(case: str, dim: int, seed: int, tasks: int) -> str:
    """The sha1 of one run's payload, with its ``tasks`` field set to 0."""
    from nidpipe.blackbox import decompose
    from nidpipe.report import report_to_json
    from nidpipe.systems import cyclic, demo_system

    system = demo_system() if case == "demo" else cyclic(int(case.split("-")[1]))
    rep = decompose(system, top_dimension=dim, seed=seed, tasks=tasks)
    payload = report_to_json(rep).replace(f'"tasks": {tasks}', '"tasks": 0')
    return hashlib.sha1(payload.encode()).hexdigest()


def case_hashes(case: str, dim: int, seed: int, tasks: tuple[int, ...]) -> dict[int, str]:
    """The payload sha1 of one case at each number of tasks."""
    return {p: payload_sha1(case, dim, seed, p) for p in tasks}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/payload_hashes.py <checkout>", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve() / "src"))
    status = 0
    for case, dim, seed, tasks in RUNS:
        hashes = case_hashes(case, dim, seed, tasks)
        for p, sha1 in hashes.items():
            print(f"{case}@{dim} seed {seed} tasks {p} {sha1}", flush=True)
        if len(set(hashes.values())) > 1:
            print(f"{case}@{dim} seed {seed}: the payload depends on the number of tasks", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
