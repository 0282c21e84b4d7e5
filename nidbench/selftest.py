"""Self-test of the benchmark itself (about a second):

    python3 nidbench/selftest.py

It enumerates cyclic(4) embedded at dimension 1, the path every
rootcount-cyclic solve takes, and checks the mixed volume 20.  It shows
that each known-answer checker accepts the right answer and rejects
deliberately wrong ones, that the workload texts parse to the systems the
solver's own constructors make, and that BENCHMARK.json lists the workloads
and per-layer metrics the benchmark reports.  Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import texts  # noqa: E402
import workloads as W  # noqa: E402
from nidpipe.polytext import parse_system  # noqa: E402
from nidpipe.systems import cyclic, demo_system  # noqa: E402


def _demo_answer() -> dict:
    """The demo's known answer, with a generic free coordinate per line."""
    gen = np.random.default_rng(0)
    free = lambda: complex(gen.normal(), gen.normal())  # noqa: E731
    lines = []
    for fixed in W.DEMO_LINES:
        lines.append(np.array([fixed.get(i, free()) for i in range(4)], dtype=np.complex128))
    return {
        "degrees": dict(W.DEMO_DEGREES),
        "isolated": [np.array(p, dtype=np.complex128) for p in W.DEMO_ISOLATED],
        "suspects": 0,
        "witness": {
            3: [np.array([1, free(), free(), free()])],
            2: [np.array([2, 1, free(), free()])],
            1: lines,
        },
        "mixed_volume": 61,
    }


def main() -> int:
    failures = []

    def expect(ok: bool, what: str):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for text, built in ((texts.demo_text(), demo_system()), (texts.cyclic_text(6), cyclic(6)),
                        (texts.cyclic_text(7), cyclic(7))):
        f = parse_system(text)
        expect([p.terms for p in f.polys] == [p.terms for p in built.polys],
               f"workload text for a {f.nvars}-variable system parses to the solver's own system")

    volume, _ = W.mixed_volume_by_enumeration(W.enumeration_system(cyclic(4), 1, 7), 7)
    expect(W.check_mixed_volumes([volume], [20]) == [], f"cyclic(4) embedded at dimension 1: mixed volume {volume}")
    expect(W.check_mixed_volumes([volume + 1], [20]) != [], "mixed-volume check rejects a wrong volume")
    expect(W.check_rootcount({"mixed_volumes": [258, 924]}) == [], "rootcount check accepts 258 and 924")
    expect(W.check_rootcount({"mixed_volumes": [258, 923]}) != [], "rootcount check rejects 923")

    right = _demo_answer()
    expect(W.check_demo(right) == [], "demo check accepts the known answer")
    moved = dict(right, isolated=[right["isolated"][0] + 1e-3] + right["isolated"][1:])
    expect(W.check_demo(moved) != [], "demo check rejects a moved isolated point")
    doubled = dict(right, witness={**right["witness"], 1: right["witness"][1][:-1] + right["witness"][1][:1]})
    expect(W.check_demo(doubled) != [], "demo check rejects two witness points on one line")
    expect(W.check_demo(dict(right, suspects=1)) != [], "demo check rejects a singular suspect")

    fake_roots = [np.full(6, 1.0 + 0j)] * W.CYCLIC6_ROOTS
    wrong = {"mixed_volume": W.CYCLIC6_ROOTS, "suspects": 0, "isolated": fake_roots}
    expect(len(W.check_cyclic6(wrong)) == 2, "cyclic6 check rejects non-roots and coinciding points")
    expect(W.cyclic_residual(np.exp(2j * np.pi * np.arange(4) / 4) * np.exp(1j * np.pi / 4)) < 1e-12,
           "cyclic residual vanishes at a cyclic-4 root")

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(list(W.WORKLOADS) == list(texts.WORKLOAD_TEXTS), "every workload has a text")
    expect({w["name"] for w in bench["workloads"]} <= set(W.WORKLOADS),
           "BENCHMARK.json workloads are the benchmark's")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS,
           "BENCHMARK.json end-to-end metrics match the timed run's")
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == [(n, u, b) for n, u, b, _ in layers.CATALOGUE],
           "BENCHMARK.json per-layer metrics match the catalogue")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
