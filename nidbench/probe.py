"""Set-up probe: a fresh interpreter makes one workload's text, imports
the solver and parses the text, then prints one JSON line and exits.

    python3 nidbench/probe.py <workload>

``run.py`` times each probe from its start to that line (``setup_s``);
the line itself splits the time into the import and the parse.
"""

import json
import sys
import time
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path[:0] = [str(here.parent / "src"), str(here)]

import texts  # noqa: E402

t0 = time.perf_counter()
import nidpipe.blackbox  # noqa: E402,F401  (the solver, scipy included)
from nidpipe.polytext import parse_system  # noqa: E402

t1 = time.perf_counter()
systems = [parse_system(t) for t in texts.WORKLOAD_TEXTS[sys.argv[1]]()]
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}), flush=True)
