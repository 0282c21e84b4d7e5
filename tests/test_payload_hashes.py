"""``tools/payload_hashes.py`` hashes the payload of each standard run."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "payload_hashes.py"


def _tool():
    spec = importlib.util.spec_from_file_location("payload_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_cyclic4_case_hashes_one_payload_on_one_and_two_tasks():
    tool = _tool()
    assert sum(len(tasks) for *_, tasks in tool.RUNS) == 14
    assert ("cyclic-4", 1, 7, (1, 2)) in tool.RUNS
    hashes = tool.case_hashes("cyclic-4", 1, 7, (1, 2))
    assert list(hashes) == [1, 2]
    assert hashes[1] == hashes[2] and len(hashes[1]) == 40
