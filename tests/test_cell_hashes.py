"""``tools/cell_hashes.py`` hashes the cells of each standard search."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cell_hashes.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cell_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_cyclic5_search_hashes_as_its_node_by_node_pin():
    # the pin of ``NODE_BY_NODE`` in tests/test_polyhedral.py
    tool = _tool()
    assert len(tool.SEARCHES) == 6 and ("cyclic-5@1", 7) in tool.SEARCHES
    assert tool.search_hash("cyclic-5@1", 7) == ("4568bafde10aa741d1b46d5047ef5b95d60e3a4e", 25, 0)
