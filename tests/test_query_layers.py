"""The per-layer query profiler runs (tools/query_layers.py).

A smoke test on a 200-row recipe: every layer row is printed, for both
queries, with a positive number.  No timing is bounded.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "query_layers", os.path.join(ROOT, "tools", "query_layers.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_is_printed_and_positive(capsys):
    tool = _load_tool()
    assert tool.main(["--rows", "200", "--reps", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| layer (µs, median of 5) | 7 rows | 200 rows |"
    rows = {line.split(" | ")[0].lstrip("| "): line for line in lines[2:]}
    assert list(rows) == list(tool.LAYERS)
    for name, line in rows.items():
        cells = [cell.strip() for cell in line.strip("|").split("|")[1:]]
        assert len(cells) == 2, name
        assert all(float(cell.replace(",", "")) > 0 for cell in cells), line
