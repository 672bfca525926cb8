"""The code-only ceilings hold (tools/count_code.py, tools/code_ceiling.json).

Tier-1 twin of the CI lint step, and the coverage floor's twin: a
directory (or one named module) may not grow past the count its last
simplicity PR left it at, and the counter is the committed one — the numbers DESIGN.md quotes
are reproducible.
"""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_counter():
    spec = importlib.util.spec_from_file_location(
        "count_code", os.path.join(ROOT, "tools", "count_code.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_not_prose():
    counter = _load_counter()
    source = (
        '"""Module docstring,\ntwo lines."""\n'
        "\n"
        "# a comment\n"
        "X = (1,\n     2)  # continuation counts\n"
        "def f():\n"
        '    """Docstring."""\n'
        '    return """used\nstring"""\n'
    )
    assert counter.count_source(source) == 5


def test_no_directory_is_over_its_ceiling(tmp_path):
    counter = _load_counter()
    assert counter.over_ceiling() == []
    # The fan-out engine's module has a ratchet of its own: a key may
    # name a file as well as a directory.  The DBMS substrate has one
    # too, set when the central stopped keeping a second table copy, and
    # so do the VB-tree core and the crypto layer, set when the query
    # path stopped converting signed digests and values.  The router's
    # module and the SQL layer got theirs when the router became the
    # only way to ask an edge a question.
    with open(counter.CEILING) as fh:
        ceilings = json.load(fh)["ceilings"]
    for key in (
        "src/repro/edge/fanout.py",
        "src/repro/edge/router.py",
        "src/repro/db",
        "src/repro/core",
        "src/repro/crypto",
        "src/repro/sql",
    ):
        assert key in ceilings
    # ... and the gate can fail: one line under today's count trips it.
    have = counter.count_path(os.path.join(ROOT, "src", "repro", "chaos"))
    tight = tmp_path / "ceiling.json"
    tight.write_text(json.dumps({"ceilings": {"src/repro/chaos": have - 1}}))
    (problem,) = counter.over_ceiling(ceiling_path=str(tight))
    assert "src/repro/chaos" in problem and "only ever lowered" in problem
