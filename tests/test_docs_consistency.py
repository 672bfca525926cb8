"""The wire-protocol reference stays complete (tools/check_docs.py).

Tier-1 twin of the CI lint step: the ``docs/ARCHITECTURE.md`` section 2
catalog and field tables must be exactly what the imported frame table
(``repro.edge.transport.FRAMES``) generates, every ``FaultInjector``
field (``repro.edge.link``) must have its fault-hook row, every
fabriclint ``rule_id`` must have its section 7 table row (and vice
versa), and the checker itself must be able to fail (a gate that cannot
fail gates nothing).
"""

import dataclasses
import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", os.path.join(ROOT, "tools", "check_docs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _edited_doc(tmp_path, edit):
    """A copy of the real ARCHITECTURE.md with ``edit(text)`` applied —
    every other axis stays consistent, so a test sees only its own
    drift."""
    with open(os.path.join(ROOT, "docs", "ARCHITECTURE.md")) as fh:
        text = fh.read()
    edited = edit(text)
    assert edited != text
    path = tmp_path / "ARCHITECTURE.md"
    path.write_text(edited)
    return str(path)


def test_every_frame_is_documented():
    checker = _load_checker()
    assert checker.check() == []


def test_checker_can_fail(tmp_path):
    """A stale generated block, a missing one and a left-over one are
    each reported, the stale one with a diff against the table — the
    gate is live, not vacuous."""
    checker = _load_checker()
    stale = _edited_doc(
        tmp_path,
        lambda doc: doc.replace(
            "| `lsn` | uint | < 2³² | delta-log cursor",
            "| `lsn` | varint | < 2³² | delta-log cursor",
        ),
    )
    (problem,) = checker.check(stale)
    assert "frames:SnapshotFrame" in problem and "stale" in problem
    assert "-| `lsn` | varint" in problem and "+| `lsn` | uint" in problem

    missing = _edited_doc(
        tmp_path, lambda doc: doc.replace("<!-- frames:DeltaFrame -->\n", "")
    )
    (problem,) = checker.check(missing)
    assert "no generated block" in problem and "frames:DeltaFrame" in problem

    extra = _edited_doc(
        tmp_path,
        lambda doc: doc
        + "\n<!-- frames:PhantomFrame -->\n| x |\n<!-- /frames -->\n",
    )
    (problem,) = checker.check(extra)
    assert "PhantomFrame" in problem


def test_fault_hook_table_gated(tmp_path):
    """A FaultInjector field (read from the imported ``edge/link.py``
    dataclass) without a fault-hook table row is reported."""
    checker = _load_checker()
    undocumented = _edited_doc(
        tmp_path,
        lambda doc: "\n".join(
            line for line in doc.splitlines()
            if not line.startswith("| `delay` |")
        ),
    )
    (problem,) = checker.check(undocumented)
    assert "'delay'" in problem and "edge/link.py" in problem


def test_fabriclint_rule_table_gated(tmp_path):
    """Both drift directions are reported: a registered rule without a
    table row, and a table row naming an unregistered rule."""
    checker = _load_checker()
    fake_rules = tmp_path / "rules.py"
    fake_rules.write_text(
        "class A:\n    rule_id = \"FL001\"\n\n"
        "class B:\n    rule_id = \"FL999\"\n"
    )
    problems = checker.check(rules_path=str(fake_rules))
    assert any("FL999" in p for p in problems)  # enforced, undocumented
    assert any("FL002" in p for p in problems)  # documented, dead
    assert not any("FL001" in p for p in problems)


def test_rule_ids_extracted_from_real_catalog():
    """The extractor sees the live fabriclint registry (the gate is
    wired to the real rules file, not a stale list)."""
    checker = _load_checker()
    with open(
        os.path.join(ROOT, "tools", "fabriclint", "rules.py")
    ) as fh:
        ids = checker.fabriclint_rule_ids(fh.read())
    assert ids == ["FL001", "FL002", "FL003", "FL004", "FL005"]


def test_fault_fields_extracted_from_real_transport():
    """The fault-hook gate reads the live ``FaultInjector`` dataclass,
    and every one of its fields is a documented row today."""
    from repro.edge.link import FaultInjector

    names = [f.name for f in dataclasses.fields(FaultInjector)]
    assert names == ["partitioned", "drop_next", "hold", "delay"]
    checker = _load_checker()
    with open(os.path.join(ROOT, "docs", "ARCHITECTURE.md")) as fh:
        doc = fh.read()
    for name in names:
        assert f"\n| `{name}` |" in doc
    assert not any("FaultInjector" in p for p in checker.check())


def test_seat_table_gated(tmp_path):
    """The seat table (section 3) is held to the classes with
    ``hasattr``: a member the code does not have is reported per
    class, and so is a missing row."""
    checker = _load_checker()
    renamed = _edited_doc(
        tmp_path,
        lambda doc: doc.replace(
            "| listener | `config_frame`, `admit` |",
            "| listener | `config_frame`, `enrol` |",
        ),
    )
    problems = checker.check(renamed)
    assert len(problems) == 2
    for owner in ("CentralServer", "RelayServer"):
        assert any(f"{owner} has no 'enrol'" in p for p in problems)
    rowless = _edited_doc(
        tmp_path,
        lambda doc: doc.replace("| dialer | `hello`", "| caller | `hello`"),
    )
    (problem,) = checker.check(rowless)
    assert "no seat table row '| dialer |" in problem
