"""Docs-consistency gate: the wire protocol reference must be complete.

``docs/ARCHITECTURE.md`` claims to be the authoritative reference for
every frame that crosses the trust boundary.  This check makes the
claim enforceable, and since the frames are declared once as data
(``repro.edge.transport.FRAMES``) it does so without reading a line of
source: the section 2 catalog and the nine field tables are
**generated** from the imported table
(:func:`repro.edge.transport.frame_reference`) and must appear in the
document verbatim, each between its markers::

    <!-- frames:SnapshotFrame -->
    ...generated table...
    <!-- /frames -->

A stale, missing or left-over block fails with a diff of what the table
says against what the document says.  The same holds for the fault-hook
table: every :class:`~repro.edge.link.FaultInjector` field must have a
row ``| `field` | ...`` so the documented chaos surface (DESIGN.md
section 14) cannot drift from the injectable faults the battery
actually composes.  Likewise the fabriclint rule table
(ARCHITECTURE.md section 7): every ``rule_id`` registered in
``tools/fabriclint/rules.py`` must have a row ``| `FLnnn` | ...``,
and every row must name a registered rule — the documented invariant
catalog and the enforced one stay the same catalog.  And the seat
table (section 3): every member it lists for the listener and dialer
seats must be an attribute of every class it lists beside them, so the
protocol the document describes is the one the code has.  Adding a frame
field, a fault hook, or a lint rule without documenting it fails CI's
lint job — and the tier-1 suite
(``tests/test_docs_consistency.py``), so the gap is caught before the
push.

Usage::

    python tools/check_docs.py            # exit 0 = consistent
"""

from __future__ import annotations

import dataclasses
import difflib
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))  # the table is imported
ARCHITECTURE = os.path.join(ROOT, "docs", "ARCHITECTURE.md")
FABRICLINT_RULES = os.path.join(HERE, "fabriclint", "rules.py")


def frame_blocks(doc: str) -> dict[str, str]:
    """The marked generated blocks of the document, by name."""
    return {
        name: body.strip("\n")
        for name, body in re.findall(
            r"^<!-- frames:(\w+) -->\n(.*?)^<!-- /frames -->",
            doc, flags=re.MULTILINE | re.DOTALL,
        )
    }


def frame_problems(doc: str, reference: dict[str, str]) -> list[str]:
    """Where the document's blocks differ from the generated ones."""
    found = frame_blocks(doc)
    problems = [
        f"docs/ARCHITECTURE.md has a generated block 'frames:{name}' "
        "that the frame table no longer produces"
        for name in found.keys() - reference.keys()
    ]
    for name, want in reference.items():
        have = found.get(name)
        if have is None:
            problems.append(
                f"docs/ARCHITECTURE.md has no generated block "
                f"'<!-- frames:{name} -->' (paste the table below)\n{want}"
            )
        elif have != want:
            diff = difflib.unified_diff(
                have.splitlines(), want.splitlines(),
                "docs/ARCHITECTURE.md", "generated from transport.FRAMES",
                lineterm="",
            )
            problems.append(
                f"generated block 'frames:{name}' is stale:\n" + "\n".join(diff)
            )
    return problems


def fabriclint_rule_ids(source: str) -> list[str]:
    """Every ``rule_id = "FLnnn"`` registered in fabriclint's catalog
    (class-body assignments in ``tools/fabriclint/rules.py``)."""
    return re.findall(
        r'^    rule_id = "(FL\d+)"', source, flags=re.MULTILINE
    )


def fabriclint_table_rows(doc: str) -> list[str]:
    """Rule ids carrying a table row ``| `FLnnn` | ...`` in the doc."""
    return re.findall(r"^\| `(FL\d+)` \|", doc, flags=re.MULTILINE)


def seat_problems(doc: str) -> list[str]:
    """The seat table (ARCHITECTURE.md section 3): every member a row
    names must exist on every class the row names."""
    from repro.edge.central import CentralServer
    from repro.edge.edge_server import Dialer, EdgeServer
    from repro.edge.relay import RelayServer

    classes = {
        c.__name__: c for c in (CentralServer, Dialer, EdgeServer, RelayServer)
    }
    problems = []
    for seat in ("listener", "dialer"):
        row = re.search(
            rf"^\| {seat} \|([^|]*)\|([^|]*)\|", doc, flags=re.MULTILINE
        )
        cells = row.groups() if row else ("", "")
        members, owners = (re.findall(r"`(\w+)`", cell) for cell in cells)
        if not members or not owners:
            problems.append(
                f"docs/ARCHITECTURE.md has no seat table row '| {seat} | "
                "`members` | `classes` |'"
            )
        problems += [
            f"seat table: {owner} has no {member!r} (the {seat} seat of "
            "docs/ARCHITECTURE.md section 3 is not the one the code has)"
            for owner in owners
            for member in members
            if not hasattr(classes.get(owner), member)
        ]
    return problems


def check(architecture_path: str = ARCHITECTURE,
          rules_path: str = FABRICLINT_RULES) -> list[str]:
    """Return a list of human-readable problems (empty = consistent)."""
    from repro.edge.link import FaultInjector
    from repro.edge.transport import frame_reference

    try:
        with open(architecture_path) as fh:
            doc = fh.read()
    except OSError as exc:
        return [f"cannot read docs/ARCHITECTURE.md: {exc}"]

    problems = frame_problems(doc, frame_reference()) + seat_problems(doc)

    # The fault-hook table (chaos battery, DESIGN.md section 14): every
    # FaultInjector field must have a row '| `field` | ...' so the doc
    # cannot drift from the injectable faults the battery composes.
    for field in (f.name for f in dataclasses.fields(FaultInjector)):
        if not re.search(rf"^\| `{field}` \|", doc, flags=re.MULTILINE):
            problems.append(
                f"FaultInjector field {field!r} (edge/link.py) has no "
                "fault-hook table row '| `" + field + "` | ...' in "
                "docs/ARCHITECTURE.md"
            )

    # The fabriclint rule table (ARCHITECTURE.md section 7) must match
    # the registered rules in both directions: an enforced-but-
    # undocumented rule and a documented-but-dead rule are both drift.
    try:
        with open(rules_path) as fh:
            rules_source = fh.read()
    except OSError as exc:
        problems.append(f"cannot read fabriclint rules: {exc}")
        return problems
    rule_ids = fabriclint_rule_ids(rules_source)
    rows = fabriclint_table_rows(doc)
    for rule_id in rule_ids:
        if rule_id not in rows:
            problems.append(
                f"fabriclint rule {rule_id} (fabriclint/rules.py) has no "
                "table row '| `" + rule_id + "` | ...' in "
                "docs/ARCHITECTURE.md"
            )
    for rule_id in rows:
        if rule_id not in rule_ids:
            problems.append(
                f"docs/ARCHITECTURE.md documents fabriclint rule {rule_id} "
                "but no such rule_id is registered in fabriclint/rules.py"
            )
    return problems


def main() -> int:
    problems = check()
    for problem in problems:
        print(f"ERROR: {problem}", file=sys.stderr)
    if problems:
        print(
            f"\ndocs-consistency check FAILED ({len(problems)} problem(s)). "
            "Bring docs/ARCHITECTURE.md back in line with the code.",
            file=sys.stderr,
        )
        return 1
    print("docs-consistency check passed: the frame tables, fault hooks and "
          "fabriclint rules in docs/ARCHITECTURE.md match the code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
