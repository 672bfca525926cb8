"""fabriclint fixture tests: every rule fires on its known-bad tree at
exactly the expected lines, stays quiet on the known-good twin, and
disappears when the rule is unregistered — plus the escape hatches
(suppressions, baseline) and the CLI contract (``--self-test`` exits 1
by design: a gate that cannot fail gates nothing).
"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TOOLS = os.path.join(ROOT, "tools")
FIXTURES = os.path.join(HERE, "fixtures")
RUN_PY = os.path.join(TOOLS, "fabriclint", "run.py")

if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

from fabriclint.engine import (  # noqa: E402 - sys.path bootstrap above
    load_baseline,
    run_paths,
    run_source,
)
from fabriclint.rules import REGISTRY, all_rules  # noqa: E402

# Per rule: fixture path -> sorted finding lines the known-bad tree must
# produce (duplicates = two findings on one line).  These are asserted
# EXACTLY — a rule that drifts looser or stricter fails here first.
EXPECTED_BAD = {
    "FL001": {"repro/edge/edge_server.py": [3, 4, 8, 8, 9]},
    "FL002": {"repro/edge/handlers.py": [7, 15, 22]},
    "FL003": {
        # Chaos scope: clocks AND unseeded RNG banned.
        "repro/chaos/storm.py": [6, 10, 11, 12, 13],
        # Bench scope: only the RNG ban applies (time.time on lines
        # 10/12 is deliberately present and must NOT be flagged).
        "benchmarks/bench_demo.py": [11],
    },
    "FL004": {
        "repro/edge/event_loop.py": [3, 8, 9, 10, 11],
        # Class scope: module-level time.sleep on line 18 must NOT be
        # flagged — only FanoutEngine's body is reactor code.
        "repro/edge/fanout.py": [13, 14],
        # Source scope: the engine's frame sources are reactor code
        # too; run_relay's sleep on line 18 must NOT be flagged.
        "repro/edge/relay.py": [13, 14],
    },
    "FL005": {
        "repro/edge/fanout.py": [6, 7, 8, 12],
        "repro/edge/router.py": [5, 6],
    },
    # Every .__new__( call outside a ``def __new__`` body; the good
    # twin's super().__new__ inside one must NOT be flagged.
    "FL006": {"repro/core/wire.py": [5, 12, 19]},
}

RULE_IDS = sorted(EXPECTED_BAD)


def _rule(rule_id):
    (rule,) = [r for r in REGISTRY if r.rule_id == rule_id]
    return rule


def _lines_by_path(findings):
    out = {}
    for f in findings:
        out.setdefault(f.path, []).append(f.line)
    return {path: sorted(lines) for path, lines in out.items()}


class TestFixtures:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_tree_exact_findings(self, rule_id):
        """The full registry over the known-bad tree yields exactly the
        expected (path, line) findings, all carrying this rule's id."""
        result = run_paths(
            all_rules(), os.path.join(FIXTURES, rule_id.lower(), "bad"), ["."]
        )
        assert result.parse_errors == []
        assert {f.rule for f in result.findings} == {rule_id}
        assert _lines_by_path(result.findings) == EXPECTED_BAD[rule_id]

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_good_tree_clean_under_every_rule(self, rule_id):
        result = run_paths(
            all_rules(), os.path.join(FIXTURES, rule_id.lower(), "good"), ["."]
        )
        assert result.parse_errors == []
        assert result.findings == []

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_tree_escapes_without_its_rule(self, rule_id):
        """Unregister the rule and its known-bad tree sails through —
        the fixture is caught by this rule and nothing else, so the
        test above genuinely covers it."""
        others = [r for r in REGISTRY if r.rule_id != rule_id]
        result = run_paths(
            others, os.path.join(FIXTURES, rule_id.lower(), "bad"), ["."]
        )
        assert result.findings == []


class TestSuppressions:
    def test_both_directive_forms(self):
        """Trailing directive covers its own line; comment-only
        directive covers the next line; the unannotated violation still
        fires."""
        result = run_paths(
            all_rules(), os.path.join(FIXTURES, "suppressed"), ["."]
        )
        assert [f.key for f in result.findings] == [
            "FL001:repro/edge/edge_server.py:10"
        ]
        assert sorted(f.line for f in result.suppressed) == [3, 6]

    def test_disable_all(self):
        source = (
            "from repro.crypto.signatures import DigestSigner"
            "  # fabriclint: disable=all\n"
        )
        assert run_source(all_rules(), "repro/edge/relay.py", source) == []

    def test_wrong_rule_id_does_not_suppress(self):
        source = (
            "from repro.crypto.signatures import DigestSigner"
            "  # fabriclint: disable=FL002\n"
        )
        findings = run_source(all_rules(), "repro/edge/relay.py", source)
        assert [f.rule for f in findings] == ["FL001"]


class TestBaseline:
    def test_baselined_finding_does_not_fail_the_run(self):
        baseline = {"FL001:repro/edge/edge_server.py:3"}
        result = run_paths(
            [_rule("FL001")],
            os.path.join(FIXTURES, "fl001", "bad"),
            ["."],
            baseline=baseline,
        )
        assert [f.key for f in result.baselined] == sorted(baseline)
        assert result.stale_baseline == []
        # The other four findings stay actionable.
        assert len(result.findings) == 4

    def test_stale_baseline_entries_surface(self):
        baseline = {"FL001:repro/edge/edge_server.py:999"}
        result = run_paths(
            [_rule("FL001")],
            os.path.join(FIXTURES, "fl001", "bad"),
            ["."],
            baseline=baseline,
        )
        assert result.stale_baseline == sorted(baseline)

    def test_load_baseline_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("# header\n\nFL001:a.py:1\n  FL002:b.py:2  \n")
        assert load_baseline(str(path)) == {"FL001:a.py:1", "FL002:b.py:2"}

    def test_shipped_baseline_is_empty(self):
        """ISSUE 10 fixed the violations instead of grandfathering
        them; the committed baseline must stay empty."""
        shipped = os.path.join(TOOLS, "fabriclint", "baseline.txt")
        assert load_baseline(shipped) == set()


class TestRegistry:
    def test_registry_ids_and_fixture_coverage(self):
        ids = [r.rule_id for r in REGISTRY]
        assert ids == RULE_IDS  # FL001..FL006, sorted, no dupes
        for rule in REGISTRY:
            assert rule.title and rule.rationale
            bad_path, bad_src = rule.self_test_bad
            good_path, good_src = rule.self_test_good
            assert bad_path and bad_src and good_path and good_src
            for kind in ("bad", "good"):
                tree = os.path.join(FIXTURES, rule.rule_id.lower(), kind)
                assert os.path.isdir(tree), f"missing fixture tree {tree}"

    def test_finding_key_format(self):
        findings = run_paths(
            [_rule("FL002")], os.path.join(FIXTURES, "fl002", "bad"), ["."]
        ).findings
        assert findings[0].key == "FL002:repro/edge/handlers.py:7"


class TestCli:
    """Subprocess-level contract — exactly what CI runs."""

    @staticmethod
    def _run(*argv):
        return subprocess.run(
            [sys.executable, RUN_PY, *argv],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )

    def test_real_tree_is_clean(self):
        """The CI gate: the actual repo lints clean with the shipped
        (empty) baseline."""
        proc = self._run("src", "tools", "benchmarks")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "fabriclint: 0 finding(s)" in proc.stdout

    def test_self_test_exits_one_by_design(self):
        """Exit 1 is the PASSING outcome: every rule demonstrated its
        failing path.  Exit 0 would mean the self-test never proved
        anything; exit 2 means a dead rule."""
        proc = self._run("--self-test")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "self-test passed: all 6 rules can fail" in proc.stdout
        for rule_id in RULE_IDS:
            assert f"self-test {rule_id}" in proc.stdout

    def test_bad_fixture_fails_via_cli(self):
        proc = self._run(
            "--root",
            os.path.join(FIXTURES, "fl001", "bad"),
            "--no-baseline",
            ".",
        )
        assert proc.returncode == 1
        assert "FL001:repro/edge/edge_server.py:3" in proc.stdout

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for rule_id in RULE_IDS:
            assert rule_id in proc.stdout
