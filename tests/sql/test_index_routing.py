"""Tests for CREATE INDEX and secondary-index query routing."""

import pytest

from repro.db.expressions import And, Comparison, Not, Or, between
from repro.edge.central import CentralServer
from repro.edge.transport import select_query_frame
from repro.sql.parser import parse
from repro.sql.ast_nodes import CreateIndex
from repro.sql.planner import exact_range_on
from repro.sql.session import Session
from repro.exceptions import SQLSyntaxError


class TestParseCreateIndex:
    def test_basic(self):
        stmt = parse("CREATE INDEX ON readings (temp)")
        assert stmt == CreateIndex(table="readings", column="temp")

    def test_missing_paren(self):
        with pytest.raises(SQLSyntaxError):
            parse("CREATE INDEX ON readings temp")


class TestExactRangeOn:
    def test_single_comparison(self):
        r = exact_range_on(Comparison("a", ">=", 5), "a")
        assert r.low == 5 and r.high is None

    def test_between(self):
        r = exact_range_on(between("a", 2, 9), "a")
        assert (r.low, r.high) == (2, 9)

    def test_equality(self):
        r = exact_range_on(Comparison("a", "=", 7), "a")
        assert (r.low, r.high) == (7, 7)

    def test_other_column_rejected(self):
        assert exact_range_on(Comparison("b", "=", 1), "a") is None

    def test_mixed_conjunction_rejected(self):
        pred = And(Comparison("a", ">", 1), Comparison("b", "=", 2))
        assert exact_range_on(pred, "a") is None

    def test_or_rejected(self):
        pred = Or(Comparison("a", "=", 1), Comparison("a", "=", 5))
        assert exact_range_on(pred, "a") is None

    def test_not_rejected(self):
        assert exact_range_on(Not(Comparison("a", "=", 1)), "a") is None

    def test_neq_rejected(self):
        assert exact_range_on(Comparison("a", "!=", 1), "a") is None


@pytest.fixture
def session():
    central = CentralServer(db_name="idxdb", rsa_bits=512, seed=81)
    s = Session(central)
    s.execute(
        "CREATE TABLE readings (id INT, temp INT, site INT, PRIMARY KEY (id))"
    )
    for i in range(120):
        s.execute(f"INSERT INTO readings VALUES ({i}, {(i * 37) % 100}, {i % 4})")
    s.execute("CREATE INDEX ON readings (temp)")
    return s


class TestRouting:
    def test_index_created(self, session):
        assert "readings__by_temp" in session.central.vbtrees

    def test_range_on_indexed_attr_routed(self, session):
        out = session.query("SELECT * FROM readings WHERE temp BETWEEN 20 AND 40")
        assert out.verdict.ok
        assert all(20 <= r[1] <= 40 for r in out.rows)
        # Routed through the secondary index: contiguous envelope, so
        # the same query via the primary tree must ship more bytes.
        via_primary = session.router.query(
            select_query_frame("readings", between("temp", 20, 40))
        )
        assert out.wire_bytes < via_primary.wire_bytes

    def test_equality_on_indexed_attr(self, session):
        out = session.query("SELECT id FROM readings WHERE temp = 37")
        assert out.verdict.ok
        primary_rows = session.query(
            "SELECT id FROM readings WHERE temp = 37 AND site >= 0"
        )  # mixed predicate -> primary path
        assert sorted(out.rows) == sorted(primary_rows.rows)

    def test_mixed_predicate_not_routed(self, session):
        # Still correct, just via the primary tree.
        out = session.query(
            "SELECT * FROM readings WHERE temp > 50 AND site = 1"
        )
        assert out.verdict.ok
        assert all(r[1] > 50 and r[2] == 1 for r in out.rows)

    def test_results_identical_to_primary_path(self, session):
        routed = session.query("SELECT * FROM readings WHERE temp BETWEEN 0 AND 99")
        primary = session.query("SELECT * FROM readings")
        assert sorted(routed.rows) == sorted(primary.rows)

    def test_insert_visible_through_index(self, session):
        session.execute("INSERT INTO readings VALUES (500, 42, 0)")
        out = session.query("SELECT id FROM readings WHERE temp = 42")
        assert (500,) in out.rows

    def test_delete_reflected_through_index(self, session):
        out_before = session.query("SELECT id FROM readings WHERE temp = 37")
        victim = out_before.rows[0][0]
        session.execute(f"DELETE FROM readings WHERE id = {victim}")
        out_after = session.query("SELECT id FROM readings WHERE temp = 37")
        assert (victim,) not in out_after.rows
        assert out_after.verdict.ok

    def test_exclusive_bound_not_routed_but_correct(self, session):
        # temp > 50 is exclusive; the session only routes inclusive
        # ranges, so this goes via the primary tree — and still verifies.
        out = session.query("SELECT * FROM readings WHERE temp > 97")
        assert out.verdict.ok
        assert all(r[1] > 97 for r in out.rows)
