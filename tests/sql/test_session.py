"""Integration tests: SQL session over central + edge + verification."""

import pytest

from repro.edge.adversary import ResponseTamper
from repro.edge.central import CentralServer
from repro.exceptions import PlanningError, VerificationFailure
from repro.sql.session import Session


@pytest.fixture
def session():
    central = CentralServer(db_name="sqldb", rsa_bits=512, seed=42)
    s = Session(central)
    s.execute(
        "CREATE TABLE products (id INT, name VARCHAR(20), price INT, "
        "qty INT, PRIMARY KEY (id))"
    )
    for i in range(40):
        s.execute(
            f"INSERT INTO products VALUES ({i}, 'prod{i}', {i * 3}, {i % 7})"
        )
    return s


class TestDDLDML:
    def test_create_and_insert(self, session):
        out = session.query("SELECT * FROM products")
        assert len(out) == 40
        assert out.verdict.ok

    def test_insert_multi_values(self, session):
        n = session.execute("INSERT INTO products VALUES (100, 'a', 1, 1), (101, 'b', 2, 2)")
        assert n == 2
        assert len(session.query("SELECT * FROM products WHERE id >= 100")) == 2

    def test_delete_where(self, session):
        n = session.execute("DELETE FROM products WHERE id BETWEEN 10 AND 19")
        assert n == 10
        out = session.query("SELECT * FROM products")
        assert len(out) == 30
        assert out.verdict.ok

    def test_delete_where_reads_only_the_key_range(self, session, monkeypatch):
        tree = session.central.vbtrees["products"].tree

        def full_scan():
            raise AssertionError("a key-range DELETE scanned the whole table")

        monkeypatch.setattr(tree, "items", full_scan)
        assert session.execute("DELETE FROM products WHERE id > 30 AND qty = 0") == 1
        monkeypatch.undo()
        assert session.execute("DELETE FROM products WHERE qty = 0") == 5

    def test_delete_all(self, session):
        n = session.execute("DELETE FROM products")
        assert n == 40
        assert len(session.query("SELECT * FROM products")) == 0


class TestQueries:
    def test_key_range(self, session):
        out = session.query("SELECT * FROM products WHERE id BETWEEN 5 AND 9")
        assert len(out) == 5
        assert out.wire_bytes > 0

    def test_projection(self, session):
        out = session.query("SELECT name, price FROM products WHERE id < 3")
        assert out.columns == ("name", "price")
        assert out.rows[0] == ("prod0", 0)

    def test_nonkey_predicate(self, session):
        out = session.query("SELECT id FROM products WHERE qty = 3")
        assert all(r[0] % 7 == 3 for r in out.rows)
        assert out.verdict.ok

    def test_disjunction(self, session):
        out = session.query(
            "SELECT id FROM products WHERE id = 1 OR id = 38"
        )
        assert [r[0] for r in out.rows] == [1, 38]

    def test_string_predicate(self, session):
        out = session.query("SELECT id FROM products WHERE name = 'prod7'")
        assert [r[0] for r in out.rows] == [7]

    def test_unknown_table(self, session):
        with pytest.raises(PlanningError):
            session.query("SELECT * FROM ghost")

    def test_unknown_column(self, session):
        with pytest.raises(PlanningError):
            session.query("SELECT nope FROM products")

    def test_select_via_execute_rejected(self, session):
        with pytest.raises(PlanningError):
            session.execute("SELECT * FROM products")

    def test_query_via_execute_rejected(self, session):
        with pytest.raises(PlanningError):
            session.query("DELETE FROM products")


class TestJoinViews:
    def test_view_lifecycle(self):
        central = CentralServer(db_name="joindb", rsa_bits=512, seed=43)
        s = Session(central)
        s.execute("CREATE TABLE a (k INT, x INT, PRIMARY KEY (k))")
        s.execute("CREATE TABLE b (k2 INT, y INT, PRIMARY KEY (k2))")
        for i in range(10):
            s.execute(f"INSERT INTO a VALUES ({i}, {i * 10})")
            s.execute(f"INSERT INTO b VALUES ({i}, {i * 100})")
        s.execute(
            "CREATE MATERIALIZED VIEW ab AS SELECT * FROM a JOIN b ON a.k = b.k2"
        )
        out = s.query("SELECT * FROM ab WHERE view_id < 5")
        assert len(out) == 5
        assert out.verdict.ok

    def test_view_maintained_after_insert(self):
        central = CentralServer(db_name="joindb2", rsa_bits=512, seed=44)
        s = Session(central)
        s.execute("CREATE TABLE a (k INT, x INT, PRIMARY KEY (k))")
        s.execute("CREATE TABLE b (k2 INT, y INT, PRIMARY KEY (k2))")
        s.execute("INSERT INTO a VALUES (1, 10)")
        s.execute("INSERT INTO b VALUES (1, 100)")
        s.execute(
            "CREATE MATERIALIZED VIEW ab AS SELECT * FROM a JOIN b ON a.k = b.k2"
        )
        assert len(s.query("SELECT * FROM ab")) == 1
        s.execute("INSERT INTO a VALUES (2, 20)")
        s.execute("INSERT INTO b VALUES (2, 200)")
        out = s.query("SELECT * FROM ab")
        assert len(out) == 2
        assert out.verdict.ok


class TestVerificationIntegration:
    def test_strict_mode_raises_on_tamper(self, session):
        ResponseTamper(row_index=0, column_index=1, new_value="evil").install(
            session.edge
        )
        with pytest.raises(VerificationFailure):
            session.query("SELECT * FROM products WHERE id < 5")

    def test_lenient_mode_returns_verdict(self, session):
        session.strict = False
        ResponseTamper(row_index=0, column_index=1, new_value="evil").install(
            session.edge
        )
        out = session.query("SELECT * FROM products WHERE id < 5")
        assert not out.verdict.ok
