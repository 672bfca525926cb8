"""Tests for materialized join views (Section 3.3 join support).

A view holds no rows: its rows live in the VB-tree the central server
builds on it, and they are maintained through the central's writes to
the two base tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.schema import Column, TableSchema
from repro.db.types import IntType, VarcharType
from repro.edge.central import CentralServer

ORDERS = TableSchema(
    "orders",
    (
        Column("order_id", IntType()),
        Column("cust_id", IntType()),
        Column("amount", IntType()),
    ),
    key="order_id",
)
CUSTOMERS = TableSchema(
    "customers",
    (Column("cust_id", IntType()), Column("name", VarcharType(capacity=20))),
    key="cust_id",
)


@pytest.fixture
def central():
    server = CentralServer(db_name="mview", rsa_bits=512, seed=7)
    server.create_table(ORDERS, [(1, 10, 250), (2, 11, 100), (3, 10, 75)])
    server.create_table(CUSTOMERS, [(10, "alice"), (11, "bea"), (12, "carol")])
    return server


@pytest.fixture
def view(central):
    return central.create_join_view(
        "order_details", "orders", "customers", "cust_id", "cust_id"
    )


def view_rows(central, name="order_details"):
    return list(central.vbtrees[name].rows())


def strip(rows):
    """A view's rows as a multiset of joined tuples (``view_id`` off)."""
    return sorted(r.values[1:] for r in rows)


def recomputed_join(central, view):
    """The join recomputed from the two base VB-trees."""
    left, right = central.vbtrees[view.left], central.vbtrees[view.right]
    li = left.schema.column_index(view.left_column)
    ri = right.schema.column_index(view.right_column)
    return sorted(
        lrow.values + rrow.values
        for lrow in left.rows()
        for rrow in right.rows()
        if lrow.values[li] == rrow.values[ri]
    )


class TestMaterialization:
    def test_initial_contents(self, central, view):
        rows = view_rows(central)
        assert len(rows) == 3
        assert {r["name"] for r in rows} == {"alice", "bea"}

    def test_synthetic_key(self, central, view):
        assert [r.key for r in view_rows(central)] == [0, 1, 2]
        assert view.schema.key == "view_id"

    def test_ids_follow_left_key_then_right_key_order(self, central, view):
        # order 1 (alice), order 2 (bea), order 3 (alice): left key order.
        assert [r["order_id"] for r in view_rows(central)] == [1, 2, 3]
        tags = TableSchema(
            "tags", (Column("tag", IntType()), Column("cust", IntType())), key="tag"
        )
        central.create_table(tags, [(5, 10), (1, 10), (3, 11)])
        central.create_join_view("cust_tags", "customers", "tags", "cust_id", "cust")
        pairs = [(r["cust_id"], r["tag"]) for r in view_rows(central, "cust_tags")]
        assert pairs == [(10, 1), (10, 5), (11, 3)]
        assert [r.key for r in view_rows(central, "cust_tags")] == [0, 1, 2]

    def test_collision_renames(self, view):
        assert "customers_cust_id" in view.schema.column_names

    def test_key_to_key_join(self, central):
        # order_id joined to cust_id (both keys): nothing matches, and
        # every partner lookup is a key probe.
        central.create_join_view("x", "orders", "customers", "order_id", "cust_id")
        assert view_rows(central, "x") == []

    def test_view_is_never_stale(self, central, view):
        central.insert("orders", (4, 12, 10))
        assert len(view_rows(central)) == 4
        assert strip(view_rows(central)) == recomputed_join(central, view)


class TestPartnerLookup:
    """An insert's join partners come from a key probe when the join
    column is the other side's key — never a scan of that side."""

    def forbid_scan(self, monkeypatch, tree):
        def scan():
            raise AssertionError(f"scanned {tree.table_name}")

        monkeypatch.setattr(tree, "rows", scan)

    def test_left_insert_probes_the_right_key(self, central, view, monkeypatch):
        self.forbid_scan(monkeypatch, central.vbtrees["customers"])
        central.insert("orders", (4, 11, 400))
        assert len(view_rows(central)) == 4

    def test_initial_build_probes_the_right_key(self, central, monkeypatch):
        self.forbid_scan(monkeypatch, central.vbtrees["customers"])
        central.create_join_view(
            "od", "orders", "customers", "cust_id", "cust_id"
        )
        assert len(view_rows(central, "od")) == 3

    def test_right_insert_probes_a_left_key_column(self, central, monkeypatch):
        view = central.create_join_view(
            "oc", "orders", "customers", "order_id", "cust_id"
        )
        self.forbid_scan(monkeypatch, central.vbtrees["orders"])
        central.insert("orders", (13, 10, 1))
        central.insert("customers", (13, "dan"))
        (row,) = view_rows(central, "oc")
        assert row["order_id"] == 13 and row["name"] == "dan"
        monkeypatch.undo()
        assert strip(view_rows(central, "oc")) == recomputed_join(central, view)


class TestIncrementalMaintenance:
    def test_left_insert(self, central, view):
        central.insert("orders", (4, 11, 400))
        rows = view_rows(central)
        assert len(rows) == 4
        assert rows[-1]["name"] == "bea" and rows[-1].key == 3

    def test_left_insert_no_match(self, central, view):
        central.insert("orders", (5, 999, 1))
        assert len(view_rows(central)) == 3

    def test_right_insert(self, central, view):
        central.insert("orders", (6, 13, 5))
        base = len(view_rows(central))
        central.insert("customers", (13, "dan"))
        assert len(view_rows(central)) == base + 1

    def test_left_delete(self, central, view):
        central.delete("orders", 1)
        assert len(view_rows(central)) == 2

    def test_right_delete(self, central, view):
        central.delete("customers", 10)  # alice had two orders
        assert [r["name"] for r in view_rows(central)] == ["bea"]

    def test_maintenance_follows_rotated_trees(self, central, view):
        # rotate_key rebuilds every tree under its name: the view must
        # read the new ones, or a delete misses rows inserted since.
        central.delete("orders", 2)  # the view reads its own tree
        central.rotate_key()
        central.insert("orders", (8, 12, 5))  # into the rebuilt trees
        central.insert("customers", (13, "dan"))
        central.insert("orders", (9, 13, 1))  # probes the rebuilt right tree
        central.delete("customers", 12)  # finds order 8's view row
        assert strip(view_rows(central)) == recomputed_join(central, view)
        central.vbtrees["order_details"].audit()

    def test_incremental_matches_a_fresh_view(self, central):
        """After a burst of base-table changes, the maintained view and
        one built from scratch agree on the multiset of rows."""
        central.create_join_view("v1", "orders", "customers", "cust_id", "cust_id")
        central.insert("orders", (7, 12, 80))
        central.insert("customers", (14, "eve"))
        central.delete("orders", 2)
        central.create_join_view("v2", "orders", "customers", "cust_id", "cust_id")
        assert strip(view_rows(central, "v1")) == strip(view_rows(central, "v2"))


_writes = st.lists(
    st.tuples(
        st.sampled_from(["orders", "customers"]),
        st.booleans(),  # insert (True) or delete (False)
        st.integers(0, 11),  # key
        st.integers(0, 5),  # cust_id of an inserted order
    ),
    max_size=24,
)


@settings(max_examples=12, deadline=None)
@given(writes=_writes)
def test_view_equals_the_join_of_its_bases(writes):
    """After any mix of inserts and deletes on both bases, the view's
    VB-tree holds exactly the join recomputed from the base VB-trees,
    and it audits on the central and on an edge replica."""
    server = CentralServer(db_name="mview", rsa_bits=512, seed=7)
    server.create_table(ORDERS, [(i, i % 4, i) for i in range(0, 12, 2)])
    server.create_table(CUSTOMERS, [(c, f"c{c}") for c in range(0, 6, 2)])
    view = server.create_join_view(
        "od", "orders", "customers", "cust_id", "cust_id", fanout_override=4
    )
    edge = server.spawn_edge_server("e")
    for table, insert, key, cust in writes:
        present = key in server.vbtrees[table].tree
        if insert and not present:
            values = (key, cust, key) if table == "orders" else (key, f"c{key}")
            server.insert(table, values)
        elif not insert and present:
            server.delete(table, key)
    assert strip(server.vbtrees["od"].rows()) == recomputed_join(server, view)
    server.vbtrees["od"].audit()
    replica = edge.replica("od")
    replica.audit()
    assert strip(replica.rows()) == recomputed_join(server, view)
