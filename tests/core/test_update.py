"""Tests for authenticated updates (Section 3.4): digest maintenance,
locking protocol, and query consistency across updates."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.params import Parameters
from repro.analysis.updates import delete_cost, insert_cost, insert_cost_as_built
from repro.core.digests import DigestEngine, DigestPolicy, SigningDigestEngine
from repro.core.query_auth import QueryAuthenticator
from repro.core.update import AuthenticatedUpdater, digest_resource
from repro.core.vbtree import VBTree
from repro.core.verify import ResultVerifier
from repro.crypto.meter import CostMeter
from repro.crypto.signatures import DigestSigner
from repro.db.locks import LockMode
from repro.db.rows import Row
from repro.db.transactions import TransactionManager
from repro.exceptions import DuplicateKeyError, LockError
from repro.workloads.generator import TableSpec, generate_table

from tests.core.conftest import DB_NAME, build_tree, make_rows


@pytest.fixture
def fresh_tree(schema, keypair, policy):
    return build_tree(schema, keypair, policy, fanout=4, n=60)


@pytest.fixture
def updater(fresh_tree):
    return AuthenticatedUpdater(fresh_tree)


def make_row(schema, key):
    return Row(schema, (key, f"item-{key}", (key * 7) % 100, (key * 3) % 50))


class TestInsert:
    def test_insert_maintains_audit(self, fresh_tree, updater, schema):
        updater.insert(make_row(schema, 1001))
        fresh_tree.audit()
        assert fresh_tree.get_row(1001)["name"] == "item-1001"

    def test_insert_within_gaps(self, fresh_tree, updater, schema):
        # Odd keys slot between the existing even keys (no split needed
        # until capacity, exercising the paper's fold path).
        for key in (1, 3, 5, 7):
            updater.insert(make_row(schema, key))
        fresh_tree.audit()

    def test_many_inserts_with_splits(self, fresh_tree, updater, schema):
        for key in range(1001, 1101):
            updater.insert(make_row(schema, key))
        fresh_tree.audit()
        fresh_tree.tree.validate()

    def test_duplicate_insert_rejected(self, fresh_tree, updater, schema):
        with pytest.raises(DuplicateKeyError):
            updater.insert(make_row(schema, 0))

    def test_version_bumps(self, fresh_tree, updater, schema):
        v0 = fresh_tree.version
        updater.insert(make_row(schema, 2001))
        assert fresh_tree.version == v0 + 1

    def test_queries_verify_after_inserts(self, fresh_tree, updater, schema, keypair):
        for key in range(901, 951, 2):
            updater.insert(make_row(schema, key))
        auth = QueryAuthenticator(fresh_tree)
        verifier = ResultVerifier(
            DigestEngine(DB_NAME, policy=fresh_tree.policy),
            public_key=keypair.public,
        )
        result = auth.range_query(low=890, high=960)
        assert verifier.verify(result).ok


class TestDelete:
    def test_delete_maintains_audit(self, fresh_tree, updater):
        updater.delete(10)
        fresh_tree.audit()

    def test_delete_many_with_node_removal(self, fresh_tree, updater):
        keys = [r.key for r in fresh_tree.rows()][:40]
        for key in keys:
            updater.delete(key)
        fresh_tree.audit()
        fresh_tree.tree.validate()

    def test_delete_range(self, fresh_tree, updater):
        removed = updater.delete_range(20, 60)
        assert [r.key for r in removed] == list(range(20, 61, 2))
        fresh_tree.audit()

    def test_queries_verify_after_deletes(self, fresh_tree, updater, keypair):
        updater.delete_range(30, 50)
        auth = QueryAuthenticator(fresh_tree)
        verifier = ResultVerifier(
            DigestEngine(DB_NAME, policy=fresh_tree.policy),
            public_key=keypair.public,
        )
        result = auth.range_query(low=0, high=118)
        assert verifier.verify(result).ok
        assert all(not (30 <= k <= 50) for k in result.keys)


class TestInterleavedUpdates:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 200)), max_size=40))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_update_sequences_keep_digests_valid(
        self, schema, keypair, ops
    ):
        tree = build_tree(schema, keypair, DigestPolicy.FLATTENED, fanout=4, n=30)
        updater = AuthenticatedUpdater(tree)
        present = {r.key for r in tree.rows()}
        for is_insert, key in ops:
            if is_insert and key not in present:
                updater.insert(make_row(schema, key))
                present.add(key)
            elif not is_insert and key in present:
                updater.delete(key)
                present.discard(key)
        tree.audit()
        assert {r.key for r in tree.rows()} == present


class TestSignaturesAtThePapersFormulas:
    """Section 4.4 prices a write in signatures.  With one signature per
    node and one per tuple (DESIGN.md D5) the running system makes
    exactly formula 11's count minus its ``N_c`` attribute signatures —
    the as-built closed form — and exactly formula 12's for a delete.
    The tree is the e2e fabric recipe's — 10 columns × 20 B, keys on a
    step-4 lattice, default page geometry — at the fewest rows that
    give its height."""

    COLUMNS = 10
    KEY_STEP = 4

    @pytest.fixture(scope="class")
    def metered(self, keypair):
        schema, rows = generate_table(
            TableSpec(
                name="items", rows=1400, columns=self.COLUMNS, attr_size=20,
                key_step=self.KEY_STEP, seed=1,
            )
        )
        meter = CostMeter()
        signing = SigningDigestEngine(
            DigestEngine(DB_NAME, meter=meter),
            DigestSigner.from_keypair(keypair, meter=meter),
        )
        tree = VBTree.build(schema, [Row(schema, v) for v in rows], signing)
        assert tree.height() == 3
        # A build signs every tuple and node once: rows + nodes.
        assert meter.signs == 1400 + tree.tree.node_count()
        geometry = tree.geometry
        # The formulas assume full nodes; a tree built by inserts is
        # half full, so give them the fewest rows whose *packed* height
        # is the height this tree has.
        params = Parameters(
            digest_len=geometry.digest_len,
            key_len=geometry.key_len,
            num_cols=self.COLUMNS,
            num_rows=geometry.leaf_capacity() * geometry.internal_fanout() + 1,
        )
        assert params.vbtree_geometry().height_for(params.num_rows) == 3
        return schema, tree, AuthenticatedUpdater(tree), meter, params

    def _signs(self, meter, mutate, *args):
        before = meter.signs
        mutate(*args)
        return meter.signs - before

    def _row(self, schema, key):
        return Row(schema, (key, *[f"{key}-{c}".ljust(20, "x") for c in range(1, 10)]))

    def test_no_split_insert_signs_formula_11_less_its_attributes(self, metered):
        schema, _tree, updater, meter, params = metered
        key = 10 * self.KEY_STEP + 1  # a hole in a half-full leaf
        before = meter.snapshot()
        signs = self._signs(meter, updater.insert, self._row(schema, key))
        delta = updater.take_delta()
        assert not delta.structural and len(delta.node_updates) == 3
        as_built = insert_cost_as_built(params)
        assert signs == as_built.signs == 1 + 3
        assert as_built.signs == insert_cost(params).signs - self.COLUMNS
        # ... and the rest of the closed form: N_c + 1 hashes, one fold
        # per path node.
        assert meter.hashes - before["hashes"] == as_built.hashes == self.COLUMNS + 1
        assert meter.combines - before["combines"] == as_built.combines == 3

    def test_single_row_delete_signs_its_dirty_nodes(self, metered):
        _schema, _tree, updater, meter, params = metered
        signs = self._signs(meter, updater.delete, 700 * self.KEY_STEP)
        delta = updater.take_delta()
        assert not delta.structural
        assert signs == len(delta.node_updates) == 3
        assert signs <= delete_cost(params, 1).signs

    def test_split_insert_signs_each_dirty_node_once(self, metered):
        schema, tree, updater, meter, _params = metered
        leaf = tree.tree.find_leaf(300 * self.KEY_STEP)
        base = leaf.keys[0]
        for hole in range(1, 200):
            if hole % self.KEY_STEP == 0:
                continue
            signs = self._signs(meter, updater.insert, self._row(schema, base + hole))
            delta = updater.take_delta()
            assert signs == 1 + len(delta.node_updates)
            if delta.structural:
                # leaf, its new sibling, their parent, the root
                assert len(delta.node_updates) == 4
                break
        else:
            pytest.fail("the leaf never split")
        tree.audit()


class TestLockingProtocol:
    def test_insert_short_locks_released(self, fresh_tree, schema):
        tm = TransactionManager()
        updater = AuthenticatedUpdater(fresh_tree, short_insert_locks=True)
        txn = tm.begin()
        updater.insert(make_row(schema, 3001), txn=txn)
        # Paper behaviour: digest locks already released before commit.
        assert all(
            res[0] != "digest" for res in tm.locks.held_by(txn.txn_id)
        )
        txn.commit()

    def test_insert_strict_locks_held(self, fresh_tree, schema):
        tm = TransactionManager()
        updater = AuthenticatedUpdater(fresh_tree, short_insert_locks=False)
        txn = tm.begin()
        updater.insert(make_row(schema, 3001), txn=txn)
        digest_locks = [
            res for res in tm.locks.held_by(txn.txn_id) if res[0] == "digest"
        ]
        assert digest_locks
        txn.commit()
        assert tm.locks.held_by(txn.txn_id) == set()

    def test_delete_xlocks_path(self, fresh_tree):
        tm = TransactionManager()
        updater = AuthenticatedUpdater(fresh_tree)
        txn = tm.begin()
        updater.delete(10, txn=txn)
        digest_locks = [
            res for res in tm.locks.held_by(txn.txn_id) if res[0] == "digest"
        ]
        assert len(digest_locks) >= fresh_tree.height() - 1
        txn.commit()

    def test_query_blocked_by_overlapping_delete(self, fresh_tree):
        """A reader whose envelope overlaps an in-flight delete's path
        cannot proceed (Section 3.4's consistency guarantee)."""
        tm = TransactionManager()
        updater = AuthenticatedUpdater(fresh_tree)
        writer = tm.begin()
        updater.delete(10, txn=writer)  # holds X-locks on the path
        reader = tm.begin()
        auth = QueryAuthenticator(fresh_tree)
        with pytest.raises(LockError):
            auth.range_query(low=0, high=20, txn=reader)
        writer.commit()
        reader2 = tm.begin()
        result = auth.range_query(low=0, high=20, txn=reader2)
        assert result.rows  # proceeds after commit
        reader2.commit()

    def test_disjoint_query_proceeds_during_delete(self, fresh_tree):
        """A reader on a disjoint envelope is NOT blocked — the benefit
        the paper claims over root-signature schemes."""
        tm = TransactionManager()
        updater = AuthenticatedUpdater(fresh_tree)
        writer = tm.begin()
        updater.delete(0, txn=writer)  # locks leftmost path
        reader = tm.begin()
        auth = QueryAuthenticator(fresh_tree)
        # The rightmost few keys live in a different subtree for fanout=4.
        keys = [r.key for r in fresh_tree.rows()]
        result = auth.range_query(low=keys[-2], high=keys[-1], txn=reader)
        assert len(result.rows) == 2
        writer.commit()
        reader.commit()

    def test_digest_resource_shape(self):
        assert digest_resource("t", 5) == ("digest", "t", 5)
