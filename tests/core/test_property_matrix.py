"""Property matrix: verification must hold across the full cross
product of (digest policy x VO format x projection x range shape),
including after update churn."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.digests import DigestEngine, DigestPolicy
from repro.core.envelope import find_envelope
from repro.core.query_auth import QueryAuthenticator
from repro.core.update import AuthenticatedUpdater
from repro.core.verify import ResultVerifier
from repro.core.vo import VOFormat
from repro.core.wire import result_from_bytes, result_to_bytes
from repro.crypto.signatures import DigestVerifier
from repro.db.rows import Row

from tests.core.conftest import DB_NAME, build_tree

COLUMNS = ("id", "name", "price", "stock")

projections = st.one_of(
    st.none(),
    st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=4, unique=True).map(
        tuple
    ),
)


def _value_from_rows(tree, node):
    """A node's digest value recomputed from nothing but the rows."""
    engine = tree.signing.engine
    if node.is_leaf:
        children = [
            engine.tuple_digests(tree.table_name, row).tuple_value
            for row in node.values
        ]
    else:
        children = [_value_from_rows(tree, child) for child in node.children]
    return engine.node_value(children)


@pytest.fixture(scope="module", params=[DigestPolicy.FLATTENED, DigestPolicy.NESTED])
def matrix_setup(request, schema, keypair):
    policy = request.param
    tree = build_tree(schema, keypair, policy, fanout=4, n=120)
    verifier = ResultVerifier(
        DigestEngine(DB_NAME, policy=policy), public_key=keypair.public
    )
    return tree, QueryAuthenticator(tree), verifier, policy


class TestVerificationMatrix:
    @given(
        st.integers(min_value=-5, max_value=245),
        st.integers(min_value=0, max_value=250),
        projections,
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_every_combination_verifies(self, matrix_setup, a, b, cols):
        tree, auth, verifier, policy = matrix_setup
        low, high = min(a, b), max(a, b)
        formats = [VOFormat.STRUCTURED]
        if policy is DigestPolicy.FLATTENED:
            formats.append(VOFormat.FLAT_SET)
        for fmt in formats:
            result = auth.range_query(
                low=low, high=high, columns=cols, vo_format=fmt
            )
            verdict = verifier.verify(result)
            assert verdict.ok, (
                f"policy={policy} fmt={fmt} range=[{low},{high}] "
                f"cols={cols}: {verdict.reason}"
            )
            # Result correctness, not just verifiability:
            expected_keys = [k for k in range(0, 240, 2) if low <= k <= high]
            assert result.keys == expected_keys

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 300)),
            min_size=1,
            max_size=25,
        ),
        st.integers(min_value=0, max_value=280),
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_verification_survives_update_churn(
        self, schema, keypair, ops, probe
    ):
        """Apply a random insert/delete sequence, then every probe query
        must still verify and reflect exactly the surviving keys."""
        tree = build_tree(schema, keypair, DigestPolicy.FLATTENED, fanout=4, n=40)
        updater = AuthenticatedUpdater(tree)
        present = {r.key for r in tree.rows()}
        for is_insert, key in ops:
            if is_insert and key not in present:
                updater.insert(
                    Row(schema, (key, f"item-{key}", key % 100, key % 50))
                )
                present.add(key)
            elif not is_insert and key in present:
                updater.delete(key)
                present.discard(key)
        auth = QueryAuthenticator(tree)
        verifier = ResultVerifier(
            DigestEngine(DB_NAME, policy=DigestPolicy.FLATTENED),
            public_key=keypair.public,
        )
        result = auth.range_query(low=probe, high=probe + 60)
        assert verifier.verify(result).ok
        assert result.keys == sorted(
            k for k in present if probe <= k <= probe + 60
        )

    @given(
        st.sampled_from(list(DigestPolicy)),
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=3, max_value=7),
        st.integers(min_value=-4, max_value=100),
        st.integers(min_value=0, max_value=60),
        projections,
    )
    @settings(max_examples=30, deadline=None)
    def test_top_signature_recovers_to_the_value_the_client_folds(
        self, schema, keypair, policy, n, fanout, low, span, cols
    ):
        """``D_N`` has one form (DESIGN.md §20): over random trees and
        ranges, what the envelope top's one signature recovers to is the
        node's value recomputed from the rows, and — the verdict being
        exactly that comparison — the value the client folds from the
        answer as it came off the wire, in every VO format the policy
        admits."""
        tree = build_tree(schema, keypair, policy, fanout=fanout, n=n)
        auth = QueryAuthenticator(tree)
        verifier = ResultVerifier(
            DigestEngine(DB_NAME, policy=policy), public_key=keypair.public
        )
        recover = DigestVerifier(keypair.public).recover
        sig_len = keypair.public.signature_len
        formats = [VOFormat.STRUCTURED]
        if policy is DigestPolicy.FLATTENED:
            formats.append(VOFormat.FLAT_SET)
        for fmt in formats:
            result = auth.range_query(
                low=low, high=low + span, columns=cols, vo_format=fmt
            )
            top = find_envelope(tree.tree, result.keys).top
            assert result.vo.top_signed is tree.node_auth(top)
            assert recover(result.vo.top_signed) == _value_from_rows(tree, top)
            received = result_from_bytes(result_to_bytes(result, sig_len))
            verdict = verifier.verify(received)
            assert verdict.ok, f"{policy} {fmt} n={n} fanout={fanout}: {verdict.reason}"
            if received.rows:
                received.keys[0] += 1  # formula (1) binds the key
                assert not verifier.verify(received).ok
