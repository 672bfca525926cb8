"""End-to-end tests: edge-side VO construction + client-side verification.

These are the paper's Lemma 1 / Lemma 2 correctness claims plus the
adversarial side: honest results always verify; tampered values,
spurious tuples, and misassembled VOs never do.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.digests import DigestEngine, DigestPolicy
from repro.core.query_auth import QueryAuthenticator
from repro.core.verify import ResultVerifier
from repro.core.vo import VOFormat
from repro.crypto.signatures import DigestVerifier, SignedDigest
from repro.db.expressions import Comparison, between
from repro.exceptions import VOFormatError

from tests.core.conftest import DB_NAME, build_tree, flip_bit


class TestHonestSelection:
    def test_full_scan_verifies(self, authenticator, verifier):
        result = authenticator.range_query()
        verdict = verifier.verify(result)
        assert verdict.ok, verdict.reason
        assert verdict.rows_checked == len(result.rows)

    def test_point_query_verifies(self, authenticator, verifier):
        result = authenticator.range_query(low=20, high=20)
        assert len(result.rows) == 1
        assert verifier.verify(result).ok

    @pytest.mark.parametrize(
        "low,high",
        [(0, 30), (10, 11), (100, 250), (398, 398), (0, 398), (37, 111)],
    )
    def test_ranges_verify(self, authenticator, verifier, low, high):
        result = authenticator.range_query(low=low, high=high)
        verdict = verifier.verify(result)
        assert verdict.ok, f"[{low},{high}]: {verdict.reason}"

    def test_empty_result_verifies(self, authenticator, verifier):
        # Keys are even; an odd singleton range selects nothing.
        result = authenticator.range_query(low=21, high=21)
        assert result.rows == []
        assert verifier.verify(result).ok

    def test_nonkey_selection_with_gaps_verifies(self, authenticator, verifier):
        # price = (k*7) % 100 — scattered matches, many gaps.
        result = authenticator.select(Comparison("price", "<", 30))
        assert 0 < len(result.rows) < 200
        assert verifier.verify(result).ok

    def test_conjunctive_selection_verifies(self, authenticator, verifier):
        pred = between("id", 50, 150) & Comparison("stock", ">=", 10)
        result = authenticator.select(pred)
        assert verifier.verify(result).ok

    def test_vo_size_independent_of_table_size(self, schema, keypair, policy):
        """The headline claim: |VO| depends on the result, not N_r."""
        small = build_tree(schema, keypair, policy, fanout=5, n=100)
        large = build_tree(schema, keypair, policy, fanout=5, n=800)
        q_small = QueryAuthenticator(small).range_query(low=20, high=60)
        q_large = QueryAuthenticator(large).range_query(low=20, high=60)
        assert q_small.vo.digest_count() <= 3 * q_large.vo.digest_count()
        assert q_large.vo.digest_count() <= 3 * q_small.vo.digest_count()


class TestHonestProjection:
    def test_projection_verifies(self, authenticator, verifier):
        result = authenticator.range_query(
            low=0, high=100, columns=("id", "name")
        )
        assert result.columns == ("id", "name")
        assert result.filtered_columns == ("price", "stock")
        assert verifier.verify(result).ok

    def test_projection_without_key_verifies(self, authenticator, verifier):
        result = authenticator.range_query(low=0, high=60, columns=("name",))
        assert verifier.verify(result).ok
        # Keys still shipped for digest recomputation.
        assert len(result.keys) == len(result.rows)

    def test_projection_plus_gaps_verifies(self, authenticator, verifier):
        result = authenticator.select(
            Comparison("price", ">=", 50), columns=("id", "price")
        )
        assert verifier.verify(result).ok

    def test_dp_cardinality(self, authenticator):
        result = authenticator.range_query(low=0, high=58, columns=("id",))
        filtered = len(result.all_columns) - 1
        assert len(result.vo.projection_digests) == len(result.rows) * filtered * 16


class TestVOFormats:
    def test_flat_format_only_under_flattened(self, schema, keypair):
        nested = build_tree(schema, keypair, DigestPolicy.NESTED, n=50)
        auth = QueryAuthenticator(nested)
        with pytest.raises(VOFormatError):
            auth.range_query(low=0, high=20, vo_format=VOFormat.FLAT_SET)

    def test_flat_entries_carry_no_positions(self, schema, keypair):
        flat_tree = build_tree(schema, keypair, DigestPolicy.FLATTENED, n=50)
        result = QueryAuthenticator(flat_tree).range_query(
            low=0, high=20, vo_format=VOFormat.FLAT_SET
        )
        assert result.vo.result_positions is None
        assert all(e.path is None for e in result.vo.selection_entries)

    def test_structured_under_flattened_also_verifies(
        self, schema, keypair
    ):
        tree = build_tree(schema, keypair, DigestPolicy.FLATTENED, n=60)
        auth = QueryAuthenticator(tree)
        result = auth.range_query(low=10, high=80, vo_format=VOFormat.STRUCTURED)
        verifier = ResultVerifier(
            DigestEngine(DB_NAME, policy=DigestPolicy.FLATTENED),
            public_key=keypair.public,
        )
        assert verifier.verify(result).ok

    def test_both_formats_same_digest_count(self, schema, keypair):
        tree = build_tree(schema, keypair, DigestPolicy.FLATTENED, n=60)
        auth = QueryAuthenticator(tree)
        flat = auth.range_query(low=10, high=80, vo_format=VOFormat.FLAT_SET)
        structured = auth.range_query(
            low=10, high=80, vo_format=VOFormat.STRUCTURED
        )
        assert flat.vo.digest_count() == structured.vo.digest_count()


class TestTamperDetection:
    """No adversarial modification may survive verification."""

    def _result(self, authenticator):
        return authenticator.range_query(low=20, high=120)

    def test_modified_value_detected(self, authenticator, verifier):
        result = self._result(authenticator)
        row = list(result.rows[3])
        row[1] = row[1] + "X"  # tamper with 'name'
        result.rows[3] = tuple(row)
        assert not verifier.verify(result).ok

    def test_modified_int_value_detected(self, authenticator, verifier):
        result = self._result(authenticator)
        row = list(result.rows[0])
        row[2] += 1  # price
        result.rows[0] = tuple(row)
        assert not verifier.verify(result).ok

    def test_spurious_tuple_detected(self, authenticator, verifier):
        result = self._result(authenticator)
        result.rows.append((999, "fake", 1, 1))
        result.keys.append(999)
        if result.vo.result_positions is not None:
            result.vo.result_positions.append(
                result.vo.result_positions[-1]
            )
        assert not verifier.verify(result).ok

    def test_duplicated_tuple_detected(self, authenticator, verifier):
        result = self._result(authenticator)
        result.rows.append(result.rows[0])
        result.keys.append(result.keys[0])
        if result.vo.result_positions is not None:
            result.vo.result_positions.append(result.vo.result_positions[0])
        assert not verifier.verify(result).ok

    def test_dropped_tuple_detected(self, authenticator, verifier):
        """Dropping a tuple without covering it in D_S fails (its digest
        is missing from the recomputation)."""
        result = self._result(authenticator)
        result.rows.pop(2)
        result.keys.pop(2)
        if result.vo.result_positions is not None:
            result.vo.result_positions.pop(2)
        assert not verifier.verify(result).ok

    def test_swapped_values_between_tuples_detected(self, authenticator, verifier):
        """Swapping an attribute value between two rows keeps the
        multiset of raw values but changes per-tuple digests (the key is
        hashed into every attribute digest)."""
        result = self._result(authenticator)
        r0, r1 = list(result.rows[0]), list(result.rows[1])
        r0[2], r1[2] = r1[2], r0[2]
        result.rows[0], result.rows[1] = tuple(r0), tuple(r1)
        assert not verifier.verify(result).ok

    def test_tampered_ds_digest_detected(self, authenticator, verifier):
        result = authenticator.select(Comparison("price", "<", 20))
        if not result.vo.selection_entries:
            pytest.skip("no gaps in this draw")
        entry = result.vo.selection_entries[0]
        result.vo.selection_entries[0] = type(entry)(
            kind=entry.kind,
            signed=flip_bit(entry.signed),
            path=entry.path,
            slot=entry.slot,
        )
        assert not verifier.verify(result).ok

    def test_tampered_top_digest_detected(self, authenticator, verifier):
        result = self._result(authenticator)
        result.vo.top_signed = flip_bit(result.vo.top_signed)
        assert not verifier.verify(result).ok

    def test_dropped_ds_entry_detected(self, authenticator, verifier):
        result = authenticator.range_query(low=22, high=70)
        if not result.vo.selection_entries:
            pytest.skip("no D_S entries for this range")
        result.vo.selection_entries.pop(0)
        assert not verifier.verify(result).ok

    def test_dropped_dp_entry_detected(self, authenticator, verifier):
        result = authenticator.range_query(low=0, high=40, columns=("id",))
        result.vo.projection_digests = result.vo.projection_digests[16:]
        verdict = verifier.verify(result)
        assert not verdict.ok and verdict.reason.startswith("malformed VO")

    def test_projection_value_smuggling_detected(self, authenticator, verifier):
        """Renaming a returned column (pretending a value belongs to a
        different attribute) is caught because the attribute name is
        hashed into the digest."""
        result = authenticator.range_query(
            low=0, high=40, columns=("id", "price")
        )
        result.columns = ("id", "stock")  # lie about which column it is
        assert not verifier.verify(result).ok

    def test_wrong_key_for_row_detected(self, authenticator, verifier):
        result = self._result(authenticator)
        result.keys[0] = result.keys[1]
        assert not verifier.verify(result).ok


def _product_in_ds(result, forge):
    a, b = result.vo.selection_entries[:2]
    result.vo.selection_entries[0] = dataclasses.replace(
        a, signed=forge(a.signed, b.signed)
    )


def _product_as_dn(result, forge):
    # The envelope top times a pruned branch beside it.
    result.vo.top_signed = forge(
        result.vo.top_signed, result.vo.selection_entries[0].signed
    )


class TestRecoveredValueBound:
    """Textbook RSA is multiplicative: the product of two epoch-0
    signatures is a "signature" nobody made that recovers, without
    error, to ``v1 * v2 * 2^16`` — wider than any digest.  Wherever it
    is offered the verifier refuses it as a bad signature instead of
    reducing it mod ``2^k`` and folding it in.  (``D_P`` carries no
    signatures any more, so there is nothing to multiply there.)"""

    @pytest.mark.parametrize(
        "place", [_product_in_ds, _product_as_dn], ids=["D_S", "D_N"]
    )
    def test_signature_product_is_a_bad_signature(
        self, authenticator, verifier, keypair, place
    ):
        recovered = []

        def forge(a, b):
            assert a.epoch == b.epoch == 0
            width = keypair.public.signature_len
            product = (
                int.from_bytes(a[:-2], "big") * int.from_bytes(b[:-2], "big")
            ) % keypair.public.n
            forged = SignedDigest(product.to_bytes(width, "big") + bytes(2))
            # No error from the recovery itself: the low 16 bits say epoch 0.
            recovered.append(DigestVerifier(keypair.public).recover(forged))
            return forged

        result = authenticator.range_query(low=22, high=70, columns=("id", "name"))
        assert verifier.verify(result).ok
        place(result, forge)
        assert recovered[0] >= verifier.engine.commutative.modulus
        verdict = verifier.verify(result)
        assert not verdict.ok
        assert verdict.reason.startswith("bad signature")


class TestColludingDrop:
    """The paper's trust-model boundary: an edge server that drops a
    qualifying tuple AND re-covers it as a gap digest produces a VO that
    still verifies — edge servers are assumed not to act maliciously
    (Section 3.1).  This test pins that boundary explicitly."""

    def test_drop_and_cover_passes(self, schema, keypair):
        tree = build_tree(schema, keypair, DigestPolicy.FLATTENED, n=60)
        auth = QueryAuthenticator(tree)
        result = auth.range_query(low=0, high=60, vo_format=VOFormat.FLAT_SET)
        # Maliciously drop row 1 but add its signed tuple digest to D_S.
        dropped_key = result.keys[1]
        result.rows.pop(1)
        result.keys.pop(1)
        from repro.core.vo import VOEntry, VOEntryKind

        result.vo.selection_entries.append(
            VOEntry(kind=VOEntryKind.TUPLE, signed=tree.tuple_auth(dropped_key))
        )
        verifier = ResultVerifier(
            DigestEngine(DB_NAME, policy=DigestPolicy.FLATTENED),
            public_key=keypair.public,
        )
        assert verifier.verify(result).ok  # documented model boundary

    def test_tuple_signature_as_dn_is_the_same_boundary(self, schema, keypair):
        """``D_N`` has one form, so any central signature whose value
        equals the folded product can stand as it (DESIGN.md §20): a
        tuple's own signed digest tops a one-row "envelope".  That is
        drop-and-cover taken to its end — every returned value is still
        under a central signature, and a value the owner did not sign
        is still refused."""
        tree = build_tree(schema, keypair, DigestPolicy.FLATTENED, n=60)
        result = QueryAuthenticator(tree).range_query(
            low=0, high=60, vo_format=VOFormat.FLAT_SET
        )
        kept = result.keys[1]
        result.rows, result.keys = [result.rows[1]], [kept]
        result.vo.selection_entries.clear()
        result.vo.top_signed = tree.tuple_auth(kept)
        verifier = ResultVerifier(
            DigestEngine(DB_NAME, policy=DigestPolicy.FLATTENED),
            public_key=keypair.public,
        )
        assert verifier.verify(result).ok  # documented model boundary
        result.rows[0] = (*result.rows[0][:-1], result.rows[0][-1] + 1)
        assert not verifier.verify(result).ok


class TestPropertyBasedRanges:
    @given(
        st.integers(min_value=-10, max_value=420),
        st.integers(min_value=-10, max_value=420),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_range_verifies(self, authenticator, verifier, a, b):
        low, high = min(a, b), max(a, b)
        result = authenticator.range_query(low=low, high=high)
        expected = [k for k in range(0, 400, 2) if low <= k <= high]
        assert result.keys == expected
        assert verifier.verify(result).ok

    @given(st.integers(min_value=0, max_value=99))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_price_threshold_verifies(self, authenticator, verifier, t):
        result = authenticator.select(Comparison("price", "<", t))
        assert verifier.verify(result).ok
