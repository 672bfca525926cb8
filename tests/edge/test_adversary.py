"""Adversary-model tests: what the mechanism detects, and the one
documented boundary it does not."""

import pytest

from repro.core.vo import VOFormat
from repro.edge.adversary import (
    DropTuple,
    ResponseTamper,
    SpuriousTuple,
    StaleReplay,
    ValueTamper,
)
from repro.edge.central import CentralServer, ReplicationMode
from repro.workloads.generator import TableSpec, generate_table

DB = "advdb"


@pytest.fixture
def setup():
    server = CentralServer(db_name=DB, rsa_bits=512, seed=21)
    schema, rows = generate_table(TableSpec(name="t", rows=120, columns=5, seed=4))
    server.create_table(schema, rows, fanout_override=6)
    edge = server.spawn_edge_server("compromised")
    client = server.make_client()
    return server, edge, client


class TestDetectedAttacks:
    def test_at_rest_value_tamper_detected(self, setup):
        _server, edge, client = setup
        ValueTamper(table="t", key=50, column="a1", new_value="evil").apply(edge)
        resp = edge.range_query("t", low=40, high=60)
        verdict = client.verify(resp)
        assert not verdict.ok

    @pytest.mark.parametrize("vo_format", list(VOFormat), ids=lambda f: f.value)
    def test_at_rest_tamper_of_a_hidden_column_detected(self, setup, vo_format):
        """The edge hashes what it holds (DESIGN.md §21): a projection
        that hides the tampered column ships the digest of the tampered
        value, and the row no longer hashes to what was signed.  While
        hidden attributes travelled as the central server's signatures
        this passed — the client never saw the value either way."""
        _server, edge, client = setup
        query = dict(low=40, high=60, columns=("id", "a1"), vo_format=vo_format)
        assert client.verify(edge.range_query("t", **query)).ok
        ValueTamper(table="t", key=50, column="a3", new_value="evil").apply(edge)
        verdict = client.verify(edge.range_query("t", **query))
        assert not verdict.ok and verdict.reason.startswith("digest mismatch")
        # ... and still only where the tampered tuple is covered.
        assert client.verify(
            edge.range_query("t", low=80, high=100, columns=("id", "a1"))
        ).ok

    def test_tamper_outside_query_range_not_flagged(self, setup):
        """Tampering is only visible in results that cover the tuple —
        queries elsewhere still verify."""
        _server, edge, client = setup
        ValueTamper(table="t", key=50, column="a1", new_value="evil").apply(edge)
        resp = edge.range_query("t", low=80, high=100)
        assert client.verify(resp).ok

    def test_spurious_tuple_detected(self, setup):
        _server, edge, client = setup
        SpuriousTuple(table="t", row_values=(1000, "f", "a", "k", "e")).apply(edge)
        resp = edge.range_query("t", low=990, high=1010)
        assert len(resp.result.rows) == 1  # the fake tuple is returned
        assert not client.verify(resp).ok

    def test_in_flight_response_tamper_detected(self, setup):
        _server, edge, client = setup
        ResponseTamper(row_index=0, column_index=1, new_value="evil").install(edge)
        resp = edge.range_query("t", low=0, high=30)
        assert not client.verify(resp).ok

    def test_drop_without_cover_detected(self, setup):
        _server, edge, client = setup
        DropTuple(table="t", index=2, cover=False).install(edge)
        resp = edge.range_query("t", low=0, high=30)
        assert not client.verify(resp).ok

    @pytest.mark.parametrize("vo_format", list(VOFormat), ids=lambda f: f.value)
    def test_drop_without_cover_on_projected_query_detected(self, setup, vo_format):
        """The dropped row's block is sliced out of ``D_P``, so the
        result is well-formed — and a digest short."""
        _server, edge, client = setup
        DropTuple(table="t", index=2, cover=False).install(edge)
        resp = edge.range_query(
            "t", low=0, high=30, columns=("id", "a1"), vo_format=vo_format
        )
        assert len(resp.result.rows) == 30
        assert len(resp.result.vo.projection_digests) == 30 * 3 * 16
        verdict = client.verify(resp)
        assert not verdict.ok and not verdict.reason.startswith("malformed VO")

    def test_stale_replay_detected_after_rotation(self):
        server = CentralServer(
            db_name=DB,
            rsa_bits=512,
            seed=22,
            replication=ReplicationMode.LAZY,
        )
        schema, rows = generate_table(TableSpec(name="t", rows=60, columns=4))
        server.create_table(schema, rows, fanout_override=6)
        stale_edge = server.spawn_edge_server("stale")
        client = server.make_client()

        # Before rotation: the stale edge's data verifies fine.
        assert client.verify(stale_edge.range_query("t", low=0, high=10)).ok

        server.rotate_key(seed=23)       # epoch 1; epoch 0 expires at t=0
        server.keyring.tick()            # time moves past the validity window

        assert StaleReplay(table="t").is_stale(server, stale_edge)
        verdict = client.verify(stale_edge.range_query("t", low=0, high=10))
        assert not verdict.ok
        assert "stale" in verdict.reason

        # A freshly propagated edge verifies again under the new epoch.
        server.propagate()
        assert client.verify(stale_edge.range_query("t", low=0, high=10)).ok


class TestTrustModelBoundary:
    def test_drop_with_cover_passes(self, setup):
        """The documented boundary (Section 3.1): a *malicious* edge
        that re-covers dropped tuples with their signed digests defeats
        completeness checking.  The paper assumes edges don't do this."""
        _server, edge, client = setup
        DropTuple(table="t", index=2, cover=True).install(edge)
        resp = edge.range_query("t", low=0, high=30)
        assert len(resp.result.rows) == 30  # one of 31 dropped
        assert client.verify(resp).ok       # and yet it verifies

    def test_drop_with_cover_on_projected_query_passes(self, setup):
        _server, edge, client = setup
        DropTuple(table="t", index=0, cover=True).install(edge)
        resp = edge.range_query("t", low=0, high=30, columns=("id", "a1"))
        assert client.verify(resp).ok


class TestDeltaAdversary:
    """Attacks on the replication wire (DESIGN.md section 6): a
    tampered, forged, replayed, or out-of-order ReplicaDelta must be
    rejected by the edge, and a forged delta must never yield a
    verifying query result."""

    def _server_with_edge(self, replication=ReplicationMode.LAZY):
        server = CentralServer(
            db_name=DB, rsa_bits=512, seed=29, replication=replication
        )
        schema, rows = generate_table(TableSpec(name="t", rows=80, columns=4))
        server.create_table(schema, rows, fanout_override=6)
        edge = server.spawn_edge_server("victim")
        return server, edge, server.make_client()

    def test_tampered_delta_payload_rejected(self):
        from repro.exceptions import ReplicaDeltaError

        server, edge, client = self._server_with_edge()
        server.insert("t", (9001, "a", "b", "c"))
        payload = bytearray(
            server.replicator.log_for("t").entries_since(0)[0].payload
        )
        payload[len(payload) // 2] ^= 0xFF  # flip a bit mid-body
        with pytest.raises(ReplicaDeltaError):
            edge.apply_delta("t", bytes(payload))
        # The replica is untouched: queries still verify, without the row.
        resp = edge.range_query("t", low=9001, high=9001)
        assert resp.result.rows == []
        assert client.verify(resp).ok

    def test_forged_delta_rejected_no_verifying_result(self):
        """A hacker who cannot sign fabricates a delta inserting a
        tuple with a garbage signature; the edge rejects it outright."""
        import random

        from repro.core.delta import (
            DeltaOpKind,
            NodeDigestUpdate,
            ReplicaDelta,
            TupleOp,
        )
        from repro.core.wire import delta_body_bytes
        from repro.crypto.signatures import SignedDigest
        from repro.db.rows import Row
        from repro.exceptions import DeltaTamperError

        server, edge, client = self._server_with_edge()
        vbt = edge.replica("t")
        rng = random.Random(5)
        width = server.public_key.signature_len
        fake_sig = lambda: SignedDigest(
            rng.getrandbits(256).to_bytes(width, "big") + bytes(2)
        )
        row = Row(vbt.schema, (6666, "f", "a", "ke"))
        forged = ReplicaDelta(
            table="t",
            lsn_first=1,
            lsn_last=1,
            epoch=0,
            base_version=vbt.version,
            new_version=vbt.version + 1,
            structural=False,
            ops=(
                TupleOp(
                    kind=DeltaOpKind.INSERT,
                    values=tuple(row.values),
                    signed_tuple=fake_sig(),
                ),
            ),
            node_updates=(
                NodeDigestUpdate(
                    node_id=vbt.tree.root.node_id,
                    signed=fake_sig(),
                ),
            ),
            freed_nodes=(),
            signature=fake_sig(),
        )
        sig_len = server.public_key.signature_len
        payload = delta_body_bytes(forged, sig_len) + forged.signature
        with pytest.raises(DeltaTamperError):
            edge.apply_delta("t", payload)
        resp = edge.range_query("t", low=6666, high=6666)
        assert resp.result.rows == []
        assert client.verify(resp).ok

    def test_forcibly_applied_forged_delta_fails_client_verification(self):
        """Even if a hacker bypasses the edge's wire checks and mutates
        the replica with forged digests, the client catches it — the
        security invariant does not rest on the edge behaving."""
        import random

        from repro.core.delta import apply_delta
        from repro.core.delta import DeltaOpKind, ReplicaDelta, TupleOp
        from repro.crypto.signatures import SignedDigest
        from repro.db.rows import Row

        server, edge, client = self._server_with_edge()
        vbt = edge.replica("t")
        rng = random.Random(7)
        width = server.public_key.signature_len
        fake_sig = lambda: SignedDigest(
            rng.getrandbits(256).to_bytes(width, "big") + bytes(2)
        )
        row = Row(vbt.schema, (6666, "f", "a", "ke"))
        forged = ReplicaDelta(
            table="t",
            lsn_first=1,
            lsn_last=1,
            epoch=0,
            base_version=vbt.version,
            new_version=vbt.version + 1,
            structural=False,
            ops=(
                TupleOp(
                    kind=DeltaOpKind.INSERT,
                    values=tuple(row.values),
                    signed_tuple=fake_sig(),
                ),
            ),
            node_updates=(),
            freed_nodes=(),
        )
        apply_delta(vbt, forged)  # bypasses EdgeServer.apply_delta checks
        resp = edge.range_query("t", low=6666, high=6666)
        assert len(resp.result.rows) == 1  # the forged tuple is served
        assert not client.verify(resp).ok  # and the client rejects it

    def test_replayed_delta_rejected(self):
        from repro.exceptions import StaleDeltaError

        server, edge, _client = self._server_with_edge()
        server.insert("t", (9001, "a", "b", "c"))
        payload = server.replicator.log_for("t").entries_since(0)[0].payload
        edge.apply_delta("t", payload)
        with pytest.raises(StaleDeltaError):
            edge.apply_delta("t", payload)
        edge.replica("t").audit()

    def test_out_of_order_delta_rejected(self):
        from repro.exceptions import DeltaGapError

        server, edge, _client = self._server_with_edge()
        server.insert("t", (9001, "a", "b", "c"))
        server.insert("t", (9002, "a", "b", "c"))
        entries = server.replicator.log_for("t").entries_since(0)
        with pytest.raises(DeltaGapError):
            edge.apply_delta("t", entries[1].payload)

    def test_old_epoch_delta_rejected_after_rotation(self):
        from repro.exceptions import ReplicaDeltaError

        server, edge, _client = self._server_with_edge()
        server.insert("t", (9001, "a", "b", "c"))
        old_payload = server.replicator.log_for("t").entries_since(0)[0].payload
        server.rotate_key(seed=30)
        server.keyring.tick()
        with pytest.raises(ReplicaDeltaError):
            edge.apply_delta("t", old_payload)


    # -- the check sequence, verified over the received bytes ----------

    def _sealed_batch(self):
        """One coalesced lazy batch that reaches every region of the
        wire format: inserts, deletes that free nodes, node updates."""
        from repro.core.wire import delta_from_bytes

        server, edge, client = self._server_with_edge()
        for key in range(9001, 9004):
            server.insert("t", (key, "a", "b", "c"))
        for key in range(0, 14):  # empties leaves at fanout 6
            server.delete("t", key)
        payload, _head = server.delta_payload("t", edge.replica_lsns["t"])
        delta = delta_from_bytes(payload)
        assert delta.freed_nodes and delta.node_updates and len(delta.ops) == 17
        return server, edge, client, payload, delta

    @staticmethod
    def _region_offsets(payload, delta, sig_len):
        from repro.crypto.encoding import encode_value

        header = 4 + 5 + len(delta.table.encode())
        insert = delta.ops[0]
        return {
            "declared sig_len": 3,
            "table": 4 + 5,
            "lsn_first": header + 3,
            "lsn_last": header + 7,
            "epoch": header + 11,
            "row value": payload.index(encode_value(insert.values[1])) + 5,
            "tuple signature": payload.index(insert.signed_tuple) + 9,
            "last tuple signature": payload.index(delta.ops[2].signed_tuple) + 7,
            "node update": payload.index(delta.node_updates[0].signed) + 11,
            "last node update": payload.index(delta.node_updates[-1].signed) + 13,
            "freed id": len(payload) - (sig_len + 2) - 1,
            "signature": len(payload) - 3,
            "signature epoch": len(payload) - 1,
        }

    def test_flipped_byte_in_any_region_is_tamper_and_touches_nothing(self):
        from repro.exceptions import DeltaTamperError

        server, edge, client, payload, delta = self._sealed_batch()
        sig_len = server.public_key.signature_len
        vbt = edge.replica("t")
        before = (
            vbt.version,
            edge.replica_lsns["t"],
            edge.replica_versions["t"],
            [r.key for r in vbt.rows()],
        )
        for region, offset in self._region_offsets(payload, delta, sig_len).items():
            forged = bytearray(payload)
            forged[offset] ^= 0x01
            with pytest.raises(DeltaTamperError):
                edge.apply_delta("t", bytes(forged))
            after = (
                vbt.version,
                edge.replica_lsns["t"],
                edge.replica_versions["t"],
                [r.key for r in vbt.rows()],
            )
            assert after == before, region
            vbt.audit()
        # ... and the untouched payload still applies, with one recovery.
        verifies = edge.meter.verifies
        edge.apply_delta("t", payload)
        assert edge.meter.verifies == verifies + 1
        vbt.audit()
        assert client.verify(edge.range_query("t", low=9001, high=9003)).ok

    def test_rejected_delta_is_nacked_and_leaves_naive_store_alone(self):
        from repro.baselines.naive import NaiveStore
        from repro.edge.transport import DeltaFrame, frame_from_bytes, frame_to_bytes

        server = CentralServer(
            db_name=DB, rsa_bits=512, seed=29,
            replication=ReplicationMode.LAZY,
        )
        schema, rows = generate_table(TableSpec(name="t", rows=80, columns=4))
        server.create_table(schema, rows, fanout_override=6)
        edge = server.spawn_edge_server("victim")
        server.insert("t", (9001, "a", "b", "c"))
        payload, _head = server.delta_payload("t", edge.replica_lsns["t"])
        # The Naive baseline lives beside the fabric, in a store of its
        # own built from the central signing engine; what it serves for
        # the replica's rows is a second witness that nothing moved.
        store = NaiveStore.build(
            schema, server.vbtrees["t"].rows(), server.signing_engine()
        )
        before = dict(edge.replica("t")._tuple_auth)
        served = store.build_result(list(edge.replica("t").rows()))
        assert len(served.rows) == 80
        forged = payload[:-1] + bytes([payload[-1] ^ 0x01])
        (reply,) = edge.handle_frame(frame_to_bytes(DeltaFrame("t", forged)))
        ack = frame_from_bytes(reply)
        assert (ack.ok, ack.reason, ack.lsn) == (False, "tamper", 0)
        assert dict(edge.replica("t")._tuple_auth) == before
        assert store.build_result(list(edge.replica("t").rows())) == served

    def test_declared_width_mismatch_rejected_before_any_public_key_op(self):
        """A payload that parses, but whose declared signature width is
        not the claimed epoch key's, names a slice boundary the signer
        never used: refused without spending a ``pow`` on it."""
        from dataclasses import replace

        from repro.core.wire import delta_from_bytes, delta_to_bytes
        from repro.crypto.signatures import SignedDigest
        from repro.exceptions import DeltaTamperError

        server, edge, _client = self._server_with_edge()
        server.insert("t", (9001, "a", "b", "c"))
        entry = server.replicator.log_for("t").entries_since(0)[0]
        sig_len = server.public_key.signature_len
        delta = entry.delta
        for width in (sig_len + 1, sig_len + 64):
            # Every signature the same integer, zero-padded to ``width``.
            def wide(signed, width=width):
                return SignedDigest(bytes(width - sig_len) + signed)

            wider = replace(
                delta,
                ops=tuple(
                    replace(op, signed_tuple=wide(op.signed_tuple))
                    if op.signed_tuple is not None else op
                    for op in delta.ops
                ),
                node_updates=tuple(
                    replace(u, signed=wide(u.signed)) for u in delta.node_updates
                ),
                signature=wide(delta.signature),
            )
            widened = delta_to_bytes(wider, width)
            assert delta_from_bytes(widened) == wider  # it parses
            verifies = edge.meter.verifies
            with pytest.raises(DeltaTamperError, match="signature width"):
                edge.apply_delta("t", widened)
            assert edge.meter.verifies == verifies
        edge.apply_delta("t", entry.payload)
        assert edge.meter.verifies == verifies + 1

    def test_check_order_signature_then_replay_then_gap_then_epoch(self):
        """§6.2's order: a delta that is *both* unauthentic and stale /
        out of order is a tamper; an authentic one is classified by its
        LSNs first and its epoch second."""
        from repro.exceptions import (
            DeltaGapError,
            DeltaTamperError,
            StaleDeltaError,
        )

        server, edge, _client = self._server_with_edge()
        for key in (9001, 9002, 9003):
            server.insert("t", (key, "a", "b", "c"))
        first, second, third = (
            e.payload for e in server.replicator.log_for("t").entries_since(0)
        )

        def flip(payload):
            return payload[:-1] + bytes([payload[-1] ^ 0x01])

        edge.apply_delta("t", first)
        for authentic, error in ((first, StaleDeltaError), (third, DeltaGapError)):
            with pytest.raises(error):
                edge.apply_delta("t", authentic)
            with pytest.raises(DeltaTamperError):
                edge.apply_delta("t", flip(authentic))
        # An authentic, contiguous delta under an epoch the key ring
        # still serves but the replica was not built under: gap.
        edge.replica_epochs["t"] = 7
        with pytest.raises(DeltaGapError, match="epoch"):
            edge.apply_delta("t", second)
        # Stale wins over the epoch mismatch (LSN checks come first).
        with pytest.raises(StaleDeltaError):
            edge.apply_delta("t", first)
        edge.replica_epochs["t"] = 0
        verifies = edge.meter.verifies
        edge.apply_delta("t", second)
        assert edge.meter.verifies == verifies + 1
        assert edge.replica_lsns["t"] == 2
        edge.replica("t").audit()


class TestAdversaryErrors:
    def test_value_tamper_missing_key(self, setup):
        from repro.exceptions import EdgeError

        _server, edge, _client = setup
        with pytest.raises(EdgeError):
            ValueTamper(table="t", key=99999, column="a1", new_value="x").apply(edge)

    def test_interceptors_clearable(self, setup):
        _server, edge, client = setup
        ResponseTamper(row_index=0, column_index=1, new_value="evil").install(edge)
        edge.clear_interceptors()
        assert client.verify(edge.range_query("t", low=0, high=10)).ok
