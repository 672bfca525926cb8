"""Shared fixtures for the VB-tree core tests."""

import struct
from dataclasses import replace

import pytest

from repro.core.digests import (
    DigestEngine,
    DigestPolicy,
    SigningDigestEngine,
    VerifyOnlyDigestEngine,
)
from repro.core.query_auth import QueryAuthenticator
from repro.core.vbtree import VBTree
from repro.core.verify import ResultVerifier
from repro.crypto.encoding import encode_uint, encode_value
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import DigestSigner, SignedDigest
from repro.db.rows import Row
from repro.db.schema import Column, TableSchema
from repro.db.types import IntType, VarcharType

DB_NAME = "testdb"
N_ROWS = 200


@pytest.fixture(scope="session")
def keypair():
    return generate_keypair(bits=512, seed=31337)


@pytest.fixture(scope="session")
def schema():
    return TableSchema(
        "items",
        (
            Column("id", IntType()),
            Column("name", VarcharType(capacity=24)),
            Column("price", IntType()),
            Column("stock", IntType()),
        ),
        key="id",
    )


def flip_bit(signed, bit=0):
    """``signed`` with bit ``bit`` of its signature integer flipped (bit
    0 is the least significant), its epoch bytes kept."""
    raw = bytearray(signed)
    raw[-3 - bit // 8] ^= 1 << bit % 8
    return SignedDigest(raw)


def relabel(signed, epoch):
    """The same signature bytes claiming another epoch."""
    return SignedDigest(signed[:-2] + epoch.to_bytes(2, "big"))


def pack(attribute_values, width=16):
    """Attribute digests as a row string and ``D_P`` carry them: each
    ``width`` big-endian bytes, end to end."""
    return b"".join(v.to_bytes(width, "big") for v in attribute_values)


def row_string(db, table, key, attribute_values, width=16):
    """Formula (2)'s input, spelled out: the executable specification
    ``DigestEngine.tuple_value`` is held to (DESIGN.md D5)."""
    return (
        b"ROW"
        + encode_value(db)
        + encode_value(table)
        + encode_value(key)
        + encode_uint(len(attribute_values))
        + pack(attribute_values, width)
    )


def make_rows(schema, n=N_ROWS, start=0, step=2):
    """Deterministic rows with even keys (odd keys = guaranteed gaps)."""
    return [
        Row(schema, (k, f"item-{k}", (k * 7) % 100, (k * 3) % 50))
        for k in range(start, start + n * step, step)
    ]


def make_signing(keypair, policy):
    return SigningDigestEngine(
        DigestEngine(DB_NAME, policy=policy), DigestSigner.from_keypair(keypair)
    )


def replica_signing(keypair, policy):
    """What an edge installs on a replica: the engine, no private key."""
    return VerifyOnlyDigestEngine(
        DigestEngine(DB_NAME, policy=policy), keypair.public, 0
    )


def replica_of(vbtree):
    """What an edge holds of ``vbtree``: a snapshot round trip, read
    with a verify-only engine of the same key."""
    from repro.core.wire import snapshot_from_bytes, snapshot_to_bytes

    signer = vbtree.signing.signer
    engine = VerifyOnlyDigestEngine(
        vbtree.signing.engine, signer.public_key, signer.epoch
    )
    data = snapshot_to_bytes(vbtree, signer.public_key.signature_len)
    return snapshot_from_bytes(data, engine)


def build_tree(schema, keypair, policy, fanout=5, n=N_ROWS):
    return VBTree.build(
        schema,
        make_rows(schema, n=n),
        make_signing(keypair, policy),
        fanout_override=fanout,
    )


@pytest.fixture(scope="session", params=[DigestPolicy.FLATTENED, DigestPolicy.NESTED])
def policy(request):
    return request.param


@pytest.fixture(scope="session")
def vbtree(schema, keypair, policy):
    return build_tree(schema, keypair, policy)


@pytest.fixture(scope="session")
def authenticator(vbtree):
    return QueryAuthenticator(vbtree)


@pytest.fixture
def verifier(keypair, policy):
    engine = DigestEngine(DB_NAME, policy=policy)
    return ResultVerifier(engine, public_key=keypair.public)


@pytest.fixture(scope="session")
def golden_results(schema, keypair):
    """Seeded results whose wire bytes and verification cost are pinned
    (tests/core/test_wire_golden.py, tests/core/test_digest_kernel.py):
    ``name -> (digest policy, AuthenticatedResult)``."""
    from repro.core.vo import VOFormat

    flat = QueryAuthenticator(build_tree(schema, keypair, DigestPolicy.FLATTENED))
    nested = QueryAuthenticator(build_tree(schema, keypair, DigestPolicy.NESTED))
    return {
        "full_row": (DigestPolicy.FLATTENED, flat.range_query(low=10, high=90)),
        "projected": (
            DigestPolicy.FLATTENED,
            flat.range_query(low=10, high=60, columns=("id", "name")),
        ),
        "empty": (DigestPolicy.FLATTENED, flat.range_query(low=21, high=21)),
        "structured": (
            DigestPolicy.FLATTENED,
            flat.range_query(
                low=10,
                high=90,
                columns=("id", "price"),
                vo_format=VOFormat.STRUCTURED,
            ),
        ),
        "nested": (
            DigestPolicy.NESTED,
            nested.range_query(low=10, high=90, columns=("name", "stock")),
        ),
    }


def seal_delta(delta, keypair, **stamp):
    """Stamp an updater-emitted (or coalesced) delta — ``table``,
    ``lsn_first``, ``lsn_last`` — and sign its body: what
    ``Replicator.record`` / ``batch_since`` do, spelled with core
    primitives only."""
    from repro.core.delta import delta_digest
    from repro.core.wire import delta_body_bytes

    signer = DigestSigner.from_keypair(keypair)
    stamped = replace(delta, epoch=signer.epoch, **stamp)
    body = delta_body_bytes(stamped, keypair.public.signature_len)
    return replace(stamped, signature=signer.sign(delta_digest(body)))


@pytest.fixture(scope="session")
def golden_deltas(schema, keypair):
    """Seeded sealed deltas whose wire bytes are pinned
    (tests/core/test_wire_golden.py): ``name -> ReplicaDelta``."""
    from repro.core.delta import coalesce
    from repro.core.update import AuthenticatedUpdater

    def row(key):
        return Row(schema, (key, f"item-{key}", (key * 7) % 100, (key * 3) % 50))

    def emit(updater, mutate, args):
        out = []
        for arg in args:
            mutate(arg)
            out.append(updater.take_delta())
        return out

    def batch(deltas):
        stamped = [
            replace(d, lsn_first=i, lsn_last=i) for i, d in enumerate(deltas, 1)
        ]
        return seal_delta(
            coalesce(stamped), keypair, lsn_first=1, lsn_last=len(stamped)
        )

    tree = build_tree(schema, keypair, DigestPolicy.FLATTENED, fanout=4, n=60)
    updater = AuthenticatedUpdater(tree)
    (insert,) = emit(updater, updater.insert, [row(1001)])
    (delete,) = emit(updater, updater.delete, [10])

    secondary = VBTree.build(
        schema,
        make_rows(schema, n=40),
        make_signing(keypair, DigestPolicy.FLATTENED),
        fanout_override=4,
        attribute="price",
    )
    sec_updater = AuthenticatedUpdater(secondary)
    victim = make_rows(schema, n=40)[7]
    (sec_delete,) = emit(sec_updater, sec_updater.delete, [secondary.key_of(victim)])

    wide = build_tree(schema, keypair, DigestPolicy.FLATTENED, n=120)
    wide_updater = AuthenticatedUpdater(wide)
    appends = emit(wide_updater, wide_updater.insert, map(row, range(5001, 5033)))
    appends += emit(wide_updater, wide_updater.delete, [5001, 5002])

    small = build_tree(schema, keypair, DigestPolicy.FLATTENED, fanout=4, n=12)
    small_updater = AuthenticatedUpdater(small)
    structural = emit(small_updater, small_updater.insert, map(row, range(1, 16, 2)))
    structural += emit(
        small_updater, small_updater.delete, [r.key for r in list(small.rows())[:14]]
    )

    return {
        "insert": seal_delta(insert, keypair, lsn_first=1, lsn_last=1),
        "delete": seal_delta(delete, keypair, lsn_first=2, lsn_last=2),
        "secondary_delete": seal_delta(
            sec_delete, keypair, table="items__by_price", lsn_first=1, lsn_last=1
        ),
        "batch_32_2": batch(appends),
        "structural": batch(structural),
    }


def snapshot_node_count_offset(payload, tree):
    """Where a snapshot states its node count: the last of the tree
    header's eight uints, right after the next node id."""
    marker = struct.pack(">II", tree.next_node_id, tree.node_count())
    return payload.index(marker) + 4


@pytest.fixture(scope="session")
def golden_snapshots(schema, keypair):
    """Seeded trees whose snapshot bytes are pinned
    (tests/core/test_wire_golden.py): a three-level primary tree and a
    composite-key secondary-index tree, ``name -> VBTree``."""
    return {
        "primary": build_tree(schema, keypair, DigestPolicy.FLATTENED, fanout=4, n=24),
        "secondary": VBTree.build(
            schema,
            make_rows(schema, n=16),
            make_signing(keypair, DigestPolicy.FLATTENED),
            fanout_override=4,
            attribute="price",
        ),
    }
