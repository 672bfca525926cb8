"""Shared fixtures for the VB-tree core tests."""

import pytest

from repro.core.digests import DigestEngine, DigestPolicy, SigningDigestEngine
from repro.core.query_auth import QueryAuthenticator
from repro.core.vbtree import VBTree
from repro.core.verify import ResultVerifier
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import DigestSigner
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


def make_rows(schema, n=N_ROWS, start=0, step=2):
    """Deterministic rows with even keys (odd keys = guaranteed gaps)."""
    return [
        Row(schema, (k, f"item-{k}", (k * 7) % 100, (k * 3) % 50))
        for k in range(start, start + n * step, step)
    ]


def build_tree(schema, keypair, policy, fanout=5, n=N_ROWS):
    signer = DigestSigner.from_keypair(keypair)
    engine = DigestEngine(DB_NAME, policy=policy)
    signing = SigningDigestEngine(engine, signer)
    return VBTree.build(
        schema, make_rows(schema, n=n), signing, fanout_override=fanout
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
