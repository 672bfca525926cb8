"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing programming
errors (``TypeError``, ``KeyError``, ...).  Sub-hierarchies mirror the
package layout: crypto, storage/DB, authentication (VB-tree / VO), SQL,
and the edge-computing simulation.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CryptoError",
    "KeyGenerationError",
    "SignatureError",
    "StaleKeyError",
    "EncodingError",
    "DatabaseError",
    "SchemaError",
    "TypeMismatchError",
    "DuplicateKeyError",
    "KeyNotFoundError",
    "PageGeometryError",
    "LockError",
    "DeadlockError",
    "TransactionError",
    "AuthenticationError",
    "IncompleteResultError",
    "VOFormatError",
    "SQLError",
    "SQLSyntaxError",
    "PlanningError",
    "EdgeError",
    "ReplicationError",
    "TransportError",
    "ReplicaDeltaError",
    "DeltaGapError",
    "StaleDeltaError",
    "DeltaTamperError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Crypto
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeyGenerationError(CryptoError):
    """RSA key generation failed (e.g. no prime found in the search bound)."""


class SignatureError(CryptoError):
    """A signature failed to verify, or could not be produced."""


class StaleKeyError(CryptoError):
    """A signature was produced under a key epoch outside the validity window.

    This is how clients detect edge servers replaying data signed with an
    out-of-date private key (Section 3.4 of the paper).
    """


class EncodingError(CryptoError):
    """A value could not be canonically encoded or decoded."""


# ---------------------------------------------------------------------------
# Mini-DBMS substrate
# ---------------------------------------------------------------------------


class DatabaseError(ReproError):
    """Base class for storage / query-engine failures."""


class SchemaError(DatabaseError):
    """Schema definition or catalog-level inconsistency."""


class TypeMismatchError(DatabaseError):
    """A value does not conform to its declared column type."""


class DuplicateKeyError(DatabaseError):
    """Insert would violate primary-key uniqueness."""


class KeyNotFoundError(DatabaseError):
    """Lookup / delete on a key that does not exist."""


class PageGeometryError(DatabaseError):
    """Block/key/pointer/digest widths do not admit a valid node layout."""


class LockError(DatabaseError):
    """Lock manager protocol violation (e.g. releasing a lock not held)."""


class DeadlockError(LockError):
    """A lock request would create a cycle in the waits-for graph."""


class TransactionError(DatabaseError):
    """Transaction lifecycle misuse (e.g. operating on a finished txn)."""


# ---------------------------------------------------------------------------
# Authenticated query processing (the paper's core)
# ---------------------------------------------------------------------------


class AuthenticationError(ReproError):
    """Base class for VB-tree / verification-object failures."""


class IncompleteResultError(AuthenticationError):
    """The VO's structure is inconsistent with the claimed result set
    (missing tuples, gaps not covered by digests, bad envelope)."""


class VOFormatError(AuthenticationError):
    """A verification object could not be built or parsed.

    Also raised when the ``FLAT_SET`` VO format is requested for an
    enveloping subtree taller than one node, where the paper's set-only
    encoding is insufficient (see DESIGN.md, deviation D3).
    """


# ---------------------------------------------------------------------------
# SQL front-end
# ---------------------------------------------------------------------------


class SQLError(ReproError):
    """Base class for SQL front-end failures."""


class SQLSyntaxError(SQLError):
    """Lexing or parsing failed."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class PlanningError(SQLError):
    """The statement parsed but cannot be planned against the catalog."""


# ---------------------------------------------------------------------------
# Edge simulation
# ---------------------------------------------------------------------------


class EdgeError(ReproError):
    """Base class for edge-computing simulation failures."""


class ReplicationError(EdgeError):
    """Replica propagation failed or diverged."""


class TransportError(EdgeError):
    """A transport frame could not be delivered (link partitioned) or
    could not be encoded/decoded (malformed frame)."""


class RouterError(EdgeError):
    """The query router ran out of eligible edges: every candidate is
    quarantined, unreachable, or returned an unusable response (see
    DESIGN.md section 9 for the verify-or-failover semantics)."""


class ReplicaDeltaError(ReplicationError):
    """A replica delta could not be built, serialized, or applied
    (see DESIGN.md section 6 for the delta replication protocol)."""


class DeltaGapError(ReplicaDeltaError):
    """A delta's LSN range does not extend the replica's log cursor —
    an intermediate delta is missing (out-of-order delivery or log
    truncation).  The edge must resync via a full snapshot."""


class StaleDeltaError(ReplicaDeltaError):
    """A delta at or below the replica's log cursor was offered again
    (duplicate delivery or a replay attack); it is rejected without
    touching the replica, which makes delta application idempotent."""


class DeltaTamperError(ReplicaDeltaError):
    """A delta failed authentication: bad signature over the body,
    unknown/expired key epoch, or a body that does not parse."""
