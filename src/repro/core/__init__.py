"""The paper's core: VB-tree, verification objects, verification,
authenticated updates.

Typical wiring (the :mod:`repro.edge` package does this for you):

* central server: :class:`~repro.core.digests.SigningDigestEngine` →
  :meth:`~repro.core.vbtree.VBTree.build` (one tree class for tables,
  join views and secondary indexes — ``attribute=`` makes an index) →
  :class:`~repro.core.update.AuthenticatedUpdater` for maintenance;
* edge server: :class:`~repro.core.query_auth.QueryAuthenticator` over
  a VB-tree replica, made from a snapshot
  (:func:`~repro.core.wire.snapshot_from_bytes`) and kept current by
  :func:`~repro.core.delta.apply_delta`;
* client: :class:`~repro.core.verify.ResultVerifier` with the central
  server's public key / key ring.
"""

from repro.core.digests import (
    DigestEngine,
    DigestPolicy,
    SigningDigestEngine,
    TupleDigests,
)
from repro.core.envelope import Envelope, ResultPosition, find_envelope
from repro.core.query_auth import QueryAuthenticator
from repro.core.secondary import MAX_KEY, MIN_KEY
from repro.core.update import AuthenticatedUpdater, digest_resource
from repro.core.vbtree import VBTree
from repro.core.verify import ResultVerifier, Verdict
from repro.core.vo import (
    AuthenticatedResult,
    VerificationObject,
    VOEntry,
    VOEntryKind,
    VOFormat,
)
from repro.core.wire import result_from_bytes, result_to_bytes, wire_breakdown

__all__ = [
    "AuthenticatedResult",
    "AuthenticatedUpdater",
    "DigestEngine",
    "DigestPolicy",
    "Envelope",
    "MAX_KEY",
    "MIN_KEY",
    "QueryAuthenticator",
    "ResultPosition",
    "ResultVerifier",
    "SigningDigestEngine",
    "TupleDigests",
    "VBTree",
    "Verdict",
    "VerificationObject",
    "VOEntry",
    "VOEntryKind",
    "VOFormat",
    "digest_resource",
    "find_envelope",
    "result_from_bytes",
    "result_to_bytes",
    "wire_breakdown",
]
