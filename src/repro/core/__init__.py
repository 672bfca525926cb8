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

Every name is imported from the module that defines it; the package
re-exports nothing.
"""
