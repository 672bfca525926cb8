"""Edge-server-side construction of authenticated query results.

Given a VB-tree replica, :class:`QueryAuthenticator` executes
selection-projection queries and assembles the verification object of
Section 3.3:

* selection on the key → contiguous result, envelope boundary digests;
* selection on non-key attributes → gaps become extra ``D_S`` digests;
* projection → the hidden attributes' digests, recomputed from the rows
  this replica holds, become the bare ``D_P`` block (DESIGN.md D5);
* joins → run against the VB-tree of a materialized join view
  (Section 3.3's join strategy), which needs no extra machinery here.

The edge server holds *signed* tuple and node digests only; it cannot
forge new ones, and an attribute digest it miscomputes changes the row
hash the client folds.
Per Section 3.4, a query may S-lock the digests of its enveloping
subtree so concurrent delete transactions cannot invalidate them
mid-read; pass a transaction to enable that protocol.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core.digests import DigestPolicy
from repro.core.envelope import Envelope, find_envelope
from repro.core.vbtree import VBTree
from repro.core.vo import (
    AuthenticatedResult,
    VerificationObject,
    VOEntry,
    VOEntryKind,
    VOFormat,
)
from repro.crypto.encoding import encode_value
from repro.db.expressions import Predicate
from repro.db.rows import Row
from repro.db.transactions import Transaction
from repro.exceptions import LockError, VOFormatError

__all__ = ["QueryAuthenticator"]


class QueryAuthenticator:
    """Builds :class:`AuthenticatedResult`s from a VB-tree replica.

    Args:
        vbtree: The (possibly replicated) VB-tree.
        default_format: VO format to use when the caller does not force
            one.  Defaults to the paper's FLAT_SET when the digest
            policy allows it, else STRUCTURED.
    """

    def __init__(
        self, vbtree: VBTree, default_format: VOFormat | None = None
    ) -> None:
        self.vbtree = vbtree
        if default_format is None:
            default_format = (
                VOFormat.FLAT_SET
                if vbtree.policy is DigestPolicy.FLATTENED
                else VOFormat.STRUCTURED
            )
        self.default_format = default_format

    # ------------------------------------------------------------------
    # Public query surface
    # ------------------------------------------------------------------

    def range_query(
        self,
        low: Any = None,
        high: Any = None,
        columns: Optional[Sequence[str]] = None,
        vo_format: VOFormat | None = None,
        txn: Transaction | None = None,
    ) -> AuthenticatedResult:
        """Selection on the primary key: ``low <= key <= high``."""
        items = list(self.vbtree.tree.range_items(low=low, high=high))
        return self._build_result(items, columns, vo_format, txn)

    def select(
        self,
        predicate: Predicate,
        columns: Optional[Sequence[str]] = None,
        vo_format: VOFormat | None = None,
        txn: Transaction | None = None,
    ) -> AuthenticatedResult:
        """General selection (key or non-key predicates).

        Non-key predicates produce non-contiguous results; the envelope
        then contains gaps, each covered by a ``D_S`` digest, exactly as
        Section 3.3 describes.
        """
        items = list(self.vbtree.select(predicate))
        return self._build_result(items, columns, vo_format, txn)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def _build_result(
        self,
        items: list[tuple[Any, Row]],
        columns: Optional[Sequence[str]],
        vo_format: VOFormat | None,
        txn: Transaction | None,
    ) -> AuthenticatedResult:
        """Assemble the result + VO for ``items``, the selected
        ``(tree key, row)`` pairs in tree order."""
        fmt = vo_format or self.default_format
        schema = self.vbtree.schema
        all_columns = schema.column_names
        returned = tuple(columns) if columns is not None else all_columns
        # column_index validates the projection targets.
        indices = [schema.column_index(name) for name in returned]

        if fmt is VOFormat.FLAT_SET and self.vbtree.policy is not DigestPolicy.FLATTENED:
            raise VOFormatError(
                "FLAT_SET VOs are only sound under the FLATTENED digest "
                "policy; use STRUCTURED (see DESIGN.md, deviation D3)"
            )

        tree_keys = [key for key, _row in items]
        envelope = find_envelope(self.vbtree.tree, tree_keys)
        if txn is not None:
            self._lock_envelope(envelope, txn)

        vo = self._vo_from_envelope(envelope, fmt)
        vo.projection_digests = self._projection_digests(items, set(indices))

        encodings = {}
        if returned == all_columns:
            # Nothing projected away: rows are immutable, share them,
            # and ship each as the wire form it memoised when first
            # served.
            projected = [row.values for _key, row in items]
            encodings = {
                id(row.values): (row.values, row.encoding, None) for _key, row in items
            }
        else:
            projected = [
                tuple([row.values[i] for i in indices]) for _key, row in items
            ]
        key_index = schema.key_index
        return AuthenticatedResult(
            table=self.vbtree.table_name,
            columns=returned,
            all_columns=all_columns,
            key_column=schema.key,
            rows=projected,
            keys=[row.values[key_index] for _key, row in items],
            vo=vo,
            encodings=encodings,
        )

    def _vo_from_envelope(
        self, envelope: Envelope, fmt: VOFormat
    ) -> VerificationObject:
        vbt = self.vbtree
        entries: list[VOEntry] = []
        for gap in envelope.gaps:
            if gap.kind == "tuple":
                signed = vbt.tuple_auth(gap.ref)
                kind = VOEntryKind.TUPLE
            else:
                signed = vbt.node_auth(gap.ref)
                kind = VOEntryKind.NODE
            if fmt is VOFormat.FLAT_SET:
                entries.append(VOEntry(kind, signed))
            else:
                entries.append(VOEntry(kind, signed, gap.path, gap.slot))
        positions = (
            [(p.path, p.slot) for p in envelope.result_positions]
            if fmt is VOFormat.STRUCTURED
            else None
        )
        return VerificationObject(
            format=fmt,
            policy=vbt.policy,
            table=vbt.table_name,
            top_signed=vbt.node_auth(envelope.top),
            selection_entries=entries,
            result_positions=positions,
            envelope_height=envelope.height,
        )

    def _projection_digests(
        self, items: list[tuple[Any, Row]], returned_indices: set[int]
    ) -> bytes:
        """``D_P``: the digest of every attribute projected away, row by
        row in schema column order, hashed from the stored rows."""
        schema = self.vbtree.schema
        hidden = [
            i for i in range(schema.num_columns) if i not in returned_indices
        ]
        if not hidden:
            return b""
        engine = self.vbtree.signing.engine
        table = self.vbtree.table_name
        names = tuple(schema.column_names[i] for i in hidden)
        return engine.attribute_digests(
            table,
            names,
            [row.key for _key, row in items],
            [[encode_value(row.values[i]) for i in hidden] for _key, row in items],
        )

    def _lock_envelope(self, envelope: Envelope, txn: Transaction) -> None:
        """S-lock every digest in the enveloping subtree (Section 3.4's
        reader protocol).

        Raises:
            LockError: If a lock could not be granted immediately (the
                simulation surfaces blocking to the caller).
        """
        resources = [("digest", self.vbtree.table_name, envelope.top.node_id)]
        stack = [(envelope.top, ())]
        seen = {envelope.top.node_id}
        for gap in envelope.gaps:
            if gap.kind == "node" and gap.ref.node_id not in seen:
                resources.append(
                    ("digest", self.vbtree.table_name, gap.ref.node_id)
                )
                seen.add(gap.ref.node_id)
        for pos in envelope.result_positions:
            # Lock the leaf digests along result paths.
            node = envelope.top
            for idx in pos.path:
                node = node.children[idx]  # type: ignore[attr-defined]
                if node.node_id not in seen:
                    resources.append(
                        ("digest", self.vbtree.table_name, node.node_id)
                    )
                    seen.add(node.node_id)
        for resource in resources:
            if not txn.lock_shared(resource):
                raise LockError(
                    f"query blocked acquiring S-lock on {resource!r}"
                )
