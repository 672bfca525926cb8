"""Secondary VB-trees — "one or more verifiable B-trees (VB-tree)" per
base table (Section 1).

The paper's primary VB-tree makes *key* selections contiguous; a
selection on a non-key attribute leaves gaps, and every gap costs a
``D_S`` digest.  A **secondary VB-tree** sorts the same tuples by a
chosen attribute (with the primary key as tie-breaker), so selections
on that attribute become contiguous again and the VO shrinks back to
the boundary-only size of formula (9).

The composite search key is ``(attribute value, primary key)``:

* unique (the primary key breaks ties between equal attribute values);
* range queries on the attribute translate to composite-key ranges
  ``[(low, -inf), (high, +inf)]`` via the :data:`MIN_KEY`/:data:`MAX_KEY`
  sentinels.

The digest material is *identical* to the primary tree's (formulas 1-2
hash the primary key, not the tree position), so a client verifies
secondary-tree results with the same
:class:`~repro.core.verify.ResultVerifier` — no new client code.

This is also where the paper's storage-overhead criticism of Devanbu
et al. bites in reverse: like [5], every additional sort order costs a
full tree; unlike [5], each tree is independently signed per node, so
updates to one do not invalidate readers of another.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core.query_auth import QueryAuthenticator
from repro.core.vbtree import VBTree
from repro.core.vo import AuthenticatedResult, VOFormat
from repro.core.digests import SigningDigestEngine
from repro.db.page import PageGeometry
from repro.db.rows import Row
from repro.db.schema import TableSchema
from repro.db.transactions import Transaction
from repro.exceptions import SchemaError

__all__ = [
    "MIN_KEY",
    "MAX_KEY",
    "SecondaryVBTree",
    "SecondaryQueryAuthenticator",
    "secondary_index_name",
]


def secondary_index_name(table: str, attribute: str) -> str:
    """Canonical name of the secondary VB-tree on ``table.attribute``.

    Shared by the central server (which builds and replicates the tree)
    and edge servers (which address it in query frames) so neither side
    needs the other to resolve index names.
    """
    return f"{table}__by_{attribute}"


class _Extreme:
    """A value comparing below (or above) every other value."""

    __slots__ = ("_sign",)

    def __init__(self, sign: int) -> None:
        self._sign = sign

    def __lt__(self, other: Any) -> bool:
        if isinstance(other, _Extreme):
            return self._sign < other._sign
        return self._sign < 0

    def __gt__(self, other: Any) -> bool:
        if isinstance(other, _Extreme):
            return self._sign > other._sign
        return self._sign > 0

    def __le__(self, other: Any) -> bool:
        return self == other or self < other

    def __ge__(self, other: Any) -> bool:
        return self == other or self > other

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _Extreme) and other._sign == self._sign

    def __hash__(self) -> int:
        return hash(("_Extreme", self._sign))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "MIN_KEY" if self._sign < 0 else "MAX_KEY"


#: Compares below every primary-key value (composite range low end).
MIN_KEY = _Extreme(-1)
#: Compares above every primary-key value (composite range high end).
MAX_KEY = _Extreme(+1)


class SecondaryVBTree(VBTree):
    """A VB-tree sorted by a non-key attribute.

    Args:
        schema: The base table's schema.
        attribute: The (orderable) column to sort by.
        signing: The central server's signing engine.
    """

    def __init__(
        self,
        schema: TableSchema,
        attribute: str,
        signing: SigningDigestEngine,
        geometry: PageGeometry | None = None,
        fanout_override: int | None = None,
    ) -> None:
        column = schema.column(attribute)
        if not column.type.orderable:
            raise SchemaError(
                f"cannot build a secondary VB-tree on non-orderable "
                f"column {attribute!r} ({column.type})"
            )
        if attribute == schema.key:
            raise SchemaError(
                "the primary key already has the primary VB-tree"
            )
        attr_index = schema.column_index(attribute)
        composite_len = column.type.byte_width() + schema.key_type.byte_width()
        super().__init__(
            schema,
            signing,
            geometry=geometry,
            fanout_override=fanout_override,
            key_func=lambda row: (row.values[attr_index], row.key),
            key_len=composite_len,
        )
        self.attribute = attribute

    @classmethod
    def build_on(
        cls,
        schema: TableSchema,
        attribute: str,
        rows,
        signing: SigningDigestEngine,
        geometry: PageGeometry | None = None,
        fanout_override: int | None = None,
    ) -> "SecondaryVBTree":
        """Bulk-build a secondary VB-tree over ``rows``."""
        tree = cls(
            schema,
            attribute,
            signing,
            geometry=geometry,
            fanout_override=fanout_override,
        )
        for row in rows:
            tree.tree.insert(tree.key_of(row), row)
            tree._store_tuple(row)
        tree.recompute_all_nodes()
        return tree


class SecondaryQueryAuthenticator(QueryAuthenticator):
    """Query authenticator whose range queries address the sort
    attribute instead of the primary key."""

    def __init__(
        self,
        vbtree: SecondaryVBTree,
        default_format: VOFormat | None = None,
    ) -> None:
        if not isinstance(vbtree, SecondaryVBTree):
            raise SchemaError(
                "SecondaryQueryAuthenticator requires a SecondaryVBTree"
            )
        super().__init__(vbtree, default_format=default_format)

    def range_query(
        self,
        low: Any = None,
        high: Any = None,
        columns: Optional[Sequence[str]] = None,
        vo_format: VOFormat | None = None,
        txn: Transaction | None = None,
    ) -> AuthenticatedResult:
        """Selection ``low <= attribute <= high`` — contiguous in this
        tree, so the envelope has no interior gaps."""
        tree_low = None if low is None else (low, MIN_KEY)
        tree_high = None if high is None else (high, MAX_KEY)
        items = list(
            self.vbtree.tree.range_items(low=tree_low, high=tree_high)
        )
        return self._build_result(items, columns, vo_format, txn)
