"""Verification objects (VOs) and authenticated results.

A VO carries everything a client needs — beyond the result tuples
themselves — to check a query result against the central server's
signatures (Section 3.3):

* ``D_N`` — the signed digest of the enveloping subtree's top node (the
  one signature that node has; the client compares what it recovers
  with the value it folded);
* ``D_S`` — signed digests for the envelope constituents that are not
  part of the result: filtered tuples (gaps) and pruned child subtrees;
* ``D_P`` — the **bare** digests of the attributes removed by
  projection, one block: row-major, in schema column order, each at the
  commutative hash's digest width, no tags.  The tuple digest is a hash
  over the ordered attribute digests (DESIGN.md D5), so the client
  splices these bytes between the digests it recomputes and hashes the
  row; position says what a tag used to, and nothing is signed because
  nothing can be divided out of a hash input.

Two formats:

* :attr:`VOFormat.FLAT_SET` — the paper's encoding: ``D_S`` is an
  unordered multiset of signed digests.  Sufficient under the FLATTENED
  digest policy, where every constituent multiplies into the top node's
  exponent regardless of position.
* :attr:`VOFormat.STRUCTURED` — every ``D_S`` entry is tagged with its
  node path/slot, so the client can rebuild intermediate node digests.
  Required under the NESTED digest policy; also usable under FLATTENED
  (and is what a system would ship if it wanted the client to pinpoint
  *where* tampering happened).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator, Optional

from repro.core.digests import DigestPolicy
from repro.crypto.encoding import encode_value
from repro.crypto.signatures import SignedDigest

__all__ = [
    "VOFormat",
    "VOEntryKind",
    "VOEntry",
    "VerificationObject",
    "AuthenticatedResult",
]


class VOFormat(Enum):
    """Wire encodings of a VO (see module docstring)."""

    FLAT_SET = "flat"
    STRUCTURED = "structured"


class VOEntryKind(Enum):
    """What a ``D_S`` entry stands for."""

    NODE = "node"          # pruned child subtree
    TUPLE = "tuple"        # filtered tuple in a boundary leaf


@dataclass(slots=True)
class VOEntry:
    """One signed digest in ``D_S``.

    Structured-format tags (``None`` in FLAT_SET): ``path`` (child
    indices from the envelope top) and ``slot`` (index within that
    node).  Built a few dozen times per query by both codecs, so a
    plain slotted record, not a frozen one.
    """

    kind: VOEntryKind
    signed: SignedDigest
    path: Optional[tuple[int, ...]] = None
    slot: Optional[int] = None


@dataclass
class VerificationObject:
    """The verification object for one query result."""

    format: VOFormat
    policy: DigestPolicy
    table: str
    top_signed: SignedDigest
    selection_entries: list[VOEntry] = field(default_factory=list)
    #: ``D_P``: ``Q_r × (N_c − Q_c)`` bare attribute digests, row-major
    #: in schema column order (empty when nothing is projected away).
    projection_digests: bytes = b""
    #: STRUCTURED only: (path, slot) per result row, aligned with the
    #: result row order.
    result_positions: Optional[list[tuple[tuple[int, ...], int]]] = None
    envelope_height: int = 0

    @property
    def num_selection_digests(self) -> int:
        """|D_S| — digests covering gaps and pruned branches."""
        return len(self.selection_entries)

    def digest_count(self) -> int:
        """Total signed digests shipped (D_N + D_S; D_P is unsigned)."""
        return 1 + self.num_selection_digests


@dataclass
class AuthenticatedResult:
    """A query result together with its VO, as shipped by an edge server.

    Attributes:
        table: Source table (or materialized view) name.
        columns: Returned column names, in row-value order.
        all_columns: The table's full column list (the client derives
            which attributes were filtered by projection).
        key_column: Name of the primary-key column.
        rows: Result tuples (projected values only).
        keys: Primary key of each result row (always shipped — formula 1
            hashes the key, so verification needs it even when the key
            column is projected away).
        vo: The verification object.
        encodings: ``id(row) -> (row, wire form, value slices)``: the
            bytes ``count | enc(v1) … enc(vn)`` a row tuple was served
            from (an edge's memoised :attr:`~repro.db.rows.Row.encoding`;
            slices ``None``) or decoded from
            (:func:`~repro.core.wire.result_from_bytes`, which also keeps
            each ``enc(v)``).  An entry holds its row, so the id cannot
            be reused while it lives, and it counts only for that very
            tuple object — a row replaced, reordered or dropped after the
            fact is encoded afresh (:meth:`encoding_of`).
    """

    table: str
    columns: tuple[str, ...]
    all_columns: tuple[str, ...]
    key_column: str
    rows: list[tuple[Any, ...]]
    keys: list[Any]
    vo: VerificationObject
    encodings: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def num_rows(self) -> int:
        """``Q_r`` in the paper's notation."""
        return len(self.rows)

    def encoding_of(self, row: tuple[Any, ...]) -> bytes | None:
        """The wire form carried for ``row``, or ``None`` unless ``row``
        is the tuple object it was made from.  Result values are
        immutable scalars, so the same object means the same bytes."""
        entry = self._carried(row)
        return None if entry is None else entry[1]

    def value_encodings(self) -> Iterator[list[bytes]]:
        """Per row, each value's ``tag | length | payload``: the slices
        kept when the row was decoded, else encoded afresh."""
        for row in self.rows:
            entry = self._carried(row)
            slices = None if entry is None else entry[2]
            yield list(map(encode_value, row)) if slices is None else slices

    def _carried(self, row: tuple[Any, ...]) -> tuple | None:
        entry = self.encodings.get(id(row))
        return entry if entry is not None and entry[0] is row else None

    @property
    def filtered_columns(self) -> tuple[str, ...]:
        """Columns removed by projection (``N_c - Q_c`` of them)."""
        returned = set(self.columns)
        return tuple(c for c in self.all_columns if c not in returned)
