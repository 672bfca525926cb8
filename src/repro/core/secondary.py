"""Secondary VB-trees — "one or more verifiable B-trees (VB-tree)" per
base table (Section 1).

The paper's primary VB-tree makes *key* selections contiguous; a
selection on a non-key attribute leaves gaps, and every gap costs a
``D_S`` digest.  A **secondary VB-tree** sorts the same tuples by a
chosen attribute (with the primary key as tie-breaker), so selections
on that attribute become contiguous again and the VO shrinks back to
the boundary-only size of formula (9).

A secondary VB-tree is a :class:`~repro.core.vbtree.VBTree` built
with ``attribute=`` — the same class, constructor and bulk build as a
base table's.  Its composite search key is
``(attribute value, primary key)``:

* unique (the primary key breaks ties between equal attribute values);
* :meth:`~repro.core.vbtree.VBTree.scan` on such a tree — under a
  range query and a selection alike — translates an attribute interval
  to the composite-key range ``[(low, -inf), (high, +inf)]`` via this
  module's :data:`MIN_KEY`/:data:`MAX_KEY` sentinels.

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

from typing import Any

__all__ = ["MIN_KEY", "MAX_KEY", "secondary_index_name"]


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
