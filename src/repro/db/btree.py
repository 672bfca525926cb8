"""A B+-tree with page-geometry-derived capacities.

This is the index substrate under both the plain tables and the
VB-tree.  Design points that matter for the reproduction:

* **Capacities come from page geometry** — fan-out and leaf capacity are
  computed from ``|B|, |K|, |P|, |D|`` exactly as in Section 4.1, so a
  tree built with digests (``|D| > 0``) really is shorter/fatter or
  taller/thinner in the way Figures 8-9 analyse.
* **Lazy deletes** — following the paper's citation of Johnson & Shasha
  [9], nodes are only removed when they become completely empty; there
  is no half-full merging.  This matches "real database systems usually
  do not require their B-tree nodes to actually contain at least half
  the entries".
* **Parent pointers + node ids** — the VB-tree layer needs root-to-leaf
  paths (to maintain digests) and stable node identities (to address
  digests in verification objects), so nodes carry both.
* **Mutation traces** — every ``insert``/``delete`` records which nodes
  were modified, created or freed.  The VB-tree uses the trace to decide
  between the paper's cheap *fold* update (no structural change) and a
  digest *recompute* (splits/merges).
* **Logical I/O accounting** — every node touched during descent or leaf
  traversal bumps a counter, backing the "I/O savings at the edge
  servers" discussion.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.db.page import PageGeometry
from repro.exceptions import DatabaseError, DuplicateKeyError, KeyNotFoundError

__all__ = ["BPlusTree", "LeafNode", "InternalNode", "MutationTrace"]


class _Node:
    """Common node state: identity, parent link, sorted keys."""

    __slots__ = ("node_id", "parent", "keys")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.parent: Optional[InternalNode] = None
        self.keys: list[Any] = []

    @property
    def is_leaf(self) -> bool:
        raise NotImplementedError


class LeafNode(_Node):
    """Leaf: ``keys[i]`` maps to ``values[i]``; leaves form a doubly
    linked list for range scans."""

    __slots__ = ("values", "next_leaf", "prev_leaf")

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.values: list[Any] = []
        self.next_leaf: Optional[LeafNode] = None
        self.prev_leaf: Optional[LeafNode] = None

    @property
    def is_leaf(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Leaf#{self.node_id}({self.keys})"


class InternalNode(_Node):
    """Internal node: ``len(children) == len(keys) + 1``; ``keys[i]`` is
    the smallest key reachable under ``children[i + 1]``."""

    __slots__ = ("children",)

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.children: list[_Node] = []

    @property
    def is_leaf(self) -> bool:
        return False

    def child_index(self, child: _Node) -> int:
        """Position of ``child`` among this node's children.

        Raises:
            DatabaseError: If ``child`` is not actually a child.
        """
        for i, c in enumerate(self.children):
            if c is child:
                return i
        raise DatabaseError("node is not a child of its recorded parent")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Internal#{self.node_id}({self.keys})"


@dataclass
class MutationTrace:
    """What one insert/delete touched — consumed by the VB-tree layer.

    Attributes:
        path: Root-to-leaf list of nodes visited by the operation.
        modified: Nodes whose entry lists changed.
        created: Nodes created by splits.
        freed: Nodes removed (empty after a lazy delete).
        split: True if any split occurred (digest fold is insufficient).
    """

    path: list[_Node] = field(default_factory=list)
    modified: list[_Node] = field(default_factory=list)
    created: list[_Node] = field(default_factory=list)
    freed: list[_Node] = field(default_factory=list)
    split: bool = False


class BPlusTree:
    """B+-tree keyed by any totally ordered type.

    Args:
        geometry: Page geometry that fixes node capacities.  ``digest_len``
            participates so VB-tree instances get the reduced fan-out of
            formula (6).
        min_fanout_override: For tests — force a small fan-out regardless
            of geometry (kept >= 3) so split/merge paths are exercised
            without megabyte datasets.
    """

    def __init__(
        self,
        geometry: PageGeometry | None = None,
        min_fanout_override: int | None = None,
    ) -> None:
        self.geometry = geometry or PageGeometry.btree_default()
        self.fanout_override = min_fanout_override
        if min_fanout_override is not None:
            if min_fanout_override < 3:
                raise DatabaseError("fan-out override must be >= 3")
            self.max_children = min_fanout_override
            self.leaf_capacity = min_fanout_override
        else:
            self.max_children = self.geometry.internal_fanout()
            self.leaf_capacity = self.geometry.leaf_capacity()
        #: The id the next node created gets (ids are never reused).
        self.next_node_id = 0
        self._size = 0
        self.io_reads = 0
        self._root: _Node = self._new_leaf()

    @classmethod
    def restore(
        cls, geometry: PageGeometry, capacities: tuple[int, int],
        root: _Node, next_node_id: int, size: int,
    ) -> "BPlusTree":
        """A tree around already-linked nodes — a replica decoded from
        a snapshot — whose ``(max_children, leaf_capacity)`` some
        constructor call gives: the pair ``geometry`` implies, or
        ``(o, o)`` for an override ``o >= 3``.  Node ids and the id
        counter are kept as given, so replayed mutations number new
        nodes as the original did.

        Raises:
            DatabaseError: For any other capacity pair.
        """
        implied = (geometry.internal_fanout(), geometry.leaf_capacity())
        tree = cls(geometry, None if capacities == implied else capacities[0])
        if (tree.max_children, tree.leaf_capacity) != capacities:
            raise DatabaseError(f"no B+-tree has capacities {capacities}")
        tree._root, tree.next_node_id, tree._size = root, next_node_id, size
        return tree

    # ------------------------------------------------------------------
    # Node bookkeeping
    # ------------------------------------------------------------------

    def _new_leaf(self) -> LeafNode:
        node = LeafNode(self.next_node_id)
        self.next_node_id += 1
        return node

    def _new_internal(self) -> InternalNode:
        node = InternalNode(self.next_node_id)
        self.next_node_id += 1
        return node

    def _touch(self, node: _Node) -> None:
        self.io_reads += 1

    # ------------------------------------------------------------------
    # Read paths
    # ------------------------------------------------------------------

    @property
    def root(self) -> _Node:
        """The current root node."""
        return self._root

    def __len__(self) -> int:
        return self._size

    def height(self) -> int:
        """Number of levels, counting the leaf level as 1."""
        h = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[attr-defined]
            h += 1
        return h

    def node_count(self) -> int:
        """Total number of live nodes."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)  # type: ignore[attr-defined]
        return count

    def find_leaf(self, key: Any) -> LeafNode:
        """Descend to the leaf that would contain ``key`` (counts I/O)."""
        node = self._root
        self._touch(node)
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]  # type: ignore[attr-defined]
            self._touch(node)
        return node  # type: ignore[return-value]

    def get(self, key: Any) -> Any:
        """Point lookup.

        Raises:
            KeyNotFoundError: If the key is absent.
        """
        leaf = self.find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        raise KeyNotFoundError(f"key not found: {key!r}")

    def __contains__(self, key: Any) -> bool:
        try:
            self.get(key)
        except KeyNotFoundError:
            return False
        return True

    def first_leaf(self) -> LeafNode:
        """Leftmost leaf."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[attr-defined]
        return node  # type: ignore[return-value]

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All (key, value) pairs in key order."""
        leaf: Optional[LeafNode] = self.first_leaf()
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values, strict=True)
            leaf = leaf.next_leaf

    def range_items(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        """(key, value) pairs with ``low <= key <= high`` (bounds optional,
        inclusivity configurable).  Counts leaf I/O."""
        if low is None:
            leaf: Optional[LeafNode] = self.first_leaf()
            idx = 0
            self._touch(leaf)
        else:
            leaf = self.find_leaf(low)
            idx = (
                bisect.bisect_left(leaf.keys, low)
                if low_inclusive
                else bisect.bisect_right(leaf.keys, low)
            )
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if high is not None:
                    if high_inclusive and key > high:
                        return
                    if not high_inclusive and key >= high:
                        return
                yield key, leaf.values[idx]
                idx += 1
            leaf = leaf.next_leaf
            if leaf is not None:
                self._touch(leaf)
            idx = 0

    def path_to(self, node: _Node) -> list[_Node]:
        """Root-to-``node`` path via parent pointers."""
        path = [node]
        while path[-1].parent is not None:
            path.append(path[-1].parent)
        path.reverse()
        if path[0] is not self._root:
            raise DatabaseError("node is not attached to this tree")
        return path

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------

    def insert(self, key: Any, value: Any, overwrite: bool = False) -> MutationTrace:
        """Insert ``key -> value``.

        Args:
            overwrite: Replace the value if the key exists (otherwise a
                duplicate raises).

        Returns:
            A :class:`MutationTrace` describing touched nodes.

        Raises:
            DuplicateKeyError: On duplicate key with ``overwrite=False``.
        """
        trace = MutationTrace()
        leaf = self.find_leaf(key)
        trace.path = self.path_to(leaf)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            if not overwrite:
                raise DuplicateKeyError(f"duplicate key: {key!r}")
            leaf.values[idx] = value
            trace.modified.append(leaf)
            return trace
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, value)
        self._size += 1
        trace.modified.append(leaf)
        if len(leaf.keys) > self.leaf_capacity:
            self._split_leaf(leaf, trace)
        return trace

    def _split_leaf(self, leaf: LeafNode, trace: MutationTrace) -> None:
        trace.split = True
        mid = len(leaf.keys) // 2
        right = self._new_leaf()
        trace.created.append(right)
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next_leaf = leaf.next_leaf
        if right.next_leaf is not None:
            right.next_leaf.prev_leaf = right
        leaf.next_leaf = right
        right.prev_leaf = leaf
        self._insert_into_parent(leaf, right.keys[0], right, trace)

    def _insert_into_parent(
        self, left: _Node, sep_key: Any, right: _Node, trace: MutationTrace
    ) -> None:
        parent = left.parent
        if parent is None:
            new_root = self._new_internal()
            trace.created.append(new_root)
            new_root.keys = [sep_key]
            new_root.children = [left, right]
            left.parent = new_root
            right.parent = new_root
            self._root = new_root
            return
        idx = parent.child_index(left)
        parent.keys.insert(idx, sep_key)
        parent.children.insert(idx + 1, right)
        right.parent = parent
        trace.modified.append(parent)
        if len(parent.children) > self.max_children:
            self._split_internal(parent, trace)

    def _split_internal(self, node: InternalNode, trace: MutationTrace) -> None:
        trace.split = True
        mid = len(node.keys) // 2
        promoted = node.keys[mid]
        right = self._new_internal()
        trace.created.append(right)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        for child in right.children:
            child.parent = right
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._insert_into_parent(node, promoted, right, trace)

    # ------------------------------------------------------------------
    # Delete (lazy: remove nodes only when empty)
    # ------------------------------------------------------------------

    def delete(self, key: Any) -> MutationTrace:
        """Delete ``key``.

        Returns:
            A :class:`MutationTrace`; ``freed`` lists nodes removed
            because they became empty.

        Raises:
            KeyNotFoundError: If the key is absent.
        """
        trace = MutationTrace()
        leaf = self.find_leaf(key)
        trace.path = self.path_to(leaf)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            raise KeyNotFoundError(f"key not found: {key!r}")
        leaf.keys.pop(idx)
        leaf.values.pop(idx)
        self._size -= 1
        trace.modified.append(leaf)
        if not leaf.keys:
            self._remove_empty(leaf, trace)
            self._collapse_root(trace)
        return trace

    def _collapse_root(self, trace: MutationTrace) -> None:
        """Shrink the tree while the root is an internal node with a
        single child (can cascade after lazy deletes)."""
        while not self._root.is_leaf and len(self._root.children) == 1:  # type: ignore[attr-defined]
            old = self._root
            only = old.children[0]  # type: ignore[attr-defined]
            only.parent = None
            self._root = only
            trace.freed.append(old)

    def _remove_empty(self, node: _Node, trace: MutationTrace) -> None:
        """Unlink an empty node, cascading upward (lazy delete)."""
        parent = node.parent
        if parent is None:
            # Empty root: collapse to a single empty leaf if internal.
            if not node.is_leaf:
                raise DatabaseError("internal root cannot be empty here")
            return  # an empty leaf root is the legitimate empty tree
        if node.is_leaf:
            leaf = node  # type: ignore[assignment]
            if leaf.prev_leaf is not None:
                leaf.prev_leaf.next_leaf = leaf.next_leaf
            if leaf.next_leaf is not None:
                leaf.next_leaf.prev_leaf = leaf.prev_leaf
        trace.freed.append(node)
        trace.split = True  # structural change: digest folds insufficient
        idx = parent.child_index(node)
        parent.children.pop(idx)
        if parent.keys:
            parent.keys.pop(max(0, idx - 1))
        node.parent = None
        trace.modified.append(parent)
        if not parent.children:
            self._remove_empty(parent, trace)

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by the test-suite)
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises :class:`DatabaseError`.

        Invariants: sorted keys everywhere, children/keys arity, parent
        pointers consistent, all leaves at equal depth, leaf chain
        complete and ordered, capacities respected, separator keys
        bound the subtrees they separate.
        """
        leaves: list[LeafNode] = []

        def recurse(node: _Node, depth: int, low: Any, high: Any) -> int:
            if sorted(node.keys) != node.keys:
                raise DatabaseError(f"unsorted keys in node {node.node_id}")
            for k in node.keys:
                if low is not None and k < low:
                    raise DatabaseError(f"key below separator in {node.node_id}")
                if high is not None and k >= high:
                    raise DatabaseError(f"key above separator in {node.node_id}")
            if node.is_leaf:
                if len(node.keys) > self.leaf_capacity:
                    raise DatabaseError(f"overfull leaf {node.node_id}")
                leaves.append(node)  # type: ignore[arg-type]
                return depth
            internal = node  # type: ignore[assignment]
            if len(internal.children) != len(internal.keys) + 1:
                raise DatabaseError(f"arity mismatch in node {node.node_id}")
            if len(internal.children) > self.max_children:
                raise DatabaseError(f"overfull internal {node.node_id}")
            depths = set()
            bounds = [low, *internal.keys, high]
            for i, child in enumerate(internal.children):
                if child.parent is not internal:
                    raise DatabaseError(
                        f"bad parent pointer under node {node.node_id}"
                    )
                depths.add(recurse(child, depth + 1, bounds[i], bounds[i + 1]))
            if len(depths) != 1:
                raise DatabaseError("leaves at unequal depths")
            return depths.pop()

        recurse(self._root, 1, None, None)

        # Leaf chain must visit exactly the leaves, in key order.
        chain = []
        leaf: Optional[LeafNode] = self.first_leaf()
        while leaf is not None:
            chain.append(leaf)
            leaf = leaf.next_leaf
        if {id(l) for l in chain} != {id(l) for l in leaves}:
            raise DatabaseError("leaf chain does not match tree leaves")
        all_keys = [k for l in chain for k in l.keys]
        if sorted(all_keys) != all_keys:
            raise DatabaseError("leaf chain out of order")
        if len(all_keys) != self._size:
            raise DatabaseError(
                f"size mismatch: counted {len(all_keys)}, recorded {self._size}"
            )

    # ------------------------------------------------------------------
    # Traversal helpers for the VB-tree layer
    # ------------------------------------------------------------------

    def walk_nodes(self) -> Iterator[_Node]:
        """Every node, parents before children (pre-order)."""
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(reversed(node.children))  # type: ignore[attr-defined]

    def leaves(self) -> Iterator[LeafNode]:
        """All leaves left-to-right."""
        leaf: Optional[LeafNode] = self.first_leaf()
        while leaf is not None:
            yield leaf
            leaf = leaf.next_leaf

    def reset_io(self) -> None:
        """Zero the logical I/O counter."""
        self.io_reads = 0
