"""Outside-in span recorder for the traced run.

Nothing under ``src/`` is edited: :class:`Tracer` replaces public
callables at each layer boundary (class attributes, and module-level
functions in every ``repro`` module that imported them by name) with
thin timing wrappers, and puts the originals back on
:meth:`~Tracer.disable` / :meth:`~Tracer.uninstall`.

A span is ``(id, name, op, parent, thread, start_ns, end_ns)``.  The
harness opens one root span per operation (``op.<kind>``); a wrapper
running on the caller's thread nests under the innermost open span of
that thread, and a wrapper running on another thread (the ``EdgeHost``
reactor) attaches to the caller's innermost open span — with one client
in a closed loop there is exactly one operation in flight, so that is
the operation the edge is working for.

Self time is taken on the operation's flattened timeline: every instant
of the root interval belongs to exactly one span — the innermost open
span of a worker thread if one is open (the caller is then waiting on
it), else the innermost open span of the caller.  For a single thread
this is the usual "duration minus children"; across threads it never
counts an instant twice, so the self times of one operation sum to its
root span exactly.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "HOT_TARGETS",
    "SETUP_TARGETS",
    "OpStats",
    "Tracer",
    "aggregate",
    "exclusive_ns",
]

#: ``(module, owner or None, attribute, layer)``.  ``owner`` names a
#: class for methods; ``None`` marks a module-level function, patched
#: in the defining module and in every ``repro`` module that imported
#: it by name.  Span names read ``<layer>:<callable>``.
HOT_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.edge.router", "VerifyingRouter", "query", "edge.router"),
    ("repro.edge.router", "DeploymentQueryChannel", "request", "edge.transport"),
    ("repro.edge.router", "TransportQueryChannel", "request", "edge.transport"),
    ("repro.edge.transport", None, "frame_to_bytes", "edge.transport"),
    ("repro.edge.transport", None, "frame_from_bytes", "edge.transport"),
    ("repro.edge.edge_server", "EdgeServer", "handle_frame", "edge.edge_server"),
    ("repro.edge.edge_server", "EdgeServer", "apply_delta", "edge.edge_server"),
    ("repro.core.query_auth", "QueryAuthenticator", "range_query", "core.query_auth"),
    ("repro.core.wire", None, "result_to_bytes", "core.wire"),
    ("repro.core.wire", None, "result_from_bytes", "core.wire"),
    ("repro.core.wire", None, "delta_to_bytes", "core.wire"),
    ("repro.core.wire", None, "delta_body_bytes", "core.wire"),
    ("repro.core.wire", None, "delta_from_bytes", "core.wire"),
    ("repro.edge.client", "Client", "verify", "core.verify"),
    ("repro.core.digests", "DigestEngine", "tuple_digests", "core.digests"),
    ("repro.crypto.signatures", "DigestSigner", "sign", "crypto"),
    ("repro.crypto.signatures", "DigestVerifier", "recover", "crypto"),
    ("repro.edge.central", "CentralServer", "insert", "edge.central"),
    ("repro.edge.central", "CentralServer", "delete", "edge.central"),
    ("repro.db.table", "Table", "insert", "db"),
    ("repro.db.table", "Table", "delete", "db"),
    ("repro.core.update", "AuthenticatedUpdater", "insert", "core.update"),
    ("repro.core.update", "AuthenticatedUpdater", "delete", "core.update"),
    ("repro.edge.fanout", "FanoutEngine", "pump", "edge.fanout"),
    ("repro.edge.fanout", "FanoutEngine", "drain", "edge.fanout"),
    ("repro.edge.deploy", "Deployment", "sync", "edge.deploy"),
)

#: Coarse calls that only run during set-up; wrapped before the fabric
#: is built (a handful of calls, so they cost nothing measurable).
SETUP_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.core.vbtree", "VBTree", "build", "core.vbtree"),
    ("repro.core.wire", None, "snapshot_to_bytes", "core.wire"),
    ("repro.core.wire", None, "snapshot_from_bytes", "core.wire"),
    ("repro.edge.edge_server", "EdgeServer", "handle_frame", "edge.edge_server"),
)


class Tracer:
    """Records spans around patched callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Operation in flight (0 = none: spans are dropped).
        self.op = 0
        self.op_kinds: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self.main_thread = threading.get_ident()
        self._stacks: dict[int, list[int]] = {self.main_thread: []}
        self._patched: list[tuple[Any, str, Any, Any]] = []

    # -- installing wrappers --------------------------------------------

    def install(self, targets: Iterable[tuple[str, str | None, str, str]]) -> None:
        """Wrap every target (importing its module first)."""
        for module_name, owner, attr, layer in targets:
            module = __import__(module_name, fromlist=["_"])
            if owner is None:
                self._wrap_function(module, attr, f"{layer}:{attr}")
            else:
                cls = getattr(module, owner)
                self._wrap_method(cls, attr, f"{layer}:{owner}.{attr}")

    def disable(self) -> None:
        """Put every original callable back; the wrappers are kept, so
        :meth:`enable` is cheap enough to flip between two cycles."""
        for holder, attr, original, _wrapped in reversed(self._patched):
            setattr(holder, attr, original)

    def enable(self) -> None:
        for holder, attr, _original, wrapped in self._patched:
            setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        """Restore the originals and forget the wrappers."""
        self.disable()
        self._patched.clear()

    def _wrap_method(self, cls: type, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._timed(raw.__func__, name))
        else:
            wrapped = self._timed(raw, name)
        self._patched.append((cls, attr, raw, wrapped))
        setattr(cls, attr, wrapped)

    def _wrap_function(self, module: Any, attr: str, name: str) -> None:
        original = getattr(module, attr)
        wrapped = self._timed(original, name)
        for holder in list(sys.modules.values()):
            if holder is None or not getattr(holder, "__name__", "").startswith("repro"):
                continue
            if holder.__dict__.get(attr) is original:
                self._patched.append((holder, attr, original, wrapped))
                setattr(holder, attr, wrapped)

    def _timed(self, fn: Callable, name: str) -> Callable:
        spans = self.spans
        stacks = self._stacks
        main = self.main_thread
        main_stack = stacks[main]
        ids = self._ids
        now = time.perf_counter_ns
        ident = threading.get_ident
        tracer = self

        def wrapper(*args, **kwargs):
            op = tracer.op
            if not op:
                return fn(*args, **kwargs)
            thread = ident()
            stack = stacks.get(thread)
            if stack is None:
                stack = stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            elif thread != main and main_stack:
                parent = main_stack[-1]
            else:
                parent = 0
            span = next(ids)
            stack.append(span)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans.append((span, name, op, parent, thread, start, end))

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- operations ------------------------------------------------------

    def begin(self, kind: str) -> None:
        """Open the root span of one operation on the caller's thread."""
        op = next(self._ops)
        self.op_kinds[op] = kind
        root = next(self._ids)
        self._stacks[self.main_thread].append(root)
        self._root = root
        self.op = op

    def end(self, start_ns: int, end_ns: int) -> None:
        """Close the operation with the interval the harness timed."""
        op = self.op
        self.op = 0
        self._stacks[self.main_thread].pop()
        self.spans.append(
            (self._root, f"op.{self.op_kinds[op]}", op, 0, self.main_thread,
             start_ns, end_ns)
        )

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one span per line)."""
        keys = ("id", "name", "op", "parent", "thread", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span, strict=True))))
                out.write("\n")


def exclusive_ns(spans: list[tuple], main_thread: int) -> dict[int, int]:
    """Self time of every span of ONE operation (flattened timeline).

    ``spans`` must contain the operation's root (parent 0 on
    ``main_thread``); every other span is clipped to the root interval.
    Returns ``{span id: self ns}``; the values sum to the root's
    duration.
    """
    root = next(
        s for s in spans if s[3] == 0 and s[4] == main_thread
        and s[1].startswith("op.")
    )
    lo, hi = root[5], root[6]
    events: list[tuple[int, int, int, tuple]] = []
    for span in spans:
        start, end = max(span[5], lo), min(span[6], hi)
        if end <= start:
            continue  # empty, or wholly outside the operation
        # Ends sort before starts at one instant; among starts the
        # earlier-created (outer) span opens first.
        events.append((start, 1, span[0], span))
        events.append((end, 0, -span[0], span))
    events.sort(key=lambda e: e[:3])
    open_by_thread: dict[int, list[int]] = defaultdict(list)
    starts: dict[int, int] = {}
    out: dict[int, int] = {s[0]: 0 for s in spans}
    previous = lo
    for when, is_start, _order, span in events:
        if when > previous:
            owner = None
            for thread, stack in open_by_thread.items():
                if thread == main_thread or not stack:
                    continue
                if owner is None or starts[stack[-1]] > starts[owner]:
                    owner = stack[-1]
            if owner is None and open_by_thread[main_thread]:
                owner = open_by_thread[main_thread][-1]
            if owner is not None:
                out[owner] += when - previous
            previous = when
        stack = open_by_thread[span[4]]
        if is_start:
            stack.append(span[0])
            starts[span[0]] = max(span[5], lo)
        elif span[0] in stack:
            stack.remove(span[0])
    return out


@dataclass
class OpStats:
    """Aggregate of every traced operation of one kind.

    ``self_ns`` / ``total_ns`` / ``calls`` are keyed by span name and
    summed over the ``ops`` operations; ``root_ns`` is the sum of the
    root spans and ``root_self_ns`` the part no wrapped layer covers.
    """

    ops: int = 0
    root_ns: float = 0.0
    root_self_ns: float = 0.0
    self_ns: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    total_ns: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    series: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))

    def self_ms(self, name: str) -> float:
        """Mean self time of ``name`` per operation, in ms."""
        return self.self_ns.get(name, 0) / self.ops / 1e6 if self.ops else 0.0

    def total_ms(self, name: str) -> float:
        """Mean inclusive time of ``name`` per operation, in ms."""
        return self.total_ns.get(name, 0) / self.ops / 1e6 if self.ops else 0.0

    def calls_per_op(self, name: str) -> float:
        return self.calls.get(name, 0) / self.ops if self.ops else 0.0


def aggregate(
    spans: list[tuple],
    op_kinds: dict[int, str],
    main_thread: int,
    labels: Callable[[int], Iterable[str]],
    series: Iterable[str] = (),
) -> dict[str, OpStats]:
    """:class:`OpStats` per label.

    ``labels(op)`` names the groups an operation counts towards (none
    drops it).  For each span name in ``series`` every group also
    keeps the per-operation inclusive time, in op order.
    """
    by_op: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        by_op[span[2]].append(span)
    tracked = tuple(series)
    stats: dict[str, OpStats] = defaultdict(OpStats)
    for op in sorted(by_op):
        groups = tuple(labels(op)) if op in op_kinds else ()
        if not groups:
            continue
        members = by_op[op]
        own = exclusive_ns(members, main_thread)
        tracked_ns = dict.fromkeys(tracked, 0.0)
        for entry in (stats[g] for g in groups):
            entry.ops += 1
            for span in members:
                if span[3] == 0 and span[1].startswith("op."):
                    entry.root_ns += (span[6] - span[5])
                    entry.root_self_ns += own[span[0]]
                    continue
                entry.self_ns[span[1]] += own[span[0]]
                entry.total_ns[span[1]] += (span[6] - span[5])
                entry.calls[span[1]] += 1
        for span in members:
            if span[1] in tracked_ns:
                tracked_ns[span[1]] += (span[6] - span[5])
        for group in groups:
            for name, total in tracked_ns.items():
                stats[group].series[name].append(total)
    return stats
