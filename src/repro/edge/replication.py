"""Central-side replication state: per-table delta logs and cursors.

The seed implementation's :meth:`CentralServer.propagate` shipped a
full VB-tree clone to every edge on every mutation.  This module holds
the machinery of its replacement (DESIGN.md section 6): every mutation
is recorded as a signed, serialized :class:`~repro.core.delta.ReplicaDelta`
in a per-table :class:`DeltaLog`; edges advance a per-table LSN cursor
by applying deltas, and fall back to a full snapshot only on

* bootstrap (edge has no replica of the table yet),
* log gap (the log was truncated past the edge's cursor),
* key rotation (every signature in the replica is re-issued, so the
  log restarts under the new epoch).

Eager replication pushes each delta as it is recorded; lazy replication
lets deltas accumulate and coalesces the pending run into one signed
batch per edge pull (:func:`repro.core.delta.coalesce`), which both
amortizes the per-message signature and drops superseded node digests
(ancestors near the root are re-signed by every mutation; only the
latest survives a batch).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.delta import ReplicaDelta, coalesce, delta_digest
from repro.core.wire import delta_body_bytes
from repro.crypto.signatures import DigestSigner
from repro.exceptions import DeltaGapError, ReplicaDeltaError

__all__ = ["LogEntry", "DeltaLog", "Replicator"]


@dataclass(frozen=True)
class LogEntry:
    """One sealed delta retained in a table's log."""

    lsn: int
    delta: ReplicaDelta
    payload: bytes

    @property
    def nbytes(self) -> int:
        """Wire size of the sealed delta."""
        return len(self.payload)


@dataclass
class DeltaLog:
    """Ordered log of sealed deltas for one table.

    LSNs are per-table and strictly monotonic; they never reset, even
    across key rotations — a rotation consumes an LSN as a *barrier*
    (no entry is retained for it), so any edge whose cursor predates
    the barrier sees a gap and resyncs via snapshot.

    Attributes:
        table: The VB-tree this log replicates.
        max_entries: Retention bound; older entries are truncated,
            forcing laggard edges onto the snapshot path.
    """

    table: str
    max_entries: int = 1024
    last_lsn: int = 0
    _entries: list[LogEntry] = field(default_factory=list)

    @property
    def first_retained_lsn(self) -> int:
        """LSN of the oldest retained entry (0 if the log is empty)."""
        return self._entries[0].lsn if self._entries else 0

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, entry: LogEntry) -> None:
        """Retain a sealed entry (must carry ``last_lsn``)."""
        if entry.lsn != self.last_lsn:
            raise ReplicaDeltaError(
                f"log entry lsn {entry.lsn} != assigned lsn {self.last_lsn}"
            )
        self._entries.append(entry)
        if len(self._entries) > self.max_entries:
            del self._entries[: len(self._entries) - self.max_entries]

    def next_lsn(self) -> int:
        """Consume and return the next LSN."""
        self.last_lsn += 1
        return self.last_lsn

    def barrier(self) -> int:
        """Consume an LSN without retaining an entry and drop the log.

        Called on key rotation: every retained delta's signatures are
        obsolete, and any cursor at or before the barrier now has a gap,
        which is exactly what forces the snapshot resync.
        """
        self._entries.clear()
        return self.next_lsn()

    def has_gap(self, cursor: int) -> bool:
        """True if a replica at ``cursor`` can no longer catch up from
        this log alone."""
        if cursor >= self.last_lsn:
            return False
        if not self._entries:
            return True  # pending LSNs exist but no entries survive
        return cursor + 1 < self.first_retained_lsn

    def entries_since(self, cursor: int) -> list[LogEntry]:
        """All retained entries after ``cursor``, oldest first.

        Raises:
            DeltaGapError: If truncation (or a rotation barrier) removed
                entries the replica still needs.
        """
        if self.has_gap(cursor):
            raise DeltaGapError(
                f"log for {self.table!r} starts at lsn "
                f"{self.first_retained_lsn}, replica cursor is {cursor}; "
                "snapshot resync required"
            )
        if not self._entries:
            return []
        # Retained LSNs are contiguous, so the suffix is a direct slice
        # (this sits on the eager per-mutation hot path).
        start = max(0, cursor + 1 - self.first_retained_lsn)
        return self._entries[start:]


class Replicator:
    """Assigns LSNs, signs deltas, and retains them for edge catch-up.

    Args:
        max_log_entries: Per-table log retention (see
            :attr:`DeltaLog.max_entries`).
    """

    def __init__(self, max_log_entries: int = 1024) -> None:
        self.max_log_entries = max_log_entries
        self.logs: dict[str, DeltaLog] = {}

    def log_for(self, table: str) -> DeltaLog:
        """The (lazily created) log for ``table``."""
        log = self.logs.get(table)
        if log is None:
            log = DeltaLog(table=table, max_entries=self.max_log_entries)
            self.logs[table] = log
        return log

    def seal(
        self, delta: ReplicaDelta, signer: DigestSigner, sig_len: int
    ) -> tuple[ReplicaDelta, bytes]:
        """Sign a delta's body and serialize body + signature."""
        body = delta_body_bytes(delta, sig_len)
        signed = signer.sign(delta_digest(body))
        sealed = replace(delta, signature=signed)
        return sealed, body + signed

    def record(
        self,
        replica_name: str,
        delta: ReplicaDelta,
        signer: DigestSigner,
        sig_len: int,
    ) -> LogEntry:
        """Assign the next LSN to an updater-emitted delta, seal it, and
        retain it in the replica's log.

        ``replica_name`` overrides the delta's table field: a secondary
        VB-tree's updater emits deltas under the *base* schema name, but
        each replicated tree (base table, join view, secondary index)
        has its own log and LSN sequence.
        """
        log = self.log_for(replica_name)
        lsn = log.next_lsn()
        stamped = replace(
            delta,
            table=replica_name,
            lsn_first=lsn,
            lsn_last=lsn,
            epoch=signer.epoch,
        )
        sealed, payload = self.seal(stamped, signer, sig_len)
        entry = LogEntry(lsn=lsn, delta=sealed, payload=payload)
        log.append(entry)
        return entry

    def batch_since(
        self,
        table: str,
        cursor: int,
        signer: DigestSigner,
        sig_len: int,
    ) -> bytes | None:
        """One wire payload bringing a replica at ``cursor`` up to date.

        A single pending delta ships its retained payload verbatim; a
        run of pending deltas is coalesced into one freshly signed batch.
        Returns ``None`` when the replica is current.

        Raises:
            DeltaGapError: If the log cannot cover the cursor.
        """
        # entries_since raises DeltaGapError whenever the cursor is
        # behind LSNs the log no longer covers, so an empty result here
        # always means the replica is current.
        entries = self.log_for(table).entries_since(cursor)
        if not entries:
            return None
        if len(entries) == 1:
            return entries[0].payload
        batch = coalesce([e.delta for e in entries])
        _sealed, payload = self.seal(batch, signer, sig_len)
        return payload
