"""Simulated network channel with byte accounting and a latency model.

The paper's communication-cost analysis (Section 4.2) is in bytes; the
measured benches need the same unit from the running system.  Every
edge→client response passes through a :class:`Channel`, which counts
payload bytes and can convert them into simulated transfer time.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator

from repro.crypto.meter import CostMeter, NULL_METER

__all__ = ["Channel", "Transfer"]


@dataclass(frozen=True)
class Transfer:
    """One recorded transfer.

    Attributes:
        nbytes: Payload size.
        seconds: Simulated transfer time.
        kind: What was shipped — ``"payload"`` (query responses),
            ``"delta"`` (replica deltas) or ``"snapshot"`` (full replica
            transfers), so replication traffic can be broken out from
            query traffic on a shared channel.
    """

    nbytes: int
    seconds: float
    kind: str = "payload"


class _TransferLog:
    """A channel's history, read as a sequence of :class:`Transfer`.

    A channel lives as long as its link and records every frame, so the
    history is kept as two columns — an ``array("Q")`` of sizes and one
    kind code a byte, 9 bytes a frame — and a :class:`Transfer` exists
    only while a reader holds one; its ``seconds`` is computed from the
    channel's latency model as it stands when read.  Totals are running
    sums per kind, not scans.
    """

    __slots__ = ("_channel", "_sizes", "_codes", "_kinds", "by_kind")

    def __init__(self, channel: "Channel") -> None:
        self._channel = channel
        self._sizes = array("Q")
        self._codes = bytearray()
        #: A kind's code is its index here: order of first appearance.
        self._kinds: tuple[str, ...] = ()
        #: Running bytes per kind, same order.
        self.by_kind: dict[str, int] = {}

    def record(self, nbytes: int, kind: str) -> None:
        """Append one transfer (:meth:`Channel.send` is the caller)."""
        if kind not in self.by_kind:
            if len(self._kinds) > 255:
                raise ValueError("a channel records at most 256 transfer kinds")
            self._kinds += (kind,)
            self.by_kind[kind] = 0
        self._sizes.append(nbytes)
        self._codes.append(self._kinds.index(kind))
        self.by_kind[kind] += nbytes

    def clear(self) -> None:
        """Forget every transfer and every total."""
        self.__init__(self._channel)

    def __len__(self) -> int:
        return len(self._sizes)

    def _transfer(self, nbytes: int, code: int) -> Transfer:
        channel = self._channel
        seconds = channel.rtt_seconds + nbytes / channel.bandwidth_bps
        return Transfer(nbytes, seconds, self._kinds[code])

    def __getitem__(self, index: int | slice) -> Transfer | list[Transfer]:
        if isinstance(index, slice):
            return list(map(self._transfer, self._sizes[index], self._codes[index]))
        return self._transfer(self._sizes[index], self._codes[index])

    def __iter__(self) -> Iterator[Transfer]:
        return map(self._transfer, self._sizes, self._codes)


@dataclass
class Channel:
    """A byte-counting channel between two simulation endpoints.

    Args:
        bandwidth_bps: Simulated bandwidth in bytes/second (default
            ~12.5 MB/s, i.e. 100 Mbit — an edge-era WAN link).
        rtt_seconds: Fixed per-message round-trip overhead.
        meter: Cost meter receiving ``count_bytes_sent``.

    Attributes:
        transfers: Everything sent so far (a log): ``len``,
            index, slice and iterate it like a list of :class:`Transfer`.
    """

    bandwidth_bps: float = 12_500_000.0
    rtt_seconds: float = 0.02
    meter: CostMeter = field(default_factory=lambda: NULL_METER)
    transfers: _TransferLog = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.transfers = _TransferLog(self)

    def send(self, nbytes: int, kind: str = "payload") -> None:
        """Record shipping ``nbytes``; read the transfer back as
        ``transfers[-1]`` if its simulated time is wanted."""
        if nbytes < 0:
            raise ValueError("cannot send negative bytes")
        self.transfers.record(nbytes, kind)
        self.meter.count_bytes_sent(nbytes)

    @property
    def total_bytes(self) -> int:
        """Total bytes shipped through this channel."""
        return sum(self.transfers.by_kind.values())

    def bytes_by_kind(self) -> dict[str, int]:
        """Total bytes shipped, broken down by transfer kind."""
        return dict(self.transfers.by_kind)

    @property
    def total_seconds(self) -> float:
        """Total simulated transfer time."""
        return (
            len(self.transfers) * self.rtt_seconds
            + self.total_bytes / self.bandwidth_bps
        )

    def reset(self) -> None:
        """Forget recorded transfers."""
        self.transfers.clear()
