"""Operation accounting for the paper's computation-cost model.

Section 4.3 measures client cost in units of ``Cost_h`` (one attribute
hash), with ``Cost_c`` (one digest combine) and ``Cost_v`` (one signature
decryption) expressed as ratios.  To let the *running* system report the
same units, every crypto object accepts a :class:`CostMeter`; the edge
server and client each thread their own meter through, and benches read
the counters out afterwards.

The meter also tracks bytes hashed and bytes shipped, which backs the
measured communication-cost series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CostMeter", "CostWeights", "NULL_METER"]


@dataclass(frozen=True)
class CostWeights:
    """Relative operation weights in units of ``Cost_h`` (= cost_hash).

    Defaults mirror Table 1 / Section 4.3: combining two digests is 10x
    cheaper than hashing an attribute (``ratio = 10``), verifying a
    signature is ``X`` times the hash cost (X defaults to 10), and
    *generating* a signature is ~100x a verification (the paper cites
    hash : verify : sign = 1 : 100 : 10000 from Rivest & Shamir [15] —
    our defaults keep the sweep parameter X explicit instead).
    """

    cost_hash: float = 1.0
    cost_combine: float = 0.1
    cost_verify: float = 10.0
    cost_sign: float = 1000.0

    def total(self, meter: "CostMeter") -> float:
        """Weighted total cost of the operations recorded in ``meter``."""
        return (
            meter.hashes * self.cost_hash
            + meter.combines * self.cost_combine
            + meter.verifies * self.cost_verify
            + meter.signs * self.cost_sign
        )


@dataclass
class CostMeter:
    """Mutable counters for crypto operations and byte traffic.

    Attributes:
        hashes: Number of base one-way hash invocations (``Cost_h`` ops).
        combines: Number of pairwise digest combines (``Cost_c`` ops).
        signs: Number of private-key signature operations.
        verifies: Number of public-key signature decryptions (``Cost_v``).
        bytes_hashed: Total bytes fed through base hashes.
        bytes_sent: Total bytes recorded as shipped over the network.
    """

    hashes: int = 0
    combines: int = 0
    signs: int = 0
    verifies: int = 0
    bytes_hashed: int = 0
    bytes_sent: int = 0
    _enabled: bool = field(default=True, repr=False)

    def count_hash(self, nbytes: int = 0, n: int = 1) -> None:
        """Record ``n`` base-hash invocations over ``nbytes`` of input
        in total."""
        if self._enabled:
            self.hashes += n
            self.bytes_hashed += nbytes

    def count_combine(self, n: int = 1) -> None:
        """Record ``n`` pairwise digest-combine operations."""
        if self._enabled:
            self.combines += n

    def count_sign(self, n: int = 1) -> None:
        """Record ``n`` private-key signing operations."""
        if self._enabled:
            self.signs += n

    def count_verify(self, n: int = 1) -> None:
        """Record ``n`` public-key verification (decryption) operations."""
        if self._enabled:
            self.verifies += n

    def count_bytes_sent(self, nbytes: int) -> None:
        """Record ``nbytes`` shipped over the simulated network."""
        if self._enabled:
            self.bytes_sent += nbytes

    def reset(self) -> None:
        """Zero every counter."""
        self.hashes = 0
        self.combines = 0
        self.signs = 0
        self.verifies = 0
        self.bytes_hashed = 0
        self.bytes_sent = 0

    def snapshot(self) -> dict[str, int]:
        """Immutable copy of the counters, for bench reporting."""
        return {
            "hashes": self.hashes,
            "combines": self.combines,
            "signs": self.signs,
            "verifies": self.verifies,
            "bytes_hashed": self.bytes_hashed,
            "bytes_sent": self.bytes_sent,
        }

    def cost(self, weights: CostWeights | None = None) -> float:
        """Weighted cost in units of ``Cost_h`` (see :class:`CostWeights`)."""
        return (weights or CostWeights()).total(self)


class _NullMeter(CostMeter):
    """A meter that ignores all updates; the default when none is supplied."""

    def __init__(self) -> None:
        super().__init__(_enabled=False)


#: Shared do-nothing meter instance.
NULL_METER = _NullMeter()
