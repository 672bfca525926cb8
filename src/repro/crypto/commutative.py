"""Commutative one-way digest combinators.

Section 3.2 of the paper chooses ``h(x) = g^x mod n`` so that a set of
digests ``{x1, …, xk}`` folds to ``g^(x1·x2·…·xk) mod n``.  Because the
exponent is a *product*, the fold is order-free::

    ((g^x1)^x2)  ==  ((g^x2)^x1)  ==  g^(x1·x2)

which buys the paper its three advantages:

1. digests combine in arbitrary order (VO needs no ordering metadata);
2. projection can be done at the edge (filtered-attribute digests fold
   into the tuple digest without positional bookkeeping);
3. inserts are incremental: ``D' = D^(x_new) mod n``.

The paper optimizes by picking ``n = 2^k`` (modulo reduction becomes a
mask) and computing the exponentiation by repeated squaring.  We
implement that construction verbatim (:class:`ExponentialCommutativeHash`)
including an explicit square-and-multiply path, plus two hardened
alternatives with the same interface (see DESIGN.md, deviation D2):

* :class:`MultiplicativeSetHash` — multiset hash ``∏ H(x_i) mod p`` for a
  large safe prime ``p``;
* :class:`AdditiveSetHash` — LtHash-style lattice hash
  ``Σ H(x_i) mod 2^k``.

All combinators expose the same algebra:

* ``digest_block(chunks)``  — the base digest of every byte string, each
  as ``digest_len`` big-endian bytes, end to end, metered once (what the
  read-path digest kernel calls, one result at a time);
* ``digest_of_bytes(data)`` — the digest of one byte string as an
  ``int``: the integer of its ``digest_block`` bytes;
* ``combine(values)``       — fold a set of digests into one digest;
* ``fold(acc, value)``      — incremental insert of one more digest.

with the invariant ``fold(combine(S), x) == combine(S ∪ {x})``.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

from repro.constants import (
    COMMUTATIVE_HASH_BITS,
    COMMUTATIVE_HASH_GENERATOR,
)
from repro.crypto.hashing import BaseHash, Sha256Hash
from repro.crypto.meter import CostMeter, NULL_METER
from repro.exceptions import CryptoError

__all__ = [
    "CommutativeHash",
    "ExponentialCommutativeHash",
    "MultiplicativeSetHash",
    "AdditiveSetHash",
    "get_commutative_hash",
    "pow_by_repeated_squaring",
]


def pow_by_repeated_squaring(base: int, exponent: int, modulus: int) -> int:
    """Square-and-multiply modular exponentiation, written out explicitly.

    The paper calls out this exact optimization ("instead of 15
    multiplications followed by a large modulo reduction at the end, we
    perform only 4 multiplications and 4 modulo reductions").  Python's
    built-in ``pow`` does the same thing in C; this reference version
    exists so tests can pin the algebra and benchmarks can compare.
    """
    if modulus <= 0:
        raise CryptoError("modulus must be positive")
    if exponent < 0:
        raise CryptoError("negative exponents are not part of the scheme")
    result = 1 % modulus
    base %= modulus
    while exponent:
        if exponent & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        exponent >>= 1
    return result


class CommutativeHash(Protocol):
    """Protocol implemented by all commutative digest combinators."""

    #: Scheme name used in serialized VOs and ablation benches.
    name: str
    #: Width of a digest value in bytes.
    digest_len: int

    def digest_block(self, chunks: Sequence[bytes]) -> bytes:
        """The digest of every chunk, in order, each as :attr:`digest_len`
        big-endian bytes, end to end; the meter updated once."""
        ...

    def digest_of_bytes(self, data: bytes) -> int:
        """Base digest of raw bytes, suitable as input to :meth:`combine`."""
        ...

    def combine(self, values: Iterable[int]) -> int:
        """Fold a collection of digest values into a single digest.

        Must be invariant under permutation of ``values``.
        """
        ...

    def fold(self, acc: int, value: int) -> int:
        """Incrementally fold one more digest ``value`` into ``acc``.

        ``fold(combine(S), x) == combine(list(S) + [x])``.
        """
        ...

    def empty(self) -> int:
        """Digest of the empty set (identity for :meth:`fold`)."""
        ...


class _Packed:
    """The ``int`` form of a combinator's packed :meth:`digest_block`."""

    def digest_of_bytes(self, data: bytes) -> int:
        """The digest of ``data``: the integer its packed bytes spell."""
        return int.from_bytes(self.digest_block((data,)), "big")


class _LowBits(_Packed):
    """Digests modulo ``2^bits``, forced odd: ``(H(x) & (2^bits - 1)) | 1``.

    The packed form is built a block at a time: the low
    :attr:`digest_len` bytes of each base digest (left-padded with zeros
    when the base hash is narrower), joined, and one integer ``&`` / ``|``
    per block applies the mask and the odd bit of every digest at once —
    so each digest's bytes equal ``value.to_bytes(digest_len)`` of its
    integer form by construction.
    """

    def __init__(
        self, bits: int, base_hash: BaseHash | None, meter: CostMeter
    ) -> None:
        if bits < 8:
            raise CryptoError(f"modulus too small: 2^{bits}")
        self.bits = bits
        self.modulus = 1 << bits
        self._mask = self.modulus - 1
        self.digest_len = width = (bits + 7) // 8
        self._base_hash = base_hash or Sha256Hash()
        self.meter = meter
        self._pad = bytes(max(width - self._base_hash.digest_len, 0))
        self._one = (1).to_bytes(width, "big")
        self._trim = self._mask.to_bytes(width, "big") if bits % 8 else None

    def digest_block(self, chunks: Sequence[bytes]) -> bytes:
        """:meth:`digest_of_bytes` of every chunk, packed; one meter update."""
        new, width, pad = self._base_hash.new, self.digest_len, self._pad
        count = len(chunks)
        self.meter.count_hash(sum(map(len, chunks)), count)
        raw = pad.join([new(chunk).digest()[-width:] for chunk in chunks])
        if pad and count:
            raw = pad + raw
        from_bytes = int.from_bytes
        value = from_bytes(raw, "big") | from_bytes(self._one * count, "big")
        if self._trim is not None:
            value &= from_bytes(self._trim * count, "big")
        return value.to_bytes(width * count, "big")


class ExponentialCommutativeHash(_LowBits):
    """The paper's combinator: ``H(x1,…,xk) = g^(x1·…·xk) mod 2^bits``.

    Digest values are forced **odd** so they stay units modulo ``2^bits``
    and the product in the exponent can never collapse to a multiple of
    the group order purely through factors of two.  (The paper does not
    state this guard; without it, two even digests would frequently
    collide.  DESIGN.md documents the residual weaknesses of the scheme.)

    Args:
        bits: Modulus bit width ``k`` (``n = 2^k``); paper default is 128
            (16-byte digests).
        generator: The fixed base ``g`` (must be odd, > 1).
        base_hash: Base one-way hash used by :meth:`digest_of_bytes`.
        meter: Optional :class:`~repro.crypto.meter.CostMeter` that counts
            hash/combine operations for the computation-cost benches.
        use_builtin_pow: When True (default) use CPython's ``pow``; when
            False use the explicit repeated-squaring reference path.
    """

    def __init__(
        self,
        bits: int = COMMUTATIVE_HASH_BITS,
        generator: int = COMMUTATIVE_HASH_GENERATOR,
        base_hash: BaseHash | None = None,
        meter: CostMeter = NULL_METER,
        use_builtin_pow: bool = True,
    ) -> None:
        super().__init__(bits, base_hash, meter)
        if generator < 2 or generator % 2 == 0:
            raise CryptoError("generator must be odd and > 1")
        self.name = "exp2k"
        self.generator = generator
        self._pow = pow if use_builtin_pow else pow_by_repeated_squaring

    def combine(self, values: Iterable[int]) -> int:
        """``g`` raised to the product of ``values`` (odd-forced), mod 2^bits."""
        acc = self.generator % self.modulus
        count = 0
        for v in values:
            acc = self._pow(acc, self._normalize(v), self.modulus)
            count += 1
        self.meter.count_combine(count)
        return acc

    def fold(self, acc: int, value: int) -> int:
        """Incremental insert: ``acc^(value) mod 2^bits``."""
        self.meter.count_combine(1)
        return self._pow(acc % self.modulus, self._normalize(value), self.modulus)

    def empty(self) -> int:
        """Digest of the empty set: plain ``g``."""
        return self.generator % self.modulus

    def _normalize(self, value: int) -> int:
        """Clamp a digest value into the odd residues the scheme uses."""
        if value <= 0:
            raise CryptoError("digest values must be positive integers")
        return value | 1


class MultiplicativeSetHash(_Packed):
    """Hardened multiset hash: ``H(S) = ∏ h(x_i) mod p`` for prime ``p``.

    Collision-resistant under the discrete-log/root assumptions in the
    subgroup, unlike the mod-``2^k`` construction.  Same commutative
    algebra; offered as a drop-in for the ablation bench.
    """

    # 1024-bit safe prime (RFC 2409 Oakley group 2 prime, widely vetted).
    _PRIME = int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
        16,
    )

    def __init__(
        self,
        base_hash: BaseHash | None = None,
        meter: CostMeter = NULL_METER,
    ) -> None:
        self.name = "mult-prime"
        self.modulus = self._PRIME
        self.digest_len = (self.modulus.bit_length() + 7) // 8
        self._base_hash = base_hash or Sha256Hash()
        self.meter = meter

    def digest_block(self, chunks: Sequence[bytes]) -> bytes:
        """Each chunk hashed into ``[1, p)`` (never 0 mod p), packed; one
        meter update."""
        new, from_bytes = self._base_hash.new, int.from_bytes
        order, width = self.modulus - 1, self.digest_len
        self.meter.count_hash(sum(map(len, chunks)), len(chunks))
        return b"".join([
            (from_bytes(new(chunk).digest(), "big") % order + 1).to_bytes(width, "big")
            for chunk in chunks
        ])

    def combine(self, values: Iterable[int]) -> int:
        """Product of re-randomized digests mod ``p``."""
        acc = 1
        count = 0
        for v in values:
            acc = (acc * self._element(v)) % self.modulus
            count += 1
        self.meter.count_combine(count)
        return acc

    def fold(self, acc: int, value: int) -> int:
        """Incremental insert by modular multiplication."""
        self.meter.count_combine(1)
        return (acc * self._element(value)) % self.modulus

    def empty(self) -> int:
        """Multiplicative identity."""
        return 1

    def _element(self, value: int) -> int:
        """Map an arbitrary digest value into a group element.

        Values are re-hashed so that algebraic relations between raw
        digest values cannot be exploited (standard multiset-hash trick).
        """
        if value <= 0:
            raise CryptoError("digest values must be positive integers")
        data = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        return self._base_hash.digest_int(b"elem:" + data) % (self.modulus - 1) + 1


class AdditiveSetHash(_LowBits):
    """LtHash-style additive multiset hash: ``H(S) = Σ h(x_i) mod 2^bits``.

    The cheapest combinator (one addition per element).  Used in the
    hash-choice ablation to quantify what the paper's exponentiation
    scheme costs relative to simple alternatives.
    """

    def __init__(
        self,
        bits: int = 256,
        base_hash: BaseHash | None = None,
        meter: CostMeter = NULL_METER,
    ) -> None:
        super().__init__(bits, base_hash, meter)
        self.name = "add2k"

    def combine(self, values: Iterable[int]) -> int:
        """Sum of re-randomized digests mod ``2^bits``."""
        acc = 0
        count = 0
        for v in values:
            acc = (acc + self._element(v)) & self._mask
            count += 1
        self.meter.count_combine(count)
        return acc

    def fold(self, acc: int, value: int) -> int:
        """Incremental insert by modular addition."""
        self.meter.count_combine(1)
        return (acc + self._element(value)) & self._mask

    def empty(self) -> int:
        """Additive identity."""
        return 0

    def _element(self, value: int) -> int:
        """Re-hash a digest value into the additive group."""
        if value <= 0:
            raise CryptoError("digest values must be positive integers")
        data = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        return self._base_hash.digest_int(b"elem:" + data) & self._mask


def get_commutative_hash(name: str, meter: CostMeter = NULL_METER) -> CommutativeHash:
    """Instantiate a commutative combinator by scheme name.

    Args:
        name: One of ``"exp2k"`` (paper), ``"mult-prime"``, ``"add2k"``.
        meter: Cost meter threaded into the instance.

    Raises:
        CryptoError: For unknown scheme names.
    """
    lowered = name.lower()
    if lowered == "exp2k":
        return ExponentialCommutativeHash(meter=meter)
    if lowered == "mult-prime":
        return MultiplicativeSetHash(meter=meter)
    if lowered == "add2k":
        return AdditiveSetHash(meter=meter)
    raise CryptoError(
        f"unknown commutative hash {name!r}; "
        "available: ['exp2k', 'mult-prime', 'add2k']"
    )
