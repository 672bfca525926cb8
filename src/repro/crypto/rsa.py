"""Pure-Python textbook RSA, as used by the paper's signature scheme.

The paper models signing as *encryption with the private key* —
``s(x) = x^d mod N`` — and verification as *decryption with the public
key* — ``s^{-1}(y) = y^e mod N`` (Section 3.2).  This module implements
exactly that primitive plus key generation, with two deliberate
properties:

* **Determinism** — signing is deterministic (textbook RSA has no
  padding randomness), so digests can be compared byte-for-byte, which
  the VB-tree relies on when it stores signed digests inside nodes.
* **Reproducibility** — key generation accepts a seed so tests and
  benchmarks can regenerate identical keys.

Textbook RSA without padding is malleable in general; here it only ever
signs fixed-width one-way digests (never attacker-chosen messages), which
is the same setting the paper assumes.  DESIGN.md documents this.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.constants import RSA_BITS
from repro.crypto.primes import generate_prime
from repro.exceptions import KeyGenerationError, SignatureError

__all__ = ["RSAPublicKey", "RSAPrivateKey", "RSAKeyPair", "generate_keypair"]

#: Conventional public exponent.
PUBLIC_EXPONENT = 65537


@dataclass(frozen=True)
class RSAPublicKey:
    """RSA public key ``(n, e)``.

    ``apply`` is the raw public-key operation — the paper's ``s^{-1}``
    ("decrypt with the public key").
    """

    n: int
    e: int = PUBLIC_EXPONENT

    @property
    def bits(self) -> int:
        """Modulus size in bits."""
        return self.n.bit_length()

    @property
    def signature_len(self) -> int:
        """Length in bytes of signatures under this key."""
        return (self.bits + 7) // 8

    def apply(self, value: int) -> int:
        """Raw public-key operation ``value^e mod n``."""
        if not 0 <= value < self.n:
            raise SignatureError("value outside modulus range")
        return pow(value, self.e, self.n)

    def fingerprint(self) -> int:
        """Short stable identifier for key-equality checks in messages."""
        return hash((self.n, self.e)) & 0xFFFFFFFF


@dataclass(frozen=True)
class RSAPrivateKey:
    """RSA private key with CRT parameters for ~4x faster signing.

    ``dp``, ``dq`` and ``q_inv`` are functions of ``(d, p, q)``, derived
    once at construction and left out of equality and repr.
    """

    n: int
    e: int
    d: int
    p: int
    q: int
    dp: int = field(init=False, repr=False, compare=False)
    dq: int = field(init=False, repr=False, compare=False)
    q_inv: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dp", self.d % (self.p - 1))
        object.__setattr__(self, "dq", self.d % (self.q - 1))
        object.__setattr__(self, "q_inv", pow(self.q, -1, self.p))

    @property
    def bits(self) -> int:
        """Modulus size in bits."""
        return self.n.bit_length()

    def public_key(self) -> RSAPublicKey:
        """Derive the matching public key."""
        return RSAPublicKey(n=self.n, e=self.e)

    def apply(self, value: int) -> int:
        """Raw private-key operation ``value^d mod n`` via CRT."""
        if not 0 <= value < self.n:
            raise SignatureError("value outside modulus range")
        # Chinese Remainder Theorem: exponentiate in the two prime fields.
        p, q = self.p, self.q
        m1 = pow(value % p, self.dp, p)
        m2 = pow(value % q, self.dq, q)
        h = (self.q_inv * (m1 - m2)) % p
        return m2 + h * q


@dataclass(frozen=True)
class RSAKeyPair:
    """A matched private/public key pair."""

    private: RSAPrivateKey
    public: RSAPublicKey

    @property
    def bits(self) -> int:
        """Modulus size in bits."""
        return self.public.bits


def generate_keypair(
    bits: int = RSA_BITS,
    seed: int | None = None,
    e: int = PUBLIC_EXPONENT,
) -> RSAKeyPair:
    """Generate an RSA key pair with an exactly ``bits``-bit modulus.

    Args:
        bits: Modulus size in bits (must be even and >= 128; tests use
            512 for speed, production-ish runs 1024/2048).
        seed: Optional seed for reproducible key generation.  When given,
            a ``random.Random(seed)`` PRNG drives prime search; when
            omitted, system entropy is used.
        e: Public exponent (default 65537).

    Raises:
        KeyGenerationError: On invalid sizing or pathological prime draws.
    """
    if bits < 128 or bits % 2:
        raise KeyGenerationError(
            f"modulus size must be an even number of bits >= 128, got {bits}"
        )
    rng = random.Random(seed) if seed is not None else None
    half = bits // 2
    for _ in range(64):
        p = generate_prime(half, rng=rng)
        q = generate_prime(half, rng=rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if math.gcd(e, phi) != 1:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        d = pow(e, -1, phi)
        private = RSAPrivateKey(n=n, e=e, d=d, p=p, q=q)
        return RSAKeyPair(private=private, public=private.public_key())
    raise KeyGenerationError(
        f"could not generate a {bits}-bit key pair (gcd/size retries exhausted)"
    )
