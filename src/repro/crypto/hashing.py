"""One-way hash primitives.

The paper needs two distinct hash roles:

* a *base* one-way hash ``h`` that maps a byte string (the canonical
  encoding of ``db | table | attr | key | value``) to a fixed-width
  digest — the paper cites MD5 and SHA as candidates;
* a *combining* one-way hash ``H`` over sets of digests, which must be
  **commutative** — that one lives in :mod:`repro.crypto.commutative`.

This module provides the base hashes as integer-valued functions so the
commutative combinators can use the outputs directly as exponents.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Protocol

from repro.exceptions import CryptoError

__all__ = [
    "BaseHash",
    "Sha256Hash",
    "Sha1Hash",
    "Md5Hash",
    "get_base_hash",
]


class BaseHash(Protocol):
    """Protocol for base one-way hashes used to digest attribute bytes."""

    #: Human-readable algorithm name ("sha256", ...).
    name: str
    #: Digest width in bytes.
    digest_len: int
    #: ``new(data).digest()`` is :meth:`digest_bytes` — the constructor
    #: itself, for kernels that hash a result's worth of strings in one
    #: comprehension and cannot afford a Python frame per string.
    new: Callable[[bytes], "hashlib._Hash"]

    def digest_bytes(self, data: bytes) -> bytes:
        """Hash ``data`` to :attr:`digest_len` bytes."""
        ...

    def digest_int(self, data: bytes) -> int:
        """Hash ``data`` to an integer in ``[0, 256**digest_len)``."""
        ...


class _HashlibHash:
    """Base hash backed by a :mod:`hashlib` construction."""

    def __init__(self, name: str, factory: Callable[..., "hashlib._Hash"]) -> None:
        self.name = name
        self.new = factory
        self.digest_len = factory().digest_size

    def digest_bytes(self, data: bytes) -> bytes:
        return self.new(data).digest()

    def digest_int(self, data: bytes) -> int:
        return int.from_bytes(self.new(data).digest(), "big")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class Sha256Hash(_HashlibHash):
    """SHA-256 — the default base hash (FIPS 180)."""

    def __init__(self) -> None:
        super().__init__("sha256", hashlib.sha256)


class Sha1Hash(_HashlibHash):
    """SHA-1 — cited by the paper ([1], FIPS 180-1).  Kept for fidelity
    experiments only; do not use for new deployments."""

    def __init__(self) -> None:
        super().__init__("sha1", hashlib.sha1)


class Md5Hash(_HashlibHash):
    """MD5 — cited by the paper ([14], RFC 1321).  Fidelity only."""

    def __init__(self) -> None:
        super().__init__("md5", hashlib.md5)


_REGISTRY: dict[str, Callable[[], BaseHash]] = {
    "sha256": Sha256Hash,
    "sha1": Sha1Hash,
    "md5": Md5Hash,
}


def get_base_hash(name: str) -> BaseHash:
    """Look up a base hash by name.

    Raises:
        CryptoError: For unknown algorithm names.
    """
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        raise CryptoError(
            f"unknown base hash {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
