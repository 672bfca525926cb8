"""Digest signing — the paper's ``s`` / ``s^{-1}`` operations.

The VB-tree signs *digest values* (integers below the commutative-hash
modulus), not arbitrary messages.  The paper's model is raw RSA:
``s(x) = x^d mod N`` and ``s^{-1}(y) = y^e mod N``; a recipient checks a
digest by decrypting the signed form and comparing with a recomputed
value.

Two concerns are layered on top of the raw primitive:

* **Domain separation / key epochs** — every signature binds a small
  header (scheme tag + key epoch) into the signed integer, implementing
  Section 3.4's "include the timestamp or version number in its public
  key" defence against stale-data replay.  See
  :mod:`repro.crypto.keyring` for epoch validity windows.
* **Cost metering** — sign/verify counts flow into a
  :class:`~repro.crypto.meter.CostMeter` so benches can report the
  paper's ``Cost_v`` terms from the running system.
"""

from __future__ import annotations

from repro.crypto.meter import CostMeter, NULL_METER
from repro.crypto.rsa import RSAKeyPair, RSAPrivateKey, RSAPublicKey
from repro.exceptions import SignatureError

__all__ = ["SignedDigest", "DigestSigner", "DigestVerifier"]

# Multiplier folding the epoch into the signed integer.  The signed
# payload is  value * _EPOCH_SPACE + epoch , which is injective as long
# as epoch < _EPOCH_SPACE.
_EPOCH_SPACE = 1 << 16


class SignedDigest(bytes):
    """A digest signed by the central server, as the bytes it travels
    as: ``signature (sig_len bytes, big-endian) ‖ epoch (2 bytes)``.

    Nothing else is held: decoders slice one out of a payload, encoders
    append it, and the signature integer is parsed only inside
    :meth:`DigestVerifier.recover`.  Equal bytes are equal signed
    digests, so the form is also the key a verifier remembers a
    recovery under.
    """

    __slots__ = ()

    @property
    def epoch(self) -> int:
        """Key epoch the signature claims: the last two bytes."""
        return int.from_bytes(self[-2:], "big")


class DigestSigner:
    """Signs digest values with the central server's private key.

    Args:
        private_key: RSA private key (only the central DBMS holds one).
        epoch: Current key epoch (bumped on key rotation).
        meter: Cost meter receiving ``count_sign`` events.
    """

    def __init__(
        self,
        private_key: RSAPrivateKey,
        epoch: int = 0,
        meter: CostMeter = NULL_METER,
    ) -> None:
        if not 0 <= epoch < _EPOCH_SPACE:
            raise SignatureError(f"epoch out of range: {epoch}")
        self._key = private_key
        self.epoch = epoch
        self.meter = meter
        self._width = private_key.public_key().signature_len
        self._epoch_bytes = epoch.to_bytes(2, "big")

    @property
    def public_key(self) -> RSAPublicKey:
        """The matching public key (what gets distributed to clients)."""
        return self._key.public_key()

    @property
    def max_value(self) -> int:
        """Largest digest value signable under this key/epoch encoding."""
        return (self._key.n - 1 - self.epoch) // _EPOCH_SPACE

    def sign(self, value: int) -> SignedDigest:
        """Sign a digest value: ``s(value)`` in the paper's notation.

        Raises:
            SignatureError: If ``value`` is negative or too large for the
                modulus after the epoch header is folded in.
        """
        if value < 0:
            raise SignatureError("cannot sign negative digest values")
        payload = value * _EPOCH_SPACE + self.epoch
        if payload >= self._key.n:
            raise SignatureError(
                "digest value too large for signing modulus; "
                "use a larger RSA key or smaller commutative-hash modulus"
            )
        self.meter.count_sign()
        return SignedDigest(
            self._key.apply(payload).to_bytes(self._width, "big") + self._epoch_bytes
        )

    @classmethod
    def from_keypair(
        cls, keypair: RSAKeyPair, epoch: int = 0, meter: CostMeter = NULL_METER
    ) -> "DigestSigner":
        """Convenience constructor from a generated key pair."""
        return cls(keypair.private, epoch=epoch, meter=meter)


class DigestVerifier:
    """Recovers digest values from signatures using the public key.

    This is the paper's ``s^{-1}`` — "decrypt with the public key".
    Clients and edge servers hold one of these; neither can produce new
    signatures with it.

    Args:
        public_key: The central server's public key.
        meter: Cost meter receiving ``count_verify`` events.
    """

    def __init__(
        self, public_key: RSAPublicKey, meter: CostMeter = NULL_METER
    ) -> None:
        #: The public key in use.
        self.public_key = public_key
        self.meter = meter

    @property
    def signature_len(self) -> int:
        """Byte width of raw signatures under this key."""
        return self.public_key.signature_len

    def recover(self, signed: SignedDigest) -> int:
        """Decrypt a signed digest and return the embedded digest value.

        Raises:
            SignatureError: If the signed digest is not this key's width
                plus the epoch (refused before any public-key operation),
                or the embedded epoch does not match the epoch claimed
                alongside the signature (forgery/corruption indicator).
        """
        width = self.public_key.signature_len
        if len(signed) != width + 2:
            raise SignatureError(
                f"signed digest must be {width + 2} bytes, got {len(signed)}"
            )
        self.meter.count_verify()
        payload = self.public_key.apply(int.from_bytes(signed[:width], "big"))
        value, epoch = divmod(payload, _EPOCH_SPACE)
        claim = signed.epoch
        if epoch != claim:
            raise SignatureError(
                f"epoch mismatch: signature embeds {epoch}, claim is {claim}"
            )
        return value

    def verify_value(self, signed: SignedDigest, expected: int) -> bool:
        """Check that ``signed`` is a valid signature over ``expected``."""
        try:
            return self.recover(signed) == expected
        except SignatureError:
            return False
