"""Pluggable signature backends.

The accountability arguments in IA-CCF require signatures that are
*unforgeable* and *publicly verifiable*: a replica that signs two
contradictory statements can be blamed by anyone holding both signatures.

Two backends are provided:

``HashSigBackend`` (default)
    A deterministic, dependency-free scheme used by the simulator.  Key
    pairs are derived from a seed; the public key is a 33-byte commitment
    to the secret, and a signature is a 64-byte value bound to both the
    secret key and the message.  Verification consults an in-process
    registry mapping public keys to verification secrets.  Within the
    simulation this is sound: every adversarial behaviour the test suite
    and benchmarks inject signs with its *own* keys (equivocation, wrong
    execution, governance forks) — no scenario requires forging another
    party's signature, which the registry prevents for any adversary that
    plays by the API.  Sizes mirror secp256k1 (33-byte compressed public
    key, 64-byte signature) so ledger entry sizes match Table 1.

``Ed25519Backend``
    Real asymmetric signatures via the ``cryptography`` package, for users
    who want cryptographic (rather than simulation-level) unforgeability.
    Used by tests when available; interchangeable with the default.

Backends are stateless objects; keys carry a reference to the backend that
minted them, so mixed deployments fail loudly rather than verifying
garbage.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass
from typing import Protocol

from ..errors import CryptoError

PUBLIC_KEY_SIZE = 33
SIGNATURE_SIZE = 64


@dataclass(frozen=True)
class KeyPair:
    """A signing key pair.

    ``public_key`` is shareable; ``secret`` must stay with the signer.
    ``backend_name`` records which backend minted the pair.
    """

    public_key: bytes
    secret: bytes
    backend_name: str

    def __repr__(self) -> str:  # avoid leaking secrets in logs
        return f"KeyPair(pk={self.public_key.hex()[:16]}…, backend={self.backend_name})"


class SignatureBackend(Protocol):
    """Interface implemented by signature backends."""

    name: str

    def generate(self, seed: bytes | None = None) -> KeyPair:
        """Create a key pair (deterministically if ``seed`` is given)."""

    def sign(self, keypair: KeyPair, message: bytes) -> bytes:
        """Sign ``message``, returning a ``SIGNATURE_SIZE``-byte signature."""

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        """Check a signature.  Returns ``False`` for invalid signatures and
        raises :class:`CryptoError` only on malformed inputs."""


_SHA256_BLOCK = 64


def _hmac_pads(secret: bytes) -> tuple:
    """The SHA-256 states of RFC 2104 HMAC keyed with ``secret`` after
    absorbing the inner pad, the inner pad then ``b"pad"``, and the outer
    pad: a MAC continues copies of them instead of re-deriving the key
    schedule."""
    if len(secret) > _SHA256_BLOCK:
        secret = hashlib.sha256(secret).digest()
    key = secret.ljust(_SHA256_BLOCK, b"\0")
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in key))
    inner_pad = inner.copy()
    inner_pad.update(b"pad")
    outer = hashlib.sha256(bytes(b ^ 0x5C for b in key))
    return inner, inner_pad, outer


class HashSigBackend:
    """Deterministic simulated signatures (see module docstring).

    A signature is ``HMAC(secret, m) || HMAC(secret, b"pad" + m)`` with
    SHA-256, byte for byte what :func:`hmac.new` gives; each key's pad
    states are absorbed once (:func:`_hmac_pads`) and every MAC is still
    computed in full from copies of them."""

    name = "hashsig"

    def __init__(self) -> None:
        self._registry: dict[bytes, bytes] = {}
        self._pads: dict[bytes, tuple] = {}  # secret -> _hmac_pads(secret)

    def _signature(self, secret: bytes, message: bytes) -> bytes:
        """``HMAC(secret, m) || HMAC(secret, b"pad" + m)``."""
        pads = self._pads.get(secret)
        if pads is None:
            pads = self._pads[secret] = _hmac_pads(secret)
        inner, inner_pad, outer = pads
        mac_inner = inner.copy()
        mac_inner.update(message)
        mac = outer.copy()
        mac.update(mac_inner.digest())
        pad_inner = inner_pad.copy()
        pad_inner.update(message)
        pad = outer.copy()
        pad.update(pad_inner.digest())
        return mac.digest() + pad.digest()

    def generate(self, seed: bytes | None = None) -> KeyPair:
        secret = hashlib.sha256(b"hashsig-secret" + (seed if seed is not None else os.urandom(32))).digest()
        # 33-byte public key: 0x02 prefix + 32-byte commitment, shaped like
        # a compressed secp256k1 point.
        public_key = b"\x02" + hashlib.sha256(b"hashsig-public" + secret).digest()
        self._registry[public_key] = secret
        return KeyPair(public_key=public_key, secret=secret, backend_name=self.name)

    def sign(self, keypair: KeyPair, message: bytes) -> bytes:
        if keypair.backend_name != self.name:
            raise CryptoError(f"key from backend {keypair.backend_name!r} used with {self.name!r}")
        # The second, domain-separated MAC pads the signature to 64 bytes
        # so signatures are secp256k1-sized.
        return self._signature(keypair.secret, message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        if len(public_key) != PUBLIC_KEY_SIZE:
            raise CryptoError(f"bad public key length {len(public_key)}")
        if len(signature) != SIGNATURE_SIZE:
            return False
        secret = self._registry.get(public_key)
        if secret is None:
            # Unknown key: cannot have been minted by this backend.
            return False
        return hmac.compare_digest(signature, self._signature(secret, message))


class Ed25519Backend:
    """Real Ed25519 signatures via the ``cryptography`` package."""

    name = "ed25519"

    def __init__(self) -> None:
        try:
            from cryptography.hazmat.primitives.asymmetric import ed25519
        except ImportError as exc:  # pragma: no cover - environment dependent
            raise CryptoError("cryptography package not available") from exc
        self._ed25519 = ed25519

    def generate(self, seed: bytes | None = None) -> KeyPair:
        if seed is not None:
            raw = hashlib.sha256(b"ed25519-seed" + seed).digest()
            private = self._ed25519.Ed25519PrivateKey.from_private_bytes(raw)
        else:
            private = self._ed25519.Ed25519PrivateKey.generate()
            raw = private.private_bytes_raw()
        public = private.public_key().public_bytes_raw()
        # Prefix one byte so public keys are PUBLIC_KEY_SIZE bytes like the
        # default backend (keeps ledger entry sizes uniform).
        return KeyPair(public_key=b"\x03" + public, secret=raw, backend_name=self.name)

    def sign(self, keypair: KeyPair, message: bytes) -> bytes:
        if keypair.backend_name != self.name:
            raise CryptoError(f"key from backend {keypair.backend_name!r} used with {self.name!r}")
        private = self._ed25519.Ed25519PrivateKey.from_private_bytes(keypair.secret)
        return private.sign(message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        if len(public_key) != PUBLIC_KEY_SIZE or public_key[0] != 0x03:
            raise CryptoError("bad ed25519 public key")
        if len(signature) != SIGNATURE_SIZE:
            return False
        try:
            key = self._ed25519.Ed25519PublicKey.from_public_bytes(public_key[1:])
            key.verify(signature, message)
            return True
        except Exception:
            return False


_DEFAULT = HashSigBackend()


def default_backend() -> SignatureBackend:
    """The process-wide default backend (``hashsig``)."""
    return _DEFAULT


def generate_keypair(seed: bytes | None = None, backend: SignatureBackend | None = None) -> KeyPair:
    """Generate a key pair on the given (or default) backend."""
    return (backend or _DEFAULT).generate(seed)


def sign(keypair: KeyPair, message: bytes, backend: SignatureBackend | None = None) -> bytes:
    """Sign ``message`` with ``keypair``."""
    return (backend or _DEFAULT).sign(keypair, message)


def verify(
    public_key: bytes,
    message: bytes,
    signature: bytes,
    backend: SignatureBackend | None = None,
) -> bool:
    """Verify a signature against ``public_key``."""
    return (backend or _DEFAULT).verify(public_key, message, signature)
