"""Cryptographic primitives for IA-CCF.

The paper uses SHA-256 (EverCrypt) and secp256k1 signatures.  We provide:

- :mod:`repro.crypto.hashing` — SHA-256 digests over canonical encodings.
- :mod:`repro.crypto.signatures` — pluggable signature backends.  The default
  ``hashsig`` backend is a deterministic in-process scheme with
  secp256k1-shaped keys and signatures (33-byte public keys, 64-byte
  signatures); an Ed25519 backend built on the ``cryptography`` package is
  available when real asymmetric crypto is desired.
- :mod:`repro.crypto.nonces` — the nonce commitment scheme of §3.1 that lets
  replicas avoid signing ``commit`` messages.
"""

from .hashing import Digest, digest, digest_pair, digest_value, DIGEST_SIZE
from .signatures import (
    KeyPair,
    SignatureBackend,
    HashSigBackend,
    Ed25519Backend,
    default_backend,
    generate_keypair,
    sign,
    verify,
    PUBLIC_KEY_SIZE,
    SIGNATURE_SIZE,
)
from .nonces import NonceCommitment, new_nonce, commit_nonce, open_matches

__all__ = [
    "Digest",
    "digest",
    "digest_pair",
    "digest_value",
    "DIGEST_SIZE",
    "KeyPair",
    "SignatureBackend",
    "HashSigBackend",
    "Ed25519Backend",
    "default_backend",
    "generate_keypair",
    "sign",
    "verify",
    "PUBLIC_KEY_SIZE",
    "SIGNATURE_SIZE",
    "NonceCommitment",
    "new_nonce",
    "commit_nonce",
    "open_matches",
]
