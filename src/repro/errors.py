"""Exception hierarchy for the IA-CCF reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class CodecError(ReproError):
    """Raised when canonical encoding or decoding fails."""


class CryptoError(ReproError):
    """Raised on signature/nonce scheme misuse or verification failures
    that indicate malformed inputs (not mere invalid signatures, which are
    reported as boolean verification results)."""


class MerkleError(ReproError):
    """Raised on invalid Merkle tree operations (out-of-range leaf,
    truncation beyond size, malformed proof)."""


class KVError(ReproError):
    """Raised by the transactional key-value store."""


class TransactionAborted(KVError):
    """Raised inside a stored procedure to abort and roll back the
    enclosing transaction."""


class LedgerError(ReproError):
    """Raised on malformed ledger operations."""


class WellFormednessError(LedgerError):
    """Raised when a ledger fragment violates L-PBFT structural rules."""


class NetworkError(ReproError):
    """Raised by the simulated network substrate."""


class ProtocolError(ReproError):
    """Raised on L-PBFT protocol violations detected locally."""


class MalformedMessage(ProtocolError):
    """Raised when a received message does not parse: its envelope has
    the wrong length for its kind, or a record in it is not a wire form.
    A replica drops and counts such a message."""


class ReceiptError(ReproError):
    """Raised when a receipt is structurally malformed (distinct from a
    receipt that simply fails signature verification)."""


class GovernanceError(ReproError):
    """Raised on invalid governance operations (bad proposal, double vote,
    unauthorized member)."""


class AuditError(ReproError):
    """Raised when an audit cannot proceed (e.g. inputs malformed)."""


class EnforcementError(ReproError):
    """Raised by the enforcer on invalid uPoMs or deadline handling."""


class SimulationError(ReproError):
    """Raised by the discrete-event simulation core."""
