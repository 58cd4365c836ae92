"""Shared exception types.

Every error raised on a contract violation derives from ProtocolError so
callers can catch the package's failures without masking genuine bugs
(TypeError, AttributeError and friends propagate untouched).
"""

from __future__ import annotations


class ProtocolError(Exception):
    """Base class for all protocol-level failures."""


class EncodingError(ProtocolError):
    """Bytes do not decode to a valid scalar, element or record."""


class DomainError(ProtocolError):
    """A message lies outside the codec's declared finite domain."""


class CapacityError(ProtocolError):
    """Append would exceed the accumulator's fixed capacity."""


class DuplicateIdentifierError(ProtocolError):
    """Registration replay: the identifier digest is already enrolled."""


class ThresholdError(ProtocolError):
    """Worker quality does not clear the task's admission threshold."""


class MalformedStatementError(ProtocolError):
    """A relation statement is structurally invalid (as opposed to merely
    unsatisfied, which is reported as a False check result)."""


class PhaseError(ProtocolError):
    """A contract method was invoked in a phase that does not admit it."""


class DeadlineError(ProtocolError):
    """A transaction landed past the deadline governing its method."""


class FundsError(ProtocolError):
    """Sender balance or escrow cannot cover the requested movement."""


class ConfigError(ProtocolError):
    """A scenario file or fixture violates its schema."""


class RelationUnsatisfiedError(ProtocolError):
    """prove() was called with a witness that does not satisfy the relation."""
