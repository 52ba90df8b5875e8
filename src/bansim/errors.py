"""Exception taxonomy for the whole package.

Frame parsing reports each failure mode as a distinct class so callers can
branch on what went wrong, not on message text.
"""

from __future__ import annotations

__all__ = [
    "BansimError",
    "ConfigError",
    "FrameError",
    "FrameTooLong",
    "PreambleMismatch",
    "SfdMismatch",
    "HeaderCheckError",
    "CodewordError",
    "DespreadError",
    "TrailingBitsError",
    "FcsMismatch",
    "TruncatedFrame",
    "InvalidLayoutError",
    "AllocationConflict",
    "ScenarioError",
    "SimulationError",
    "SecurityError",
    "ProtocolOrderError",
    "KeyStateError",
    "LevelMismatch",
    "TagFailure",
    "ReplayRejection",
]


class BansimError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(BansimError):
    """A PHY or scenario configuration value is invalid."""


class FrameError(BansimError):
    """Base class for frame build/parse failures."""


class FrameTooLong(FrameError):
    """Frame body exceeds the 255-byte limit of the length field."""


class PreambleMismatch(FrameError):
    """Received preamble does not match the expected sync pattern."""


class SfdMismatch(FrameError):
    """Start-frame delimiter does not match its fixed pattern."""


class HeaderCheckError(FrameError):
    """PHY header check bits or header padding failed validation."""


class CodewordError(FrameError):
    """A coded block failed its parity check, or pad bits were nonzero."""


class DespreadError(FrameError):
    """Repetition-spread copies of a bit disagree."""


class TrailingBitsError(FrameError):
    """Bit image continues past the end of the declared frame."""


class FcsMismatch(FrameError):
    """Frame check sequence does not match the received MAC frame."""


class TruncatedFrame(FrameError):
    """Bit image ends before the declared frame is complete."""


class InvalidLayoutError(BansimError):
    """Superframe phase lengths overlap or do not sum to the superframe."""


class AllocationConflict(BansimError):
    """Two scheduled allocations claim the same slots in one superframe."""


class ScenarioError(BansimError):
    """Scenario file rejected; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SimulationError(BansimError):
    """Internal consistency violation surfaced by the simulation kernel."""


class SecurityError(BansimError):
    """Base class for security session failures."""


class ProtocolOrderError(SecurityError):
    """Operation attempted out of the association/key-establishment order."""


class KeyStateError(SecurityError):
    """Key material missing or already present for the requested step."""


class LevelMismatch(SecurityError):
    """Frame security level does not match the session's level."""


class TagFailure(SecurityError):
    """Authentication tag did not verify."""


class ReplayRejection(SecurityError):
    """Frame counter not strictly greater than the last accepted one."""
