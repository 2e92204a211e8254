"""Exception types shared across the toolkit.

Every error class maps to a documented CLI exit code (see cli.EXIT_CODES).
"""


class WebrelyError(Exception):
    """Base class for all toolkit errors."""


class EmptySample(WebrelyError):
    """A sample set has no values where at least one is required."""


class AllDiscarded(WebrelyError):
    """The anomaly policy discarded every raw value."""


class NonIdentifiable(WebrelyError):
    """The shape score equation has no finite root (all values equal)."""


class NoConvergence(WebrelyError):
    """The shape solver ran out of iterations above its tolerance."""


class InsufficientData(WebrelyError):
    """Too few bins or samples for a goodness-of-fit decision."""


class InvariantBreach(WebrelyError):
    """Internal state violated an invariant (signals a bug, not bad input)."""


class EmptyModel(WebrelyError):
    """Site model contains no nodes for the requested view."""


class Unreachable(WebrelyError):
    """The crawl root could not be fetched."""


class AuthFailed(WebrelyError):
    """Login for a view was rejected by the target."""


class TargetDown(WebrelyError):
    """The evaluation target stopped answering; partial logs are preserved."""


class MissingPhase(WebrelyError):
    """A comparison referenced a phase label with no persisted fit report."""


class RecordParseError(WebrelyError):
    """A PSP record file failed to parse; carries row/column position."""

    def __init__(self, row: int, column: str, reason: str):
        self.row = row
        self.column = column
        self.reason = reason
        super().__init__(f"row {row}, column {column!r}: {reason}")


class UnreadableInput(WebrelyError):
    """An input file the user named is missing or cannot be read."""


class LockHeld(WebrelyError):
    """Another command currently holds the project directory lock."""
