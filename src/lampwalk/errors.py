"""Exception types shared across the package."""


class LampwalkError(Exception):
    pass


class ParseError(LampwalkError, ValueError):
    """Malformed element or file text; carries the offending position."""

    def __init__(self, message, text=None, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.text = text
        self.position = position


class GroupMismatchError(LampwalkError, TypeError):
    """Operands belong to different groups."""


class SizeCapError(LampwalkError):
    """A materialization would exceed the configured size cap."""

    def __init__(self, message, predicted=None, cap=None):
        super().__init__(message)
        self.predicted = predicted
        self.cap = cap


class MembershipError(LampwalkError, ValueError):
    """An element lies outside the set required by a precondition."""


class ScheduleLimitError(LampwalkError):
    """A level cannot be built at desk scale (parameters not representable)."""


class CorruptFileError(LampwalkError, ValueError):
    """A persisted file failed its integrity or version check."""


class OracleRangeError(LampwalkError):
    """An exact oracle, or the record DP, was asked about a scale it cannot handle."""
