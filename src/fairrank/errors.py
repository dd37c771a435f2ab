"""Error hierarchy and metric direction, shared by every fairrank module.

Nothing here needs numpy, so the ``compare`` command and ``report`` can use
these names without loading the array stack.
"""

from __future__ import annotations

import enum


class FairRankError(Exception):
    """Base class for all errors raised by fairrank."""


class Degenerate(FairRankError):
    """The input admits no meaningful metric value (edge case, not a bug)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class DegenerateDenominator(Degenerate):
    """A ratio's denominator is zero (e.g. no unprotected exposure)."""


class DegenerateUtility(Degenerate):
    """A group's utility is zero, making a utility-normalized ratio undefined."""


class UndefinedNormalizer(Degenerate):
    """No arrangement of the list can be unfair, so the normalizer is zero."""


class NoPairs(Degenerate):
    """No document pairs satisfy the requested group conditioning."""


class EmptyGroup(Degenerate):
    """A group has no members in any request's candidate pool."""


class AllDegenerate(FairRankError):
    """Every request was degenerate; the aggregate is undefined."""


class UnknownRequest(FairRankError):
    """A referenced request id is absent from the run; carries the 1-based line of the
    reference when it is read from a file."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class ParseError(FairRankError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(FairRankError):
    """Invalid evaluation configuration; carries the offending key path."""

    def __init__(self, message: str, path: str | None = None):
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path


class Direction(enum.Enum):
    """Which end of a metric's range is the fair one."""

    ZERO_IS_FAIR = "ZeroIsFair"
    ONE_IS_FAIR = "OneIsFair"
    HIGHER_IS_BETTER = "HigherIsBetter"
