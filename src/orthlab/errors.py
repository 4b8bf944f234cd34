"""Exception types shared across the package."""

from __future__ import annotations


class OrthlabError(Exception):
    """Base class for all orthlab errors."""


class CapacityError(OrthlabError):
    """An instance exceeds a configured size limit (ground set or family cap)."""


class BudgetExceededError(OrthlabError):
    """A backtracking search ran out of its node budget.

    Distinct from "no result exists": the search outcome is unknown.
    """

    def __init__(self, nodes: int, message: str = ""):
        self.nodes = nodes
        super().__init__(message or f"search budget exhausted after {nodes} node expansions")


class InvariantViolationError(OrthlabError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class InvalidInstanceError(OrthlabError):
    """Input fails validation (orthogonality axioms, closure structure, ...).

    Carries the structured report so callers can render the failures.
    """

    def __init__(self, report, message: str = ""):
        self.report = report
        super().__init__(message or "; ".join(
            f"{c.name} fails (witness {c.witness})" for c in report.failures()))


class ParseError(OrthlabError):
    """Syntax or structural error in a text format, with source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        where = f" (line {line}" + (f", col {col})" if col else ")") if line else ""
        super().__init__(message + where)


class CouldNotSeparateError(OrthlabError):
    """The random generator never produced a separating relation."""
