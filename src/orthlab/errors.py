"""Exception types shared across the package."""

from __future__ import annotations


class OrthlabError(Exception):
    """Base class for all orthlab errors."""


class CapacityError(OrthlabError):
    """An instance exceeds a configured size limit (ground set or family cap)."""


class BudgetExceededError(OrthlabError):
    """A backtracking search ran out of its node budget.

    Distinct from "no result exists": the search outcome is unknown.
    ``query`` is the (p, q) probe that ran out, searching a symmetry that
    maps atom p to atom q, and ``plane`` the (p1, p2) whose plane that
    probe held fixed; the searches that know them fill them in on the way
    out, and the message names them.  ``labels``, when a caller sets it,
    names the atoms in the message by label instead of by index.
    """

    def __init__(self, nodes: int, message: str = ""):
        self.nodes = nodes
        self.query: tuple[int, int] | None = None
        self.plane: tuple[int, int] | None = None
        self.labels: tuple[str, ...] | None = None
        super().__init__(message or f"search budget exhausted after {nodes} node expansions")

    def __str__(self) -> str:
        text = super().__str__()
        name = (lambda atom: self.labels[atom]) if self.labels else str
        if self.query is not None:
            text += " mapping atom {} to atom {}".format(*map(name, self.query))
        if self.plane is not None:
            text += " with the plane of atoms {} and {} fixed".format(*map(name, self.plane))
        return text


class InvariantViolationError(OrthlabError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class InvalidInstanceError(OrthlabError):
    """Input fails validation (orthogonality axioms, closure structure, ...).

    Carries the structured report, and the atom labels when the raiser
    knows them, so callers can render the failures.  The message names
    each witness's atoms by label, or shows its indices without labels.
    """

    def __init__(self, report, labels: tuple[str, ...] | None = None):
        self.report = report
        self.labels = labels

        def witness(c) -> str:
            return " ".join(labels[i] for i in c.witness) if labels else str(c.witness)
        super().__init__("; ".join(
            f"{c.name} fails (witness {witness(c)})" for c in report.failures()))


class ParseError(OrthlabError):
    """Syntax or structural error in a text format, with source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        where = f" (line {line}" + (f", col {col})" if col else ")") if line else ""
        super().__init__(message + where)


class CouldNotSeparateError(OrthlabError):
    """The random generator never produced a separating relation."""
