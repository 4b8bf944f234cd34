"""Finite orthogonality spaces and their property lattices.

A state space is a finite set of states with a binary orthogonality
relation that is antireflexive, symmetric, and point-separating: for
distinct p, q there is some r orthogonal to p but not to q.  The perp of
a subset A is the set of states orthogonal to everything in A
(:meth:`OrthoRelation.perp_mask`), and the subsets fixed by double perp
form the property lattice, an intersection-closed T1 family.

A :class:`PPL` bundles a T1 closure system with an orthogonality on its
atoms; property lattices are the canonical examples, but product
constructions produce ppl's whose family is not the biorthogonal one.
Both are valid by construction: each raises :class:`InvalidInstanceError`,
carrying its :meth:`validate` report, on a relation that fails the axioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .bitset import check_ground, mask_bits
from .closure import ClosureSystem, meet_closure
from .errors import CapacityError, InvalidInstanceError


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of per-axiom validation, with a witness for each failure."""

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]


#: The three passing checks of a relation proven valid, shared: they are frozen.
_PASSED = tuple(CheckResult(name, True) for name in ("antireflexive", "symmetric", "separating"))


@dataclass(frozen=True)
class OrthoRelation:
    """Orthogonality on states 0..n-1, stored as one row mask per state.

    The container itself does not enforce the axioms; build through
    :meth:`from_pairs` for symmetrized input.  The relation is frozen, so
    :attr:`checks` runs the three ``*_failure`` probes once, and keeps
    the verdict :attr:`valid` that every space and ppl made on it reads.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise ValueError("need exactly one row per state")
        for r in self.rows:
            if r < 0 or r >> self.n:
                raise ValueError(f"row mask 0x{r:x} out of range for n={self.n}")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "OrthoRelation":
        rows = [0] * n
        for p, q in pairs:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"state pair ({p},{q}) outside universe of size {n}")
            if p == q:
                raise ValueError(f"state {p} declared orthogonal to itself")
            rows[p] |= 1 << q
            rows[q] |= 1 << p
        return cls(n, tuple(rows))

    @classmethod
    def _proven(cls, n: int, rows: tuple[int, ...]) -> "OrthoRelation":
        """``rows`` that the caller proved valid; :attr:`checks` records three passes."""
        orth = cls(n, rows)
        orth.__dict__["checks"] = _PASSED
        orth.__dict__["valid"] = True
        return orth

    def orthogonal(self, p: int, q: int) -> bool:
        return (self.rows[p] >> q) & 1 == 1

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Unordered orthogonal pairs (p, q) with p < q."""
        for p in range(self.n):
            for q in mask_bits(self.rows[p] >> (p + 1) << (p + 1)):
                yield (p, q)

    def perp_mask(self, mask: int) -> int:
        out = (1 << self.n) - 1
        rows = self.rows
        while mask:
            low = mask & -mask
            out &= rows[low.bit_length() - 1]
            mask ^= low
        return out

    # -- axiom probes -----------------------------------------------------

    def antireflexive_failure(self) -> tuple[int] | None:
        for p in range(self.n):
            if (self.rows[p] >> p) & 1:
                return (p,)
        return None

    def symmetric_failure(self) -> tuple[int, int] | None:
        rows = self.rows
        for p, rp in enumerate(rows):
            bit = 1 << p
            while rp:
                low = rp & -rp
                if not rows[low.bit_length() - 1] & bit:
                    return (p, low.bit_length() - 1)
                rp ^= low
        return None

    def separation_failure(self) -> tuple[int, int] | None:
        """First ordered pair (p, q) with no r orthogonal to p but not to q."""
        for p, rp in enumerate(self.rows):
            for q, rq in enumerate(self.rows):
                if rp & ~rq == 0 and p != q:
                    return (p, q)
        return None

    @cached_property
    def checks(self) -> tuple[CheckResult, ...]:
        """Antireflexivity, symmetry and separation, with witnesses."""
        return (
            CheckResult("antireflexive", (w := self.antireflexive_failure()) is None, w),
            CheckResult("symmetric", (w := self.symmetric_failure()) is None, w),
            CheckResult("separating", (w := self.separation_failure()) is None, w),
        )

    @cached_property
    def valid(self) -> bool:
        """Do all three :attr:`checks` pass?"""
        return all(c.ok for c in self.checks)


@dataclass(frozen=True)
class StateSpace:
    """Labelled states, at most ``GROUND_CAPACITY``, and their valid orthogonality."""

    labels: tuple[str, ...]
    orth: OrthoRelation

    def __post_init__(self):
        if len(self.labels) != self.orth.n:
            raise ValueError("label count does not match state count")
        if self.orth.n < 1:
            raise ValueError("state space must have at least one state")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be distinct")
        check_ground(self.n)  # before the axioms, which scan n² pairs
        if not self.orth.valid:
            raise InvalidInstanceError(self.validate(), self.labels)

    @property
    def n(self) -> int:
        return self.orth.n

    def validate(self) -> ValidationReport:
        """Antireflexivity, symmetry and separation, with witnesses."""
        return ValidationReport(self.orth.checks)


class PPL:
    """A T1 closure system with a valid orthogonality on its atoms.

    ``family`` is the closure system, or a builder run on the first read
    of ``cs``, where a cap error then surfaces; :func:`property_lattice`
    and the minimal product prove theirs T1.  A given family must begin
    ∅, {0}, …, {n−1} in canonical order, as a T1 one does.  The
    orthogonality is checked without the family, so a builder is not run.

    ``join_mask`` is double perp when ``biorthogonal`` (set by
    :func:`property_lattice`, where it is a theorem, and by ``parse_ppl``
    when :func:`is_biorthogonal_family` says so), else ``join`` when
    given, else the family's closure.  Only that last reads the family.
    """

    def __init__(self, family: ClosureSystem | Callable[[], ClosureSystem],
                 orth: OrthoRelation, labels: tuple[str, ...], biorthogonal: bool = False,
                 *, join: Callable[[int], int] | None = None):
        n = orth.n
        if n != len(labels):
            raise ValueError("orthogonality and labels disagree on size")
        if len(set(labels)) != n:
            raise ValueError("atom labels must be distinct")
        if isinstance(family, ClosureSystem):
            if family.n != n or family.masks[:n + 1] != (0, *(1 << p for p in range(n))):
                raise ValueError(f"the family is not a T1 family on the {n} atoms")
            self.cs = family
        else:
            self._build = family
        self.orth, self.labels, self.biorthogonal = orth, labels, biorthogonal
        if not orth.valid:
            raise InvalidInstanceError(self.validate(), labels)
        if biorthogonal:
            perp = orth.perp_mask
            join = lambda mask: perp(perp(mask))
        elif join is None:
            join = lambda mask: self.cs.closure_mask(mask)
        self.join_mask = join

    @cached_property
    def cs(self) -> ClosureSystem:
        return self._build()

    @property
    def has_family(self) -> bool:
        """Has the family been built (always, for a ppl given one)?"""
        return "cs" in self.__dict__

    @property
    def n(self) -> int:
        return self.orth.n

    def validate(self) -> ValidationReport:
        """The state-space checks on the orthogonality, plus T1 for the family."""
        # T1 holds by construction; `orthlab validate` prints a line per check
        return ValidationReport(self.orth.checks + (CheckResult("t1", True, None),))


def is_biorthogonal_family(cs: ClosureSystem, orth: OrthoRelation) -> bool:
    """Is the family exactly the sets fixed by double perp?

    For a symmetric relation the sets fixed by double perp are exactly
    the intersections of perp rows, the full set being the empty one:
    X = X⊥⊥ is the intersection of the rows of the atoms in X⊥, and an
    intersection of rows is a perp A⊥, which A⊥⊥⊥ = A⊥ fixes.  So the
    question is whether the meet closure of the rows is ``cs``.  The
    closure is stopped once it outgrows ``cs``, so a family smaller than
    the double-perp one, like the rectangles of a minimal product, is
    rejected early.  The relation must be symmetric, as every parsed one
    is.
    """
    try:
        closed = meet_closure(orth.rows, orth.n, max_family=len(cs))
    except CapacityError:
        return False
    return closed.masks == cs.masks


def property_lattice(ss: StateSpace) -> PPL:
    """Family of biorthogonally closed subsets of a state space.

    The family is built on the first read of ``cs``, and the cap
    :data:`~orthlab.closure.DEFAULT_FAMILY_CAP` is checked then; joins are
    double perp and never build it.

    Every closed set is an intersection of perp rows, so the family is the
    meet closure of the rows instead of a scan of all 2**n subsets.  Its
    members need no double-perp recheck: an intersection of the rows of
    the atoms in A is the perp A⊥, and A⊥⊥⊥ = A⊥.  Nor does the family
    need a T1 recheck: by antireflexivity no atom lies in its own row, so
    the intersection of all rows is the empty set; and for q ≠ p,
    separation gives some r orthogonal to p but not to q, so p's closure
    {p}⊥⊥, the intersection of the rows of the atoms orthogonal to p,
    lies inside r's row and misses q (symmetry puts p in each of those
    rows).
    """
    o = ss.orth
    return PPL(lambda: meet_closure(o.rows, o.n), o, ss.labels, biorthogonal=True)
