"""Finite orthogonality spaces and their property lattices.

A state space is a finite set of states with a binary orthogonality
relation that is antireflexive, symmetric, and point-separating: for
distinct p, q there is some r orthogonal to p but not to q.  The perp of
a subset A is the set of states orthogonal to everything in A, and the
subsets fixed by double perp form the property lattice, an
intersection-closed T1 family.

A :class:`PPL` bundles a T1 closure system with an orthogonality on its
atoms; property lattices are the canonical examples, but product
constructions produce ppl's whose family is not the biorthogonal one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .bitset import AtomSet, mask_bits
from .closure import DEFAULT_FAMILY_CAP, ClosureSystem, _meet_closure_masks
from .errors import InvalidInstanceError, InvariantViolationError


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


@dataclass(frozen=True)
class OrthoRelation:
    """Orthogonality on states 0..n-1, stored as one row mask per state.

    The container itself does not enforce the axioms; build through
    :meth:`from_pairs` for symmetrized input, and use the ``*_failure``
    probes (or :func:`validate_state_space`) for checking.
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
        for p in range(self.n):
            for q in mask_bits(self.rows[p]):
                if not (self.rows[q] >> p) & 1:
                    return (p, q)
        return None

    def separation_failure(self) -> tuple[int, int] | None:
        """First ordered pair (p, q) with no r orthogonal to p but not to q."""
        for p in range(self.n):
            for q in range(self.n):
                if p != q and self.rows[p] & ~self.rows[q] == 0:
                    return (p, q)
        return None


@dataclass(frozen=True)
class StateSpace:
    """Labelled states plus their orthogonality relation."""

    labels: tuple[str, ...]
    orth: OrthoRelation

    def __post_init__(self):
        if len(self.labels) != self.orth.n:
            raise ValueError("label count does not match state count")
        if self.orth.n < 1:
            raise ValueError("state space must have at least one state")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be distinct")

    @property
    def n(self) -> int:
        return self.orth.n

    def require_valid(self) -> None:
        report = validate_state_space(self)
        if not report.ok:
            raise InvalidInstanceError(report)


def _orthogonality_checks(o: OrthoRelation) -> tuple[CheckResult, ...]:
    return (
        CheckResult("antireflexive", (w := o.antireflexive_failure()) is None, w),
        CheckResult("symmetric", (w := o.symmetric_failure()) is None, w),
        CheckResult("separating", (w := o.separation_failure()) is None, w),
    )


def validate_state_space(ss: StateSpace) -> ValidationReport:
    """Check antireflexivity, symmetry, and separation, with witnesses."""
    return ValidationReport(_orthogonality_checks(ss.orth))


def perp(ss: StateSpace, a: AtomSet) -> AtomSet:
    """States orthogonal to every state in ``a`` (perp of the empty set is everything)."""
    if a.n != ss.n:
        raise ValueError("subset universe does not match state space")
    return AtomSet(ss.orth.perp_mask(a.bits), ss.n)


def biorthogonal_closure(ss: StateSpace, a: AtomSet) -> AtomSet:
    """Double perp of ``a``: the smallest biorthogonally closed superset."""
    if a.n != ss.n:
        raise ValueError("subset universe does not match state space")
    o = ss.orth
    return AtomSet(o.perp_mask(o.perp_mask(a.bits)), ss.n)


@dataclass(frozen=True)
class PPL:
    """A T1 closure system with an orthogonality on its atoms.

    ``biorthogonal`` marks families whose closure operator coincides with
    double perp (set by :func:`property_lattice` and by ``parse_ppl``
    through :func:`is_biorthogonal_family`, both of which verify it);
    joins then take the double perp instead of the closure system's
    superset lookup.
    """

    cs: ClosureSystem
    orth: OrthoRelation
    labels: tuple[str, ...]
    biorthogonal: bool = field(default=False)

    def __post_init__(self):
        if not (self.cs.n == self.orth.n == len(self.labels)):
            raise ValueError("closure system, orthogonality, and labels disagree on size")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("atom labels must be distinct")

    @property
    def n(self) -> int:
        return self.cs.n

    def join_mask(self, mask: int) -> int:
        if self.biorthogonal:
            return self.orth.perp_mask(self.orth.perp_mask(mask))
        return self.cs.closure_mask(mask)

    def validate(self) -> ValidationReport:
        """The state-space checks on the orthogonality, plus T1 for the family."""
        return ValidationReport(
            _orthogonality_checks(self.orth) + (CheckResult("t1", self.cs.is_t1, None),))

    def require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise InvalidInstanceError(report)


def is_biorthogonal_family(cs: ClosureSystem, orth: OrthoRelation) -> bool:
    """Is the family exactly the sets fixed by double perp?

    It is when the empty set is a member, every member m is fixed by double
    perp, and (m ∪ {r})⊥⊥ is a member for every atom r outside m.  Every X
    fixed by double perp is then reached from the empty set by such steps
    inside X: m ⊊ X and r in X∖m give m ⊊ (m ∪ {r})⊥⊥ ⊆ X⊥⊥ = X.  Both
    tests run member by member in canonical order, so a family that is not
    biorthogonal, like a minimal product, fails at one of its first
    members.  The cost is O(m·n) perps.
    """
    if 0 not in cs:
        return False
    full = (1 << orth.n) - 1
    rows = orth.rows
    perp_mask = orth.perp_mask
    for m in cs.masks:
        pm = perp_mask(m)
        if perp_mask(pm) != m:
            return False
        for r in mask_bits(full & ~m):
            if perp_mask(pm & rows[r]) not in cs:
                return False
    return True


def property_lattice(ss: StateSpace, *, max_family: int = DEFAULT_FAMILY_CAP) -> PPL:
    """Family of biorthogonally closed subsets of a valid state space.

    Every closed set is an intersection of perp rows, so the family is
    generated from the rows instead of scanning all 2**n subsets.  The
    construction double-checks that each member is fixed by double perp
    and that the family is T1 (both are consequences of the axioms).
    """
    ss.require_valid()
    o = ss.orth
    cs = _meet_closure_masks(o.rows, o.n, max_family=max_family)
    for m in cs.masks:
        if o.perp_mask(o.perp_mask(m)) != m:
            raise InvariantViolationError(
                f"member 0x{m:x} of a property lattice is not biorthogonally closed")
    if not cs.is_t1:
        raise InvariantViolationError("property lattice of a valid state space must be T1")
    return PPL(cs=cs, orth=o, labels=ss.labels, biorthogonal=True)
