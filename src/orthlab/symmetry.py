"""Symmetries of a ppl and plane-transitivity search.

A symmetry is an atom permutation that maps closed sets to closed sets
in both directions and preserves orthogonality in both directions.  The
backtracking search assigns pinned atoms first, then the free atoms in
ascending order, trying images in ascending order, so symmetries come out
in lexicographic order of the image tuple.  Candidates are pruned on
per-atom invariants (orthogonality degree and closed-set membership
profile) and on orthogonality with the atoms already assigned.  Each
closed set is checked once, as soon as all of its atoms have images; on a
property lattice no closed-set check is needed at all (see
:func:`_backtrack`).

The group order is the product of the basic orbit lengths along the base
0, 1, ..., n-1, each orbit point found by one pinned existence probe, so
the group is never listed to be counted.  A plane witness for (p, q) is a
symmetry carrying p to q while fixing, atom by atom, the join of two
distinct atoms.  Searches are budgeted: running out raises
:class:`BudgetExceededError`, which is an "unknown" outcome, never a
negative one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .bitset import mask_bits, permute_mask
from .errors import BudgetExceededError, InvariantViolationError
from .statespace import PPL

#: Default node budget per search query.
DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class Symmetry:
    """An atom permutation, image-listed: atom i maps to perm[i]."""

    perm: tuple[int, ...]

    def __call__(self, atom: int) -> int:
        return self.perm[atom]

    def image_mask(self, mask: int) -> int:
        return permute_mask(self.perm, mask)


@dataclass(frozen=True)
class SymmetryDefect:
    """Why a permutation fails to be a symmetry."""

    kind: str  # "orthogonality" | "closed-set"
    pair: tuple[int, int] | None = None
    mask: int | None = None


@dataclass(frozen=True)
class PlaneWitness:
    """A symmetry f with f(p) = q fixing every atom of join({p1}, {p2})."""

    p: int
    q: int
    p1: int
    p2: int
    f: Symmetry


@dataclass(frozen=True)
class PlaneTransitivityReport:
    transitive: bool
    witnesses: tuple[PlaneWitness, ...] | None = None
    failing_pair: tuple[int, int] | None = None
    note: str | None = None


class _Budget:
    """Mutable node counter; raises once the limit is spent."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None):
        self.limit = limit
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExceededError(self.spent)


def symmetry_failure(ppl: PPL, perm: Sequence[int]) -> SymmetryDefect | None:
    """First reason ``perm`` is not a symmetry, or None if it is one.

    On a property lattice only orthogonality is checked: a bijection that
    preserves it both ways maps the family onto itself (see
    :func:`_backtrack`).
    """
    n = ppl.n
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the atoms")
    orth = ppl.orth
    for p in range(n):
        for q in range(n):
            if orth.orthogonal(p, q) != orth.orthogonal(perm[p], perm[q]):
                return SymmetryDefect("orthogonality", pair=(p, q))
    if ppl.biorthogonal:
        return None
    bad = ppl.cs.permutation_failure(perm)
    if bad is not None:
        return SymmetryDefect("closed-set", mask=bad)
    return None


def is_symmetry(ppl: PPL, perm: Sequence[int]) -> bool:
    return symmetry_failure(ppl, perm) is None


def _atom_signatures(ppl: PPL) -> tuple:
    """Per-atom invariants preserved by any symmetry.

    Degree in the orthogonality relation, plus a histogram of the
    cardinalities of closed sets containing the atom.  A symmetry permutes
    the closed family preserving cardinality, so both are invariant.
    """
    n = ppl.n
    prof: list[dict[int, int]] = [dict() for _ in range(n)]
    for m in ppl.cs.masks:
        c = m.bit_count()
        for p in mask_bits(m):
            prof[p][c] = prof[p].get(c, 0) + 1
    return tuple(
        (ppl.orth.rows[p].bit_count(), tuple(sorted(prof[p].items())))
        for p in range(n)
    )


def _backtrack(ppl: PPL, pins: dict[int, int], budget: _Budget,
               sigs: tuple | None = None) -> Iterator[tuple[int, ...]]:
    """All symmetries consistent with ``pins``, in lexicographic order.

    The pins are assigned before the search and checked once against each
    other: on orthogonality, and on the closed sets that lie wholly inside
    the pinned atoms.  The free atoms are then assigned in ascending order;
    each candidate image costs one budget node, and each closed set is
    checked at the free atom that completes it.  A pruned subtree therefore
    holds no symmetry, and a completed assignment needs no final check.

    On a property lattice (``ppl.biorthogonal``) no closed set is checked:
    the family is exactly the sets A⊥⊥, and a bijection f that preserves
    orthogonality both ways has f(A⊥) = f(A)⊥, hence f(A⊥⊥) = f(A)⊥⊥, so
    it maps the family into itself and, being injective, onto itself.
    """
    n = ppl.n
    rows = ppl.orth.rows
    cs = ppl.cs
    if sigs is None:
        sigs = _atom_signatures(ppl)
    if len(set(pins.values())) != len(pins):
        return
    perm = [-1] * n
    dom = used = 0
    for p, q in pins.items():
        if sigs[p] != sigs[q]:
            return
        perm[p] = q
        dom |= 1 << p
        used |= 1 << q
    for p in pins:
        if rows[perm[p]] & used != permute_mask(perm, rows[p] & dom):
            return
    completes: list[list[int]] = [[] for _ in range(n)]
    if not ppl.biorthogonal:
        for m in cs.masks:
            rest = m & ~dom
            if rest:
                completes[rest.bit_length() - 1].append(m)
            elif permute_mask(perm, m) not in cs:
                return
    free = [p for p in range(n) if not (dom >> p) & 1]
    by_sig: dict = {}
    for q in range(n):
        by_sig.setdefault(sigs[q], []).append(q)

    def descend(k: int, assigned: int, used: int) -> Iterator[tuple[int, ...]]:
        if k == len(free):
            yield tuple(perm)
            return
        pos = free[k]
        req = permute_mask(perm, rows[pos] & assigned)
        rest = None  # images of the sets pos completes, minus pos itself
        for q in by_sig[sigs[pos]]:
            budget.spend()
            if (used >> q) & 1 or rows[q] & used != req:
                continue
            if rest is None:
                rest = [permute_mask(perm, m ^ 1 << pos) for m in completes[pos]]
            if all(r | 1 << q in cs for r in rest):
                perm[pos] = q
                yield from descend(k + 1, assigned | 1 << pos, used | 1 << q)

    yield from descend(0, dom, used)


def _exists(ppl: PPL, pins: dict[int, int], budget: _Budget, sigs: tuple) -> bool:
    return next(_backtrack(ppl, pins, budget, sigs), None) is not None


def enumerate_symmetries(ppl: PPL, budget: int | None = DEFAULT_BUDGET) -> Iterator[Symmetry]:
    """Every symmetry exactly once, in lexicographic order of the image tuple.

    Raises :class:`BudgetExceededError` mid-stream if the node budget runs
    out; results already yielded are valid but the enumeration is partial.
    """
    b = _Budget(budget)
    for perm in _backtrack(ppl, {}, b):
        yield Symmetry(perm)


def count_symmetries(ppl: PPL, budget: int | None = DEFAULT_BUDGET) -> int:
    """Order of the symmetry group, without listing it.

    Let G_i be the symmetries fixing atoms 0..i-1.  By orbit-stabilizer,
    |G_i| = |orbit of i under G_i| * |G_{i+1}|, so |G| is the product of
    those orbit lengths.  Each orbit point q is one pinned existence probe
    (0..i-1 fixed, i mapped to q); all probes share one node budget.
    """
    b = _Budget(budget)
    sigs = _atom_signatures(ppl)
    order = 1
    fixed: dict[int, int] = {}
    for i in range(ppl.n):
        order *= sum(_exists(ppl, {**fixed, i: q}, b, sigs) for q in range(i, ppl.n))
        fixed[i] = i
    return order


def find_plane_symmetry(ppl: PPL, p: int, q: int,
                        budget: int | None = DEFAULT_BUDGET) -> PlaneWitness | None:
    """First plane witness mapping p to q, scanning planes in canonical order.

    The budget is shared across all candidate planes of this (p, q) query.
    None means no witness exists; an exhausted budget raises instead.
    """
    n = ppl.n
    if not (0 <= p < n and 0 <= q < n):
        raise ValueError("atoms out of range")
    return _plane_search(ppl, p, q, _Budget(budget), _atom_signatures(ppl), _planes(ppl))


def _planes(ppl: PPL) -> list[tuple[int, int, int]]:
    """(p1, p2, join of {p1} and {p2}) for every atom pair p1 < p2, in scan order."""
    n = ppl.n
    return [(p1, p2, ppl.join_mask((1 << p1) | (1 << p2)))
            for p1 in range(n) for p2 in range(p1 + 1, n)]


def _plane_search(ppl: PPL, p: int, q: int, b: _Budget, sigs: tuple,
                  planes: list[tuple[int, int, int]]) -> PlaneWitness | None:
    for p1, p2, plane in planes:
        pins = {a: a for a in mask_bits(plane)}
        if p in pins and q != p:
            continue
        if q in pins and p != q:
            continue  # image q is already taken by the fixed atom q
        pins[p] = q
        for perm in _backtrack(ppl, pins, b, sigs):
            return PlaneWitness(p=p, q=q, p1=p1, p2=p2, f=Symmetry(perm))
    return None


def verify_plane_witness(ppl: PPL, w: PlaneWitness) -> str | None:
    """Re-check every invariant of a plane witness; None when all hold."""
    if w.p1 == w.p2:
        return "plane atoms are not distinct"
    if sorted(w.f.perm) != list(range(ppl.n)):
        return "not a permutation"
    if w.f.perm[w.p] != w.q:
        return f"does not map {w.p} to {w.q}"
    plane = ppl.join_mask((1 << w.p1) | (1 << w.p2))
    for a in mask_bits(plane):
        if w.f.perm[a] != a:
            return f"does not fix plane atom {a}"
    defect = symmetry_failure(ppl, w.f.perm)
    if defect is not None:
        return f"not a symmetry ({defect.kind})"
    return None


def is_plane_transitive(ppl: PPL, budget: int | None = DEFAULT_BUDGET) -> PlaneTransitivityReport:
    """Search a plane witness for every ordered atom pair (fresh budget each).

    The atom signatures and the plane masks are computed once for all
    pairs.  Fewer than two atoms cannot host a plane, so such ppl's are
    reported as not plane transitive with a note.
    """
    n = ppl.n
    if n < 2:
        return PlaneTransitivityReport(
            False, failing_pair=(0, 0) if n else None,
            note="fewer than two atoms: no plane exists")
    sigs = _atom_signatures(ppl)
    planes = _planes(ppl)
    witnesses = []
    for p in range(n):
        for q in range(n):
            w = _plane_search(ppl, p, q, _Budget(budget), sigs, planes)
            if w is None:
                return PlaneTransitivityReport(False, failing_pair=(p, q))
            witnesses.append(w)
    return PlaneTransitivityReport(True, witnesses=tuple(witnesses))


def product_plane_witness(w1: PlaneWitness, w2: PlaneWitness, product: PPL) -> PlaneWitness:
    """Assemble a product plane witness from factor witnesses.

    The product permutation acts coordinatewise.  The first factor's
    witness fixes its own plane atom p1, so the plane spanned by
    (p1, .) pairs over the second factor's plane is fixed pointwise.  All
    invariants are re-verified against the product; a failure there is a
    bug, not a search miss.
    """
    n1, n2 = len(w1.f.perm), len(w2.f.perm)
    if n1 * n2 != product.n:
        raise ValueError("factor witness sizes do not match the product")
    perm = tuple(w1.f.perm[i] * n2 + w2.f.perm[j]
                 for i in range(n1) for j in range(n2))
    w = PlaneWitness(
        p=w1.p * n2 + w2.p,
        q=w1.q * n2 + w2.q,
        p1=w1.p1 * n2 + w2.p1,
        p2=w1.p1 * n2 + w2.p2,
        f=Symmetry(perm),
    )
    defect = verify_plane_witness(product, w)
    if defect is not None:
        raise InvariantViolationError(f"constructed product witness invalid: {defect}")
    return w


def is_group_transitive(ppl: PPL, budget: int | None = DEFAULT_BUDGET) -> bool:
    """Can every atom be carried to every other by some symmetry?

    The symmetries form a group, so this holds exactly when the orbit of
    atom 0 is every atom: each q != 0 gets its own budgeted search for any
    symmetry with perm[0] = q (no plane constraint).
    """
    sigs = _atom_signatures(ppl)
    return all(_exists(ppl, {0: q}, _Budget(budget), sigs) for q in range(1, ppl.n))
