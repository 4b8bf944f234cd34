"""Symmetries of a ppl and plane-transitivity search.

A symmetry is an atom permutation that maps closed sets to closed sets
in both directions and preserves orthogonality in both directions.  The
backtracking search assigns pinned atoms first, then the free atoms in
ascending order, trying images in ascending order, so symmetries come out
in lexicographic order of the image tuple.  Candidates are pruned on the
pair-join colouring (:class:`_Colours`): a symmetry maps cl(X) onto
cl(f(X)), so it keeps each pair's colour (a ⊥ b, |join{a, b}|), and a
candidate image must give every pair with the atoms already assigned its
colour; orthogonality is one part of that colour.  Only the
meet-irreducible closed sets are checked, each once, as soon as all of
its atoms have images: they generate the family under intersection, so a
bijection that keeps them closed keeps every closed set closed.  On a
property lattice no closed-set check is needed at all (see
:func:`_backtrack`).  Pruning only ever cuts subtrees that hold no
symmetry, so the order and the results are those of the unpruned search.

Group orders, group transitivity and plane witnesses are decided by
pinned existence probes: is there a symmetry in a group G (all
symmetries, or those fixing some atoms) that maps p to q?  Each search
keeps an orbit record of G (:class:`_Orbits`): a symmetry a probe finds
joins the classes along all of its cycles, and a failed probe marks two
whole classes as lying in different orbits.  A probe whose answer the
record already holds is skipped, so the searches run a subset of the
one-probe-per-pair loops with the same answers.  The group order is the
product of the basic orbit lengths along the base 0, 1, ..., n-1, read
off the records, so the group is never listed to be counted.  A plane
witness for (p, q) is a symmetry carrying p to q while fixing, atom by
atom, the join of two distinct atoms.  Searches are budgeted: running
out raises :class:`BudgetExceededError`, which is an "unknown" outcome,
never a negative one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

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


class _Colours(NamedTuple):
    """The pair-join colouring of the atoms, which every symmetry keeps.

    The colour of a pair of distinct atoms (a, b) is (a ⊥ b, |join{a, b}|).
    ``sigs[a]`` is a's own colour (a ⊥ a, |cl{a}|) with the histogram of
    the colours of a's pairs.  ``rows[a][c]`` is the mask of the atoms b
    with (a, b) of the c-th colour, for every colour but the one with the
    most pairs: the colours of a's pairs partition the other atoms, so a
    bijection that keeps every colour class but one keeps that one too.
    """

    sigs: tuple
    rows: tuple[tuple[int, ...], ...]


def _atom_signatures(ppl: PPL, planes: list[tuple[int, int, int]] | None = None) -> _Colours:
    """The pair-join colouring: per-atom signatures and the colour rows.

    A symmetry f maps closed sets onto closed sets, so it maps cl(X) onto
    cl(f(X)): |join{a, b}| = |join{f(a), f(b)}|, and f keeps orthogonality.
    Both halves of a pair's colour, and so each atom's histogram, are
    invariant, on biorthogonal families and others alike.  The joins come
    from ``planes`` (:func:`_planes`, computed here when not given), so
    this takes O(n²) joins and never reads the closed family.
    """
    n = ppl.n
    if planes is None:
        planes = _planes(ppl)
    orth = ppl.orth.rows
    by_colour: dict[tuple[int, int], list[int]] = {}
    for p1, p2, plane in planes:
        row = by_colour.setdefault((orth[p1] >> p2 & 1, plane.bit_count()), [0] * n)
        row[p1] |= 1 << p2
        row[p2] |= 1 << p1
    order = sorted(by_colour, key=lambda c: (sum(map(int.bit_count, by_colour[c])), c))
    classes = [by_colour[c] for c in order]
    sigs = tuple(
        ((orth[a] >> a & 1, ppl.join_mask(1 << a).bit_count()),
         tuple(cls[a].bit_count() for cls in classes))
        for a in range(n))
    return _Colours(sigs, tuple(tuple(cls[a] for cls in classes[:-1]) for a in range(n)))


def _backtrack(ppl: PPL, pins: dict[int, int], budget: _Budget,
               colours: _Colours | None = None) -> Iterator[tuple[int, ...]]:
    """All symmetries consistent with ``pins``, in lexicographic order.

    An atom may only map to an atom of the same signature, and every pair
    of assigned atoms must keep its colour (see :class:`_Colours`); the
    orthogonality row is one part of that colouring.  The pins are
    assigned before the search and checked once against each other: on
    every colour row, and on the meet-irreducible closed sets that lie
    wholly inside the pinned atoms.  The free atoms are then assigned in
    ascending order; each candidate image costs one budget node, and each
    meet-irreducible is checked at the free atom that completes it.  A
    pruned subtree therefore holds no symmetry, and a completed assignment
    needs no final check.

    Only the meet-irreducibles (``cs.meet_irreducibles``) are checked.
    Every closed set is an intersection of them (the top is the empty
    intersection), and a bijection f has f(A ∩ B) = f(A) ∩ f(B); so if f
    maps each meet-irreducible into the intersection-closed family, it
    maps the whole family into it, and, being injective, onto it.

    On a property lattice (``ppl.biorthogonal``) no closed set is checked:
    the family is exactly the sets A⊥⊥, and a bijection f that preserves
    orthogonality both ways has f(A⊥) = f(A)⊥, hence f(A⊥⊥) = f(A)⊥⊥, so
    it maps the family into itself and, being injective, onto itself.
    """
    n = ppl.n
    cs = ppl.cs
    if colours is None:
        colours = _atom_signatures(ppl)
    sigs, rows = colours
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
    for p, q in pins.items():
        for mine, theirs in zip(rows[p], rows[q]):
            if theirs & used != permute_mask(perm, mine & dom):
                return
    completes: list[list[int]] = [[] for _ in range(n)]
    if not ppl.biorthogonal:
        for m in cs.meet_irreducibles:
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
        req = tuple(permute_mask(perm, row & assigned) for row in rows[pos])
        rest = None  # images of the sets pos completes, minus pos itself
        for q in by_sig[sigs[pos]]:
            budget.spend()
            if (used >> q) & 1 or tuple(row & used for row in rows[q]) != req:
                continue
            if rest is None:
                rest = [permute_mask(perm, m ^ 1 << pos) for m in completes[pos]]
            if all(r | 1 << q in cs for r in rest):
                perm[pos] = q
                yield from descend(k + 1, assigned | 1 << pos, used | 1 << q)

    yield from descend(0, dom, used)


class _Orbits:
    """What is known of the orbits of one group G of symmetries.

    ``cls[a]`` is the mask of a's class, atoms known to share a's orbit:
    every merge follows the cycles of a symmetry in G.  ``apart[a]`` holds
    atoms known to lie in another orbit, the same mask for every atom of a
    class.  A failed probe p -> q shows that no member of G maps p to q;
    no member maps q to p either, or its inverse would, so the two whole
    classes are apart, both ways.  Classes only grow, so an atom recorded
    apart from a class stays apart from every class it merges into.  This
    is the orbit bookkeeping of Seress, *Permutation Group Algorithms*
    (2003), kept as class masks.
    """

    __slots__ = ("cls", "apart")

    def __init__(self, n: int, generators: Sequence[Sequence[int]] = ()):
        self.cls = [1 << a for a in range(n)]
        self.apart = [0] * n
        for g in generators:
            self.merge(g)

    def merge(self, perm: Sequence[int]) -> None:
        """Join the classes along every cycle of ``perm``, a member of G."""
        cls, apart = self.cls, self.apart
        for a, b in enumerate(perm):
            if not cls[a] >> b & 1:
                if apart[a] & cls[b]:
                    raise InvariantViolationError(
                        f"a symmetry maps atom {a} to atom {b}, which a probe found apart")
                joined, known = cls[a] | cls[b], apart[a] | apart[b]
                for x in mask_bits(joined):
                    cls[x] = joined
                    apart[x] = known

    def probe(self, ppl: PPL, pins: dict[int, int], p: int, q: int,
              budget: _Budget, colours: _Colours) -> tuple[int, ...] | None:
        """First symmetry with ``pins``, the pins of G plus p -> q; None if none.

        Skipped when p and q are known apart; otherwise the ``_backtrack``
        probe runs and its answer is recorded.
        """
        cls, apart = self.cls, self.apart
        if apart[p] & cls[q]:
            return None
        try:
            perm = next(_backtrack(ppl, pins, budget, colours), None)
        except BudgetExceededError as exc:
            exc.query = (p, q)
            raise
        if perm is not None:
            self.merge(perm)
            return perm
        cp, cq = cls[p], cls[q]
        for x in mask_bits(cp):
            apart[x] |= cq
        for x in mask_bits(cq):
            apart[x] |= cp
        return None


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
    those orbit lengths.  The levels run from the last atom back to the
    first, so every symmetry found so far fixes 0..i-1 and seeds the orbit
    record of G_i.  Level i probes i -> q (0..i-1 fixed) only for the q
    outside i's class that are not known apart from it; the final class of
    i is its orbit.  All probes share one node budget.
    """
    b = _Budget(budget)
    colours = _atom_signatures(ppl)
    n = ppl.n
    order = 1
    found: list[tuple[int, ...]] = []
    for i in reversed(range(n)):
        orbits = _Orbits(n, found)
        fixed = {a: a for a in range(i)}
        for q in range(i + 1, n):
            if not orbits.cls[i] >> q & 1:
                perm = orbits.probe(ppl, {**fixed, i: q}, i, q, b, colours)
                if perm is not None:
                    found.append(perm)
        order *= orbits.cls[i].bit_count()
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
    planes = _planes(ppl)
    return _plane_search(ppl, p, q, _Budget(budget), _atom_signatures(ppl, planes), planes, {})


def _planes(ppl: PPL) -> list[tuple[int, int, int]]:
    """(p1, p2, join of {p1} and {p2}) for every atom pair p1 < p2, in scan order."""
    n = ppl.n
    return [(p1, p2, ppl.join_mask((1 << p1) | (1 << p2)))
            for p1 in range(n) for p2 in range(p1 + 1, n)]


def _plane_search(ppl: PPL, p: int, q: int, b: _Budget, colours: _Colours,
                  planes: list[tuple[int, int, int]],
                  orbits: dict[int, _Orbits]) -> PlaneWitness | None:
    """First plane witness for (p, q), probing the planes in scan order.

    ``orbits`` maps a plane's mask to the orbit record of its pointwise
    stabilizer; callers share it across queries, and a plane whose record
    holds p and q apart is skipped without a search.
    """
    for p1, p2, plane in planes:
        if p != q and (plane >> p | plane >> q) & 1:
            continue  # a fixed atom cannot move, nor be the image of another
        rec = orbits.get(plane)
        if rec is None:
            rec = orbits[plane] = _Orbits(ppl.n)
        pins = {a: a for a in mask_bits(plane)}
        pins[p] = q
        try:
            perm = rec.probe(ppl, pins, p, q, b, colours)
        except BudgetExceededError as exc:
            exc.plane = (p1, p2)
            raise
        if perm is not None:
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

    The pair-join colouring, the plane masks and one orbit record per plane
    are shared by all pairs: the witness for (p, q) found in a plane
    fixes that plane pointwise, so its cycles lie in orbits of the
    plane's stabilizer, and a failed probe there rules out every pair
    from the two classes.  Fewer than two atoms cannot host a plane, so
    such ppl's are reported as not plane transitive with a note.
    """
    n = ppl.n
    if n < 2:
        return PlaneTransitivityReport(
            False, failing_pair=(0, 0) if n else None,
            note="fewer than two atoms: no plane exists")
    planes = _planes(ppl)
    colours = _atom_signatures(ppl, planes)
    orbits: dict[int, _Orbits] = {}
    witnesses = []
    for p in range(n):
        for q in range(n):
            w = _plane_search(ppl, p, q, _Budget(budget), colours, planes, orbits)
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
    atom 0 is every atom.  Each q not yet in 0's class gets its own
    budgeted search for any symmetry with perm[0] = q (no plane
    constraint), and each symmetry found joins the classes along its
    cycles.
    """
    colours = _atom_signatures(ppl)
    orbits = _Orbits(ppl.n)
    for q in range(1, ppl.n):
        if orbits.cls[0] >> q & 1:
            continue
        if orbits.probe(ppl, {0: q}, 0, q, _Budget(budget), colours) is None:
            return False
    return True
