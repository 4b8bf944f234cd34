"""Symmetries of a ppl and plane-transitivity search.

A symmetry is an atom permutation that maps closed sets to closed sets
in both directions and preserves orthogonality in both directions;
:mod:`orthlab.backtrack` searches for them.  A permutation is the tuple
of its images: atom i maps to perm[i].

Group orders come from pinned existence probes (does some symmetry in a
group G map p to q?) that keep an orbit record of G (:class:`_Orbits`);
the symmetries found are a strong generating set S (:func:`_group`).  A
plane witness for (p, q) carries p to q and fixes a plane, the join of two
atoms, atom by atom: one exists exactly when p and q share an orbit of the
plane's pointwise stabilizer.  S sorts the planes into orbits; only the
first plane R of each gets probes, and t(R) moves R's stabilizer orbits by
t, as Stab(t(R)) = t·Stab(R)·t⁻¹ (:class:`_PlaneOrbits`).  These tables give
the verdict and the first pair without a witness.  A witness costs one
probe, in the first plane whose orbits join p and q, and none for p = q:
the identity in the first plane; ``witnesses=False`` builds none.
Running out of budget raises :class:`BudgetExceededError`, an "unknown"
outcome; the group and the tables share one budget, each witness probe
has its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .backtrack import _atom_signatures, _backtrack, _Budget, _Colours, _pinned, _planes
from .bitset import mask_bits, permute_mask
from .errors import BudgetExceededError, InvariantViolationError
from .statespace import PPL

#: Default node budget per search query.
DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class PlaneWitness:
    """A symmetry ``perm`` with perm[p] = q fixing every atom of join({p1}, {p2})."""

    p: int
    q: int
    p1: int
    p2: int
    perm: tuple[int, ...]


@dataclass(frozen=True)
class PlaneTransitivityReport:
    transitive: bool
    witnesses: tuple[PlaneWitness, ...] | None = None
    failing_pair: tuple[int, int] | None = None
    note: str | None = None


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


def enumerate_symmetries(ppl: PPL,
                         budget: int | None = DEFAULT_BUDGET) -> Iterator[tuple[int, ...]]:
    """Every symmetry exactly once, as its image tuple, in lexicographic order.

    Raises :class:`BudgetExceededError` mid-stream if the node budget runs
    out; results already yielded are valid but the enumeration is partial.
    """
    yield from _backtrack(ppl, {}, _Budget(budget))


def count_symmetries(ppl: PPL, budget: int | None = DEFAULT_BUDGET) -> int:
    """Order of the symmetry group, without listing it (see :func:`_group`)."""
    return _group(ppl, _Budget(budget), _atom_signatures(ppl))[0]


def _group(ppl: PPL, b: _Budget, colours: _Colours) -> tuple[int, list[tuple[int, ...]]]:
    """The group order and a strong generating set S: the symmetries found.

    Let G_i fix atoms 0..i-1: |G_i| = |orbit of i under G_i| * |G_{i+1}|.
    The levels run from the last atom back, so the symmetries found so far
    fix 0..i-1 and seed the orbit record of G_i.  Level i probes i -> q for
    the q outside i's class not known apart from it, so the final class of
    i is its orbit; if S ∩ G_{i+1} generates G_{i+1}, then S ∩ G_i generates
    G_i (Seress, *Permutation Group Algorithms*, 2003, ch. 4).
    """
    n = ppl.n
    order = 1
    found: list[tuple[int, ...]] = []
    for i in reversed(range(n)):
        orbits = _Orbits(n, found)
        fixed = {a: a for a in range(i)}
        for q in range(i + 1, n):
            if not orbits.cls[i] >> q & 1:
                perm = orbits.probe(ppl, {i: q, **fixed}, i, q, b, colours)
                if perm is not None:
                    found.append(perm)
        order *= orbits.cls[i].bit_count()
    return order, found


class _PlaneOrbits:
    """The orbits of the pointwise stabilizer of each plane, on demand.

    ``rep`` maps a plane P to the first (p1, p2, R) of its orbit and a t with
    t(R) = P.  The members of S fixing R seed an orbit record of R's stabilizer,
    and probes on the one budget ``b`` settle the pairs the colours leave open.
    """

    def __init__(self, ppl: PPL, budget: int | None):
        self.ppl, self.budget, self.b = ppl, budget, _Budget(budget)
        self.planes = _planes(ppl)
        self.colours = _atom_signatures(ppl, self.planes)
        self.gens = []  # S, once a plane is asked for
        self.rep = {}
        self.stab = {}  # first plane of an orbit -> orbit of each atom
        self.conj = {}  # plane -> orbit of each atom

    def first_planes(self, p: int, wanted: int) -> tuple[dict[int, int], int]:
        """The first plane with a witness for each (p, q), q in ``wanted``; the q left."""
        found = {}
        for j, (_, _, plane) in enumerate(self.planes):
            if wanted and not plane >> p & 1 and wanted & ~plane:
                hits = self.orbits(plane)[p] & wanted
                wanted ^= hits
                found.update(dict.fromkeys(mask_bits(hits), j))
        return found, wanted

    def orbits(self, plane: int) -> list[int]:
        if plane not in self.conj:
            if not self.rep:
                self._transport()
            first, t = self.rep[plane]
            if first[2] not in self.stab:
                self.stab[first[2]] = self._stabilizer(*first)
            self.conj[plane] = out = [0] * self.ppl.n
            for cls in set(self.stab[first[2]]):
                image = permute_mask(t, cls)
                for x in mask_bits(image):
                    out[x] = image
        return self.conj[plane]

    def _transport(self) -> None:
        self.gens = _group(self.ppl, self.b, self.colours)[1]
        for first in self.planes:
            if first[2] not in self.rep:
                self.rep[first[2]], queue = (first, tuple(range(self.ppl.n))), [first[2]]
                for plane in queue:
                    t = self.rep[plane][1]
                    for g in self.gens:
                        image = permute_mask(g, plane)
                        if image not in self.rep:
                            self.rep[image] = (first, tuple(g[x] for x in t))
                            queue.append(image)

    def _stabilizer(self, p1: int, p2: int, plane: int) -> list[int]:
        fixed = {a: a for a in mask_bits(plane)}
        rec = _Orbits(self.ppl.n, [g for g in self.gens if all(g[a] == a for a in fixed)])
        try:
            for x, cand in enumerate(_pinned(self.colours, fixed)):
                for y in mask_bits(cand >> x + 1 << x + 1 & ~plane):
                    if not rec.cls[x] >> y & 1:
                        rec.probe(self.ppl, {x: y, **fixed}, x, y, self.b, self.colours)
        except BudgetExceededError as exc:
            exc.plane = (p1, p2)
            raise
        return rec.cls

    def witness(self, p: int, q: int, j: int) -> PlaneWitness:
        """The first symmetry fixing plane j and mapping p to q: one probe if p ≠ q."""
        p1, p2, plane = self.planes[j]
        pins = {p: q, **{a: a for a in mask_bits(plane)}}
        try:
            perm = tuple(range(self.ppl.n)) if p == q else next(
                _backtrack(self.ppl, pins, _Budget(self.budget), self.colours), None)
        except BudgetExceededError as exc:
            exc.query, exc.plane = (p, q), (p1, p2)
            raise
        if perm is None:
            raise InvariantViolationError(
                f"no symmetry maps atom {p} to atom {q} fixing the plane of {p1} and {p2}")
        return PlaneWitness(p, q, p1, p2, perm)


def find_plane_symmetry(ppl: PPL, p: int, q: int,
                        budget: int | None = DEFAULT_BUDGET) -> PlaneWitness | None:
    """First plane witness mapping p to q, scanning planes in canonical order.

    None means no witness exists; an exhausted budget raises instead.
    """
    if not (0 <= p < ppl.n and 0 <= q < ppl.n):
        raise ValueError("atoms out of range")
    table = _PlaneOrbits(ppl, budget)
    j = (0 if table.planes else None) if p == q else table.first_planes(p, 1 << q)[0].get(q)
    return None if j is None else table.witness(p, q, j)


def is_plane_transitive(ppl: PPL, budget: int | None = DEFAULT_BUDGET, *,
                        witnesses: bool = True) -> PlaneTransitivityReport:
    """Does every ordered atom pair have a plane witness?  The verdict and
    the first pair without one come from :class:`_PlaneOrbits`; ``witnesses``
    adds each pair's.  Fewer than two atoms host no plane, and get a note."""
    n = ppl.n
    if n < 2:
        return PlaneTransitivityReport(
            False, failing_pair=(0, 0) if n else None,
            note="fewer than two atoms: no plane exists")
    table, first = _PlaneOrbits(ppl, budget), []
    for p in range(n):
        found, left = table.first_planes(p, (1 << n) - 1 ^ 1 << p)
        if left:
            return PlaneTransitivityReport(False, failing_pair=(p, next(mask_bits(left))))
        first.append(found)
    return PlaneTransitivityReport(True, witnesses=tuple(
        table.witness(p, q, first[p].get(q, 0)) for p in range(n) for q in range(n)
    ) if witnesses else None)
