"""Lattice axiom checkers returning pass verdicts or replayable certificates.

Every checker takes one PPL, whose family is T1 and whose orthogonality
is valid by construction.  Orthomodularity, distributivity and
irreducibility raise ``ValueError`` when the PPL has no compatible
complement.  A checker tests only the conditions its input can break;
what the perp Galois connection guarantees is proved in the checker's
docstring instead of scanned.  Scans run in the canonical order, so the
first counterexample found is deterministic.  The orthomodularity,
covering and distributivity checkers walk the elements with
:func:`_walk`, which reads the first n + 1, ∅ and the singletons,
through joins while the family is not built, so a failure among them
reads no family.  Certificates carry the atom sets involved; replaying
one against the same instance must reproduce the violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

from .bitset import AtomSet, canonical_key, mask_bits
from .errors import InvariantViolationError
from .statespace import PPL


@dataclass(frozen=True)
class CheckStats:
    checked: int


@dataclass(frozen=True)
class Certificate:
    """Structured counterexample: named parts, each a set of atoms."""

    kind: str
    parts: tuple[tuple[str, AtomSet], ...]

    def part(self, name: str) -> AtomSet:
        for k, v in self.parts:
            if k == name:
                return v
        raise KeyError(name)


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    holds: bool
    certificate: Certificate | None
    stats: CheckStats


def _report(axiom: str, cert: Certificate | None, checked: int) -> AxiomReport:
    """The axiom holds exactly when there is no certificate."""
    return AxiomReport(axiom, cert is None, cert, CheckStats(checked))


def _walk(ppl: PPL) -> Iterator[tuple[int, list[int]]]:
    """Every element of a valid ppl in canonical order, with its one-point extensions.

    Each element a comes with ``ext``, ext[r] = cl(a ∪ {r}) as a mask,
    which is a itself when r lies in a.  A T1 family holds ∅ and every
    singleton, and these are all its sets of at most one atom, so the
    canonical order starts ∅, {0}, …, {n−1}.  While the family is not
    built, these first n + 1 elements are read through joins (the
    singletons for ∅, the pair joins cl{p, r}, r ≠ p, for {p}), and the
    family is built only when the walk goes past them.
    """
    n, start = ppl.n, 0
    if not ppl.has_family:
        join, start = ppl.join_mask, n + 1
        yield 0, [1 << r for r in range(n)]
        for p in range(n):
            a = 1 << p
            yield a, [join(a | 1 << r) if r != p else a for r in range(n)]
    cs = ppl.cs
    for a in cs.masks[start:]:
        yield a, cs.one_point_extensions(a)


def _first_failure(ppl: PPL, elements: Iterable[tuple[int, list[int]]],
                   failure: Callable[[PPL, int, list[int]], Certificate | None]
                   ) -> tuple[Certificate | None, int]:
    """The first certificate ``failure`` gives on ``elements``, and the count
    of one-point extensions, n - |a| per element visited."""
    n, checked = ppl.n, 0
    for a, ext in elements:
        checked += n - a.bit_count()
        if (cert := failure(ppl, a, ext)) is not None:
            return cert, checked
    return None, checked


def find_compatible_orthocomplementation(ppl: PPL) -> AxiomReport:
    """Does a complement compatible with the orthogonality exist?

    Compatibility (p orthogonal to q iff p lies below the complement of q)
    forces the complement of an atom to be the closed set holding exactly
    its perp row, and order reversal plus involution then force every
    element to the perp of its atom set.  The report holds when that map
    is a complement, and otherwise carries the certificate of
    :func:`_complement_failure`.  ``checked`` counts the elements mapped,
    so a passing report reads the family.
    """
    cert = None if ppl.biorthogonal else _complement_failure(ppl)
    return _report("orthocomplementation", cert, len(ppl.cs) if cert is None else 0)


def _complement_failure(ppl: PPL) -> Certificate | None:
    """Why A ↦ A⊥ is no complement on the closed sets of a valid ``ppl``, or None.

    Two conditions can fail, and are scanned in this order: an atom's
    perp row is not closed (its join is larger; no family is read), or
    perp is not an involution on the family.
    That the perp of every element is closed needs no scan: once every
    row {q}⊥ is closed, every perp A⊥ = ⋂_{a∈A} {a}⊥ is a meet of closed
    sets, so it is closed (A = ∅ gives the top).  Hence a compatible
    complement exists exactly when the family F is the double-perp family
    B: closed rows and meets give B ⊆ F, and the involution gives F ⊆ B.
    The other complement laws are theorems of the Galois connection on a
    valid input: perp is antitone, so the map reverses order; A meets A⊥
    in the empty set by antireflexivity; A joins A⊥ to the top because
    every member is fixed by double perp, so every closed superset of
    A ∪ A⊥ contains (A ∪ A⊥)⊥⊥ = (A⊥ ∩ A)⊥, the whole ground set; and
    compatibility on atoms, with the complement of {q} being q's perp
    row, restates symmetry.

    A ``biorthogonal`` ppl needs neither scan: its family is B, and every
    perp is fixed by double perp, A⊥⊥⊥ = A⊥.
    """
    n, o = ppl.n, ppl.orth
    for q, row in enumerate(o.rows):
        if ppl.join_mask(row) != row:
            return Certificate("atom-row-not-closed", (
                ("atom", AtomSet(1 << q, n)),
                ("required", AtomSet(row, n)),
            ))
    perp = o.perp_mask
    for m in ppl.cs.masks:
        pm = perp(m)
        if perp(pm) != m:
            return Certificate("not-involutive", (
                ("element", AtomSet(m, n)),
                ("image", AtomSet(pm, n)),
                ("double-image", AtomSet(perp(pm), n)),
            ))
    return None


def _require_complement(ppl: PPL) -> None:
    """Raise ``ValueError`` unless ``ppl`` has a compatible complement; a biorthogonal one has."""
    if not ppl.biorthogonal and _complement_failure(ppl) is not None:
        raise ValueError("the ppl admits no compatible orthocomplementation")


def check_orthomodular(ppl: PPL) -> AxiomReport:
    """For every a below b, does joining a with (b meet a') give back b?

    The verdict is the standard criterion (Kalmbach, *Orthomodular
    Lattices*, 1983): the lattice fails exactly when some a < b has
    b ∧ a′ = 0, that is, some closed b ⊋ a misses a⊥.  If (a, b) fails,
    d = a ∨ (b ∧ a′) is a closed subset of b other than b, and b ∧ d′ = 0:
    d′ ⊆ a′ gives b ∧ d′ ⊆ b ∧ a′ ⊆ d, so b ∧ d′ ⊆ d ∧ d′ = 0.
    Conversely, a < b with b ∧ a′ = 0 makes (a, b) fail, since
    a ∨ 0 = a ≠ b.  For each a the closed supersets that miss a⊥ are one
    bitmap over the element indices: a's superset bitmap with each column
    of an atom of a⊥ cleared.  a itself is always in it (a ∩ a⊥ is
    empty), so the law holds exactly when no bitmap has a second bit.

    The first d found this way need not be the a of the canonically first
    failing pair, so a failing verdict hands over to the exact scan of
    :func:`_orthomodular_failure` along :func:`_walk` from ∅.  A ppl whose
    family is not built yet runs that scan on the walk's first n + 1
    elements first, and reads the family only if they pass (they hold no
    failure then, so the walk from ∅ reports what one past them would).
    ``checked`` counts a's one-point extensions, n - |a|, for each
    element a visited: every element when the law holds, and those up to
    the certificate's a when it fails.
    """
    _require_complement(ppl)
    if not ppl.has_family:
        cert, checked = _first_failure(ppl, islice(_walk(ppl), ppl.n + 1),
                                       _orthomodular_failure)
        if cert is not None:
            return _report("orthomodular", cert, checked)
    cs = ppl.cs
    masks, perp_mask = cs.masks, ppl.orth.perp_mask
    every = (1 << len(masks)) - 1
    outside = [every ^ c for c in cs._cols]  # closed sets missing atom r
    for a in masks:
        sup = cs._superset_bits(a)
        ap = perp_mask(a)
        while ap:
            low = ap & -ap
            sup &= outside[low.bit_length() - 1]
            ap ^= low
        if sup & (sup - 1):
            cert, checked = _first_failure(ppl, _walk(ppl), _orthomodular_failure)
            if cert is None:
                raise InvariantViolationError(
                    "the orthomodularity criterion fails but no pair a ⊆ b does")
            return _report("orthomodular", cert, checked)
    checked = len(masks) * cs.n - sum(map(int.bit_count, masks))
    return _report("orthomodular", None, checked)


def _orthomodular_failure(ppl: PPL, a: int, ext: list[int]) -> Certificate | None:
    """The canonically first closed b ⊋ a with a ∨ (b ∧ a′) ≠ b, as a certificate.

    Only the one-point extensions B = cl(a ∪ {r}) need testing.  If
    (a, b) fails, d = a ∨ (b ∧ a′) is a closed subset of b other than b;
    take r in b∖d.  Then B = cl(a ∪ {r}) ⊆ b fails too: B ∧ a′ ⊆ b ∧ a′
    gives a ∨ (B ∧ a′) ⊆ d, which misses r.  B is canonically no later
    than b, being a subset of it, so for each a the canonically first
    failing b is the canonically first failing one-point extension.
    Scanned a-major, the certificate is the one an exhaustive scan of all
    pairs a ⊆ b in canonical order reports.
    """
    if not a:  # ∅ ∨ (b ∧ ⊤) = b
        return None
    n, oca = ppl.n, ppl.orth.perp_mask(a)
    for b in sorted(set(ext) - {a}, key=canonical_key):  # b = a cannot fail: a ∧ a′ is the bottom
        rebuilt = ppl.join_mask(a | (b & oca))
        if rebuilt != b:
            return Certificate("orthomodularity", (
                ("a", AtomSet(a, n)),
                ("b", AtomSet(b, n)),
                ("rebuilt", AtomSet(rebuilt, n)),
            ))
    return None


def check_covering_law(ppl: PPL) -> AxiomReport:
    """Whenever an atom p misses an element a, must a join p cover a?

    The family is T1, as every PPL's is, so the atoms are the singletons
    {r} and a ∨ {r} = cl(a ∪ {r}).
    Elements are tested one at a time along :func:`_walk` by
    :func:`_covering_failure`, so a failure among ∅ and the singletons
    reads no family.  The certificate is the one an exhaustive scan of
    the pairs and of the elements between reports.  ``checked`` counts
    the one-point extensions computed.
    """
    return _report("covering", *_first_failure(ppl, _walk(ppl), _covering_failure))


def _covering_failure(ppl: PPL, a: int, ext: list[int]) -> Certificate | None:
    """Why some join a ∨ {r}, r ∉ a, does not cover a, or None.

    a ∨ {r} = cl(a ∪ {r}) covers a exactly when cl(a ∪ {s}) equals it for
    every s in it outside a (the criterion of
    :meth:`ClosureSystem.upper_covers`).  a passes without the per-atom
    scan when the sizes |k∖a| = |k| - |a| of its distinct one-point
    extensions k sum to |ground∖a|.  The sets {r ∉ a : cl(a ∪ {r}) = k}
    partition ground∖a, and each lies inside k∖a, so equal sums force
    every one of them to be all of k∖a: every extension, and so every
    join a ∨ {r}, covers a.  Where the sum differs, some extension cl(a ∪ {r}) fails to
    cover a, and the per-atom scan, over r ∉ a in ascending order, only
    builds the certificate.

    The canonically first element strictly between a and j = a ∨ {r} is
    the canonical minimum of the closures cl(a ∪ {s}) other than j, s in
    j∖a: any m strictly between contains one of them, which is
    canonically no later than m.
    """
    n, size, distinct = ppl.n, a.bit_count(), set(ext)
    if sum(map(int.bit_count, distinct)) - len(distinct) * size == n - size:
        return None
    for r in mask_bits(((1 << n) - 1) & ~a):
        j = ext[r]
        between = [ext[s] for s in mask_bits(j & ~a) if ext[s] != j]
        if between:
            return Certificate("covering-law", (
                ("p", AtomSet(1 << r, n)),
                ("a", AtomSet(a, n)),
                ("join", AtomSet(j, n)),
                ("between", AtomSet(min(between, key=canonical_key), n)),
            ))
    return None


def is_boolean(ppl: PPL) -> bool:
    """Distributivity: is the family the full powerset?

    ``ValueError`` when the ppl has no compatible complement.  The family
    is T1, and a T1 family is distributive exactly when it is the full
    powerset (Birkhoff).  It is also the double-perp family (see
    :func:`_complement_failure`), and that is the powerset exactly when
    any two distinct atoms are orthogonal, that is, when every component
    of :func:`_components` is a single atom.  If every set is closed, the
    complement A of {p} is,
    and A = A⊥⊥ needs A⊥ ≠ ∅; A⊥ misses A by antireflexivity, so
    A⊥ = {p} and p is orthogonal to every other atom.  Conversely, then
    every A⊥ is the complement of A, so A⊥⊥ = A.  So the verdict reads
    the rows, never the family.
    """
    _require_complement(ppl)
    return len(_components(ppl)) == ppl.n  # every component a single atom


def check_boolean(ppl: PPL) -> AxiomReport:
    """The verdict of :func:`is_boolean`, with a certificate when it fails.

    A failure gets its certificate from :func:`_distributivity_failure`
    along :func:`_walk`.  ``checked`` counts a's one-point extensions,
    n - |a|, for each element a visited, which the report of a passing
    family gives as the n·2**(n-1) a walk of the powerset counts.
    """
    n = ppl.n
    if is_boolean(ppl):
        return _report("boolean", None, n << (n - 1))
    cert, checked = _first_failure(ppl, _walk(ppl), _distributivity_failure)
    if cert is None:
        raise InvariantViolationError("the family is not the powerset but every probe closes")
    return _report("boolean", cert, checked)


def _distributivity_failure(ppl: PPL, a: int, ext: list[int]) -> Certificate | None:
    """Three elements breaking distributivity, from a closed a and an atom s ∉ a, or None.

    Probe S = a ∪ {s} for each s outside a in ascending order.  If every
    S were closed for every closed a, induction from the empty set would
    close every subset, so on a family other than the powerset some
    probe finds S not closed.  At the first, with r the lowest atom of
    cl(S) = ext[s] outside S, x = {r}, y = a, z = {s} break
    distributivity, since x meet (y join z) = {r} while
    (x meet y) join (x meet z) is empty.
    """
    n = ppl.n
    for s in mask_bits(((1 << n) - 1) & ~a):
        if (extra := ext[s] & ~(a | 1 << s)):
            return Certificate("distributivity", (
                ("x", AtomSet(extra & -extra, n)),
                ("y", AtomSet(a, n)),
                ("z", AtomSet(1 << s, n)),
            ))
    return None


def _components(ppl: PPL) -> list[int]:
    """The connected components of the non-orthogonality graph, as masks."""
    rows = ppl.orth.rows
    full = (1 << ppl.n) - 1
    components, rest = [], full
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            for p in mask_bits(frontier):
                reach |= full & ~rows[p]
            frontier = reach & ~comp
            comp |= frontier
        components.append(comp)
        rest &= ~comp
    return components


def check_irreducible(ppl: PPL) -> AxiomReport:
    """Are bottom and top the only central elements?

    z is central when every element F decomposes as
    (F meet z) join (F meet z'); a nontrivial central element is the
    certificate (the lattice then splits as a product).  With a compatible
    complement every member is fixed by double perp and every perp row is
    a member, so the family is the whole property lattice and z' = z⊥.
    There z is central exactly when it is a union of components of
    :func:`_components`: F = {p} forces p into z or z⊥, so no
    non-orthogonal pair straddles z; conversely such a z has z⊥ equal to
    its set complement, and every F is the union of its two meets.  The
    lattice is therefore irreducible iff the graph is connected, and the
    canonically first nontrivial central element is the canonically first
    component.  ``checked`` counts the atoms visited.
    """
    _require_complement(ppl)
    components = _components(ppl)
    if len(components) == 1:
        return _report("irreducible", None, ppl.n)
    z = min(components, key=canonical_key)
    cert = Certificate("central-element", (("z", AtomSet(z, ppl.n)),))
    return _report("irreducible", cert, ppl.n)


#: The axioms of :func:`axiom_suite`, in report order.
SUITE_AXIOMS = ("orthocomplementation", "orthomodular", "covering", "boolean", "irreducible")


def axiom_suite(ppl: PPL) -> tuple[AxiomReport | None, ...]:
    """The reports for :data:`SUITE_AXIOMS`, in that order.

    The three that need a complement are None when there is none.
    """
    complement = find_compatible_orthocomplementation(ppl)
    if not complement.holds:
        return (complement, None, check_covering_law(ppl), None, None)
    return (complement, check_orthomodular(ppl), check_covering_law(ppl),
            check_boolean(ppl), check_irreducible(ppl))

