"""Brute-force reference implementations used to cross-check the library.

Everything here is written straight from the definitions, on plain sets
and dicts instead of bitmasks, with exhaustive scans instead of the
pruned searches the fast code uses.  Slow on purpose: these run on small
instances only and exist so the library has something honest to
disagree with.

Conventions: a ground set is ``range(n)``; an orthogonality is a
``dict[int, set[int]]`` mapping each state to the set of states
orthogonal to it; a set family is a ``set[frozenset[int]]``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional


# ---------------------------------------------------------------------------
# encoding bridges (mechanical mask <-> set conversion, shared with tests)

def mask_to_set(mask: int) -> frozenset[int]:
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def set_to_mask(s: Iterable[int]) -> int:
    mask = 0
    for i in s:
        mask |= 1 << i
    return mask


def family_to_sets(masks: Iterable[int]) -> set[frozenset[int]]:
    return {mask_to_set(m) for m in masks}


def rows_to_dict(rows: Iterable[int]) -> dict[int, set[int]]:
    return {p: set(mask_to_set(m)) for p, m in enumerate(rows)}


# ---------------------------------------------------------------------------
# orthogonality axioms, perp and double perp

def is_antireflexive(orth: dict[int, set[int]]) -> bool:
    return all(p not in orth[p] for p in orth)


def is_symmetric(orth: dict[int, set[int]]) -> bool:
    return all(q in orth and p in orth[q] for p in orth for q in orth[p])


def is_separating(orth: dict[int, set[int]]) -> bool:
    """For every ordered pair p != q, some witness is orthogonal to p only."""
    for p in orth:
        for q in orth:
            if p == q:
                continue
            if not any(r in orth[p] and r not in orth[q] for r in orth):
                return False
    return True


def axiom_witnesses(orth: dict[int, set[int]]) -> list[tuple[str, Optional[tuple]]]:
    """Antireflexivity, symmetry and separation, each with its first
    counterexample in row-major order, or None where the axiom holds:
    a state p orthogonal to itself; a pair (p, q) with q orthogonal to p
    but not p to q; an ordered pair p != q with no witness for p only."""
    states = sorted(orth)
    found = (
        ("antireflexive", ((p,) for p in states if p in orth[p])),
        ("symmetric", ((p, q) for p in states for q in states
                       if q in orth[p] and p not in orth[q])),
        ("separating", ((p, q) for p in states for q in states
                        if p != q and not any(r in orth[p] and r not in orth[q] for r in orth))),
    )
    return [(name, next(witnesses, None)) for name, witnesses in found]


def separating_relations(n: int) -> list[tuple[int, ...]]:
    """Every labelled separating relation on ``range(n)``, as row masks.

    Tries every set of unordered pairs, bit k of its number standing for
    the k-th pair of ``itertools.combinations(range(n), 2)``, and keeps
    the separating ones, in that order.  Antireflexivity and symmetry
    hold by construction; separation is ``is_separating`` on masks, an r
    orthogonal to p but not to q existing exactly when row p is not
    inside row q.
    """
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for edges in range(1 << len(pairs)):
        rows = [0] * n
        for k, (p, q) in enumerate(pairs):
            if edges >> k & 1:
                rows[p] |= 1 << q
                rows[q] |= 1 << p
        if all(rp & ~rq for p, rp in enumerate(rows) for q, rq in enumerate(rows) if p != q):
            out.append(tuple(rows))
    return out


def perp(orth: dict[int, set[int]], a: Iterable[int]) -> frozenset[int]:
    """States orthogonal to everything in ``a`` (all states when a is empty)."""
    a = set(a)
    return frozenset(r for r in orth if all(r in orth[p] for p in a))


def double_perp(orth: dict[int, set[int]], a: Iterable[int]) -> frozenset[int]:
    return perp(orth, perp(orth, a))


def closed_sets(orth: dict[int, set[int]]) -> set[frozenset[int]]:
    """Every subset fixed by double perp, found by scanning all 2^n subsets."""
    states = sorted(orth)
    out = set()
    for k in range(len(states) + 1):
        for combo in itertools.combinations(states, k):
            a = frozenset(combo)
            if double_perp(orth, a) == a:
                out.add(a)
    return out


def closed_masks_brute(rows, n: int) -> tuple[int, ...]:
    """Double-perp fixed-point scan over all 2^n subsets, on raw masks.

    Same definition as ``closed_sets``, recoded on integers so the
    thousand-instance acceptance run stays inside its time budget; the
    two flavours are cross-checked against each other in the unit suite.
    Output is in canonical order (cardinality, then mask value).
    """
    full = (1 << n) - 1
    out = []
    for m in range(1 << n):
        p1 = full
        x = m
        while x:
            low = x & -x
            p1 &= rows[low.bit_length() - 1]
            x ^= low
        p2 = full
        x = p1
        while x:
            low = x & -x
            p2 &= rows[low.bit_length() - 1]
            x ^= low
        if p2 == m:
            out.append(m)
    out.sort(key=lambda z: (z.bit_count(), z))
    return tuple(out)


# ---------------------------------------------------------------------------
# the catalog's random space, from its specification

def random_orthogonality(n: int, density: float, rng,
                         max_attempts: int) -> Optional[dict[int, set[int]]]:
    """The first separating sample of ``rng``'s stream, or None after ``max_attempts``.

    Each attempt draws one float per unordered pair, in row-major order
    (0,1), (0,2), ..., (n-2,n-1), and a draw below the density makes the
    pair orthogonal; a non-separating attempt is followed by the next one
    on the same stream.  ``rng`` is the catalog's splitmix64 generator, of
    which only ``next_float`` is used.
    """
    for _ in range(max_attempts):
        orth: dict[int, set[int]] = {p: set() for p in range(n)}
        for p in range(n):
            for q in range(p + 1, n):
                if rng.next_float() < density:
                    orth[p].add(q)
                    orth[q].add(p)
        if is_separating(orth):
            return orth
    return None


# ---------------------------------------------------------------------------
# set families: intersection saturation, order structure

def saturate_intersections(generators: Iterable[frozenset[int]],
                           ground: Iterable[int]) -> set[frozenset[int]]:
    """Close a family under pairwise intersection; the ground set is added."""
    family = set(generators) | {frozenset(ground)}
    while True:
        fresh = {a & b for a in family for b in family} - family
        if not fresh:
            return family
        family |= fresh


def is_intersection_closed(family: set[frozenset[int]]) -> bool:
    return all(a & b in family for a in family for b in family)


def family_closure(family: set[frozenset[int]], a: Iterable[int]) -> frozenset[int]:
    """Least member containing ``a``: the intersection of all such members."""
    a = frozenset(a)
    supersets = [m for m in family if a <= m]
    out = frozenset(supersets[0])
    for m in supersets[1:]:
        out &= m
    return out


def family_join(family: set[frozenset[int]], a: frozenset[int],
                b: frozenset[int]) -> frozenset[int]:
    return family_closure(family, a | b)


def meet_irreducibles(family: set[frozenset[int]]) -> set[frozenset[int]]:
    """Members other than the top that are not the intersection of the
    members strictly above them."""
    top = frozenset().union(*family)
    return {a for a in family
            if a != top and frozenset.intersection(*(b for b in family if a < b)) != a}


def family_bottom(family: set[frozenset[int]]) -> frozenset[int]:
    out = None
    for m in family:
        out = m if out is None else out & m
    assert out in family
    return out


def covers_of_bottom(family: set[frozenset[int]]) -> set[frozenset[int]]:
    bot = family_bottom(family)
    above = [m for m in family if bot < m]
    return {m for m in above if not any(bot < o < m for o in above)}


def covers(family: set[frozenset[int]], a: frozenset[int],
           b: frozenset[int]) -> bool:
    """Does b cover a: strictly above with nothing of the family between?"""
    return a < b and not any(a < m < b for m in family)


# ---------------------------------------------------------------------------
# complements: exhaustive search over complement pairings

def all_orthocomplementations(
        family: set[frozenset[int]],
        orth: dict[int, set[int]]) -> list[dict[frozenset[int], frozenset[int]]]:
    """Every involution on the family satisfying all four complement laws.

    Built as a perfect matching (a genuine fixed point would have to be
    bottom and top at once), pairing only elements whose meet is bottom
    and whose join is top, then filtered for order reversal and for
    compatibility with the orthogonality on singletons.
    """
    members = sorted(family, key=lambda m: (len(m), sorted(m)))
    bot = family_bottom(family)
    top = frozenset(orth)
    results: list[dict[frozenset[int], frozenset[int]]] = []

    def extend(pending: list[frozenset[int]], pairing: dict) -> None:
        if not pending:
            if _order_reversing(family, pairing) and _orth_compatible(orth, pairing):
                results.append(dict(pairing))
            return
        x = pending[0]
        for y in pending:
            if y == x and len(pending) > 1:
                continue
            if x & y != bot or family_join(family, x, y) != top:
                continue
            rest = [z for z in pending if z != x and z != y]
            pairing[x] = y
            pairing[y] = x
            extend(rest, pairing)
            del pairing[x]
            if y in pairing:
                del pairing[y]

    extend(members, {})
    return results


def _order_reversing(family: set[frozenset[int]], pairing: dict) -> bool:
    return all(pairing[b] <= pairing[a]
               for a in family for b in family if a <= b)


def _orth_compatible(orth: dict[int, set[int]], pairing: dict) -> bool:
    """p is orthogonal to q exactly when p lies in the complement of {q}."""
    for p in orth:
        for q in orth:
            sing = frozenset([q])
            if sing not in pairing:
                return False
            if (p in orth[q]) != (p in pairing[sing]):
                return False
    return True


# ---------------------------------------------------------------------------
# lattice axioms, as exhaustive scans returning every violation

def orthomodular_violations(
        family: set[frozenset[int]],
        complement: dict[frozenset[int], frozenset[int]],
) -> set[tuple[frozenset[int], frozenset[int]]]:
    """All pairs a <= b where joining a with (b meet a') loses part of b."""
    out = set()
    for a in family:
        for b in family:
            if a <= b and family_join(family, a, b & complement[a]) != b:
                out.add((a, b))
    return out


def covering_violations(
        family: set[frozenset[int]],
) -> set[tuple[frozenset[int], frozenset[int]]]:
    """All pairs (atom p, element a) with p meet a = bottom where a join p
    fails to cover a.  Atoms are the covers of the bottom element."""
    bot = family_bottom(family)
    out = set()
    for p in covers_of_bottom(family):
        for a in family:
            if p & a != bot:
                continue
            if not covers(family, a, family_join(family, a, p)):
                out.add((p, a))
    return out


def is_distributive(family: set[frozenset[int]]) -> bool:
    for x in family:
        for y in family:
            for z in family:
                if x & family_join(family, y, z) != family_join(family, x & y, x & z):
                    return False
                if family_join(family, x, y & z) != \
                        family_join(family, x, y) & family_join(family, x, z):
                    return False
    return True


def central_elements(
        family: set[frozenset[int]],
        complement: dict[frozenset[int], frozenset[int]],
) -> set[frozenset[int]]:
    """Members z (bottom and top included) that split every element."""
    out = set()
    for z in family:
        if all(family_join(family, f & z, f & complement[z]) == f for f in family):
            out.add(z)
    return out


# ---------------------------------------------------------------------------
# symmetries: filter all n! permutations

def preserves_orthogonality(orth: dict[int, set[int]], perm: tuple[int, ...]) -> bool:
    """Are p and q orthogonal exactly when perm[p] and perm[q] are?"""
    n = len(perm)
    return all((q in orth[p]) == (perm[q] in orth[perm[p]])
               for p in range(n) for q in range(n))


def is_symmetry_perm(orth: dict[int, set[int]],
                     family: set[frozenset[int]],
                     perm: tuple[int, ...]) -> bool:
    if not preserves_orthogonality(orth, perm):
        return False
    image = {frozenset(perm[i] for i in m) for m in family}
    return image == family


def all_symmetries(orth: dict[int, set[int]],
                   family: set[frozenset[int]]) -> list[tuple[int, ...]]:
    n = len(orth)
    return [perm for perm in itertools.permutations(range(n))
            if is_symmetry_perm(orth, family, perm)]


def symmetries_by_extension(orth: dict[int, set[int]],
                            family: set[frozenset[int]]) -> list[tuple[int, ...]]:
    """:func:`all_symmetries` where n! is out of reach: permutations are
    built atom by atom, in lexicographic order, and a prefix is dropped as
    soon as two of its atoms lose or gain orthogonality, or a member of
    the family within its atoms leaves the family; every complete
    permutation is then checked in full."""
    n = len(orth)
    by_top: dict[int, list[frozenset[int]]] = {}
    for m in family:
        if m:
            by_top.setdefault(max(m), []).append(m)
    out: list[tuple[int, ...]] = []

    def extend(perm: list[int]) -> None:
        k = len(perm)
        if k == n:
            if is_symmetry_perm(orth, family, tuple(perm)):
                out.append(tuple(perm))
            return
        for b in range(n):
            if b in perm or any((a in orth[k]) != (perm[a] in orth[b]) for a in range(k)):
                continue
            longer = perm + [b]
            if all(frozenset(longer[a] for a in m) in family for m in by_top.get(k, ())):
                extend(longer)

    extend([])
    return out


def plane_atoms(family: set[frozenset[int]], p1: int, p2: int) -> frozenset[int]:
    """Atoms inside the plane spanned by two atoms: the join of their
    singletons, as a set of states."""
    return family_join(family, frozenset([p1]), frozenset([p2]))


def first_plane_witness(orth: dict[int, set[int]],
                        family: set[frozenset[int]],
                        p: int, q: int,
                        group: Optional[list[tuple[int, ...]]] = None,
                        ) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """(p1, p2, perm) of the first plane witness sending p to q: the first
    atom pair p1 < p2 in lexicographic order whose plane some symmetry
    fixes atom by atom while sending p to q, and the lexicographically
    least such symmetry, by scanning every atom pair and every
    permutation.  ``group``, when given, is scanned instead of every
    permutation: all the symmetries, in lexicographic order."""
    n = len(orth)
    for p1 in range(n):
        for p2 in range(p1 + 1, n):
            fixed = plane_atoms(family, p1, p2)
            for perm in itertools.permutations(range(n)) if group is None else group:
                if perm[p] != q:
                    continue
                if any(perm[r] != r for r in fixed):
                    continue
                if is_symmetry_perm(orth, family, perm):
                    return p1, p2, perm
    return None


def exists_plane_symmetry(orth: dict[int, set[int]],
                          family: set[frozenset[int]],
                          p: int, q: int,
                          group: Optional[list[tuple[int, ...]]] = None,
                          ) -> Optional[tuple[int, ...]]:
    """A symmetry sending p to q while fixing some plane pointwise: the
    permutation of :func:`first_plane_witness`."""
    w = first_plane_witness(orth, family, p, q, group)
    return None if w is None else w[2]


def is_plane_witness(orth: dict[int, set[int]],
                     family: Optional[set[frozenset[int]]],
                     witness: tuple[int, int, int, int, tuple[int, ...]]) -> bool:
    """Is ``witness`` = (p, q, p1, p2, perm) a plane witness for (p, q)?

    perm must be a permutation of the states with perm[p] = q, p1 and p2
    must differ, every atom of the plane they span must be fixed, and perm
    must be a symmetry.  ``family`` None stands for the property lattice
    of ``orth``, whose closed sets are the double-perp fixed points: the
    plane is then the double perp of {p1, p2}, and a permutation is a
    symmetry when it preserves orthogonality (it then maps every A⊥⊥ to
    (perm A)⊥⊥).  With a family, the plane is :func:`plane_atoms` and the
    symmetry test :func:`is_symmetry_perm`.
    """
    p, q, p1, p2, perm = witness
    if sorted(perm) != sorted(orth) or perm[p] != q or p1 == p2:
        return False
    if family is None:
        plane = double_perp(orth, (p1, p2))
        symmetry = preserves_orthogonality(orth, perm)
    else:
        plane = plane_atoms(family, p1, p2)
        symmetry = is_symmetry_perm(orth, family, perm)
    return all(perm[r] == r for r in plane) and symmetry


def is_plane_transitive_brute(orth: dict[int, set[int]],
                              family: set[frozenset[int]],
                              group: Optional[list[tuple[int, ...]]] = None) -> bool:
    n = len(orth)
    if n < 2:
        return False
    return all(exists_plane_symmetry(orth, family, p, q, group) is not None
               for p in range(n) for q in range(n))


# ---------------------------------------------------------------------------
# products

def product_plane_witness(
        w1: tuple[int, int, int, int, tuple[int, ...]],
        w2: tuple[int, int, int, int, tuple[int, ...]],
) -> tuple[int, int, int, int, tuple[int, ...]]:
    """A witness (p, q, p1, p2, perm) for a product of two spaces, composed
    from one witness of each factor; the pair (i, j) is state i * n2 + j.

    The permutation acts coordinatewise.  The first factor's witness fixes
    its own plane atom p1, so the plane spanned by the pairs of p1 with the
    second factor's plane atoms is fixed pointwise.  Nothing is checked
    here: :func:`is_plane_witness` checks the result against the product.
    """
    p, q, p1, _, f = w1
    r, s, r1, r2, g = w2
    n2 = len(g)
    perm = tuple(f[i] * n2 + g[j] for i in range(len(f)) for j in range(n2))
    return p * n2 + r, q * n2 + s, p1 * n2 + r1, p1 * n2 + r2, perm


def product_orth(orth1: dict[int, set[int]],
                 orth2: dict[int, set[int]]) -> dict[tuple[int, int], set[tuple[int, int]]]:
    """Pairs are orthogonal when they are orthogonal in either slot."""
    out: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for p1 in orth1:
        for p2 in orth2:
            out[(p1, p2)] = {(q1, q2) for q1 in orth1 for q2 in orth2
                             if q1 in orth1[p1] or q2 in orth2[p2]}
    return out


def rectangles(family1: set[frozenset[int]],
               family2: set[frozenset[int]]) -> set[frozenset[tuple[int, int]]]:
    """Products of nonempty members from each side, plus the empty set."""
    out: set[frozenset[tuple[int, int]]] = {frozenset()}
    for f in family1:
        if not f:
            continue
        for g in family2:
            if not g:
                continue
            out.add(frozenset((a, b) for a in f for b in g))
    return out


def cylinders(family1: set[frozenset[int]], family2: set[frozenset[int]],
              n1: int, n2: int) -> set[frozenset[tuple[int, int]]]:
    """The cylinders F x Sigma2 and Sigma1 x G of the members of each side."""
    out = {frozenset((a, b) for a in f for b in range(n2)) for f in family1}
    out |= {frozenset((a, b) for a in range(n1) for b in g) for g in family2}
    return out


def projections(pairs: Iterable[tuple[int, int]]) -> tuple[frozenset[int], frozenset[int]]:
    """The first coordinates and the second coordinates of a set of pairs."""
    pairs = list(pairs)
    return frozenset(a for a, _ in pairs), frozenset(b for _, b in pairs)


def minimal_product_family(family1: set[frozenset[int]], family2: set[frozenset[int]],
                           n1: int, n2: int) -> set[frozenset[tuple[int, int]]]:
    """The minimal product's closed sets by definition: the meet closure of the cylinders."""
    ground = [(a, b) for a in range(n1) for b in range(n2)]
    return saturate_intersections(cylinders(family1, family2, n1, n2), ground)


# ---------------------------------------------------------------------------
# certificate replays: confirm a reported counterexample from definitions

def replay_orthomodular(family: set[frozenset[int]],
                        complement: dict[frozenset[int], frozenset[int]],
                        a: frozenset[int], b: frozenset[int],
                        rebuilt: frozenset[int]) -> bool:
    """The pair must genuinely break the axiom and rebuilt must be what
    the left-hand side really evaluates to."""
    return (a in family and b in family and a <= b
            and family_join(family, a, b & complement[a]) == rebuilt
            and rebuilt != b)


def replay_covering(family: set[frozenset[int]], p: frozenset[int],
                    a: frozenset[int], join: frozenset[int],
                    between: frozenset[int]) -> bool:
    bot = family_bottom(family)
    return (p in covers_of_bottom(family) and a in family
            and p & a == bot
            and family_join(family, a, p) == join
            and between in family and a < between < join)


def replay_distributivity(family: set[frozenset[int]], x: frozenset[int],
                          y: frozenset[int], z: frozenset[int]) -> bool:
    lhs_fail = x & family_join(family, y, z) != family_join(family, x & y, x & z)
    rhs_fail = family_join(family, x, y & z) != \
        family_join(family, x, y) & family_join(family, x, z)
    return x in family and y in family and z in family and (lhs_fail or rhs_fail)


def replay_no_complement(family: set[frozenset[int]],
                         orth: dict[int, set[int]]) -> bool:
    """True when exhaustive search confirms no compatible complement exists."""
    return not all_orthocomplementations(family, orth)
