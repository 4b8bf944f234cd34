"""Product constructions on state spaces and T1 closure systems.

Pairs (i, j) of factor atoms are flattened to index i * n2 + j, and the
composite label is "(x,y)".  In both products, (p1, p2) is orthogonal to
(q1, q2) iff p1 is orthogonal to q1 or p2 is orthogonal to q2.

The separated product keeps the full state-space structure (take its
property lattice for the closed sets); the minimal product, the product
in the category of T1 closure spaces, has the rectangles F x G of factor
closed sets as its closed sets.  Their factors are valid by construction,
and the axioms of the output are theorems proved in each constructor's
docstring, so the output is not re-checked.
"""

from __future__ import annotations

from .bitset import check_ground, mask_bits
from .closure import DEFAULT_FAMILY_CAP, ClosureSystem
from .errors import CapacityError
from .statespace import PPL, OrthoRelation, StateSpace


def pair_labels(labels1: tuple[str, ...], labels2: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f"({a},{b})" for a in labels1 for b in labels2)


def cylinder1_mask(mask1: int, n1: int, n2: int) -> int:
    """F x Sigma2 as a mask over pair indices."""
    ones2 = (1 << n2) - 1
    out = 0
    for i in mask_bits(mask1):
        out |= ones2 << (i * n2)
    return out


def cylinder2_mask(mask2: int, n1: int, n2: int) -> int:
    """Sigma1 x G as a mask over pair indices: G repeated in each of the
    n1 blocks of n2 bits, a product with the repunit 1 + 2**n2 + ...,
    which has no carries since G < 2**n2."""
    return mask2 * (((1 << (n1 * n2)) - 1) // ((1 << n2) - 1))


def product_orthogonality(o1: OrthoRelation, o2: OrthoRelation) -> OrthoRelation:
    """Componentwise-disjunctive orthogonality on the flattened pair set.

    When both factors pass the state-space checks the product passes
    them too, so its verdict is set, not scanned.  Antireflexivity and
    symmetry hold componentwise.  For separation of (p1, p2) ≠ (q1, q2),
    say p1 ≠ q1, take r1 orthogonal to p1 but not to q1: then (r1, q2) is
    orthogonal to (p1, p2) but not to (q1, q2), since q2 is not
    orthogonal to itself.  The case p2 ≠ q2 is symmetric.
    """
    n1, n2 = o1.n, o2.n
    check_ground(n1 * n2)
    cyl2 = [cylinder2_mask(row, n1, n2) for row in o2.rows]
    rows = []
    for row in o1.rows:
        c1 = cylinder1_mask(row, n1, n2)
        rows.extend(c1 | c2 for c2 in cyl2)
    if o1.valid and o2.valid:
        return OrthoRelation._proven(n1 * n2, tuple(rows))
    return OrthoRelation(n1 * n2, tuple(rows))


def separated_product(ss1: StateSpace, ss2: StateSpace) -> StateSpace:
    """State space on the pair set with the product orthogonality.

    The state-space axioms carry over from the factors (see
    :func:`product_orthogonality`), so the output is not re-checked.
    """
    orth = product_orthogonality(ss1.orth, ss2.orth)
    return StateSpace(pair_labels(ss1.labels, ss2.labels), orth)


def minimal_product(ppl1: PPL, ppl2: PPL) -> PPL:
    """Product of two ppl's in the category of T1 closure spaces.

    Its closed family is generated by the cylinders F x Sigma2 and
    Sigma1 x G of the factor closed sets, and that family is the
    :func:`rectangle_family`: every cylinder is a rectangle, a cylinder of
    each kind meet in F x G, and (F x G) ∩ (F' x G') = (F ∩ F') x (G ∩ G')
    with both meets closed, so the rectangles are closed under intersection.
    The family is T1 without a recheck: ∅ is a rectangle, and each
    {(p, q)} is {p} x {q}, with both factor singletons closed.

    The family is built on the first read of ``cs``.  Joins never build
    it: a rectangle F x G with nonempty sides contains a nonempty X
    exactly when F ⊇ π₁X and G ⊇ π₂X, so cl(X) = cl₁(π₁X) x cl₂(π₂X),
    and cl(∅) = ∅.  With a one-point factor {x} the product is the other
    factor relabelled: its rectangles are {x} x G, and (x, p) ⊥ (x, q)
    exactly when p ⊥ q, x not being orthogonal to itself.  So it is
    ``biorthogonal`` when the other factor is.
    """
    orth = product_orthogonality(ppl1.orth, ppl2.orth)
    n1, n2 = ppl1.n, ppl2.n
    ones2 = (1 << n2) - 1
    shifts = [i * n2 for i in range(n1)]
    join1, join2 = ppl1.join_mask, ppl2.join_mask

    def closure(mask: int) -> int:
        if not mask:
            return 0
        rows1 = rows2 = 0
        for i, shift in enumerate(shifts):
            if row := mask >> shift & ones2:
                rows1 |= 1 << i
                rows2 |= row
        return cylinder1_mask(join1(rows1), n1, n2) & cylinder2_mask(join2(rows2), n1, n2)

    return PPL(lambda: rectangle_family(ppl1.cs, ppl2.cs), orth,
               pair_labels(ppl1.labels, ppl2.labels),
               biorthogonal=(ppl1.biorthogonal if n2 == 1 else
                             ppl2.biorthogonal if n1 == 1 else False),
               join=closure)


def rectangle_family(cs1: ClosureSystem, cs2: ClosureSystem) -> ClosureSystem:
    """All products F x G of factor closed sets, empty sides collapsed."""
    n1, n2 = cs1.n, cs2.n
    check_ground(n1 * n2)
    cyl2 = [cylinder2_mask(g, n1, n2) for g in cs2.masks if g]
    masks = {0}
    for f in cs1.masks:
        if f == 0:
            continue
        c1 = cylinder1_mask(f, n1, n2)
        for c2 in cyl2:
            masks.add(c1 & c2)
            if len(masks) > DEFAULT_FAMILY_CAP:
                raise CapacityError(f"closure family exceeds cap of {DEFAULT_FAMILY_CAP} sets")
    return ClosureSystem(n1 * n2, masks)
