"""Separated and minimal products, and the rectangle description."""

import pytest

import orthlab as O
from orthlab import axioms
from orthlab.errors import CapacityError, InvalidInstanceError
from orthlab.products import (
    cylinder1_mask,
    cylinder2_mask,
    pair_labels,
    product_orthogonality,
    rectangle_family,
)

import oracles as ora


def _pairs_of(mask: int, n2: int) -> frozenset:
    return frozenset((k // n2, k % n2) for k in ora.mask_to_set(mask))


def _family_pairs(masks, n2: int) -> set:
    return {_pairs_of(m, n2) for m in masks}


# ---------------------------------------------------------------------------
# index plumbing

def test_pair_indexing_and_labels():
    assert pair_labels(("a", "b"), ("x", "y")) == ("(a,x)", "(a,y)", "(b,x)", "(b,y)")


def test_cylinders_and_projections():
    # n1=2, n2=3; F = {0}, G = {1, 2}
    c1 = cylinder1_mask(0b01, 2, 3)
    c2 = cylinder2_mask(0b110, 2, 3)
    assert ora.mask_to_set(c1) == {0, 1, 2}
    assert ora.mask_to_set(c2) == {1, 2, 4, 5}
    rect = c1 & c2
    assert _pairs_of(rect, 3) == {(0, 1), (0, 2)}
    assert ora.projections(_pairs_of(rect, 3)) == ({0}, {1, 2})


# ---------------------------------------------------------------------------
# product orthogonality

def test_product_orthogonality_matches_oracle(mo2, b2):
    o = product_orthogonality(mo2.orth, b2.orth)
    expected = ora.product_orth(ora.rows_to_dict(mo2.orth.rows),
                                ora.rows_to_dict(b2.orth.rows))
    n2 = b2.n
    for k in range(o.n):
        got = {(r // n2, r % n2) for r in ora.mask_to_set(o.rows[k])}
        assert got == expected[(k // n2, k % n2)]


def test_product_orthogonality_capacity():
    big = O.boolean_space(9)
    with pytest.raises(CapacityError):
        product_orthogonality(big.orth, big.orth)


# ---------------------------------------------------------------------------
# separated product

def test_separated_square_of_two_points_is_the_four_point_space(b2):
    sep = O.separated_product(b2, b2)
    assert sep.labels == ("(a,a)", "(a,b)", "(b,a)", "(b,b)")
    assert sep.orth.rows == O.boolean_space(4).orth.rows


def test_separated_product_is_valid_on_random_factors(random_batch):
    for ss1, ss2 in zip(random_batch[:8], random_batch[8:16]):
        if ss1.n * ss2.n > 16:
            continue
        sep = O.separated_product(ss1, ss2)
        assert sep.validate().ok


def test_separated_product_requires_valid_factors(b2):
    # an invalid factor is refused when it is made, so none reaches the product
    with pytest.raises(InvalidInstanceError):
        O.StateSpace(("x", "y", "z"), O.OrthoRelation.from_pairs(3, [(0, 2), (1, 2)]))


def test_separated_lantern_square_lattice_size(mo2):
    ppl = O.property_lattice(O.separated_product(mo2, mo2))
    assert len(ppl.cs) == 114


# ---------------------------------------------------------------------------
# minimal product

def test_minimal_product_of_two_squares_frozen_family(b2_ppl):
    prod = O.minimal_product(b2_ppl, b2_ppl)
    assert prod.labels == ("(a,a)", "(a,b)", "(b,a)", "(b,b)")
    assert prod.cs.masks == (
        0b0000, 0b0001, 0b0010, 0b0100, 0b1000,
        0b0011, 0b0101, 0b1010, 0b1100, 0b1111)


def test_minimal_product_lantern_times_square_size(mo2_ppl, b2_ppl):
    assert len(O.minimal_product(mo2_ppl, b2_ppl).cs) == 16


def test_one_point_factor_is_neutral(b1_ppl, mo2_ppl):
    prod = O.minimal_product(b1_ppl, mo2_ppl)
    assert prod.cs.masks == mo2_ppl.cs.masks
    assert prod.labels == ("(a,a1)", "(a,a2)", "(a,b1)", "(a,b2)")
    assert prod.orth.rows == mo2_ppl.orth.rows


def _raise(*args, **kwargs):
    raise AssertionError("the complement scan ran on a biorthogonal product")


def test_one_point_factor_keeps_the_biorthogonal_mark(b1_ppl, b2_ppl, mo2_ppl, monkeypatch):
    assert O.minimal_product(b1_ppl, mo2_ppl).biorthogonal
    assert O.minimal_product(mo2_ppl, b1_ppl).biorthogonal
    assert not O.minimal_product(b2_ppl, mo2_ppl).biorthogonal
    unmarked = O.PPL(mo2_ppl.cs, mo2_ppl.orth, mo2_ppl.labels)
    assert not O.minimal_product(b1_ppl, unmarked).biorthogonal
    expected = [r.holds for r in O.axiom_suite(mo2_ppl)]
    monkeypatch.setattr(axioms, "_complement_failure", _raise)
    assert [r.holds for r in O.axiom_suite(O.minimal_product(b1_ppl, mo2_ppl))] == expected


def test_product_checks_are_set_exactly_for_valid_factors(random_batch):
    bad = O.OrthoRelation.from_pairs(3, [(0, 2), (1, 2)])  # not separating
    pairs = [(a.orth, b.orth) for a, b in zip(random_batch[:12], random_batch[12:24])]
    pairs += [(bad, O.boolean_space(2).orth), (O.boolean_space(2).orth, bad)]
    for o1, o2 in pairs:
        prod = product_orthogonality(o1, o2)
        recorded = "checks" in vars(prod)  # before any read of prod.checks
        assert prod.checks == O.OrthoRelation(prod.n, prod.rows).checks  # a fresh scan
        assert recorded == (bad not in (o1, o2))
    assert not all(c.ok for c in prod.checks)


def test_minimal_product_joins_without_its_family(b1_ppl, b2_ppl, mo2_ppl, random_batch):
    t1 = O.PPL(O.ClosureSystem(3, [0, 1, 2, 4, 3, 7]),  # not biorthogonal
               O.OrthoRelation.from_pairs(3, [(0, 1), (0, 2), (1, 2)]), ("a", "b", "c"))
    factors = [b1_ppl, b2_ppl, mo2_ppl, t1]
    factors += [O.property_lattice(ss) for ss in random_batch[2:5]]
    for ppl1 in factors:
        for ppl2 in factors:
            if ppl1.n * ppl2.n > 12:
                continue
            prod = O.minimal_product(ppl1, ppl2)
            joins = [prod.join_mask(x) for x in range(1 << prod.n)]
            assert not prod.has_family
            assert joins == [prod.cs.closure_mask(x) for x in range(1 << prod.n)]


def test_minimal_product_atoms_are_pair_singletons(mo2_ppl, b2_ppl):
    prod = O.minimal_product(mo2_ppl, b2_ppl)
    cs = prod.cs
    atoms = [cs.masks[i] for i in sorted(cs.upper_covers(cs.masks[0]))]
    assert atoms == [1 << k for k in range(8)]
    assert prod.validate().ok


def test_minimal_product_requires_valid_factors(mo2_ppl):
    # an invalid factor is refused when it is made, so none reaches the product
    with pytest.raises(InvalidInstanceError):
        O.PPL(O.ClosureSystem(2, [0b00, 0b01, 0b10, 0b11]),
              O.OrthoRelation(2, (0, 0)), ("a", "b"))  # T1, not separating


def test_minimal_product_capacity():
    b8 = O.property_lattice(O.boolean_space(8))
    b9 = O.property_lattice(O.boolean_space(9))
    with pytest.raises(CapacityError):
        O.minimal_product(b8, b9)


# ---------------------------------------------------------------------------
# the rectangle description of the product family

@pytest.mark.parametrize("name1,name2", [
    ("b2", "b2"), ("b2", "b3"), ("mo2", "b2"), ("mo2", "mo2"), ("b1", "mo3"),
])
def test_minimal_product_family_is_the_rectangle_family(name1, name2, request):
    ppl1 = request.getfixturevalue(name1 + "_ppl")
    ppl2 = request.getfixturevalue(name2 + "_ppl")
    prod = O.minimal_product(ppl1, ppl2)
    rect = rectangle_family(ppl1.cs, ppl2.cs)
    assert prod.cs.masks == rect.masks

    fam1, fam2 = ora.family_to_sets(ppl1.cs.masks), ora.family_to_sets(ppl2.cs.masks)
    expected = ora.rectangles(fam1, fam2)
    assert _family_pairs(prod.cs.masks, ppl2.n) == expected
    assert ora.minimal_product_family(fam1, fam2, ppl1.n, ppl2.n) == expected


def test_projections_of_closed_sets_are_closed(mo2_ppl, b3_ppl):
    prod = O.minimal_product(mo2_ppl, b3_ppl)
    fam1, fam2 = ora.family_to_sets(mo2_ppl.cs.masks), ora.family_to_sets(b3_ppl.cs.masks)
    for m in prod.cs.masks:
        if m == 0:
            continue
        first, second = ora.projections(_pairs_of(m, b3_ppl.n))
        assert first in fam1
        assert second in fam2
