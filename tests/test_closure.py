"""Closure systems: construction, meet closure, closures, covers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthlab.bitset import GROUND_CAPACITY, permute_mask
from orthlab.closure import ClosureSystem, meet_closure
from orthlab.errors import CapacityError
from orthlab.statespace import PPL, OrthoRelation

from oracles import (
    covers,
    covers_of_bottom,
    family_closure,
    family_join,
    family_to_sets,
    mask_to_set,
    meet_irreducibles,
    saturate_intersections,
)


# ---------------------------------------------------------------------------
# construction and validation

def test_from_masks_canonicalizes_order_and_duplicates():
    # the constructor puts masks in canonical order and drops repeats itself
    cs = ClosureSystem(3, [0b111, 0b011, 0b001, 0b011, 0b000])
    assert cs.masks == (0b000, 0b001, 0b011, 0b111)


def test_direct_construction_requires_canonical_order():
    # any order of the same masks gives the canonical tuple
    assert ClosureSystem(2, (0b11, 0b00)).masks == (0b00, 0b11)
    assert ClosureSystem(2, (0b00, 0b10, 0b01, 0b11)).masks == (0b00, 0b01, 0b10, 0b11)
    assert ClosureSystem(2, {0b11, 0b01}) == ClosureSystem(2, (0b01, 0b11, 0b01))


def test_family_must_contain_ground_set():
    with pytest.raises(ValueError):
        ClosureSystem(2, [0b00, 0b01])


def test_ground_set_size_limits():
    with pytest.raises(ValueError):
        ClosureSystem(0, [0])
    with pytest.raises(CapacityError):
        ClosureSystem(65, [(1 << 65) - 1])


def test_mask_out_of_range():
    with pytest.raises(ValueError):
        ClosureSystem(2, (0b00, 0b11, 0b100))
    with pytest.raises(ValueError, match="out of range"):
        ClosureSystem(2, (0b00, 0b100, 0b11))  # canonically ordered; only the range is wrong
    with pytest.raises(ValueError, match="out of range"):
        ClosureSystem(2, [0b00, -1, 0b11])


# ---------------------------------------------------------------------------
# meet closure: worked examples, then oracle agreement

def test_meet_closure_of_singletons():
    cs = meet_closure([0b001, 0b010, 0b100], 3)
    assert cs.masks == (0b000, 0b001, 0b010, 0b100, 0b111)


def test_meet_closure_of_two_overlapping_pairs():
    cs = meet_closure([0b011, 0b110], 3)
    assert cs.masks == (0b010, 0b011, 0b110, 0b111)


def test_meet_closure_of_nothing_is_just_the_ground_set():
    assert meet_closure([], 2).masks == (0b11,)


def test_meet_closure_rejects_universe_mismatch():
    with pytest.raises(ValueError, match="out of range"):
        meet_closure([0b1000], 3)  # atom 3 lies outside a universe of 3
    with pytest.raises(ValueError, match="out of range"):
        meet_closure([-1], 3)


def test_meet_closure_family_cap():
    gens = [1 << a | 1 << b for a, b in
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]
    assert len(meet_closure(gens, 4)) == 12
    with pytest.raises(CapacityError):
        meet_closure(gens, 4, max_family=10)


families = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), max_size=8),
    )
)


@given(families)
def test_meet_closure_agrees_with_pairwise_saturation(case):
    n, gens = case
    cs = meet_closure(gens, n)
    expected = saturate_intersections(
        {frozenset(mask_to_set(g)) for g in gens}, range(n))
    assert family_to_sets(cs.masks) == expected
    assert cs.intersection_defect() is None


# ---------------------------------------------------------------------------
# closure, meet, join against the family oracle

@given(families, st.integers(0, 63), st.integers(0, 63))
def test_closure_and_bounds_match_oracle(case, x, y):
    n, gens = case
    cs = meet_closure(gens, n)
    full = (1 << n) - 1
    a, b = x & full, y & full
    fam = family_to_sets(cs.masks)
    cl = cs.closure_mask(a)
    assert mask_to_set(cl) == family_closure(fam, mask_to_set(a))
    assert a & ~cl == 0
    assert cs.closure_mask(cl) == cl
    ca, cb = cs.closure_mask(a), cs.closure_mask(b)
    assert mask_to_set(cs.closure_mask(ca | cb)) == \
        family_join(fam, mask_to_set(ca), mask_to_set(cb))
    assert ca & cb in cs


@given(families)
def test_closure_extensions_and_covers_match_oracle_everywhere(case):
    n, gens = case
    cs = meet_closure(gens, n)
    fam = family_to_sets(cs.masks)
    for x in range(1 << n):
        assert mask_to_set(cs.closure_mask(x)) == family_closure(fam, mask_to_set(x))
    for a in cs.masks:
        ext = cs.one_point_extensions(a)
        assert [mask_to_set(k) for k in ext] == \
            [family_closure(fam, mask_to_set(a | 1 << r)) for r in range(n)]
        expected = {j for j, f in enumerate(cs.masks)
                    if covers(fam, mask_to_set(a), mask_to_set(f))}
        assert cs.upper_covers(a) == expected


@pytest.mark.parametrize("n, k", [(9, 12), (13, 12), (GROUND_CAPACITY, 8)])
def test_closure_kernel_matches_oracle_on_wide_ground_sets(n, k):
    # k random generators of density 3/4: their meet closures hold 100-260 sets
    rng = random.Random(n)
    gens = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(k)]
    cs = meet_closure(gens, n)
    m = len(cs)
    assert m > 100
    assert cs._cols == tuple(
        sum(1 << (m - 1 - i) for i, x in enumerate(cs.masks) if (x >> r) & 1)
        for r in range(n))
    fam = family_to_sets(cs.masks)
    for _ in range(200):
        x = rng.choice(cs.masks) & rng.getrandbits(n) | 1 << rng.randrange(n)
        assert mask_to_set(cs.closure_mask(x)) == family_closure(fam, mask_to_set(x))
    for a in cs.masks:
        assert [mask_to_set(k) for k in cs.one_point_extensions(a)] == \
            [family_closure(fam, mask_to_set(a | 1 << r)) for r in range(n)]


def test_covers_with_non_singleton_atoms_and_a_nonempty_bottom():
    # bottom {0}; lattice atoms {0,1,2} and {0,3}; {0,1,2,3,4} is the top
    cs = ClosureSystem(5, [0b00001, 0b00111, 0b01001, 0b01111, 0b11111])
    fam = family_to_sets(cs.masks)
    assert [cs.masks[i] for i in sorted(cs.upper_covers(cs.masks[0]))] == [0b01001, 0b00111]
    for a in cs.masks:
        assert cs.upper_covers(a) == {j for j, b in enumerate(cs.masks)
                                      if covers(fam, mask_to_set(a), mask_to_set(b))}
    assert 4 not in cs.upper_covers(cs.masks[0])
    assert 4 in cs.upper_covers(cs.masks[3])


@given(families)
def test_atoms_and_lattice_atoms_match_oracle(case):
    n, gens = case
    cs = meet_closure(gens, n)
    fam = family_to_sets(cs.masks)
    assert {mask_to_set(cs.masks[i]) for i in sorted(cs.upper_covers(cs.masks[0]))} == \
        covers_of_bottom(fam)


def test_atoms_of_single_member_family_is_the_ground_set():
    cs = ClosureSystem(2, [0b11])
    assert sorted(cs.upper_covers(cs.masks[0])) == []


def test_atoms_vs_lattice_atoms_on_a_chain():
    cs = ClosureSystem(2, [0b00, 0b01, 0b11])
    assert [cs.masks[i] for i in sorted(cs.upper_covers(cs.masks[0]))] == [0b01]
    with pytest.raises(ValueError, match="T1"):  # {1} is not closed
        PPL(cs, OrthoRelation.from_pairs(2, [(0, 1)]), ("a", "b"))


def test_covers_in_a_boolean_cube(b3_ppl):
    cs = b3_ppl.cs
    bot, top, atom = 0, len(cs) - 1, cs.masks.index(0b001)
    assert cs.masks[bot] == 0 and cs.masks[top] == 0b111
    assert atom in cs.upper_covers(cs.masks[bot])
    assert top not in cs.upper_covers(cs.masks[bot])
    assert atom not in cs.upper_covers(cs.masks[atom])
    assert atom not in cs.upper_covers(cs.masks[top])
    fam = family_to_sets(cs.masks)
    for a in cs.masks:
        assert {mask_to_set(cs.masks[j]) for j in cs.upper_covers(a)} == \
            {b for b in fam if covers(fam, mask_to_set(a), b)}


def test_element_lookup_and_iteration(b3_ppl):
    cs = b3_ppl.cs
    assert len(cs) == 8
    assert [cs.closure_mask(m) for m in cs.masks] == list(cs.masks)
    assert cs.masks[3] in cs
    assert cs.masks[0] == 0
    assert cs.masks[-1] == 0b111


def test_intersection_defect_reports_first_missing_pair():
    cs = ClosureSystem(2, [0b01, 0b10, 0b11])
    defect = cs.intersection_defect()
    assert defect == (0b01, 0b10)
    assert ClosureSystem(2, [0b00, 0b01, 0b10, 0b11]).intersection_defect() is None


# ---------------------------------------------------------------------------
# permutation images of the family

def test_permutation_failure_basics():
    cs = ClosureSystem(2, [0b00, 0b01, 0b11])
    assert cs.permutation_failure((0, 1)) is None
    assert cs.permutation_failure((1, 0)) == 0b01


def test_permutation_failure_vectorized_path_matches_scalar():
    # a large family: 4095 members
    masks = [m for m in range(1 << 12) if m != 5]
    cs = ClosureSystem(12, masks)
    assert len(cs.masks) >= 2048
    ident = tuple(range(12))
    swap01 = (1, 0) + tuple(range(2, 12))
    assert cs.permutation_failure(ident) is None
    assert cs.permutation_failure(swap01) == 6  # its image is the missing set

    # a fresh instance of the same family gives the same answers
    cs2 = ClosureSystem(12, masks)
    assert cs2.permutation_failure(ident) is None
    assert cs2.permutation_failure(swap01) == 6


@given(families, st.data())
def test_meet_irreducibles_decide_permutation_images(case, data):
    # the meet-irreducibles generate the family under intersection, so a
    # permutation maps the family onto itself exactly when it maps each of
    # them into the family
    n, gens = case
    cs = meet_closure(gens, n)
    fam = family_to_sets(cs.masks)
    irreducible = meet_irreducibles(fam)
    assert {mask_to_set(m) for m in cs.meet_irreducibles} == irreducible
    assert list(cs.meet_irreducibles) == [m for m in cs.masks if mask_to_set(m) in irreducible]
    for a in fam:
        assert frozenset(range(n)).intersection(*(m for m in irreducible if a <= m)) == a
    perm = tuple(data.draw(st.permutations(range(n))))
    images_closed = all(permute_mask(perm, m) in cs for m in cs.meet_irreducibles)
    assert (cs.permutation_failure(perm) is None) == images_closed


def test_meet_irreducibles_decide_permutation_images_on_seeded_families():
    # every generator comes with all its cyclic shifts, so the shift maps
    # the family onto itself and both answers occur
    rng = random.Random(5)
    seen = set()
    for _ in range(200):
        n = rng.randrange(2, 7)
        cyc = tuple(range(1, n)) + (0,)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            g = rng.randrange(1 << n)
            for _ in range(n):
                gens.append(g)
                g = permute_mask(cyc, g)
        cs = meet_closure(gens, n)
        for perm in [cyc] + [tuple(rng.sample(range(n), n)) for _ in range(4)]:
            images_closed = all(permute_mask(perm, m) in cs for m in cs.meet_irreducibles)
            assert (cs.permutation_failure(perm) is None) == images_closed
            seen.add(images_closed)
    assert seen == {True, False}
