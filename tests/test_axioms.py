"""Axiom checkers against exhaustive oracles, plus certificate replays."""

import random

import pytest

import orthlab as O
from orthlab.axioms import (
    Certificate,
    check_boolean,
    check_covering_law,
    check_irreducible,
    check_orthomodular,
    check_trivial,
    find_compatible_orthocomplementation,
)

import oracles as ora


def _oracle_world(ppl):
    """The (orthogonality dict, family, perp-complement map) of a lattice."""
    orth = ora.rows_to_dict(ppl.orth.rows)
    fam = ora.family_to_sets(ppl.cs.masks)
    complement = {m: ora.perp(orth, m) for m in fam}
    return orth, fam, complement


def _mapping_as_sets(ppl, oc):
    masks = ppl.cs.masks
    return {ora.mask_to_set(m): ora.mask_to_set(masks[oc(i)])
            for i, m in enumerate(masks)}


# ---------------------------------------------------------------------------
# orthocomplementation: the forced candidate vs brute involution search

def test_lantern_orthocomplementation_is_the_expected_map(mo2_ppl):
    oc = find_compatible_orthocomplementation(mo2_ppl)
    assert not isinstance(oc, Certificate)
    assert tuple(map(oc, range(len(mo2_ppl.cs)))) == (5, 3, 4, 1, 2, 0)


def _small_pairs(random_batch):
    """Unordered pairs (repeats allowed) of the distinct random spaces on at most 4 states."""
    spaces = list({ss.orth.rows: ss for ss in random_batch if ss.n <= 4}.values())
    return [(a, b) for i, a in enumerate(spaces) for b in spaces[i:]]


def test_forced_candidate_agrees_with_brute_search(b2_ppl, b3_ppl, mo2_ppl, random_batch):
    # every subset of the lantern's atoms closed: the perps are members, but
    # {a1,a2} is not fixed by double perp
    powerset = O.PPL(O.ClosureSystem.from_masks(4, range(16)), mo2_ppl.orth, mo2_ppl.labels)
    lattices = [b2_ppl, b3_ppl, mo2_ppl, powerset]
    lattices += [O.property_lattice(ss) for ss in random_batch if ss.n <= 4]
    lattices += [O.minimal_product(O.property_lattice(a), O.property_lattice(b))
                 for a, b in _small_pairs(random_batch)]
    kinds = set()
    for ppl in lattices:
        if len(ppl.cs) > 16:
            continue
        orth, fam, _ = _oracle_world(ppl)
        found = ora.all_orthocomplementations(fam, orth)
        oc = find_compatible_orthocomplementation(ppl)
        if isinstance(oc, Certificate):
            kinds.add(oc.kind)
            assert found == []
        else:
            # compatibility forces uniqueness; brute search must agree exactly
            assert len(found) == 1
            assert _mapping_as_sets(ppl, oc) == found[0]
    assert kinds == {"atom-row-not-closed", "not-involutive"}


def test_complement_of_a_property_lattice_is_perp(random_batch):
    # no scan runs on a biorthogonal lattice, so check the images it
    # computes on demand, lattices of more than 16 members included
    lattices = [O.property_lattice(ss) for ss in random_batch]
    lattices += [O.property_lattice(O.boolean_space(k)) for k in range(1, 6)]
    lattices += [O.property_lattice(O.mo_lantern(k)) for k in range(2, 5)]
    lattices += [O.parse_ppl(O.serialize_ppl(ppl)) for ppl in lattices]
    assert all(ppl.biorthogonal for ppl in lattices)
    assert max(len(ppl.cs) for ppl in lattices) > 16
    for ppl in lattices:
        oc = find_compatible_orthocomplementation(ppl)
        assert not isinstance(oc, Certificate)
        _, _, complement = _oracle_world(ppl)
        masks, mapping = ppl.cs.masks, tuple(map(oc, range(len(ppl.cs))))
        assert {ora.mask_to_set(masks[i]): ora.mask_to_set(masks[j])
                for i, j in enumerate(mapping)} == complement
        assert all(mapping[j] == i for i, j in enumerate(mapping))


def test_minimal_product_has_no_orthocomplementation(b2_ppl):
    prod = O.minimal_product(b2_ppl, b2_ppl)
    cert = find_compatible_orthocomplementation(prod)
    assert isinstance(cert, Certificate)
    assert cert.kind == "atom-row-not-closed"
    orth, fam, _ = _oracle_world(prod)
    assert ora.replay_no_complement(fam, orth)


def test_certificate_part_lookup(b2_ppl):
    cert = find_compatible_orthocomplementation(O.minimal_product(b2_ppl, b2_ppl))
    assert cert.part("atom").atoms.bits == 0b0001
    with pytest.raises(KeyError):
        cert.part("nonexistent")


def test_orthocomplementation_requires_valid_input():
    cs = O.ClosureSystem.from_masks(2, [0b00, 0b11])
    ppl = O.PPL(cs, O.OrthoRelation.from_pairs(2, [(0, 1)]), ("a", "b"))
    with pytest.raises(O.InvalidInstanceError):
        find_compatible_orthocomplementation(ppl)


# ---------------------------------------------------------------------------
# orthomodularity

def test_orthomodular_holds_on_catalog(b3_ppl, b4_ppl, mo2_ppl, mo3_ppl):
    for ppl in (b3_ppl, b4_ppl, mo2_ppl, mo3_ppl):
        oc = find_compatible_orthocomplementation(ppl)
        report = check_orthomodular(ppl, oc)
        assert report.holds and report.certificate is None
        assert report.stats.checked > 0


def test_orthomodular_fails_on_the_separated_lantern_square(mo2):
    ppl = O.property_lattice(O.separated_product(mo2, mo2))
    oc = find_compatible_orthocomplementation(ppl)
    report = check_orthomodular(ppl, oc)
    assert not report.holds
    cert = report.certificate
    assert cert.kind == "orthomodularity"
    _, fam, complement = _oracle_world(ppl)
    assert ora.replay_orthomodular(
        fam, complement,
        ora.mask_to_set(cert.part("a").atoms.bits),
        ora.mask_to_set(cert.part("b").atoms.bits),
        ora.mask_to_set(cert.part("rebuilt").bits))


def _key(s):
    """Canonical order of sets: cardinality, then mask value."""
    return (len(s), ora.set_to_mask(s))


#: Random spaces (n, density, seed) failing orthomodularity where the first
#: element a with a closed b ⊋ a missing a⊥ comes after the certificate's a,
#: so a certificate scan started at that element would report another pair.
LATE_CRITERION = ((6, 0.5, 5), (7, 0.5, 6), (7, 0.5, 10), (7, 0.7, 6),
                  (8, 0.5, 3), (8, 0.7, 2), (8, 0.7, 8))


def test_orthomodular_agrees_with_oracle(random_batch):
    lattices = [O.property_lattice(ss) for ss in random_batch]
    lattices += [O.property_lattice(O.separated_product(a, b))
                 for a, b in _small_pairs(random_batch)]
    lattices += [O.property_lattice(O.random_space(*args)) for args in LATE_CRITERION]
    failures = late = 0
    for ppl in lattices:
        oc = find_compatible_orthocomplementation(ppl)
        assert not isinstance(oc, Certificate)
        _, fam, complement = _oracle_world(ppl)
        violations = ora.orthomodular_violations(fam, complement)
        report = check_orthomodular(ppl, oc)
        assert report.holds == (not violations)
        if not report.holds:
            failures += 1
            cert = report.certificate
            a, b = min(violations, key=lambda ab: (_key(ab[0]), _key(ab[1])))
            assert ora.mask_to_set(cert.part("a").atoms.bits) == a
            assert ora.mask_to_set(cert.part("b").atoms.bits) == b
            assert ora.replay_orthomodular(fam, complement, a, b,
                                           ora.mask_to_set(cert.part("rebuilt").bits))
            first = min((x for x in fam if any(x < y and not y & complement[x] for y in fam)),
                        key=_key)
            late += _key(first) > _key(a)
    assert failures > 0 and late >= len(LATE_CRITERION)


def _law_holding_lattices():
    spaces = [O.boolean_space(k) for k in range(1, 6)] + [O.mo_lantern(k) for k in range(2, 5)]
    spaces.append(O.separated_product(O.boolean_space(3), O.mo_lantern(2)))
    return [O.property_lattice(ss) for ss in spaces]


def _raise(*args, **kwargs):
    raise AssertionError("the certificate path ran on a lattice where the law holds")


def test_orthomodular_verdict_needs_no_join_where_the_law_holds(monkeypatch):
    lattices = [(ppl, find_compatible_orthocomplementation(ppl))
                for ppl in _law_holding_lattices()]
    monkeypatch.setattr(O.PPL, "join_mask", _raise)
    for ppl, oc in lattices:
        assert check_orthomodular(ppl, oc).holds


# ---------------------------------------------------------------------------
# covering law

def test_covering_holds_on_catalog(b3_ppl, b4_ppl, mo2_ppl, mo3_ppl):
    for ppl in (b3_ppl, b4_ppl, mo2_ppl, mo3_ppl):
        assert check_covering_law(ppl.cs).holds


def test_covering_fails_on_the_minimal_product_with_frozen_certificate(b2_ppl):
    prod = O.minimal_product(b2_ppl, b2_ppl)
    report = check_covering_law(prod.cs)
    assert not report.holds
    cert = report.certificate
    assert cert.kind == "covering-law"
    # atom (b,b); element {(a,a)}; join is everything; {(a,a),(a,b)} sits between
    assert cert.part("p").atoms.bits == 0b1000
    assert cert.part("a").atoms.bits == 0b0001
    assert cert.part("join").atoms.bits == 0b1111
    assert cert.part("between").atoms.bits == 0b0011
    _, fam, _ = _oracle_world(prod)
    assert ora.replay_covering(
        fam,
        ora.mask_to_set(0b1000), ora.mask_to_set(0b0001),
        ora.mask_to_set(0b1111), ora.mask_to_set(0b0011))


def _random_families(seed, count):
    """Seeded meet closures of random sets; most are not T1."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 2 + i % 5
        gens = [rng.getrandbits(n) for _ in range(2 + i % 4)]
        out.append(O.meet_closure(gens, n))
    return out


def test_covering_agrees_with_oracle(random_batch):
    families = [O.property_lattice(ss).cs for ss in random_batch]
    for a, b in _small_pairs(random_batch):
        families.append(O.minimal_product(O.property_lattice(a), O.property_lattice(b)).cs)
        families.append(O.property_lattice(O.separated_product(a, b)).cs)
    # not T1: lattice atoms {0,1,2} and {0,3} over the bottom {0}
    families.append(O.ClosureSystem.from_masks(5, [0b00001, 0b00111, 0b01001, 0b01111, 0b11111]))
    families += _random_families(3, 60)
    failures = wide_failures = 0
    for cs in families:
        fam = ora.family_to_sets(cs.masks)
        violations = ora.covering_violations(fam)
        report = check_covering_law(cs)
        assert report.holds == (not violations)
        if not report.holds:
            failures += 1
            wide_failures += any(p.atoms.bits.bit_count() > 1 for p in cs.lattice_atoms())
            cert = report.certificate
            p, a = min(violations, key=lambda pa: (_key(pa[1]), _key(pa[0])))
            join = ora.family_join(fam, a, p)
            between = min((m for m in fam if a < m < join), key=_key)
            got = [ora.mask_to_set(cert.part(k).atoms.bits) for k in ("p", "a", "join", "between")]
            assert got == [p, a, join, between]
    assert wide_failures > 0 and failures > wide_failures


def test_covering_verdict_needs_no_cover_scan_where_the_law_holds(monkeypatch):
    families = [ppl.cs for ppl in _law_holding_lattices()]
    monkeypatch.setattr(O.ClosureSystem, "upper_covers", _raise)
    for cs in families:
        assert check_covering_law(cs).holds


# ---------------------------------------------------------------------------
# distributivity / Boolean check

def test_boolean_verdicts_on_catalog(b2_ppl, b3_ppl, mo2_ppl):
    for ppl, expected in ((b2_ppl, True), (b3_ppl, True), (mo2_ppl, False)):
        oc = find_compatible_orthocomplementation(ppl)
        report = check_boolean(ppl.cs, oc)
        assert report.holds == expected


def test_boolean_failure_certificate_replays(mo2_ppl):
    oc = find_compatible_orthocomplementation(mo2_ppl)
    cert = check_boolean(mo2_ppl.cs, oc).certificate
    assert cert.kind == "distributivity"
    _, fam, _ = _oracle_world(mo2_ppl)
    assert ora.replay_distributivity(
        fam,
        ora.mask_to_set(cert.part("x").atoms.bits),
        ora.mask_to_set(cert.part("y").atoms.bits),
        ora.mask_to_set(cert.part("z").atoms.bits))


def test_boolean_agrees_with_oracle(random_batch):
    lattices = [O.property_lattice(ss) for ss in random_batch if ss.n <= 4]
    lattices += [O.property_lattice(O.separated_product(a, b))
                 for a, b in _small_pairs(random_batch)]
    failures = 0
    for ppl in lattices:
        if len(ppl.cs) > 16:
            continue
        oc = find_compatible_orthocomplementation(ppl)
        fam = ora.family_to_sets(ppl.cs.masks)
        report = check_boolean(ppl.cs, oc)
        assert report.holds == ora.is_distributive(fam)
        if not report.holds:
            failures += 1
            cert = report.certificate
            assert cert.kind == "distributivity"
            assert ora.replay_distributivity(
                fam, *(ora.mask_to_set(cert.part(k).atoms.bits) for k in "xyz"))
    assert failures > 0


# ---------------------------------------------------------------------------
# irreducibility and triviality

def test_lanterns_are_irreducible(mo2_ppl, mo3_ppl):
    for ppl in (mo2_ppl, mo3_ppl):
        oc = find_compatible_orthocomplementation(ppl)
        assert check_irreducible(ppl, oc).holds


def test_boolean_square_splits(b2_ppl):
    oc = find_compatible_orthocomplementation(b2_ppl)
    report = check_irreducible(b2_ppl, oc)
    assert not report.holds
    cert = report.certificate
    assert cert.kind == "central-element"
    assert cert.part("z").atoms.bits == 0b01  # the singleton {a} is central


def test_irreducible_agrees_with_oracle(random_batch):
    for ss in random_batch:
        ppl = O.property_lattice(ss)
        if len(ppl.cs) > 20:
            continue
        oc = find_compatible_orthocomplementation(ppl)
        _, fam, complement = _oracle_world(ppl)
        central = ora.central_elements(fam, complement)
        bot, top = frozenset(), frozenset(range(ss.n))
        nontrivial = sorted(central - {bot, top}, key=lambda z: (len(z), ora.set_to_mask(z)))
        report = check_irreducible(ppl, oc)
        assert report.holds == (not nontrivial)
        if not report.holds:
            assert ora.mask_to_set(report.certificate.part("z").atoms.bits) == nontrivial[0]


def test_trivial_verdicts(b1_ppl, b2_ppl):
    assert check_trivial(b1_ppl.cs)
    assert not check_trivial(b2_ppl.cs)
