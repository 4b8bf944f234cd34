"""Symmetry enumeration, plane witnesses, and transitivity checks."""

import itertools
import math
import random
from collections import Counter
from dataclasses import astuple, replace

import pytest

import orthlab as O
from orthlab.errors import BudgetExceededError, InvariantViolationError
from orthlab.symmetry import (
    count_symmetries,
    enumerate_symmetries,
    find_plane_symmetry,
    is_plane_transitive,
)
from orthlab import symmetry as S
from orthlab.bitset import mask_bits
from orthlab.symmetry import _atom_signatures, _backtrack, _Budget, _Orbits, _PlaneOrbits

import oracles as ora


def _orth_and_family(ppl):
    return ora.rows_to_dict(ppl.orth.rows), ora.family_to_sets(ppl.cs.masks)


def _small_products():
    """Minimal and separated products of boolean:2/3 and mo:2 with n <= 6."""
    factors = (O.boolean_space(2), O.boolean_space(3), O.mo_lantern(2))
    out = []
    for a in factors:
        for b in factors:
            if a.n * b.n <= 6:
                out.append(O.minimal_product(O.property_lattice(a), O.property_lattice(b)))
                out.append(O.property_lattice(O.separated_product(a, b)))
    return out


def _random_families():
    """Random T1 families on symmetric orthogonalities, so the closed-set
    checks (not the orthogonality) decide most candidate symmetries."""
    rng = random.Random(11)
    out = []
    for ss in (O.boolean_space(4), O.boolean_space(5), O.mo_lantern(2), O.mo_lantern(3)) * 3:
        gens = [1 << p for p in range(ss.n)]
        gens += [rng.randrange(1, 1 << ss.n) for _ in range(rng.randrange(1, 4))]
        out.append(O.PPL(O.meet_closure(gens, ss.n), ss.orth, ss.labels))
    return out


# ---------------------------------------------------------------------------
# single-permutation checks

def test_symmetry_defect_on_orthogonality(mo2_ppl):
    # swapping the two a-atoms while fixing the b-atoms tears a rung apart
    orth, fam = _orth_and_family(mo2_ppl)
    group = list(enumerate_symmetries(mo2_ppl))
    assert (2 in orth[0]) != (2 in orth[1])  # the pair (0, 2) goes to (1, 2)
    assert not ora.preserves_orthogonality(orth, (1, 0, 2, 3))
    assert (1, 0, 2, 3) not in group
    assert ora.is_symmetry_perm(orth, fam, (1, 0, 3, 2))
    assert (1, 0, 3, 2) in group


def test_symmetry_defect_on_a_closed_set():
    # complete orthogonality (any permutation preserves it) but a family
    # containing {a,b} and not {a,c}: swapping b and c must be rejected
    cs = O.ClosureSystem(3, [0b000, 0b001, 0b010, 0b100, 0b011, 0b111])
    ppl = O.PPL(cs, O.OrthoRelation.from_pairs(3, [(0, 1), (0, 2), (1, 2)]),
                ("a", "b", "c"))
    orth, fam = _orth_and_family(ppl)
    assert ora.preserves_orthogonality(orth, (0, 2, 1))
    assert not ora.is_symmetry_perm(orth, fam, (0, 2, 1))
    assert ppl.cs.permutation_failure((0, 2, 1)) == 0b011
    assert (0, 2, 1) not in list(enumerate_symmetries(ppl))


def test_symmetry_failure_rejects_non_permutations(mo2_ppl):
    # a map that merges two atoms is never a symmetry: the full set's image
    # loses an atom and leaves the family, and the search yields only bijections
    orth, fam = _orth_and_family(mo2_ppl)
    merge = (0, 0, 2, 3)
    assert not ora.is_symmetry_perm(orth, fam, merge)
    assert mo2_ppl.cs.permutation_failure(merge) == mo2_ppl.cs.masks[-1]
    group = list(enumerate_symmetries(mo2_ppl))
    assert merge not in group
    assert all(sorted(perm) == list(range(mo2_ppl.n)) for perm in group)


# ---------------------------------------------------------------------------
# enumeration against the all-permutations oracle

@pytest.mark.parametrize("fixture,expected", [
    ("b2_ppl", 2), ("b3_ppl", 6), ("b4_ppl", 24), ("mo2_ppl", 8), ("mo3_ppl", 48),
])
def test_symmetry_counts_on_catalog(fixture, expected, request):
    ppl = request.getfixturevalue(fixture)
    assert count_symmetries(ppl) == expected


def test_symmetry_counts_match_closed_forms():
    # boolean:n has every permutation; mo:n swaps within and permutes its n rungs
    assert count_symmetries(O.property_lattice(O.boolean_space(9))) == math.factorial(9)
    assert count_symmetries(O.property_lattice(O.mo_lantern(6))) == 2 ** 6 * math.factorial(6)


def test_enumeration_matches_oracle_exactly(mo2_ppl, b3_ppl, random_batch):
    ppls = [mo2_ppl, b3_ppl]
    ppls += [O.property_lattice(ss) for ss in random_batch if ss.n <= 5]
    # minimal products are not biorthogonal: the closed-set checks run there
    ppls += _small_products() + _random_families()
    assert any(not ppl.biorthogonal for ppl in ppls)
    for ppl in ppls:
        got = list(enumerate_symmetries(ppl))
        orth, fam = _orth_and_family(ppl)
        expected = ora.all_symmetries(orth, fam)
        assert sorted(got) == expected
        assert got == sorted(got)  # lexicographic output order
        assert len(set(got)) == len(got)
        assert count_symmetries(ppl) == len(expected)


def test_pinned_search_matches_oracle():
    # four pins can disagree with each other while every free atom agrees
    # with all of them (mo:3: 0->0, 3->1, 1->3, 4->4), so the up-front
    # checks on the pins must reject them
    for ppl in _random_families():
        orth, fam = _orth_and_family(ppl)
        group = ora.all_symmetries(orth, fam)
        for k in (2, 4):
            for atoms in itertools.combinations(range(ppl.n), k):
                for images in itertools.permutations(range(ppl.n), k):
                    pins = dict(zip(atoms, images))
                    got = list(_backtrack(ppl, pins, _Budget(None)))
                    assert got == [f for f in group
                                   if all(f[a] == b for a, b in pins.items())]


def test_enumeration_is_deterministic(mo3_ppl):
    first = list(enumerate_symmetries(mo3_ppl))
    second = list(enumerate_symmetries(mo3_ppl))
    assert first == second


def test_symmetries_form_a_group(mo2_ppl):
    perms = list(enumerate_symmetries(mo2_ppl))
    n = mo2_ppl.n
    assert tuple(range(n)) in perms
    for f in perms:
        inv = tuple(sorted(range(n), key=lambda i: f[i]))
        assert inv in perms
        for g in perms:
            assert tuple(f[g[i]] for i in range(n)) in perms


def test_orthogonality_automorphisms_suffice_on_property_lattices(random_batch):
    # the closed family is defined from the orthogonality, so preserving
    # the relation already preserves the family
    import itertools
    for ss in random_batch:
        if ss.n > 4:
            continue
        ppl = O.property_lattice(ss)
        orth, fam = _orth_and_family(ppl)
        for perm in itertools.permutations(range(ss.n)):
            assert ora.preserves_orthogonality(orth, perm) == \
                ora.is_symmetry_perm(orth, fam, perm)


def test_permutation_failure_matches_oracle_off_property_lattices():
    # families that are not biorthogonal need the closed-set check
    ppls = [p for p in _small_products() + _random_families() if not p.biorthogonal]
    closed_set_defects = 0
    for ppl in ppls:
        orth, fam = _orth_and_family(ppl)
        for perm in itertools.islice(itertools.permutations(range(ppl.n)), 0, None, 7):
            bad = ppl.cs.permutation_failure(perm)
            assert (bad is None) == ({frozenset(perm[i] for i in m) for m in fam} == fam)
            if bad is not None:
                assert bad == next(  # the canonically first one
                    m for m in ppl.cs.masks
                    if frozenset(perm[i] for i in ora.mask_to_set(m)) not in fam)
                closed_set_defects += ora.preserves_orthogonality(orth, perm)
    assert closed_set_defects


def test_budget_exhaustion_raises(mo3_ppl):
    with pytest.raises(BudgetExceededError) as info:
        count_symmetries(mo3_ppl, budget=5)
    i, q = info.value.query  # the level-i probe i -> q that ran out
    assert 0 <= i < q < mo3_ppl.n
    assert info.value.plane is None
    assert str(info.value).endswith(f" mapping atom {i} to atom {q}")
    assert count_symmetries(mo3_ppl, budget=None) == 48


# ---------------------------------------------------------------------------
# plane witnesses

def test_plane_witness_in_the_four_point_space(b4_ppl):
    w = find_plane_symmetry(b4_ppl, 0, 1)
    assert (w.p1, w.p2) == (2, 3)
    assert w.perm == (1, 0, 2, 3)
    assert ora.is_plane_witness(ora.rows_to_dict(b4_ppl.orth.rows), None, astuple(w))


def test_identity_pair_witness(b3_ppl):
    w = find_plane_symmetry(b3_ppl, 0, 0)
    assert w.perm == (0, 1, 2)
    assert (w.p1, w.p2) == (0, 1)


def test_no_plane_witness_in_small_spaces(b3_ppl, mo2_ppl):
    assert find_plane_symmetry(b3_ppl, 0, 1) is None
    assert find_plane_symmetry(mo2_ppl, 0, 1) is None


def test_plane_witness_exists_exactly_when_brute_force_finds_one(b4_ppl):
    # a pruned subtree must never hide a witness, so a None has to be real;
    # and a witness must be the first plane's lexicographically least one,
    # whether searched alone or with orbit records shared across the pairs
    for ppl in [b4_ppl] + _small_products() + _random_families():
        assert ppl.n <= 6
        orth, fam = _orth_and_family(ppl)
        alone = []
        for p in range(ppl.n):
            for q in range(ppl.n):
                w = find_plane_symmetry(ppl, p, q)
                first = ora.first_plane_witness(orth, fam, p, q)
                assert (w is None) == (first is None)
                if w is not None:
                    assert (w.p1, w.p2, w.perm) == first
                    assert ora.is_plane_witness(orth, fam, astuple(w))
                alone.append(((p, q), w))
        report = is_plane_transitive(ppl)
        if report.transitive:
            assert report.witnesses == tuple(w for _, w in alone)
        else:
            assert report.failing_pair == next(pq for pq, w in alone if w is None)


def test_minimal_square_of_boolean4_is_plane_transitive(b4_ppl):
    # this search used to run out of a 2M-node budget on the first pairs
    prod = O.minimal_product(b4_ppl, b4_ppl)
    report = is_plane_transitive(prod, budget=2_000_000)
    assert report.transitive
    assert len(report.witnesses) == 256
    orth, fam = _orth_and_family(prod)
    for w in report.witnesses:
        assert ora.is_plane_witness(orth, fam, astuple(w))


def test_plane_search_calls_on_the_minimal_square_of_boolean4(probes, b4_ppl):
    # the group and the stabilizer tables take a few dozen probes for all 256 pairs
    prod = O.minimal_product(b4_ppl, b4_ppl)
    assert is_plane_transitive(prod, witnesses=False).transitive
    assert len(probes) <= 56
    probes.clear()
    assert len(is_plane_transitive(prod).witnesses) == 256
    assert len(probes) <= 56 + 240  # and one probe per pair p != q


def test_plane_tables_match_the_oracles_where_planes_are_moved():
    # the first plane of an orbit and the others differ, so reading a
    # plane's stabilizer orbits off its orbit's first plane needs the
    # transporter: minimal(boolean:4, boolean:2) fails at (0, 1) only after
    # planes of several orbits, separated(boolean:3, mo:2) holds
    b4, b2, b3 = (O.property_lattice(O.boolean_space(n)) for n in (4, 2, 3))
    ppls = [O.minimal_product(b4, b2),
            O.property_lattice(O.separated_product(O.boolean_space(3), O.mo_lantern(2)))]
    ppls += [O.property_lattice(O.random_space(n, 0.5, seed))
             for n in (5, 6) for seed in range(6)]
    verdicts = []
    for ppl in ppls:
        orth, fam = _orth_and_family(ppl)
        group = ora.symmetries_by_extension(orth, fam)
        transitive = ora.is_plane_transitive_brute(orth, fam, group)
        verdicts.append(transitive)
        report = is_plane_transitive(ppl)
        verdict = is_plane_transitive(ppl, witnesses=False)
        assert report.transitive == verdict.transitive == transitive
        assert report.failing_pair == verdict.failing_pair
        pairs = [(p, q) for p in range(ppl.n) for q in range(ppl.n)]
        found = {pq: find_plane_symmetry(ppl, *pq) for pq in pairs}
        for pq in pairs:
            expected = ora.exists_plane_symmetry(orth, fam, *pq, group)
            assert (found[pq] and found[pq].perm) == expected
            if expected is None:
                break  # the first pair without a witness ends both searches
        if transitive:
            assert list(report.witnesses) == [found[pq] for pq in pairs]
        else:
            assert report.failing_pair == pq
    assert verdicts[:2] == [False, True] and False in verdicts[2:]


def test_symmetries_and_planes_agree_with_oracles_on_every_small_separating_relation():
    transitive = []
    for n in range(1, 7):
        labels = tuple(f"s{p}" for p in range(n))
        for rows in ora.separating_relations(n):
            ppl = O.property_lattice(O.StateSpace(labels, O.OrthoRelation(n, rows)))
            orth, fam = _orth_and_family(ppl)
            group = ora.symmetries_by_extension(orth, fam)
            assert count_symmetries(ppl) == len(group), rows
            verdict = is_plane_transitive(ppl, witnesses=False).transitive
            assert verdict == ora.is_plane_transitive_brute(orth, fam, group), rows
            if verdict:
                transitive.append(rows)
    # only boolean:4-6, each atom orthogonal to every other
    assert transitive == [tuple((1 << n) - 1 ^ 1 << p for p in range(n)) for n in (4, 5, 6)]


def test_find_plane_symmetry_range_check(b3_ppl):
    with pytest.raises(ValueError):
        find_plane_symmetry(b3_ppl, 0, 3)


def test_verify_plane_witness_catches_tampering(b4_ppl):
    # the oracle check, on the property lattice's definition and on the family
    w = find_plane_symmetry(b4_ppl, 0, 1)
    assert w.perm[w.p] == w.q == 1 and (w.p1, w.p2) == (2, 3)
    orth, fam = _orth_and_family(b4_ppl)
    for family in (None, fam):
        assert ora.is_plane_witness(orth, family, astuple(w))
        for bad in (replace(w, perm=(0, 1, 2, 3)),  # p no longer goes to q
                    replace(w, perm=(1, 0, 3, 2)),  # moves the plane's atoms
                    replace(w, perm=(1, 1, 2, 3)),  # not a permutation
                    replace(w, perm=(1, 0, 2)),
                    replace(w, p1=2, p2=2)):  # no plane
            assert not ora.is_plane_witness(orth, family, astuple(bad)), bad


@pytest.mark.parametrize("fixture,transitive,pair", [
    ("b2_ppl", False, (0, 1)),
    ("b3_ppl", False, (0, 1)),
    ("b4_ppl", True, None),
    ("mo2_ppl", False, (0, 1)),
    ("mo3_ppl", False, (0, 1)),
])
def test_plane_transitivity_catalog(fixture, transitive, pair, request):
    ppl = request.getfixturevalue(fixture)
    report = is_plane_transitive(ppl)
    assert report.transitive == transitive
    assert report.failing_pair == pair
    if transitive:
        assert len(report.witnesses) == ppl.n * ppl.n
        orth, fam = _orth_and_family(ppl)
        for w in report.witnesses:
            assert ora.is_plane_witness(orth, None, astuple(w))
            assert ora.is_plane_witness(orth, fam, astuple(w))


def test_plane_transitivity_matches_brute_force(b2_ppl, b3_ppl, b4_ppl, mo2_ppl):
    for ppl in (b2_ppl, b3_ppl, b4_ppl, mo2_ppl):
        orth, fam = _orth_and_family(ppl)
        assert is_plane_transitive(ppl).transitive == \
            ora.is_plane_transitive_brute(orth, fam)


def test_single_atom_space_hosts_no_plane(b1_ppl):
    report = is_plane_transitive(b1_ppl)
    assert not report.transitive
    assert report.failing_pair == (0, 0)
    assert "plane" in report.note


def test_plane_search_budget(b4_ppl):
    # the group's probes come first and share the budget: the level-1
    # probe 1 -> 2 runs out before any plane is probed
    with pytest.raises(BudgetExceededError) as info:
        is_plane_transitive(b4_ppl, budget=2)
    assert info.value.query == (1, 2)
    assert info.value.plane is None


def test_plane_budget_is_shared_by_the_tables_and_fresh_for_each_witness():
    ppl = O.property_lattice(O.boolean_space(5))
    table = _PlaneOrbits(ppl, None)
    assert table.first_planes(0, 0b11110)[1] == 0
    spent = table.b.spent  # the group and stabilizer probes, together
    assert spent == 10
    witness_nodes = []
    for p in range(5):
        for q, j in table.first_planes(p, 0b11111 ^ 1 << p)[0].items():
            b = _Budget(None)
            p1, p2, plane = table.planes[j]
            next(_backtrack(ppl, {**{a: a for a in mask_bits(plane)}, p: q}, b, table.colours))
            witness_nodes.append(b.spent)
    assert max(witness_nodes) <= spent < sum(witness_nodes)
    assert len(is_plane_transitive(ppl, budget=spent).witnesses) == 25
    with pytest.raises(BudgetExceededError) as info:
        is_plane_transitive(ppl, budget=spent - 1, witnesses=False)
    assert info.value.plane is None
    # a witness probe names its pair and its plane
    with pytest.raises(BudgetExceededError) as info:
        _PlaneOrbits(ppl, 1).witness(0, 1, 7)
    assert (info.value.query, info.value.plane) == ((0, 1), (2, 3))
    # a stabilizer probe names its plane: unseeded, the plane {a, b} needs them
    table = _PlaneOrbits(ppl, 1)
    table.gens = []
    with pytest.raises(BudgetExceededError) as info:
        table._stabilizer(*table.planes[0])
    assert (info.value.query, info.value.plane) == ((2, 3), (0, 1))


# ---------------------------------------------------------------------------
# product witnesses

def test_product_plane_witness_composes(b4_ppl):
    prod = O.minimal_product(b4_ppl, b4_ppl)
    w1 = find_plane_symmetry(b4_ppl, 0, 1)
    w2 = find_plane_symmetry(b4_ppl, 2, 3)
    w = ora.product_plane_witness(astuple(w1), astuple(w2))
    assert w[:2] == (0 * 4 + 2, 1 * 4 + 3)
    assert ora.is_plane_witness(*_orth_and_family(prod), w)


def test_product_plane_witness_of_a_bad_factor_fails_the_check(b4_ppl):
    prod = O.minimal_product(b4_ppl, b4_ppl)
    w1 = find_plane_symmetry(b4_ppl, 0, 1)
    fake = replace(w1, perm=(1, 0, 3, 2))  # not plane-fixing
    w = ora.product_plane_witness(astuple(fake), astuple(w1))
    assert not ora.is_plane_witness(*_orth_and_family(prod), w)


# ---------------------------------------------------------------------------
# orbit records: a search skips only the probes whose answers are known

def _probe_key(pins):
    return tuple(sorted(pins.items()))


@pytest.fixture
def probes(monkeypatch):
    """The pins of every ``_backtrack`` call the searches make, in order."""
    calls = []

    def recording(ppl, pins, budget, sigs=None):
        calls.append(_probe_key(pins))
        return _backtrack(ppl, pins, budget, sigs)

    monkeypatch.setattr(S, "_backtrack", recording)
    return calls


def _per_pair_plane_probes(ppl):
    """One search per ordered pair, scanning every plane: its probes, its
    witnesses as (p, q, p1, p2, perm), and the first pair without one."""
    n = ppl.n
    planes = [(p1, p2, ppl.join_mask(1 << p1 | 1 << p2))
              for p1 in range(n) for p2 in range(p1 + 1, n)]
    sigs = _atom_signatures(ppl)
    calls, witnesses = [], []
    for p in range(n):
        for q in range(n):
            for p1, p2, plane in planes:
                pins = {a: a for a in mask_bits(plane)}
                if p != q and (p in pins or q in pins):
                    continue
                pins[p] = q
                calls.append(_probe_key(pins))
                perm = next(_backtrack(ppl, pins, _Budget(None), sigs), None)
                if perm is not None:
                    witnesses.append((p, q, p1, p2, perm))
                    break
            else:
                return calls, witnesses, (p, q)
    return calls, witnesses, None


def _per_target_count_probes(ppl):
    """One probe per level i and target q >= i: the probes and the order."""
    calls, order = [], 1
    for i in range(ppl.n):
        length = 0
        for q in range(i, ppl.n):
            pins = {**{a: a for a in range(i)}, i: q}
            calls.append(_probe_key(pins))
            length += next(_backtrack(ppl, pins, _Budget(None)), None) is not None
        order *= length
    return calls, order


def _orbit_families(b4_ppl, mo3_ppl, random_batch):
    """Catalog, random and seeded families, and three plane transitive
    products of 12 atoms, where the records skip most plane probes."""
    b2, b3 = O.boolean_space(2), O.boolean_space(3)
    mo2 = O.mo_lantern(2)
    out = [b4_ppl, mo3_ppl, O.property_lattice(O.boolean_space(5)),
           O.minimal_product(b4_ppl, O.property_lattice(b2)),
           O.minimal_product(b4_ppl, O.property_lattice(b3)),
           O.property_lattice(O.separated_product(b3, mo2)),
           O.property_lattice(O.separated_product(mo2, b3))]
    out += [O.property_lattice(ss) for ss in random_batch if ss.n >= 4]
    return out + _small_products() + _random_families()


def test_orbit_records_skip_only_implied_probes(probes, b4_ppl, mo3_ppl, random_batch):
    skipped = 0
    for ppl in _orbit_families(b4_ppl, mo3_ppl, random_batch):
        calls, witnesses, failing = _per_pair_plane_probes(ppl)
        probes.clear()
        count_symmetries(ppl, budget=None)
        group = list(probes)
        probes.clear()
        report = is_plane_transitive(ppl, budget=None)
        # the tables: the group's own probes, then stabilizer probes, each
        # pinning a whole plane and one pair x < y outside it, never twice
        planes = {ppl.join_mask(1 << p1 | 1 << p2) for p1 in range(ppl.n)
                  for p2 in range(p1 + 1, ppl.n)}
        moved = [_probe_key({**{a: a for a in mask_bits(ppl.join_mask(1 << p1 | 1 << p2))},
                             p: q}) for p, q, p1, p2, _ in witnesses if p != q]
        tables = probes[:len(probes) - len(moved)] if report.transitive else probes
        assert tables[:len(group)] == group or not tables
        stabilizers = tables[len(group):]
        for key in stabilizers:
            fixed = sum(1 << a for a, b in key if a == b)
            ((x, y),) = [(a, b) for a, b in key if a != b]
            assert fixed in planes and x < y and not fixed >> x & 1
        assert len(set(stabilizers)) == len(stabilizers)
        skipped += len(calls) - len(probes)
        assert report.failing_pair == failing
        if report.transitive:
            assert [astuple(w) for w in report.witnesses] == witnesses
            # then one probe per witness, the per-pair scan's successful one
            assert probes[len(tables):] == moved
            assert len(probes) <= len(calls)
        probes.clear()
        verdict = is_plane_transitive(ppl, budget=None, witnesses=False)
        assert probes == tables
        assert (verdict.transitive, verdict.failing_pair) == (report.transitive, failing)
        assert verdict.witnesses is None

        calls, order = _per_target_count_probes(ppl)
        probes.clear()
        assert count_symmetries(ppl, budget=None) == order
        assert not Counter(probes) - Counter(calls)
        skipped += len(calls) - len(probes)
    assert skipped > 0


def test_orbit_record_keeps_classes_apart_through_merges(probes):
    # an orthogonal pair {a, e} next to an orthogonal triangle {b, c, d}:
    # the orbits are {a, e} and {b, c, d}
    ss = O.StateSpace(("a", "b", "c", "d", "e"),
                      O.OrthoRelation.from_pairs(5, [(0, 4), (1, 2), (1, 3), (2, 3)]))
    ppl = O.property_lattice(ss)
    sigs = _atom_signatures(ppl)
    rec = _Orbits(ppl.n)
    assert rec.probe(ppl, {0: 1}, 0, 1, _Budget(None), sigs) is None
    assert probes == [((0, 1),)]
    rec.merge((4, 2, 1, 3, 0))  # swaps a with e and b with c
    assert rec.cls[0] == rec.cls[4] == 0b10001
    assert rec.cls[1] == rec.cls[2] == 0b00110
    for p, q in [(0, 2), (4, 1), (4, 2), (2, 4), (1, 0)]:
        probes.clear()
        assert rec.probe(ppl, {p: q}, p, q, _Budget(None), sigs) is None
        assert probes == []  # known apart: no search
    assert rec.probe(ppl, {1: 3}, 1, 3, _Budget(None), sigs) == (0, 3, 1, 2, 4)
    assert rec.cls[3] == 0b01110
    assert rec.apart[3] & rec.cls[4] and rec.apart[4] & rec.cls[3]
    with pytest.raises(InvariantViolationError):
        rec.merge((1, 0, 2, 3, 4))  # joins classes a probe found apart


def test_orbit_records_answer_where_per_pair_probes_ran_out(mo3):
    # it used up a 1M-node budget when every pair got its own probe
    mo3_ppl = O.property_lattice(mo3)
    assert count_symmetries(O.minimal_product(mo3_ppl, mo3_ppl), budget=1_000_000) \
        == 2 * 48 ** 2


# ---------------------------------------------------------------------------
# pair-join colours and meet-irreducible closed sets

def test_meet_irreducibles_match_oracle(random_batch):
    ppls = [O.property_lattice(ss) for ss in random_batch]
    for ppl in ppls + _small_products() + _random_families():
        fam = ora.family_to_sets(ppl.cs.masks)
        assert {ora.mask_to_set(m) for m in ppl.cs.meet_irreducibles} == \
            ora.meet_irreducibles(fam)


def test_meet_irreducibles_below_the_coatoms_are_checked():
    # complete orthogonality, so only closed sets tell symmetries apart;
    # swapping a with d and b with e keeps every coatom and every pair
    # join size, but sends the meet-irreducible {c, d, f} to {a, c, f}
    masks = [0b0, 0b1, 0b10, 0b100, 0b1000, 0b10000, 0b100000, 0b101, 0b1001,
             0b1100, 0b100001, 0b100100, 0b101000, 0b1101, 0b101001, 0b101100,
             0b101110, 0b110101, 0b111111]
    ss = O.boolean_space(6)
    ppl = O.PPL(O.ClosureSystem(6, masks), ss.orth, ss.labels)
    assert 0b101100 in ppl.cs.meet_irreducibles
    got = list(enumerate_symmetries(ppl))
    assert got == ora.all_symmetries(*_orth_and_family(ppl)) == \
        [(0, 1, 2, 3, 4, 5), (0, 1, 5, 3, 4, 2)]
    assert count_symmetries(ppl) == 2


def test_pair_colours_are_kept_by_every_symmetry(mo3_ppl, random_batch):
    ppls = [mo3_ppl] + [O.property_lattice(ss) for ss in random_batch if ss.n <= 5]
    for ppl in ppls + _small_products() + _random_families():
        colour, parts, alike = _atom_signatures(ppl)
        n = ppl.n
        orth, fam = _orth_and_family(ppl)
        named = {}  # colour number -> (a ⊥ b, |join{a, b}|)
        for a in range(n):
            assert colour[a][a] == 0 and parts[a][0] == 1 << a and alike[a] >> a & 1
            seen = 0
            for c, part in enumerate(parts[a]):
                assert not part & seen  # the colour classes are disjoint
                seen |= part
                assert all(colour[a][b] == c for b in mask_bits(part))
            assert seen == (1 << n) - 1  # and cover every atom, the largest class too
            for b in range(n):
                if b != a:
                    key = (b in orth[a], len(ora.family_join(fam, frozenset([a]), frozenset([b]))))
                    assert named.setdefault(colour[a][b], key) == key
        assert len(set(named.values())) == len(named)
        for f in ora.all_symmetries(orth, fam):
            assert all(alike[a] >> f[a] & 1 for a in range(n))
            assert all(colour[a][b] == colour[f[a]][f[b]] for a in range(n) for b in range(n))


# ---------------------------------------------------------------------------
# frontier rows: products of lanterns that ran out of budget before

def test_separated_squares_of_lanterns_count_their_symmetries(mo3):
    # each factor's group, squared, and the swap of the two factors
    assert count_symmetries(O.property_lattice(O.separated_product(mo3, mo3)),
                            budget=1_000_000) == 2 * 48 ** 2 == 4_608
    mo4 = O.mo_lantern(4)
    assert count_symmetries(O.property_lattice(O.separated_product(mo4, mo4)),
                            budget=1_000_000) == 2 * 384 ** 2 == 294_912


def test_separated_square_of_mo3_is_plane_transitive(mo3, mo3_ppl):
    # the factor is not plane transitive, the product is
    assert not is_plane_transitive(mo3_ppl).transitive
    prod = O.property_lattice(O.separated_product(mo3, mo3))
    report = is_plane_transitive(prod)
    assert report.transitive
    assert len(report.witnesses) == 36 * 36 == 1_296
    orth, fam = _orth_and_family(prod)
    for w in report.witnesses:
        assert ora.is_plane_witness(orth, fam, astuple(w))
