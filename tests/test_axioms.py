"""Axiom checkers against exhaustive oracles, plus certificate replays."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthlab as O
from orthlab import axioms
from orthlab.axioms import (
    SUITE_AXIOMS,
    check_boolean,
    check_covering_law,
    check_irreducible,
    check_orthomodular,
    find_compatible_orthocomplementation,
)
from orthlab.statespace import is_biorthogonal_family

import oracles as ora


def _oracle_world(ppl):
    """The (orthogonality dict, family, perp-complement map) of a lattice."""
    orth = ora.rows_to_dict(ppl.orth.rows)
    fam = ora.family_to_sets(ppl.cs.masks)
    complement = {m: ora.perp(orth, m) for m in fam}
    return orth, fam, complement


def _perp_ids(ppl):
    """The id of each element's perp; KeyError if some perp is not closed."""
    cs, orth = ppl.cs, ppl.orth
    index = {m: i for i, m in enumerate(cs.masks)}
    return tuple(index[orth.perp_mask(m)] for m in cs.masks)


def _perp_map_as_sets(ppl):
    masks = ppl.cs.masks
    return {ora.mask_to_set(m): ora.mask_to_set(masks[j])
            for m, j in zip(masks, _perp_ids(ppl))}


# ---------------------------------------------------------------------------
# orthocomplementation: the forced candidate vs brute involution search

def test_lantern_orthocomplementation_is_the_expected_map(mo2_ppl):
    report = find_compatible_orthocomplementation(mo2_ppl)
    assert report.axiom == "orthocomplementation"
    assert report.holds and report.certificate is None
    assert report.stats.checked == len(mo2_ppl.cs)
    assert _perp_ids(mo2_ppl) == (5, 3, 4, 1, 2, 0)


def _small_pairs(random_batch):
    """Unordered pairs (repeats allowed) of the distinct random spaces on at most 4 states."""
    spaces = list({ss.orth.rows: ss for ss in random_batch if ss.n <= 4}.values())
    return [(a, b) for i, a in enumerate(spaces) for b in spaces[i:]]


def test_forced_candidate_agrees_with_brute_search(b2_ppl, b3_ppl, mo2_ppl, random_batch):
    # every subset of the lantern's atoms closed: the perps are members, but
    # {a1,a2} is not fixed by double perp
    powerset = O.PPL(O.ClosureSystem(4, range(16)), mo2_ppl.orth, mo2_ppl.labels)
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
        report = find_compatible_orthocomplementation(ppl)
        if not report.holds:
            kinds.add(report.certificate.kind)
            assert found == []
            assert report.stats.checked == 0
        else:
            # compatibility forces uniqueness; brute search must agree exactly
            assert len(found) == 1
            assert _perp_map_as_sets(ppl) == found[0]
    assert kinds == {"atom-row-not-closed", "not-involutive"}


def test_complement_of_a_property_lattice_is_perp(random_batch):
    # no scan runs on a biorthogonal lattice, so check the perp map the
    # verdict stands for, lattices of more than 16 members included
    lattices = [O.property_lattice(ss) for ss in random_batch]
    lattices += [O.property_lattice(O.boolean_space(k)) for k in range(1, 6)]
    lattices += [O.property_lattice(O.mo_lantern(k)) for k in range(2, 5)]
    lattices += [O.parse_ppl(O.serialize_ppl(ppl)) for ppl in lattices]
    assert all(ppl.biorthogonal for ppl in lattices)
    assert max(len(ppl.cs) for ppl in lattices) > 16
    for ppl in lattices:
        assert find_compatible_orthocomplementation(ppl).holds
        _, _, complement = _oracle_world(ppl)
        masks, mapping = ppl.cs.masks, _perp_ids(ppl)
        assert {ora.mask_to_set(masks[i]): ora.mask_to_set(masks[j])
                for i, j in enumerate(mapping)} == complement
        assert all(mapping[j] == i for i, j in enumerate(mapping))


def test_minimal_product_has_no_orthocomplementation(b2_ppl):
    prod = O.minimal_product(b2_ppl, b2_ppl)
    report = find_compatible_orthocomplementation(prod)
    assert not report.holds
    cert = report.certificate
    assert cert.kind == "atom-row-not-closed"
    orth, fam, _ = _oracle_world(prod)
    assert ora.replay_no_complement(fam, orth)


def test_certificate_part_lookup(b2_ppl):
    cert = find_compatible_orthocomplementation(O.minimal_product(b2_ppl, b2_ppl)).certificate
    assert cert.part("atom").bits == 0b0001
    with pytest.raises(KeyError):
        cert.part("nonexistent")


def test_orthocomplementation_requires_valid_input():
    # the ppl is refused when it is made, so no invalid one reaches the checker
    cs = O.ClosureSystem(2, [0b00, 0b01, 0b10, 0b11])
    with pytest.raises(O.InvalidInstanceError):
        O.PPL(cs, O.OrthoRelation(2, (0, 0)), ("a", "b"))  # T1, not separating


def _t1_ppls(seed, count):
    """Seeded T1 ppl's whose families mostly differ from the double-perp family.

    Each family is the meet closure of a few random masks, the singletons,
    the empty set and a random subset of the perp rows of a random space.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = 2 + len(out) % 6
        try:
            ss = O.random_space(n, rng.choice((0.3, 0.5, 0.7)), rng.getrandbits(32))
        except O.CouldNotSeparateError:
            continue
        gens = [rng.getrandbits(n) for _ in range(rng.randrange(4))]
        gens += [1 << p for p in range(n)] + [0]
        gens += [row for row in ss.orth.rows if rng.random() < 0.5]
        out.append(O.PPL(O.meet_closure(gens, n), ss.orth, ss.labels))
    return out


def test_complement_exists_exactly_on_the_double_perp_family():
    # every perp is a meet of closed rows once the rows are closed, so
    # only the two remaining failure kinds can show
    kinds, holds, brute = set(), 0, 0
    for ppl in _t1_ppls(11, 1000):
        report = find_compatible_orthocomplementation(ppl)
        assert report.holds == is_biorthogonal_family(ppl.cs, ppl.orth)
        if report.holds:
            holds += 1
        else:
            kinds.add(report.certificate.kind)
        if len(ppl.cs) <= 16:
            brute += 1
            orth, fam, _ = _oracle_world(ppl)
            assert report.holds == bool(ora.all_orthocomplementations(fam, orth))
    assert kinds == {"atom-row-not-closed", "not-involutive"}
    assert 0 < holds < 1000 and brute > 0


def test_complement_checkers_need_a_complement(b2_ppl):
    prod = O.minimal_product(b2_ppl, b2_ppl)
    for check in (check_orthomodular, check_boolean, check_irreducible):
        with pytest.raises(ValueError):
            check(prod)


def test_complement_checkers_validate_other_families():
    # the ppl is refused when it is made, so no invalid one reaches the checkers
    cs = O.ClosureSystem(2, [0b00, 0b01, 0b10, 0b11])
    with pytest.raises(O.InvalidInstanceError):
        O.PPL(cs, O.OrthoRelation(2, (0b01, 0b10)), ("a", "b"))  # each atom self-orthogonal


def test_complement_guard_scans_without_the_public_checker(mo2_ppl, monkeypatch):
    # the double-perp family given without the biorthogonal mark, so the
    # guard scans; the public checker must not run (and be counted)
    ppl = O.PPL(mo2_ppl.cs, mo2_ppl.orth, mo2_ppl.labels)
    assert not ppl.biorthogonal
    monkeypatch.setattr(axioms, "find_compatible_orthocomplementation", _raise)
    assert check_orthomodular(ppl).holds
    assert not check_boolean(ppl).holds
    assert check_irreducible(ppl).holds


def test_complement_guard_builds_no_index_on_a_property_lattice(mo2):
    ppl = O.property_lattice(O.separated_product(mo2, mo2))
    assert not check_orthomodular(ppl).holds
    assert "_index" not in vars(ppl.cs)


# ---------------------------------------------------------------------------
# orthomodularity

def test_orthomodular_holds_on_catalog(b3_ppl, b4_ppl, mo2_ppl, mo3_ppl):
    for ppl in (b3_ppl, b4_ppl, mo2_ppl, mo3_ppl):
        report = check_orthomodular(ppl)
        assert report.holds and report.certificate is None
        assert report.stats.checked > 0


def test_orthomodular_fails_on_the_separated_lantern_square(mo2):
    ppl = O.property_lattice(O.separated_product(mo2, mo2))
    report = check_orthomodular(ppl)
    assert not report.holds
    cert = report.certificate
    assert cert.kind == "orthomodularity"
    _, fam, complement = _oracle_world(ppl)
    assert ora.replay_orthomodular(
        fam, complement,
        ora.mask_to_set(cert.part("a").bits),
        ora.mask_to_set(cert.part("b").bits),
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
        assert find_compatible_orthocomplementation(ppl).holds
        _, fam, complement = _oracle_world(ppl)
        violations = ora.orthomodular_violations(fam, complement)
        report = check_orthomodular(ppl)
        assert report.holds == (not violations)
        if not report.holds:
            failures += 1
            cert = report.certificate
            a, b = min(violations, key=lambda ab: (_key(ab[0]), _key(ab[1])))
            assert ora.mask_to_set(cert.part("a").bits) == a
            assert ora.mask_to_set(cert.part("b").bits) == b
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
    lattices = _law_holding_lattices()
    for ppl in lattices:  # a family not yet built is first scanned on its T1 prefix, by joins
        assert ppl.cs
    for ppl in lattices:
        monkeypatch.setattr(ppl, "join_mask", _raise)
        assert check_orthomodular(ppl).holds


def test_orthomodular_bitmap_failure_walks_again_from_the_bottom(monkeypatch):
    # the prefix scan is made to pass, so the bitmaps find the failure and the
    # exact scan must still report the first one, which lies in that prefix
    real = axioms._orthomodular_failure
    for j, k in ((2, 2), (2, 3), (3, 3)):
        def make(j=j, k=k):
            return O.property_lattice(O.separated_product(O.mo_lantern(j), O.mo_lantern(k)))
        plain = check_orthomodular(make())
        assert not plain.holds
        hidden = iter(range(make().n + 1))
        monkeypatch.setattr(axioms, "_orthomodular_failure",
                            lambda *args: None if next(hidden, None) is not None else real(*args))
        assert check_orthomodular(make()) == plain
        assert next(hidden, None) is None  # the prefix did pass


# ---------------------------------------------------------------------------
# covering law

def test_covering_holds_on_catalog(b3_ppl, b4_ppl, mo2_ppl, mo3_ppl):
    for ppl in (b3_ppl, b4_ppl, mo2_ppl, mo3_ppl):
        assert check_covering_law(ppl).holds


def test_covering_fails_on_the_minimal_product_with_frozen_certificate(b2_ppl):
    prod = O.minimal_product(b2_ppl, b2_ppl)
    report = check_covering_law(prod)
    assert not report.holds
    cert = report.certificate
    assert cert.kind == "covering-law"
    # atom (b,b); element {(a,a)}; join is everything; {(a,a),(a,b)} sits between
    assert cert.part("p").bits == 0b1000
    assert cert.part("a").bits == 0b0001
    assert cert.part("join").bits == 0b1111
    assert cert.part("between").bits == 0b0011
    _, fam, _ = _oracle_world(prod)
    assert ora.replay_covering(
        fam,
        ora.mask_to_set(0b1000), ora.mask_to_set(0b0001),
        ora.mask_to_set(0b1111), ora.mask_to_set(0b0011))


def test_covering_agrees_with_oracle(random_batch):
    lattices = [O.property_lattice(ss) for ss in random_batch]
    for a, b in _small_pairs(random_batch):
        lattices.append(O.minimal_product(O.property_lattice(a), O.property_lattice(b)))
        lattices.append(O.property_lattice(O.separated_product(a, b)))
    lattices += _t1_ppls(3, 60)
    failures = 0
    for ppl in lattices:
        fam = ora.family_to_sets(ppl.cs.masks)
        violations = ora.covering_violations(fam)
        report = check_covering_law(ppl)
        assert report.holds == (not violations)
        if not report.holds:
            failures += 1
            cert = report.certificate
            p, a = min(violations, key=lambda pa: (_key(pa[1]), _key(pa[0])))
            join = ora.family_join(fam, a, p)
            between = min((m for m in fam if a < m < join), key=_key)
            got = [ora.mask_to_set(cert.part(k).bits) for k in ("p", "a", "join", "between")]
            assert got == [p, a, join, between]
    assert 0 < failures < len(lattices)


def test_covering_needs_a_t1_family():
    # lattice atoms {0,1,2} and {0,3} over the bottom {0}: no ppl has this family
    cs = O.ClosureSystem(5, [0b00001, 0b00111, 0b01001, 0b01111, 0b11111])
    with pytest.raises(ValueError, match="T1"):
        O.PPL(cs, O.OrthoRelation.from_pairs(5, []), tuple("abcde"))


def test_covering_verdict_needs_no_cover_scan_where_the_law_holds(monkeypatch):
    lattices = _law_holding_lattices()
    monkeypatch.setattr(axioms, "mask_bits", _raise)  # the per-atom scan's bit walk
    for ppl in lattices:
        assert check_covering_law(ppl).holds


# ---------------------------------------------------------------------------
# distributivity / Boolean check

def test_boolean_verdicts_on_catalog(b2_ppl, b3_ppl, mo2_ppl):
    for ppl, expected in ((b2_ppl, True), (b3_ppl, True), (mo2_ppl, False)):
        report = check_boolean(ppl)
        assert report.holds == expected


def test_boolean_failure_certificate_replays(mo2_ppl):
    cert = check_boolean(mo2_ppl).certificate
    assert cert.kind == "distributivity"
    _, fam, _ = _oracle_world(mo2_ppl)
    assert ora.replay_distributivity(
        fam,
        ora.mask_to_set(cert.part("x").bits),
        ora.mask_to_set(cert.part("y").bits),
        ora.mask_to_set(cert.part("z").bits))


def test_boolean_agrees_with_oracle(random_batch):
    lattices = [O.property_lattice(ss) for ss in random_batch if ss.n <= 4]
    lattices += [O.property_lattice(O.separated_product(a, b))
                 for a, b in _small_pairs(random_batch)]
    failures = 0
    for ppl in lattices:
        if len(ppl.cs) > 16:
            continue
        fam = ora.family_to_sets(ppl.cs.masks)
        report = check_boolean(ppl)
        assert report.holds == ora.is_distributive(fam)
        if not report.holds:
            failures += 1
            cert = report.certificate
            assert cert.kind == "distributivity"
            assert ora.replay_distributivity(
                fam, *(ora.mask_to_set(cert.part(k).bits) for k in "xyz"))
    assert failures > 0


def test_boolean_verdict_needs_no_probe_once_the_family_is_read(monkeypatch, b3):
    # the complete orthogonality graph decides a Boolean family, read or not
    lattices = [O.property_lattice(O.boolean_space(6)), O.property_lattice(b3)]
    lattices.append(O.PPL(lattices[1].cs, b3.orth, b3.labels))  # not marked biorthogonal
    for ppl in lattices:
        assert ppl.cs
    monkeypatch.setattr(axioms, "_distributivity_failure", _raise)  # the probes
    for ppl in lattices:
        report = check_boolean(ppl)
        assert (report.holds, report.stats.checked) == (True, ppl.n << (ppl.n - 1))


# ---------------------------------------------------------------------------
# irreducibility and triviality

def test_lanterns_are_irreducible(mo2_ppl, mo3_ppl):
    for ppl in (mo2_ppl, mo3_ppl):
        assert check_irreducible(ppl).holds


def test_boolean_square_splits(b2_ppl):
    report = check_irreducible(b2_ppl)
    assert not report.holds
    cert = report.certificate
    assert cert.kind == "central-element"
    assert cert.part("z").bits == 0b01  # the singleton {a} is central


def test_irreducible_agrees_with_oracle(random_batch):
    for ss in random_batch:
        ppl = O.property_lattice(ss)
        if len(ppl.cs) > 20:
            continue
        _, fam, complement = _oracle_world(ppl)
        central = ora.central_elements(fam, complement)
        bot, top = frozenset(), frozenset(range(ss.n))
        nontrivial = sorted(central - {bot, top}, key=lambda z: (len(z), ora.set_to_mask(z)))
        report = check_irreducible(ppl)
        assert report.holds == (not nontrivial)
        if not report.holds:
            assert ora.mask_to_set(report.certificate.part("z").bits) == nontrivial[0]


# ---------------------------------------------------------------------------
# families built on first read: a fresh ppl reports as one whose family is read

CHECKERS = (find_compatible_orthocomplementation, check_orthomodular, check_covering_law,
            check_boolean, check_irreducible)


def _outcome(check, ppl):
    """Verdict, certificate and count of ``check`` on ``ppl``, or the error it raises."""
    try:
        report = check(ppl)
    except ValueError as exc:
        return type(exc)
    return report.holds, report.certificate, report.stats.checked


def _fresh_failures(make):
    """Check that every checker reports the same on a fresh ``make()`` as on
    one whose family was read first; the checkers that failed it unread."""
    early = set()
    for check in CHECKERS:
        fresh, read = make(), make()
        assert read.cs and not fresh.has_family
        got = _outcome(check, fresh)
        assert got == _outcome(check, read)
        if not fresh.has_family and isinstance(got, tuple) and not got[0]:
            early.add(check)
    return early


def _lazily(ppl):
    """A maker of ppl's with ``ppl``'s family and joins, the family unread."""
    cs = ppl.cs
    return lambda: O.PPL(lambda: cs, ppl.orth, ppl.labels, join=cs.closure_mask)


def test_checkers_report_alike_before_and_after_the_family_is_read(random_batch):
    makers = [lambda ss=ss: O.property_lattice(ss) for ss in random_batch]
    for a, b in _small_pairs(random_batch):
        makers.append(lambda a=a, b=b: O.property_lattice(O.separated_product(a, b)))
        makers.append(lambda a=a, b=b: O.minimal_product(O.property_lattice(a),
                                                         O.property_lattice(b)))
    makers += [lambda args=args: O.property_lattice(O.random_space(*args))
               for args in LATE_CRITERION]
    t1 = _t1_ppls(23, 120)
    makers += [_lazily(ppl) for ppl in t1]
    makers += [lambda a=a, b=b: O.minimal_product(a, b) for a, b in zip(t1[:40], t1[40:80])
               if a.n * b.n <= 16]
    early = set().union(*map(_fresh_failures, makers))
    assert early == set(CHECKERS)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.lists(st.integers(0, 63), max_size=6), st.integers(0, 10 ** 6),
       st.sampled_from((0.3, 0.5, 0.7)))
def test_checkers_report_alike_on_hypothesis_families(n, gens, seed, density):
    try:
        ss = O.random_space(n, density, seed)
    except O.CouldNotSeparateError:
        return
    rows = [row for p, row in enumerate(ss.orth.rows) if seed >> p & 1]
    masks = [g & ((1 << n) - 1) for g in gens] + rows + [1 << p for p in range(n)] + [0]
    _fresh_failures(_lazily(O.PPL(O.meet_closure(masks, n), ss.orth, ss.labels)))


# ---------------------------------------------------------------------------
# every separating relation on at most 6 states, against the oracles


def _walked(fam, a, n):
    """``checked`` of a walk up to and including element a: Σ (n - |e|) over e."""
    return sum(n - len(e) for e in fam if _key(e) <= _key(a))


def _first_probe(fam, n):
    """The canonically first (a, s) with a closed and a ∪ {s} not, and the
    lowest atom x of the closure of a ∪ {s} outside it."""
    for a in sorted(fam, key=_key):
        for s in range(n):
            joined = a | {s}
            if s not in a and joined not in fam:
                return min(ora.family_closure(fam, joined) - joined), a, s


def _oracle_outcomes(rows, n):
    """The (holds, certificate parts as sets, checked) each checker must report."""
    orth = ora.rows_to_dict(rows)
    fam = ora.family_to_sets(ora.closed_masks_brute(rows, n))
    complement = {m: ora.perp(orth, m) for m in fam}
    everything = sum(n - len(e) for e in fam)
    out = {"orthocomplementation": (True, None, len(fam))}

    violations = ora.orthomodular_violations(fam, complement)
    if violations:
        a, b = min(violations, key=lambda ab: (_key(ab[0]), _key(ab[1])))
        rebuilt = ora.family_join(fam, a, b & complement[a])
        out["orthomodular"] = (False, {"a": a, "b": b, "rebuilt": rebuilt}, _walked(fam, a, n))
    else:
        out["orthomodular"] = (True, None, everything)

    violations = ora.covering_violations(fam)
    if violations:
        p, a = min(violations, key=lambda pa: (_key(pa[1]), _key(pa[0])))
        join = ora.family_join(fam, a, p)
        between = min((m for m in fam if a < m < join), key=_key)
        out["covering"] = (False, {"p": p, "a": a, "join": join, "between": between},
                           _walked(fam, a, n))
    else:
        out["covering"] = (True, None, everything)

    if len(fam) == 1 << n:
        out["boolean"] = (True, None, everything)
    else:
        x, y, z = _first_probe(fam, n)
        assert ora.replay_distributivity(fam, frozenset({x}), y, frozenset({z}))
        out["boolean"] = (False, {"x": {x}, "y": y, "z": {z}}, _walked(fam, y, n))

    central = ora.central_elements(fam, complement) - {frozenset(), frozenset(range(n))}
    out["irreducible"] = (True, None, n) if not central else \
        (False, {"z": min(central, key=_key)}, n)
    return out


def test_checkers_agree_with_oracles_on_every_small_separating_relation():
    counts = [len(ora.separating_relations(n)) for n in range(1, 7)]
    assert counts == [1, 1, 1, 4, 38, 1148]
    checkers = dict(zip(SUITE_AXIOMS, CHECKERS))
    failed = set()
    for n in range(1, 7):
        labels = tuple(f"s{p}" for p in range(n))
        for rows in ora.separating_relations(n):
            ss = O.StateSpace(labels, O.OrthoRelation(n, rows))
            read = O.property_lattice(ss)
            assert read.cs.masks == ora.closed_masks_brute(rows, n)
            for axiom, want in _oracle_outcomes(rows, n).items():
                report = checkers[axiom](O.property_lattice(ss))  # the family not yet built
                cert = report.certificate
                got = (report.holds, cert and {k: ora.mask_to_set(v.bits) for k, v in cert.parts},
                       report.stats.checked)
                assert got == want, (axiom, rows)
                assert _outcome(checkers[axiom], read) == (report.holds, cert, got[2])
                if not report.holds:
                    failed.add(axiom)
    assert failed == set(SUITE_AXIOMS[1:])
