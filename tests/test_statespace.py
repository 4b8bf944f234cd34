"""State spaces, the perp operator, and property-lattice construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthlab as O
from orthlab.errors import CapacityError, InvalidInstanceError
from orthlab.statespace import OrthoRelation, PPL, StateSpace, is_biorthogonal_family

import oracles as ora


# ---------------------------------------------------------------------------
# relation construction and the axiom probes

def test_from_pairs_symmetrizes():
    o = OrthoRelation.from_pairs(3, [(0, 1)])
    assert o.orthogonal(0, 1) and o.orthogonal(1, 0)
    assert not o.orthogonal(0, 2)
    assert list(o.pairs()) == [(0, 1)]


def test_from_pairs_rejects_self_orthogonality():
    with pytest.raises(ValueError):
        OrthoRelation.from_pairs(2, [(1, 1)])


def test_from_pairs_rejects_out_of_range():
    with pytest.raises(ValueError):
        OrthoRelation.from_pairs(2, [(0, 2)])


def test_axiom_probe_witnesses():
    reflexive = OrthoRelation(1, (0b1,))
    assert reflexive.antireflexive_failure() == (0,)

    asymmetric = OrthoRelation(2, (0b10, 0b00))
    assert asymmetric.symmetric_failure() == (0, 1)

    # rows[0] contained in rows[1]: no state separates 0 from 1
    blurred = OrthoRelation.from_pairs(3, [(0, 2), (1, 2)])
    assert blurred.separation_failure() == (0, 1)

    valid = OrthoRelation.from_pairs(2, [(0, 1)])
    assert valid.antireflexive_failure() is None
    assert valid.symmetric_failure() is None
    assert valid.separation_failure() is None


def test_separation_matches_row_containment_oracle(random_batch):
    for ss in random_batch:
        assert ora.is_separating(ora.rows_to_dict(ss.orth.rows))
        assert ss.orth.separation_failure() is None


def test_validate_state_space_reports_by_name():
    with pytest.raises(InvalidInstanceError) as err:
        StateSpace(("x", "y", "z"), OrthoRelation.from_pairs(3, [(0, 2), (1, 2)]))
    report = err.value.report
    assert not report.ok
    assert [c.name for c in report.failures()] == ["separating"]


def test_every_way_to_build_refuses_an_invalid_relation_with_the_oracle_report():
    # every relation on at most 3 atoms, as raw rows; the parsers read only
    # the symmetric, antireflexive ones, which a document can state
    def builder():
        raise AssertionError("the family builder ran")

    refused = 0
    for n in range(1, 4):
        labels = tuple("abc"[:n])
        powerset = O.ClosureSystem(n, range(1 << n))
        for code in range(1 << n * n):
            rows = tuple(code >> n * p & (1 << n) - 1 for p in range(n))
            orth = OrthoRelation(n, rows)
            expected = [(name, w is None, w)
                        for name, w in ora.axiom_witnesses(ora.rows_to_dict(rows))]
            builds = {"StateSpace": lambda: StateSpace(labels, orth),
                      "PPL family": lambda: PPL(powerset, orth, labels),
                      "PPL builder": lambda: PPL(builder, orth, labels)}
            if expected[0][1] and expected[1][1]:
                atoms = "atoms " + " ".join(labels) + "\n"
                atoms += "".join(f"orth {labels[p]} {labels[q]}\n" for p, q in orth.pairs())
                builds["parse_statespace"] = lambda: O.parse_statespace("statespace v1\n" + atoms)
                builds["parse_ppl"] = lambda: O.parse_ppl("ppl v1\n" + atoms)
            for how, build in builds.items():
                t1 = [("t1", True, None)] if "ppl" in how.lower() else []
                if all(ok for _, ok, _ in expected):
                    report = build().validate()
                else:
                    with pytest.raises(InvalidInstanceError) as err:
                        build()
                    report, refused = err.value.report, refused + 1
                    assert err.value.labels == labels
                    assert str(err.value) == "; ".join(
                        f"{name} fails (witness {' '.join(labels[i] for i in w)})"
                        for name, ok, w in expected if not ok)
                assert [(c.name, c.ok, c.witness) for c in report.checks] == expected + t1, how
    assert refused > 1000
    # without labels the message shows the witness's indices
    report = O.ValidationReport(OrthoRelation(2, (0, 0)).checks)
    assert str(InvalidInstanceError(report)) == "separating fails (witness (0, 1))"


def test_state_space_shape_checks():
    with pytest.raises(ValueError):
        StateSpace(("a",), OrthoRelation.from_pairs(2, [(0, 1)]))
    with pytest.raises(ValueError):
        StateSpace(("a", "a"), OrthoRelation.from_pairs(2, [(0, 1)]))


# ---------------------------------------------------------------------------
# perp and biorthogonal closure

def test_perp_worked_example(mo2):
    # lantern pairs: a1-b1, a2-b2
    perp = mo2.orth.perp_mask
    a1 = 0b0001
    assert perp(a1) == 0b0100
    assert perp(0b0011) == 0
    assert perp(0) == 0b1111
    assert perp(perp(a1)) == a1


@given(st.integers(1, 8), st.sampled_from((0.3, 0.5, 0.7)),
       st.integers(0, 10 ** 6), st.integers(0, (1 << 8) - 1),
       st.integers(0, (1 << 8) - 1))
@settings(max_examples=60, deadline=None)
def test_galois_laws(n, density, seed, xbits, ybits):
    ss = O.random_space(n, density, seed)
    perp = ss.orth.perp_mask
    full = (1 << n) - 1
    x, y = xbits & full, (xbits | ybits) & full
    # x <= y, so perp is antitone and double perp is a closure operator
    assert perp(y) & ~perp(x) == 0
    cx = perp(perp(x))
    assert x & ~cx == 0
    assert perp(perp(cx)) == cx
    assert perp(cx) == perp(x)
    # against the set-based oracle
    orth = ora.rows_to_dict(ss.orth.rows)
    assert ora.mask_to_set(perp(x)) == ora.perp(orth, ora.mask_to_set(x))
    assert ora.mask_to_set(cx) == ora.double_perp(orth, ora.mask_to_set(x))
    # separation makes every singleton closed
    for p in range(n):
        assert perp(perp(1 << p)) == 1 << p


# ---------------------------------------------------------------------------
# property lattices

def test_property_lattice_of_the_lantern(mo2_ppl):
    assert mo2_ppl.cs.masks == (0b0000, 0b0001, 0b0010, 0b0100, 0b1000, 0b1111)
    assert mo2_ppl.labels == ("a1", "a2", "b1", "b2")
    assert mo2_ppl.biorthogonal
    assert mo2_ppl.validate().ok


def test_property_lattice_of_boolean_spaces(b3_ppl):
    assert b3_ppl.cs.masks == tuple(sorted(range(8), key=lambda m: (m.bit_count(), m)))


def test_property_lattice_matches_brute_force(random_batch):
    for ss in random_batch:
        ppl = O.property_lattice(ss)
        orth = ora.rows_to_dict(ss.orth.rows)
        assert ora.family_to_sets(ppl.cs.masks) == ora.closed_sets(orth)
        assert ppl.cs.masks == ora.closed_masks_brute(ss.orth.rows, ss.n)
        PPL(ppl.cs, ss.orth, ss.labels)  # a given family is checked T1 here
        assert ppl.cs.masks[0] == 0  # bottom is always the empty set


def test_brute_force_flavours_agree(random_batch):
    for ss in random_batch[:12]:
        orth = ora.rows_to_dict(ss.orth.rows)
        assert ora.family_to_sets(ora.closed_masks_brute(ss.orth.rows, ss.n)) \
            == ora.closed_sets(orth)


def test_property_lattice_join_is_double_perp(mo2, mo2_ppl):
    for m in range(16):
        direct = mo2_ppl.cs.closure_mask(m)
        assert mo2_ppl.join_mask(m) == direct
        assert mo2.orth.perp_mask(mo2.orth.perp_mask(m)) == direct


def test_biorthogonal_family_is_the_meet_closure_of_the_rows(mo2, mo2_ppl, b2_ppl):
    assert is_biorthogonal_family(mo2_ppl.cs, mo2.orth)
    # more sets than the double-perp family: the closure of the rows ends smaller
    assert not is_biorthogonal_family(O.ClosureSystem(4, range(16)), mo2.orth)
    # fewer: the closure is stopped once it outgrows the 10 rectangles
    prod = O.minimal_product(b2_ppl, b2_ppl)
    assert len(prod.cs) == 10
    assert not is_biorthogonal_family(prod.cs, prod.orth)
    assert is_biorthogonal_family(O.property_lattice(O.boolean_space(4)).cs, prod.orth)


def test_property_lattice_rejects_invalid_space():
    # the space is refused when it is made, so no invalid one reaches property_lattice
    with pytest.raises(InvalidInstanceError):
        StateSpace(("x", "y", "z"), OrthoRelation.from_pairs(3, [(0, 2), (1, 2)]))


def test_property_lattice_family_cap():
    # 2**20 closed sets exceed DEFAULT_FAMILY_CAP; the error comes at the first read
    ppl = O.property_lattice(O.boolean_space(20))
    with pytest.raises(CapacityError, match="exceeds cap of 1000000 sets"):
        ppl.cs


# ---------------------------------------------------------------------------
# hand-built pseudo property lattices

def test_ppl_validate_flags_non_t1_family():
    # T1 is checked when the ppl is made, so no invalid one reaches validate()
    cs = O.ClosureSystem(2, [0b00, 0b11])
    with pytest.raises(ValueError, match="T1"):
        PPL(cs, OrthoRelation.from_pairs(2, [(0, 1)]), ("a", "b"))


def test_ppl_validate_flags_non_separating_orthogonality():
    cs = O.ClosureSystem(2, [0b00, 0b01, 0b10, 0b11])
    with pytest.raises(InvalidInstanceError) as err:
        PPL(cs, OrthoRelation(2, (0, 0)), ("a", "b"))
    assert [c.name for c in err.value.report.failures()] == ["separating"]


def test_ppl_shape_checks(mo2_ppl):
    with pytest.raises(ValueError):
        PPL(mo2_ppl.cs, mo2_ppl.orth, ("a", "b"))
    with pytest.raises(ValueError):
        PPL(mo2_ppl.cs, mo2_ppl.orth, ("a", "a", "b", "c"))


def test_generic_ppl_join_uses_family_closure():
    # an intersection-closed T1 family that is not biorthogonal: joins
    # must still come from the family itself
    cs = O.ClosureSystem(3, [0b000, 0b001, 0b010, 0b100, 0b011, 0b111])
    ppl = PPL(cs, OrthoRelation.from_pairs(3, [(0, 1), (0, 2), (1, 2)]), ("a", "b", "c"))
    assert ppl.join_mask(0b011) == 0b011
    assert ppl.join_mask(0b101) == 0b111
