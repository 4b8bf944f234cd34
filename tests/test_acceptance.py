"""Top-level acceptance suite.

One test per criterion.  Each prints a single line

    ACCEPTANCE NN <name>: PASS|FAIL (<runtime>s, cap <cap>s)

and fails if the checked facts do not hold or the runtime cap is
exceeded.  Every expected value is recomputed here from a
definition-level oracle (``tests/oracles.py``) or pinned from one."""

import time
from contextlib import contextmanager
from dataclasses import astuple

import orthlab as O
from orthlab.axioms import (
    Certificate,
    check_boolean,
    check_covering_law,
    check_irreducible,
    check_orthomodular,
    find_compatible_orthocomplementation,
)
from orthlab.catalog import SplitMix64
from orthlab.cli import main
from orthlab.products import minimal_product, rectangle_family, separated_product
from orthlab.statespace import property_lattice
from orthlab.symmetry import count_symmetries, find_plane_symmetry, is_plane_transitive

import oracles as ora


@contextmanager
def criterion(num: int, name: str, cap: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL ({dt:.2f}s, cap {cap:g}s)")
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt <= cap else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {verdict} ({dt:.2f}s, cap {cap:g}s)")
    if dt > cap:
        raise AssertionError(f"runtime {dt:.2f}s exceeds cap {cap:g}s")


def _bits(part) -> int:
    return part.bits


def _as_set(part) -> frozenset:
    return ora.mask_to_set(_bits(part))


def _complement_dict(ppl) -> dict:
    cs, orth = ppl.cs, ppl.orth
    index = {m: i for i, m in enumerate(cs.masks)}
    return {ora.mask_to_set(m): ora.mask_to_set(cs.masks[index[orth.perp_mask(m)]])
            for m in cs.masks}


def test_01_galois_laws_and_brute_lattice_equality():
    with criterion(1, "galois-laws-and-brute-lattice-equality", 60.0):
        for i in range(1000):
            n = 1 + i % 10
            density = (0.3, 0.5, 0.7)[i % 3]
            ss = O.random_space(n, density, 10_000 + i)
            o = ss.orth
            full = (1 << n) - 1
            assert property_lattice(ss).cs.masks == ora.closed_masks_brute(o.rows, n)
            orth_d = ora.rows_to_dict(o.rows)
            rng = SplitMix64(90_000 + i)
            samples = [0, full] + [1 << t for t in range(n)] \
                + [rng.next_u64() & full for _ in range(4)]
            for m in samples:
                pm = o.perp_mask(m)
                assert pm == ora.set_to_mask(ora.perp(orth_d, ora.mask_to_set(m)))
                ppm = o.perp_mask(pm)
                assert m & ~ppm == 0
                assert o.perp_mask(ppm) == pm
            for a, b in zip(samples, samples[1:]):
                assert o.perp_mask(a | b) & ~o.perp_mask(a) == 0
            for t in range(n):
                assert o.perp_mask(o.perp_mask(1 << t)) == 1 << t
        for n, seed in ((11, 424242), (12, 434343)):
            ss = O.random_space(n, 0.5, seed)
            assert property_lattice(ss).cs.masks == \
                ora.closed_masks_brute(ss.orth.rows, n)


def test_02_two_lantern_axiom_profile(mo2_ppl):
    with criterion(2, "two-lantern-axiom-profile", 1.0):
        cs = mo2_ppl.cs
        assert len(cs) == 6
        oc = find_compatible_orthocomplementation(mo2_ppl)
        assert oc.holds and oc.certificate is None
        assert check_orthomodular(mo2_ppl).holds
        assert check_covering_law(mo2_ppl).holds
        assert not check_boolean(mo2_ppl).holds
        assert check_irreducible(mo2_ppl).holds
        fam = ora.family_to_sets(cs.masks)
        orth_d = ora.rows_to_dict(mo2_ppl.orth.rows)
        comp = _complement_dict(mo2_ppl)
        assert comp in ora.all_orthocomplementations(fam, orth_d)
        assert ora.orthomodular_violations(fam, comp) == set()
        assert ora.covering_violations(fam) == set()
        assert not ora.is_distributive(fam)
        assert ora.central_elements(fam, comp) == {frozenset(), frozenset(range(4))}


def test_03_separated_lantern_product_failures(mo2):
    with criterion(3, "separated-lantern-product-failures", 30.0):
        ppl = property_lattice(separated_product(mo2, mo2))
        assert find_compatible_orthocomplementation(ppl).holds
        om = check_orthomodular(ppl)
        cov = check_covering_law(ppl)
        assert not om.holds
        assert not cov.holds
        fam = ora.family_to_sets(ppl.cs.masks)
        comp = _complement_dict(ppl)
        c = om.certificate
        assert c.kind == "orthomodularity"
        assert ora.replay_orthomodular(fam, comp, _as_set(c.part("a")),
                                       _as_set(c.part("b")),
                                       _as_set(c.part("rebuilt")))
        c = cov.certificate
        assert c.kind == "covering-law"
        assert ora.replay_covering(fam, _as_set(c.part("p")), _as_set(c.part("a")),
                                   _as_set(c.part("join")),
                                   _as_set(c.part("between")))


def test_04_minimal_square_product_failures(b2_ppl):
    with criterion(4, "minimal-square-product-failures", 1.0):
        prod = minimal_product(b2_ppl, b2_ppl)
        assert len(prod.cs) == 10
        oc = find_compatible_orthocomplementation(prod)
        assert not oc.holds and isinstance(oc.certificate, Certificate)
        fam = ora.family_to_sets(prod.cs.masks)
        orth_d = ora.rows_to_dict(prod.orth.rows)
        assert ora.replay_no_complement(fam, orth_d)
        cov = check_covering_law(prod)
        assert not cov.holds
        c = cov.certificate
        assert _bits(c.part("p")) == 0b1000
        assert _bits(c.part("a")) == 0b0001
        assert _bits(c.part("join")) == 0b1111
        assert _bits(c.part("between")) == 0b0011
        assert (frozenset([3]), frozenset([0])) in ora.covering_violations(fam)
        assert ora.replay_covering(fam, frozenset([3]), frozenset([0]),
                                   frozenset(range(4)), frozenset([0, 1]))


def test_05_rectangle_closure_on_catalog_pairs():
    with criterion(5, "rectangle-closure-on-catalog-pairs", 30.0):
        catalog = [property_lattice(sp) for sp in (
            O.boolean_space(1), O.boolean_space(2), O.boolean_space(3),
            O.boolean_space(4), O.boolean_space(5),
            O.mo_lantern(2), O.mo_lantern(3))]
        checked = 0
        for p1 in catalog:
            for p2 in catalog:
                if p1.n * p2.n > 20:
                    continue
                prod = minimal_product(p1, p2)
                assert prod.cs.masks == rectangle_family(p1.cs, p2.cs).masks
                n2 = p2.n
                fam1, fam2 = ora.family_to_sets(p1.cs.masks), ora.family_to_sets(p2.cs.masks)
                for family in (ora.rectangles(fam1, fam2),
                               ora.minimal_product_family(fam1, fam2, p1.n, n2)):
                    oracle = {sum(1 << (a * n2 + b) for a, b in s) for s in family}
                    assert set(prod.cs.masks) == oracle
                checked += 1
        assert checked == 41


def test_06_plane_transitivity_ground_truth(b2_ppl, b3_ppl, b4_ppl, mo2_ppl,
                                            mo3_ppl):
    with criterion(6, "plane-transitivity-ground-truth", 10.0):
        b5_ppl = property_lattice(O.boolean_space(5))
        cases = [(b2_ppl, False), (b3_ppl, False), (b4_ppl, True),
                 (b5_ppl, True), (mo2_ppl, False), (mo3_ppl, False)]
        for ppl, expect in cases:
            report = is_plane_transitive(ppl)
            assert report.transitive is expect
            fam = ora.family_to_sets(ppl.cs.masks)
            orth_d = ora.rows_to_dict(ppl.orth.rows)
            assert ora.is_plane_transitive_brute(orth_d, fam) is expect
            if expect:
                assert len(report.witnesses) == ppl.n * ppl.n
                assert all(ora.is_plane_witness(orth_d, None, astuple(w))
                           for w in report.witnesses)
            else:
                first = next((p, q) for p in range(ppl.n) for q in range(ppl.n)
                             if ora.exists_plane_symmetry(orth_d, fam, p, q)
                             is None)
                assert report.failing_pair == first


def _check_all_product_witnesses(ppl1, ppl2, prod, *, family_oracle: bool) -> int:
    n2 = ppl2.n
    fam = ora.family_to_sets(prod.cs.masks) if family_oracle else None
    orth_d = ora.rows_to_dict(prod.orth.rows)
    cache1, cache2 = {}, {}
    checked = 0
    for p in range(prod.n):
        for q in range(prod.n):
            i1, j1 = divmod(p, n2)
            i2, j2 = divmod(q, n2)
            w1 = cache1.setdefault((i1, i2), find_plane_symmetry(ppl1, i1, i2))
            w2 = cache2.setdefault((j1, j2), find_plane_symmetry(ppl2, j1, j2))
            assert w1 is not None and w2 is not None
            w = ora.product_plane_witness(astuple(w1), astuple(w2))
            assert w[:2] == (p, q)
            assert ora.is_plane_witness(orth_d, fam, w)
            checked += 1
    return checked


def test_07_minimal_product_plane_witnesses(b4_ppl):
    with criterion(7, "minimal-product-plane-witnesses", 60.0):
        b5_ppl = property_lattice(O.boolean_space(5))
        for ppl2, expected_pairs in ((b4_ppl, 256), (b5_ppl, 400)):
            prod = minimal_product(b4_ppl, ppl2)
            assert _check_all_product_witnesses(b4_ppl, ppl2, prod,
                                                family_oracle=True) == expected_pairs


def test_08_separated_product_plane_witnesses(b4, b4_ppl):
    with criterion(8, "separated-product-plane-witnesses", 120.0):
        prod = property_lattice(separated_product(b4, b4))
        assert len(prod.cs) == 65536
        # Pin the structure independently: the family is the full powerset
        # over a complete-graph orthogonality, so fixing the two spanning
        # atoms pointwise fixes the whole plane interval.
        full = (1 << 16) - 1
        assert set(prod.cs.masks) == set(range(1 << 16))
        assert all(row == full ^ (1 << t) for t, row in enumerate(prod.orth.rows))
        assert _check_all_product_witnesses(b4_ppl, b4_ppl, prod,
                                            family_oracle=False) == 256


def test_09_symmetry_group_counts(b4_ppl, mo2_ppl, mo3_ppl):
    with criterion(9, "symmetry-group-counts", 10.0):
        for ppl, expected in ((b4_ppl, 24), (mo2_ppl, 8), (mo3_ppl, 48)):
            assert count_symmetries(ppl) == expected
            fam = ora.family_to_sets(ppl.cs.masks)
            orth_d = ora.rows_to_dict(ppl.orth.rows)
            assert len(ora.all_symmetries(orth_d, fam)) == expected


def test_10_mining_null_results(tmp_path, capsys):
    with criterion(10, "mining-null-results", 300.0):
        for target in ("separated-orthomodular-nonboolean",
                       "minimal-orthocomplementation-nontrivial"):
            spec = tmp_path / f"{target}.search"
            spec.write_text(f"search v1\ntarget {target}\ncount 200\n"
                            "nmax 4\ndensity 0.5\nseed 1\n")
            code = main(["search", str(spec)])
            out = capsys.readouterr().out
            lines = out.splitlines()
            assert lines[-1].startswith("summary\tcount\t200\t")
            hits = [line for line in lines
                    if line.startswith("hit\t") or "\tstatus\thit" in line]
            assert code == 0 and lines[-1].endswith("\thits\t0\tinvalid\t0"), (
                f"{target} surfaced hits:\n" + "\n".join(hits))
