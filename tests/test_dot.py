"""Hasse-diagram export."""

import pytest

import orthlab as O
from orthlab.cli import main
from orthlab.dot import cover_pairs, export_dot
from orthlab.errors import CapacityError

import oracles as ora


def _oracle_cover_ids(cs):
    """(lower, upper) id pairs, ordered by upper id, then lower id."""
    fam = ora.family_to_sets(cs.masks)
    sets = [ora.mask_to_set(m) for m in cs.masks]
    return [(i, j) for j, b in enumerate(sets) for i, a in enumerate(sets)
            if ora.covers(fam, a, b)]


def test_cover_pairs_matches_oracle(b3_ppl, mo2_ppl, random_batch):
    systems = [b3_ppl.cs, mo2_ppl.cs]
    systems += [O.property_lattice(ss).cs for ss in random_batch if ss.n <= 5]
    for cs in systems:
        assert cover_pairs(cs) == _oracle_cover_ids(cs)


def test_two_element_diagram():
    cs = O.ClosureSystem(1, [0b0, 0b1])
    text = export_dot(cs, ("a",))
    assert text.count(" [label=") == 2
    assert text.count("->") == 1
    assert '[label="{}"]' in text and '[label="{a}"]' in text


def test_lantern_diagram_counts(mo2_ppl):
    text = export_dot(mo2_ppl.cs, mo2_ppl.labels)
    assert text.startswith("digraph hasse {")
    assert text.count(" [label=") == 6
    assert text.count("->") == 8  # bottom to each atom, each atom to top
    assert text.count("rank=same") == 3  # cardinalities 0, 1, 4


def test_cube_diagram_counts(b3_ppl):
    text = export_dot(b3_ppl.cs, b3_ppl.labels)
    assert text.count(" [label=") == 8
    assert text.count("->") == 12


def test_diagram_is_deterministic(mo2_ppl):
    assert export_dot(mo2_ppl.cs, mo2_ppl.labels) == \
        export_dot(mo2_ppl.cs, mo2_ppl.labels)


def test_diagram_size_cap(capsys):
    # MAX_DOT_ELEMENTS is 500: the 256 sets of boolean:8 fit, the 512 of boolean:9 do not
    b8 = O.property_lattice(O.boolean_space(8))
    assert export_dot(b8.cs, b8.labels).count(" [label=") == 256
    b9 = O.property_lattice(O.boolean_space(9))
    with pytest.raises(CapacityError):
        export_dot(b9.cs, b9.labels)
    assert main(["lattice", "gen:boolean:9", "--dot"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error\t512 elements exceed the diagram cap of 500\n")
