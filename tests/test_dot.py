"""Hasse-diagram export."""

import pytest

import orthlab as O
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
    cs = O.ClosureSystem.from_masks(1, [0b0, 0b1])
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


def test_diagram_size_cap(mo2_ppl):
    with pytest.raises(CapacityError):
        export_dot(mo2_ppl.cs, mo2_ppl.labels, max_elements=5)
