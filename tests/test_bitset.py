"""AtomSet, the validated mask record, and the mask helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthlab.bitset import AtomSet, canonical_key, mask_bits


def test_mask_bits_examples():
    assert list(mask_bits(0)) == []
    assert list(mask_bits(0b1)) == [0]
    assert list(mask_bits(0b1011)) == [0, 1, 3]


def test_canonical_key_sorts_by_cardinality_then_value():
    masks = [0b11, 0b1, 0b100, 0b0, 0b110]
    assert sorted(masks, key=canonical_key) == [0b0, 0b1, 0b100, 0b11, 0b110]


def test_constructor_range_checks():
    with pytest.raises(ValueError):
        AtomSet(0b1000, 3)
    with pytest.raises(ValueError):
        AtomSet(-1, 3)
    with pytest.raises(ValueError):
        AtomSet(0, -1)
    assert AtomSet(0b111, 3).bits == 0b111


def test_repr_lists_members():
    assert repr(AtomSet(0b101, 3)) == "AtomSet({0,2}, n=3)"


bits8 = st.integers(0, 255)


@given(bits8)
def test_iter_roundtrip(bits):
    atoms = list(mask_bits(bits))
    assert sum(1 << a for a in atoms) == bits
    assert atoms == sorted(atoms)
    assert len(atoms) == bits.bit_count()
