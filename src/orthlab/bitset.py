"""Subsets of a fixed atom universe packed into integer bit masks.

Atom i of a universe of size n is bit i.  Python ints are arbitrary
precision, so a single int covers any n; ``GROUND_CAPACITY`` keeps
product constructions from silently building enormous ground sets, and
:func:`check_ground` is the one place that enforces it.
:class:`AtomSet` is only a validated record of a mask and its universe
size, the form in which lattice elements and certificates carry atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CapacityError

#: Hard cap on ground-set size.  Big enough for every supported workload,
#: small enough that runaway product constructions fail loudly.
GROUND_CAPACITY = 64


def check_ground(n: int) -> None:
    """Raise :class:`CapacityError` when ``n`` atoms exceed ``GROUND_CAPACITY``."""
    if n > GROUND_CAPACITY:
        raise CapacityError(f"ground set of {n} atoms exceeds capacity {GROUND_CAPACITY}")


def mask_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def permute_mask(perm: Sequence[int], mask: int) -> int:
    """Image of ``mask`` under the atom map i -> perm[i]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def canonical_key(mask: int) -> tuple[int, int]:
    """Sort key for the canonical element order: cardinality, then mask value."""
    return (mask.bit_count(), mask)


@dataclass(frozen=True)
class AtomSet:
    """The atoms ``bits`` of the universe ``0..n-1``, checked to lie in it."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("universe size must be nonnegative")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bits 0x{self.bits:x} out of range for n={self.n}")

    def __repr__(self) -> str:
        return f"AtomSet({{{','.join(map(str, mask_bits(self.bits)))}}}, n={self.n})"
