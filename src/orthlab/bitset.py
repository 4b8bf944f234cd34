"""Subsets of a fixed atom universe packed into integer bit masks.

Atom i of a universe of size n is bit i.  Python ints are arbitrary
precision, so a single int covers any n; ``GROUND_CAPACITY`` keeps
product constructions from silently building enormous ground sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

#: Hard cap on ground-set size.  Big enough for every supported workload,
#: small enough that runaway product constructions fail loudly.
GROUND_CAPACITY = 64


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
    """An immutable subset of atoms ``0..n-1``."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("universe size must be nonnegative")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bits 0x{self.bits:x} out of range for n={self.n}")

    @classmethod
    def empty(cls, n: int) -> "AtomSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "AtomSet":
        return cls((1 << n) - 1, n)

    @classmethod
    def single(cls, atom: int, n: int) -> "AtomSet":
        if not 0 <= atom < n:
            raise ValueError(f"atom {atom} outside universe of size {n}")
        return cls(1 << atom, n)

    @classmethod
    def of(cls, atoms: Iterable[int], n: int) -> "AtomSet":
        bits = 0
        for a in atoms:
            if not 0 <= a < n:
                raise ValueError(f"atom {a} outside universe of size {n}")
            bits |= 1 << a
        return cls(bits, n)

    def __contains__(self, atom: int) -> bool:
        return 0 <= atom < self.n and (self.bits >> atom) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return mask_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def _require_same_universe(self, other: "AtomSet") -> None:
        if self.n != other.n:
            raise ValueError(f"universe mismatch: {self.n} vs {other.n}")

    def __and__(self, other: "AtomSet") -> "AtomSet":
        self._require_same_universe(other)
        return AtomSet(self.bits & other.bits, self.n)

    def __or__(self, other: "AtomSet") -> "AtomSet":
        self._require_same_universe(other)
        return AtomSet(self.bits | other.bits, self.n)

    def __sub__(self, other: "AtomSet") -> "AtomSet":
        self._require_same_universe(other)
        return AtomSet(self.bits & ~other.bits, self.n)

    def complement(self) -> "AtomSet":
        return AtomSet(self.bits ^ (1 << self.n) - 1, self.n)

    def issubset(self, other: "AtomSet") -> bool:
        self._require_same_universe(other)
        return self.bits & ~other.bits == 0

    # subset order, like builtin sets
    def __le__(self, other: "AtomSet") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "AtomSet") -> bool:
        return self.issubset(other) and self.bits != other.bits

    def __repr__(self) -> str:
        return f"AtomSet({{{','.join(map(str, self))}}}, n={self.n})"
