"""Intersection-closed set families ("Moore families") over a finite ground set.

A :class:`ClosureSystem` stores every closed set as a bit mask, in a
canonical order (cardinality, then mask value).  Meets are intersections;
joins go through the closure operator (smallest closed superset), which
reads the closed supersets of a set off one bitmap per atom over the
element indices.  The family generated by arbitrary sets is computed by
:func:`meet_closure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .bitset import check_ground, permute_mask
from .errors import CapacityError

#: Default cap on family size for generated closure systems.
DEFAULT_FAMILY_CAP = 1_000_000


@dataclass(frozen=True)
class ClosureSystem:
    """An intersection-closed family containing the full ground set.

    ``masks`` may come in any order and with repeats; the constructor
    deduplicates them and puts them in canonical order, one sort by value
    followed by a stable sort by cardinality, both keyed in C.  The
    family must lie inside the ground set and contain the full set.
    Builders are responsible for actual intersection-closedness;
    :meth:`intersection_defect` re-checks it exhaustively when wanted.
    """

    n: int
    masks: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("ground set must have at least one atom")
        check_ground(n)
        full = (1 << n) - 1
        ordered = sorted(set(self.masks))
        for m in ordered[:1] + ordered[-1:]:  # the least and the greatest
            if m < 0 or m > full:
                raise ValueError(f"mask 0x{m:x} out of range for n={n}")
        ordered.sort(key=int.bit_count)
        if not ordered or ordered[-1] != full:
            raise ValueError("family must contain the full ground set")
        object.__setattr__(self, "masks", tuple(ordered))

    # -- derived structure ------------------------------------------------

    @cached_property
    def _index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.masks)}

    @cached_property
    def _cols(self) -> tuple[int, ...]:
        """One bitmap per atom r over element indices, lowest index highest.

        Bit m-1-i of ``_cols[r]`` is set when masks[i] contains r (m
        elements), so the lowest index in a bitmap x is m - x.bit_length().

        The transpose runs in C: each mask is written as bin(mask | 1 << n),
        which is "0b1" and then its n bits, the strings are joined, and atom
        r's column, read from element 0 onwards, is every w-th character
        (w = n + 3) from position w-1-r.
        """
        n = self.n
        w = n + 3
        bits = "".join(map(bin, map((1 << n).__or__, self.masks)))
        return tuple(int(bits[w - 1 - r::w], 2) for r in range(n))

    def _superset_bits(self, mask: int) -> int:
        """Bitmap (as in ``_cols``) of the closed supersets of ``mask``.

        It is the AND of the columns of the atoms of ``mask``.
        """
        cols = self._cols
        sup = (1 << len(self.masks)) - 1
        while mask:
            low = mask & -mask
            sup &= cols[low.bit_length() - 1]
            mask ^= low
        return sup

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask in self._index

    # -- lattice operations -----------------------------------------------

    def closure_mask(self, mask: int) -> int:
        """Smallest closed superset of ``mask``.

        It is the closed superset with the lowest index: the intersection
        of all closed supersets is itself a closed superset of minimal
        cardinality, and a distinct set of the same cardinality cannot
        contain it, so the canonical order puts it first.
        """
        if mask in self._index:
            return mask
        return self.masks[len(self.masks) - self._superset_bits(mask).bit_length()]

    def one_point_extensions(self, a: int) -> list[int]:
        """cl(a ∪ {r}) as a mask for every atom r, for a closed ``a``.

        Entry r is a itself when r lies in a.  The superset bitmap of a is
        built once; each r outside a then costs one AND with r's column.
        """
        sup = self._superset_bits(a)
        masks, cols = self.masks, self._cols
        m = len(masks)
        return [a if (a >> r) & 1 else masks[m - (sup & cols[r]).bit_length()]
                for r in range(self.n)]

    @cached_property
    def meet_irreducibles(self) -> tuple[int, ...]:
        """The closed sets other than the top that are not meets of larger ones.

        Every closed set strictly above a closed M contains some one-point
        extension cl(M ∪ {r}), r ∉ M, so M is meet-irreducible exactly
        when those extensions do not intersect back to M.  O(m·n) through
        :meth:`one_point_extensions`.  They generate the family under
        intersection: each closed set is the meet of the meet-irreducibles
        above it, the top being the empty meet (Davey & Priestley,
        *Introduction to Lattices and Order*, 2002).
        """
        masks = self.masks
        out = []
        for a in masks[:-1]:
            meet = masks[-1]
            for k in self.one_point_extensions(a):
                if k != a:
                    meet &= k
            if meet != a:
                out.append(a)
        return tuple(out)

    def upper_covers(self, a: int) -> set[int]:
        """Indices of the elements covering a closed ``a``, as an unsorted set.

        j covers a exactly when cl(a ∪ {r}) = j for every r in j∖a: each
        such closure lies above a and below j, and any closed m strictly
        between contains some r in m∖a, whose closure with a stays inside
        m.
        """
        reach: dict[int, int] = {}  # k -> the r outside a with cl(a ∪ {r}) = k
        for r, k in enumerate(self.one_point_extensions(a)):
            if k != a:
                reach[k] = reach.get(k, 0) | 1 << r
        idx = self._index
        return {idx[k] for k, rs in reach.items() if rs == k & ~a}

    # -- whole-family checks ----------------------------------------------

    def intersection_defect(self) -> tuple[int, int] | None:
        """Exhaustive pairwise check; first (F, G) with F & G missing, else None."""
        idx = self._index
        for i, a in enumerate(self.masks):
            for b in self.masks[i + 1:]:
                if a & b not in idx:
                    return (a, b)
        return None

    def permutation_failure(self, perm: Sequence[int]) -> int | None:
        """First closed mask whose image under the atom permutation leaves the family.

        Checking one direction suffices for "closed both ways": the image map
        is injective on a finite family, so if every image is a member the
        family maps onto itself.
        """
        idx = self._index
        for m in self.masks:
            if permute_mask(perm, m) not in idx:
                return m
        return None


def meet_closure(masks: Iterable[int], n: int, *,
                 max_family: int = DEFAULT_FAMILY_CAP) -> ClosureSystem:
    """Smallest intersection-closed family containing ``masks`` and the full set.

    After folding in k masks the family holds every intersection of a subset
    of them (plus the full set), at O(len(result)) work per mask.
    """
    full = (1 << n) - 1
    family = {full}
    for g in masks:
        if g & ~full:
            raise ValueError(f"mask 0x{g:x} out of range for n={n}")
        family |= {m & g for m in family}
        if len(family) > max_family:
            raise CapacityError(
                f"closure family exceeds cap of {max_family} sets")
    return ClosureSystem(n, family)
