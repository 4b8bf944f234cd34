"""Intersection-closed set families ("Moore families") over a finite ground set.

A :class:`ClosureSystem` stores every closed set as a bit mask, in a
canonical order (cardinality, then mask value).  Meets are intersections;
joins go through the closure operator (smallest closed superset), which
reads the closed supersets of a set off one bitmap per atom over the
element indices.  The family generated by arbitrary sets is computed by
:func:`meet_closure`.

:class:`AbstractLattice` is the extensional counterpart: a finite lattice
given only by its order matrix.  :func:`closure_space_of` turns an
atomistic one back into the closure system of its atom supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bitset import GROUND_CAPACITY, AtomSet, canonical_key
from .errors import CapacityError, NotALatticeError, NotAtomisticError

#: Default cap on family size for generated closure systems.
DEFAULT_FAMILY_CAP = 1_000_000


@dataclass(frozen=True)
class LatticeElement:
    """A closed set together with its position in the canonical order."""

    id: int
    atoms: AtomSet


@dataclass(frozen=True)
class ClosureSystem:
    """An intersection-closed family containing the full ground set.

    ``masks`` is strictly increasing under the canonical key, deduplicated,
    and always contains the full set.  Builders are responsible for actual
    intersection-closedness; :meth:`intersection_defect` re-checks it
    exhaustively when wanted.
    """

    n: int
    masks: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground set must have at least one atom")
        if self.n > GROUND_CAPACITY:
            raise CapacityError(f"ground set of {self.n} atoms exceeds capacity {GROUND_CAPACITY}")
        full = (1 << self.n) - 1
        keys = [canonical_key(m) for m in self.masks]
        if keys != sorted(set(keys)):
            raise ValueError("masks must be unique and canonically ordered")
        for m in self.masks:
            if m < 0 or m >> self.n:
                raise ValueError(f"mask 0x{m:x} out of range for n={self.n}")
        if not self.masks or self.masks[-1] != full:
            raise ValueError("family must contain the full ground set")

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "ClosureSystem":
        return cls(n, tuple(sorted(set(masks), key=canonical_key)))

    @classmethod
    def from_atomsets(cls, n: int, sets: Iterable[AtomSet]) -> "ClosureSystem":
        return cls.from_masks(n, (s.bits for s in sets))

    # -- derived structure ------------------------------------------------

    @cached_property
    def _index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.masks)}

    @cached_property
    def _cols(self) -> tuple[int, ...]:
        """One bitmap per atom r over element indices, lowest index highest.

        Bit m-1-i of ``_cols[r]`` is set when masks[i] contains r (m
        elements), so the lowest index in a bitmap x is m - x.bit_length().
        """
        nbytes = (self.n + 7) // 8
        arr = np.array(self.masks[::-1], dtype="<u8").view(np.uint8).reshape(-1, 8)[:, :nbytes]
        bits = np.unpackbits(arr, axis=1, bitorder="little")[:, :self.n]
        packed = np.packbits(bits, axis=0, bitorder="little").T.copy()
        return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)

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

    @cached_property
    def closed(self) -> tuple[AtomSet, ...]:
        return tuple(AtomSet(m, self.n) for m in self.masks)

    @cached_property
    def is_t1(self) -> bool:
        """Does the family contain the empty set and every singleton?"""
        idx = self._index
        return 0 in idx and all((1 << p) in idx for p in range(self.n))

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, item) -> bool:
        mask = item.bits if isinstance(item, AtomSet) else item
        return mask in self._index

    def id_of(self, item) -> int:
        mask = item.bits if isinstance(item, AtomSet) else item
        return self._index[mask]

    def element(self, i: int) -> LatticeElement:
        return LatticeElement(i, AtomSet(self.masks[i], self.n))

    def elements(self) -> Iterator[LatticeElement]:
        for i in range(len(self.masks)):
            yield self.element(i)

    @property
    def bottom_id(self) -> int:
        return 0

    @property
    def top_id(self) -> int:
        return len(self.masks) - 1

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
        """Index of cl(a ∪ {r}) for every atom r, for a closed ``a``.

        Entry r is a's own index when r lies in a.  The superset bitmap of
        a is built once; each r outside a then costs one AND with r's
        column.
        """
        sup = self._superset_bits(a)
        m = len(self.masks)
        own = m - sup.bit_length()
        cols = self._cols
        return [own if (a >> r) & 1 else m - (sup & cols[r]).bit_length() for r in range(self.n)]

    def meet_mask(self, a: int, b: int) -> int:
        return a & b

    def join_mask(self, a: int, b: int) -> int:
        return self.closure_mask(a | b)

    def meet(self, a: LatticeElement, b: LatticeElement) -> LatticeElement:
        return self.element(self.id_of(a.atoms.bits & b.atoms.bits))

    def join(self, a: LatticeElement, b: LatticeElement) -> LatticeElement:
        return self.element(self.id_of(self.join_mask(a.atoms.bits, b.atoms.bits)))

    def le(self, a: LatticeElement, b: LatticeElement) -> bool:
        return a.atoms.issubset(b.atoms)

    def upper_covers(self, a: int, ext: list[int] | None = None) -> set[int]:
        """Indices of the elements covering a closed ``a``, as an unsorted set.

        j covers a exactly when cl(a ∪ {r}) = j for every r in j∖a: each
        such closure lies above a and below j, and any closed m strictly
        between contains some r in m∖a, whose closure with a stays inside
        m.  ``ext`` is a's :meth:`one_point_extensions` vector, computed
        here when not given.
        """
        if ext is None:
            ext = self.one_point_extensions(a)
        reach: dict[int, int] = {}  # k -> the r outside a with cl(a ∪ {r}) = masks[k]
        for r, k in enumerate(ext):
            if not (a >> r) & 1:
                reach[k] = reach.get(k, 0) | 1 << r
        masks = self.masks
        return {k for k, rs in reach.items() if rs == masks[k] & ~a}

    def covers(self, a: LatticeElement, b: LatticeElement) -> bool:
        """True iff ``b`` covers ``a``: a < b with nothing strictly between."""
        return self.id_of(b.atoms) in self.upper_covers(a.atoms.bits)

    def lattice_atoms(self) -> list[LatticeElement]:
        """Elements covering the bottom element (the order-theoretic atoms)."""
        return [self.element(i) for i in sorted(self.upper_covers(self.masks[0]))]

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

        Images are looked up a byte of atoms at a time: ``tables[k][v]`` is
        the image of the byte value v placed at atoms 8k..8k+7.
        """
        imgs = [1 << t for t in perm]
        tables = []
        for lo in range(0, len(imgs), 8):
            chunk = imgs[lo:lo + 8]
            tbl = [0] * (1 << len(chunk))
            for v in range(1, len(tbl)):
                low = v & -v
                tbl[v] = tbl[v ^ low] | chunk[low.bit_length() - 1]
            tables.append(tbl)
        idx = self._index
        for m in self.masks:
            img = 0
            rest = m
            for tbl in tables:
                img |= tbl[rest & 255]
                rest >>= 8
            if img not in idx:
                return m
        return None

    def maps_onto_itself(self, perm: Sequence[int]) -> bool:
        return self.permutation_failure(perm) is None


def meet_closure(generators: Sequence[AtomSet], n: int, *,
                 max_family: int = DEFAULT_FAMILY_CAP) -> ClosureSystem:
    """Smallest intersection-closed family containing ``generators`` and the full set.

    Generators are folded in one at a time; after step k the family holds
    every intersection of a subset of the first k generators (plus the full
    set), which is exactly the generated family and costs O(len(result))
    work per generator instead of a 2**n scan.
    """
    for g in generators:
        if g.n != n:
            raise ValueError(f"generator universe {g.n} does not match n={n}")
    return _meet_closure_masks([g.bits for g in generators], n, max_family=max_family)


def _meet_closure_masks(gen_masks: Iterable[int], n: int, *,
                        max_family: int = DEFAULT_FAMILY_CAP) -> ClosureSystem:
    family = {(1 << n) - 1}
    for g in gen_masks:
        family |= {m & g for m in family}
        if len(family) > max_family:
            raise CapacityError(
                f"closure family exceeds cap of {max_family} sets")
    return ClosureSystem.from_masks(n, family)


class AbstractLattice:
    """A finite lattice given extensionally by its order matrix.

    ``le[i, j]`` is True iff element i is below element j.  Nothing is
    assumed up front; :meth:`order_defect` and the bound tables report
    exactly what breaks.
    """

    def __init__(self, le):
        arr = np.array(le, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("order matrix must be square")
        if arr.shape[0] < 1:
            raise ValueError("lattice must be nonempty")
        arr.setflags(write=False)
        self.le = arr
        self.m = arr.shape[0]

    @classmethod
    def from_closure_system(cls, cs: ClosureSystem) -> "AbstractLattice":
        m = len(cs.masks)
        le = np.zeros((m, m), dtype=bool)
        for i, a in enumerate(cs.masks):
            for j, b in enumerate(cs.masks):
                le[i, j] = a & ~b == 0
        return cls(le)

    def order_defect(self) -> str | None:
        le = self.le
        if not le.diagonal().all():
            i = int(np.flatnonzero(~le.diagonal())[0])
            return f"not reflexive at element {i}"
        both = (le & le.T).copy()
        np.fill_diagonal(both, False)
        if both.any():
            i, j = map(int, np.argwhere(both)[0])
            return f"not antisymmetric: {i} <= {j} <= {i}"
        closed = (le.astype(np.uint8) @ le.astype(np.uint8)) > 0
        gap = closed & ~le
        if gap.any():
            i, j = map(int, np.argwhere(gap)[0])
            return f"not transitive: {i} <= ... <= {j} but not {i} <= {j}"
        return None

    def _least_of(self, member_mask: np.ndarray) -> int | None:
        """Index of the least element of a subset, or None if there is none."""
        for k in np.flatnonzero(member_mask):
            if (self.le[k] | ~member_mask).all():
                return int(k)
        return None

    @cached_property
    def join_table(self) -> np.ndarray:
        out = np.empty((self.m, self.m), dtype=np.int64)
        for i in range(self.m):
            for j in range(i, self.m):
                ub = self.le[i] & self.le[j]
                k = self._least_of(ub)
                if k is None:
                    raise NotALatticeError(f"elements {i} and {j} have no least upper bound")
                out[i, j] = out[j, i] = k
        return out

    @cached_property
    def meet_table(self) -> np.ndarray:
        out = np.empty((self.m, self.m), dtype=np.int64)
        for i in range(self.m):
            for j in range(i, self.m):
                lb = self.le[:, i] & self.le[:, j]
                # greatest lower bound: dual of _least_of
                k = None
                for c in np.flatnonzero(lb):
                    if (self.le[:, c] | ~lb).all():
                        k = int(c)
                        break
                if k is None:
                    raise NotALatticeError(f"elements {i} and {j} have no greatest lower bound")
                out[i, j] = out[j, i] = k
        return out

    @cached_property
    def bottom(self) -> int:
        for i in range(self.m):
            if self.le[i].all():
                return i
        raise NotALatticeError("no bottom element")

    @cached_property
    def lattice_atoms(self) -> tuple[int, ...]:
        bot = self.bottom
        atoms = []
        for x in range(self.m):
            if x == bot:
                continue
            if not any(y != bot and y != x and self.le[y, x] for y in range(self.m)):
                atoms.append(x)
        return tuple(atoms)

    def join_all(self, xs: Iterable[int]) -> int:
        jt = self.join_table
        acc = self.bottom
        for x in xs:
            acc = int(jt[acc, x])
        return acc


def closure_space_of(lat: AbstractLattice) -> ClosureSystem:
    """Closure system of atom supports of an atomistic lattice.

    A subset F of the atoms is closed iff every atom below the join of F
    already lies in F; those subsets are exactly the atom supports
    ``{atoms below x}`` of lattice elements, which is what gets built.
    Raises :class:`NotALatticeError` / :class:`NotAtomisticError` otherwise.
    """
    defect = lat.order_defect()
    if defect is not None:
        raise NotALatticeError(defect)
    lat.meet_table  # existence check for meets
    atoms = lat.lattice_atoms
    k = len(atoms)
    pos = {a: i for i, a in enumerate(atoms)}
    masks = []
    for x in range(lat.m):
        below = [a for a in atoms if lat.le[a, x]]
        if lat.join_all(below) != x:
            raise NotAtomisticError(x)
        mask = 0
        for a in below:
            mask |= 1 << pos[a]
        masks.append(mask)
    if len(set(masks)) != lat.m:  # pragma: no cover - excluded by atomisticity
        raise NotALatticeError("atom supports are not distinct")
    if k == 0:
        raise ValueError("one-element lattice has no atoms; empty ground sets are unsupported")
    return ClosureSystem.from_masks(k, masks)
