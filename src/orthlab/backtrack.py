"""Pinned backtracking over atom permutations, the search of :mod:`orthlab.symmetry`.

Symmetries come out in lexicographic order of the image tuple.  Candidate
images follow the pair-join colouring (:class:`_Colours`), and pruning only
cuts subtrees that hold no symmetry (see :func:`_backtrack`).
"""

from __future__ import annotations

from operator import and_
from typing import Iterator, NamedTuple

from .bitset import mask_bits, permute_mask
from .errors import BudgetExceededError
from .statespace import PPL


class _Budget:
    """Mutable node counter; raises once the limit is spent."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None):
        self.limit = limit
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExceededError(self.spent)


class _Colours(NamedTuple):
    """The pair-join colouring of the atoms, which every symmetry keeps.

    ``colour[a][b]`` numbers the colour (a ⊥ b, |join{a, b}|) of a ≠ b from
    1, and is 0 for a = b.  ``parts[a][c]`` masks the b with colour[a][b] = c,
    ``alike[a]`` the atoms sharing a's (a ⊥ a, |cl{a}|) and colour histogram.
    """

    colour: tuple[tuple[int, ...], ...]
    parts: tuple[tuple[int, ...], ...]
    alike: tuple[int, ...]


def _atom_signatures(ppl: PPL, planes: list[tuple[int, int, int]] | None = None) -> _Colours:
    """The pair-join colouring, from the joins in ``planes`` (:func:`_planes`):
    a symmetry f maps cl(X) onto cl(f(X)), so |join{a, b}| = |join{f(a), f(b)}|,
    and f keeps orthogonality."""
    n, orth = ppl.n, ppl.orth.rows
    number = {}  # colour -> its number
    colour = [[0] * n for _ in range(n)]
    for p1, p2, plane in _planes(ppl) if planes is None else planes:
        c = number.setdefault((orth[p1] >> p2 & 1, plane.bit_count()), len(number) + 1)
        colour[p1][p2] = colour[p2][p1] = c
    parts = [[0] * (len(number) + 1) for _ in range(n)]
    for a in range(n):
        for b, c in enumerate(colour[a]):
            parts[a][c] |= 1 << b
    sigs = [(orth[a] >> a & 1, ppl.join_mask(1 << a).bit_count(),
             tuple(map(int.bit_count, parts[a]))) for a in range(n)]
    return _Colours(tuple(map(tuple, colour)), tuple(map(tuple, parts)),
                    tuple(sum(1 << b for b in range(n) if sigs[b] == s) for s in sigs))


def _planes(ppl: PPL) -> list[tuple[int, int, int]]:
    """(p1, p2, join of {p1} and {p2}) for every atom pair p1 < p2, in scan order."""
    n = ppl.n
    return [(p1, p2, ppl.join_mask((1 << p1) | (1 << p2)))
            for p1 in range(n) for p2 in range(p1 + 1, n)]


def _pinned(colours: _Colours, pins: dict[int, int]) -> list[int] | None:
    """Each atom's candidate images under ``pins``: the b ``alike`` a with
    ``colour[q][b] == colour[p][a]`` for every pin p -> q.  None when a pin
    is no candidate of its own atom, or some atom is left without one.  Pins
    apply in order, so callers put the one pin p -> q ≠ p first: a probe
    that cannot succeed then stops at the first fixed atom telling p, q apart."""
    colour, parts, cand = colours
    for p, q in pins.items():
        if not cand[p] >> q & 1:
            return None
        cand = list(map(and_, cand, map(parts[q].__getitem__, colour[p])))
    return None if 0 in cand else list(cand)


def _backtrack(ppl: PPL, pins: dict[int, int], budget: _Budget,
               colours: _Colours | None = None) -> Iterator[tuple[int, ...]]:
    """All symmetries consistent with ``pins``, in lexicographic order.

    Atoms start from their candidates under the pins (:func:`_pinned`); the
    free ones are assigned in ascending order, each to its candidates in
    ascending order, at one budget node per candidate.  Assigning p -> q ANDs
    the candidates of each later atom x with ``parts[q][colour[p][x]]`` and
    cuts the branch if some atom has none left; a meet-irreducible is checked
    at the atom completing it, or once if the pins hold it.  A pruned subtree
    holds no symmetry, and a completed assignment needs no final check: every
    closed set is an intersection of meet-irreducibles (the top of none), and
    a bijection f has f(A ∩ B) = f(A) ∩ f(B).

    On a property lattice (``ppl.biorthogonal``) no closed set is checked,
    and the family is not read:
    the family is exactly the sets A⊥⊥, and a bijection f that preserves
    orthogonality both ways has f(A⊥) = f(A)⊥, hence f(A⊥⊥) = f(A)⊥⊥.
    """
    n = ppl.n
    colour, parts, _ = colours = colours or _atom_signatures(ppl)
    start = _pinned(colours, pins)
    if start is None:
        return
    perm = [pins.get(a, -1) for a in range(n)]
    free = [a for a in range(n) if a not in pins]
    completes: list[list[int]] = [[] for _ in range(n)]
    if not ppl.biorthogonal:
        cs = ppl.cs
        pinned = sum(1 << p for p in pins)
        for m in cs.meet_irreducibles:
            rest = m & ~pinned
            if rest:
                completes[rest.bit_length() - 1].append(m)
            elif permute_mask(perm, m) not in cs:
                return
    if not free:
        yield tuple(perm)
        return
    # level k assigns free[k]: cands[k] holds the candidates of free[k:], left[k]
    # those of free[k] not yet tried, rests[k] the images of the sets it completes
    cands, left, rests, k = [[start[x] for x in free]], [start[free[0]]], [None], 0
    while k >= 0:
        if not left[k]:
            del cands[k], left[k], rests[k]
            k -= 1
            continue
        low = left[k] & -left[k]
        left[k] ^= low
        q, pos = low.bit_length() - 1, free[k]
        budget.spend()
        if completes[pos]:
            if rests[k] is None:
                rests[k] = [permute_mask(perm, m ^ 1 << pos) for m in completes[pos]]
            if not all(r | low in cs for r in rests[k]):
                continue
        perm[pos] = q
        if k + 1 == len(free):
            yield tuple(perm)
            continue
        after = list(map(and_, cands[k][1:], map(parts[q].__getitem__,
                                                 map(colour[pos].__getitem__, free[k + 1:]))))
        if 0 not in after:
            cands.append(after)
            left.append(after[0])
            rests.append(None)
            k += 1
