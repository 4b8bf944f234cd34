"""Built-in state space families: Boolean, modular-ortho lanterns, seeded random.

The random generator is pinned so instances are reproducible across
machines and reimplementations: it is splitmix64 (state advances by
0x9E3779B97F4A7C15; output mixes with xor-shifts 30/27/31 and multipliers
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB), with floats taken as the top
53 bits over 2**53.  Edges of the orthogonality graph are sampled one
unordered pair at a time in row-major order (0,1), (0,2), ..., (n-2,n-1),
drawing one float per pair; a draw below the density adds the edge.

:func:`random_spaces` draws that stream for many seeds at once.  Why its
lanes, its comparison and its separation test give each seed exactly
the stream's result:

- Lanes.  The state is a counter, so draw j of attempt t on the stream
  of seed s mixes s + (t·k + j + 1)·γ mod 2**64, k = n(n-1)/2 pairs.
  The unresolved seeds are all at the same attempt t, so seed b's draw j
  sits in lane b·k + j of one integer, 128 bits per lane.  A lane below
  2**64 stays apart from its neighbours through each step of the mix: a
  right shift by h < 64 moves the next lane's low bits to positions
  128 - h and up, which a mask of 2**64 - 1 per lane clears; a masked
  lane times a 64-bit multiplier is below 2**128, so it carries into no
  other lane, and the mask reduces it mod 2**64.  The state is entered
  as (s mod 2**64) + c_j + o_t, with c_j = (j+1)·γ mod 2**64 and
  o_t = t·k·γ mod 2**64: each lane is below 3·2**64, so the lanes add
  without carries and the mask reduces each.
- Comparison.  A float draw x·2**-53, x being the top 53 bits of the
  output u, lies below the density d exactly when x < ⌈d·2**53⌉ (x is
  an integer and d·2**53 is exact), that is when u < cut with
  cut = ⌈d·2**53⌉·2**11 ≤ 2**64, so the comparison stays on integers.
  In each lane 2**64 + cut - 1 - u lies in [cut, 2**64 + cut - 1], at
  least 0 and below 2**65, so subtracting the lanes of u from lanes of
  2**64 + cut - 1 borrows across no lane, and bit 64 of a lane is set
  exactly when u < cut: never at density 0, always at density 1.
- Separation, bitsliced.  W[p][q] = W[q][p] is the word whose bit b is
  seed b's edge at pair (p, q), and W[p][p] = 0.  Row p lies inside row
  q ≠ p in seed b exactly when bit b of the AND over r of
  ¬W[p][r] ∨ W[q][r] is set (the term r = q is ¬W[p][q], that is
  q ∉ row p; the term r = p is all ones).  A seed that no ordered pair
  catches separates at attempt t, and that is its first separating
  attempt, since every earlier attempt of it was drawn and rejected.
  Resolved seeds leave the lanes once half of them are resolved.
"""

from __future__ import annotations

import math
import string
from collections.abc import Iterable

from .bitset import check_ground
from .errors import CouldNotSeparateError
from .formats import parse_natural
from .statespace import OrthoRelation, StateSpace

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Attempts before giving up on sampling a separating relation.
MAX_SEPARATION_ATTEMPTS = 10_000
#: Lanes of one drawing pass; at 16 bytes each, a pass's integers stay near 1 MB.
_MAX_LANES = 1 << 16
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class SplitMix64:
    """The 64-bit splitmix generator; deterministic for a given seed."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_below(self, bound: int) -> int:
        return self.next_u64() % bound


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one state")
    check_ground(n)


def _letters(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    return tuple(f"s{i}" for i in range(n))


def boolean_space(n: int) -> StateSpace:
    """n states, any two distinct ones orthogonal; the classical n-point space."""
    _check_n(n)
    full = (1 << n) - 1
    rows = tuple(full ^ (1 << p) for p in range(n))
    return StateSpace(_letters(n), OrthoRelation(n, rows))


def mo_lantern(n: int) -> StateSpace:
    """2n states a1..an, b1..bn with ai orthogonal to bi only.

    Its property lattice is the modular-ortho lattice with 2n atoms:
    empty set, singletons, and the full set (2n + 2 elements).
    """
    if n < 1:
        raise ValueError("need at least one pair")
    _check_n(2 * n)
    labels = tuple(f"a{i+1}" for i in range(n)) + tuple(f"b{i+1}" for i in range(n))
    pairs = [(i, n + i) for i in range(n)]
    return StateSpace(labels, OrthoRelation.from_pairs(2 * n, pairs))


def random_space(n: int, density: float, seed: int) -> StateSpace:
    """Seeded random orthogonality, resampled until it separates points.

    A non-separating sample is rejected and the next attempt continues on
    the same splitmix64 stream, so the result is a pure function of
    (n, density, seed).  After ``MAX_SEPARATION_ATTEMPTS`` rejections the
    parameters are deemed unsatisfiable.  It is :func:`random_spaces` for
    one seed.
    """
    space, = random_spaces(n, density, (seed,))
    if isinstance(space, CouldNotSeparateError):
        raise space
    return space


def random_spaces(n: int, density: float,
                  seeds: Iterable[int]) -> list[StateSpace | CouldNotSeparateError]:
    """``random_space(n, density, seed)`` for each seed, drawn side by side.

    Each entry is the space that call returns, or the
    :class:`CouldNotSeparateError` it raises; invalid ``n`` or
    ``density`` raise here, as there.  The seeds run through the attempts
    together, one pass per attempt (see the module docstring), in chunks
    of at most ``_MAX_LANES`` lanes.  ``MAX_SEPARATION_ATTEMPTS`` is read
    at call time.  The rows are symmetric and antireflexive as drawn, and
    separating when kept, so each relation records its checks as proven.
    Seeds that draw equal rows get the same space, which is immutable:
    the call builds one space per distinct relation.
    """
    _check_n(n)
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    seeds = list(seeds)
    attempts = MAX_SEPARATION_ATTEMPTS
    cut = math.ceil(density * 2.0 ** 53) << 11
    chunk = max(1, _MAX_LANES // max(1, n * (n - 1) // 2))
    labels = tuple(f"s{i}" for i in range(n))
    spaces: dict[tuple[int, ...], StateSpace] = {}
    out: list[StateSpace | CouldNotSeparateError] = []
    for start in range(0, len(seeds), chunk):
        part = seeds[start:start + chunk]
        for seed, rows in zip(part, _first_separating(n, cut, part, attempts)):
            if rows is None:
                out.append(CouldNotSeparateError(
                    f"no separating relation after {attempts} attempts "
                    f"(n={n}, density={density}, seed={seed})"))
                continue
            if rows not in spaces:
                spaces[rows] = StateSpace(labels, OrthoRelation._proven(n, rows))
            out.append(spaces[rows])
    return out


def _first_separating(n: int, cut: int, seeds: list[int],
                      attempts: int) -> list[tuple[int, ...] | None]:
    """The rows of each seed's first separating attempt, or None after ``attempts``.

    One pass draws attempt t of every unresolved seed in 128-bit lanes of
    one integer and tests them all bitsliced (proofs in the module
    docstring).
    """
    k = n * (n - 1) // 2
    pairs = [(p, q, 1 << q, 1 << p) for p in range(n) for q in range(p + 1, n)]
    offsets = b"".join((((j + 1) * _GAMMA) & _MASK64).to_bytes(16, "little")
                       for j in range(k))
    step = (k * _GAMMA) & _MASK64
    found: list[tuple[int, ...] | None] = [None] * len(seeds)
    live = list(range(len(seeds)))
    t = 0
    while live and t < attempts:
        width = len(live)
        lanes = width * k
        ones = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
        mask = ones * _MASK64
        below = ones * ((1 << 64) + cut - 1)
        base = (int.from_bytes(b"".join((seeds[i] & _MASK64).to_bytes(16, "little") * k
                                        for i in live), "little")
                + int.from_bytes(offsets * width, "little"))
        alive = (1 << width) - 1
        while alive and t < attempts:
            z = (base + ((t * step) & _MASK64) * ones) & mask
            z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
            z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
            edges = ((below - ((z ^ (z >> 31)) & mask)) >> 64) & ones
            bits = edges.to_bytes(16 * lanes, "little")[::16]
            digits = bits.translate(_DIGITS)[::-1]
            words = [int(digits[i::k], 2) for i in range(k - 1, -1, -1)]
            separated = alive & ~_unseparated(n, pairs, words, alive)
            t += 1
            alive &= ~separated
            while separated:
                low = separated & -separated
                b = low.bit_length() - 1
                separated ^= low
                rows = [0] * n
                for (p, q, bit_q, bit_p), e in zip(pairs, bits[b * k:(b + 1) * k]):
                    if e:
                        rows[p] |= bit_q
                        rows[q] |= bit_p
                found[live[b]] = tuple(rows)
            if 2 * alive.bit_count() <= width:
                break
        live = [i for b, i in enumerate(live) if alive >> b & 1]
    return found


def _unseparated(n: int, pairs, words: list[int], alive: int) -> int:
    """The seeds of ``alive`` (as bits) in which some row lies inside another row.

    Each unordered pair {p, q} tests row p inside row q and row q inside
    row p in one pass over r; both need ¬W[p][q].
    """
    w = [[0] * n for _ in range(n)]
    for (p, q, _, _), word in zip(pairs, words):
        w[p][q] = w[q][p] = word
    caught = 0
    for (p, q, _, _), word in zip(pairs, words):
        pq = qp = alive & ~caught & ~word
        if not pq:
            continue
        for a, b in zip(w[p], w[q]):
            pq &= ~a | b
            qp &= a | ~b
            if not (pq or qp):
                break
        caught |= pq | qp
        if caught == alive:
            break
    return caught


def from_spec(spec: str) -> StateSpace:
    """Build a catalog space from a reference like ``boolean:4`` or ``random:6:0.5:42``."""
    parts = spec.split(":")
    name, args = parts[0], parts[1:]
    try:
        if name == "boolean" and len(args) == 1:
            return boolean_space(parse_natural(args[0]))
        if name == "mo" and len(args) == 1:
            return mo_lantern(parse_natural(args[0]))
        if name == "random" and len(args) == 3:
            return random_space(parse_natural(args[0]), float(args[1]), parse_natural(args[2]))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad generator reference {spec!r}: {exc}") from exc
    raise ValueError(f"unknown generator reference {spec!r}")
