"""Built-in state space families: Boolean, modular-ortho lanterns, seeded random.

The random generator is pinned so instances are reproducible across
machines and reimplementations: it is splitmix64 (state advances by
0x9E3779B97F4A7C15; output mixes with xor-shifts 30/27/31 and multipliers
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB), with floats taken as the top
53 bits over 2**53.  Edges of the orthogonality graph are sampled one
unordered pair at a time in row-major order (0,1), (0,2), ..., (n-2,n-1),
drawing one float per pair; a draw below the density adds the edge.
"""

from __future__ import annotations

import math
import string

from .bitset import GROUND_CAPACITY
from .errors import CapacityError, CouldNotSeparateError
from .statespace import OrthoRelation, StateSpace, _separation_failure

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Attempts before giving up on sampling a separating relation.
MAX_SEPARATION_ATTEMPTS = 10_000


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
    if n > GROUND_CAPACITY:
        raise CapacityError(f"{n} states exceed capacity {GROUND_CAPACITY}")


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
    parameters are deemed unsatisfiable.

    The stream is drawn in one local loop, with the steps of
    :meth:`SplitMix64.next_u64` inlined.  A float draw x·2**-53, x being
    the top 53 bits of the output u, lies below the density d exactly when
    x < ⌈d·2**53⌉ (x is an integer and d·2**53 is exact), that is when
    u < ⌈d·2**53⌉·2**11, so the comparison stays on integers.  The rows
    are symmetric and antireflexive as drawn, and separating when kept.
    """
    _check_n(n)
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    cut = math.ceil(density * 2.0 ** 53) << 11
    pairs = [(p, q, 1 << q, 1 << p) for p in range(n) for q in range(p + 1, n)]
    state = seed & _MASK64
    mask, gamma, mix1, mix2 = _MASK64, _GAMMA, _MIX1, _MIX2
    for _ in range(MAX_SEPARATION_ATTEMPTS):
        rows = [0] * n
        for p, q, bit_q, bit_p in pairs:
            state = (state + gamma) & mask
            z = ((state ^ (state >> 30)) * mix1) & mask
            z = ((z ^ (z >> 27)) * mix2) & mask
            if z ^ (z >> 31) < cut:
                rows[p] |= bit_q
                rows[q] |= bit_p
        if _separation_failure(rows) is None:
            return StateSpace(tuple(f"s{i}" for i in range(n)),
                              OrthoRelation._proven(n, tuple(rows)))
    raise CouldNotSeparateError(
        f"no separating relation after {MAX_SEPARATION_ATTEMPTS} attempts "
        f"(n={n}, density={density}, seed={seed})")


def from_spec(spec: str) -> StateSpace:
    """Build a catalog space from a reference like ``boolean:4`` or ``random:6:0.5:42``."""
    parts = spec.split(":")
    name, args = parts[0], parts[1:]
    try:
        if name == "boolean" and len(args) == 1:
            return boolean_space(int(args[0]))
        if name == "mo" and len(args) == 1:
            return mo_lantern(int(args[0]))
        if name == "random" and len(args) == 3:
            return random_space(int(args[0]), float(args[1]), int(args[2]))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad generator reference {spec!r}: {exc}") from exc
    raise ValueError(f"unknown generator reference {spec!r}")
