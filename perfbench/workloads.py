"""The benchmark's workloads: the operations of each and the input files they read.

An operation is one call of ``orthlab.cli.main(argv)``.  ``{work}`` in an
argument stands for the directory that set-up writes the input files
into.  Everything here is plain data plus the code that writes the input
files; it imports nothing from orthlab, so the checks never depend on the
program under test for their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Search specs shared by the three ``search`` operations.
SEARCH_COUNT = 300
SEARCH_NMAX = 5
SEARCH_DENSITY = 0.5
SEARCH_SEED = 1
SEARCH_TARGETS = (
    "separated-orthomodular-nonboolean",
    "minimal-orthocomplementation-nontrivial",
    "minimal-covering-nontrivial",
)

#: Node budget of the one plane query that exhausts it today.
PLANE_BUDGET = 2_000_000


@dataclass(frozen=True)
class Op:
    """One operation: its name, the CLI arguments, and its own time limit."""

    key: str
    argv: tuple[str, ...]
    limit_s: float

    def resolved(self, work: Path) -> list[str]:
        return [a.replace("{work}", str(work)) for a in self.argv]


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "axioms-ladder": (
        Op("axioms-boolean7", ("axioms", "gen:boolean:7"), 30.0),
        Op("separated-mo3-mo3",
           ("product", "gen:mo:3", "gen:mo:3", "--separated", "--axioms"), 30.0),
        Op("separated-boolean3-mo3",
           ("product", "gen:boolean:3", "gen:mo:3", "--separated", "--axioms"), 30.0),
        Op("separated-boolean4-mo2",
           ("product", "gen:boolean:4", "gen:mo:2", "--separated", "--axioms"), 90.0),
        Op("minimal-mo3-mo3",
           ("product", "gen:mo:3", "gen:mo:3", "--minimal", "--axioms"), 15.0),
    ),
    "symmetry": (
        Op("count-boolean8", ("symmetries", "gen:boolean:8", "--count-only"), 60.0),
        Op("count-mo6", ("symmetries", "gen:mo:6", "--count-only"), 30.0),
        Op("count-minimal-b4-b2",
           ("symmetries", "{work}/minimal-b4-b2.ppl", "--count-only"), 15.0),
        Op("plane-boolean8", ("plane", "gen:boolean:8", "--witnesses"), 15.0),
        Op("plane-mo4", ("plane", "gen:mo:4", "--witnesses"), 15.0),
        Op("plane-minimal-b4-b2", ("plane", "{work}/minimal-b4-b2.ppl", "--witnesses"), 15.0),
        Op("plane-minimal-b4-b4",
           ("plane", "{work}/minimal-b4-b4.ppl", "--witnesses", "--budget", str(PLANE_BUDGET)),
           30.0),
    ),
    "search": tuple(
        Op(f"search-{t}", ("search", f"{{work}}/{t}.search"), 90.0 if i == 0 else 30.0)
        for i, t in enumerate(SEARCH_TARGETS)
    ),
}


# -- state spaces, built from their definitions --------------------------------

@dataclass(frozen=True)
class Space:
    """Labels plus orthogonality (``orth[p]`` is the set of states orthogonal to p)."""

    labels: tuple[str, ...]
    orth: dict[int, frozenset[int]]

    @property
    def n(self) -> int:
        return len(self.labels)


def boolean(n: int) -> Space:
    """n states, any two distinct ones orthogonal; labelled a, b, c, ..."""
    labels = tuple("abcdefghijklmnopqrstuvwxyz"[:n])
    return Space(labels, {p: frozenset(range(n)) - {p} for p in range(n)})


def mo(n: int) -> Space:
    """The lantern a1..an, b1..bn with ai orthogonal to bi only."""
    labels = tuple(f"a{i + 1}" for i in range(n)) + tuple(f"b{i + 1}" for i in range(n))
    orth = {i: frozenset([n + i]) for i in range(n)}
    orth.update({n + i: frozenset([i]) for i in range(n)})
    return Space(labels, orth)


def product(s1: Space, s2: Space) -> Space:
    """Pairs (p1, p2) flattened to p1 * n2 + p2, labelled "(x,y)".

    Two pairs are orthogonal when they are orthogonal in either slot.
    """
    n2 = s2.n
    labels = tuple(f"({a},{b})" for a in s1.labels for b in s2.labels)
    orth = {}
    for p1 in range(s1.n):
        for p2 in range(n2):
            orth[p1 * n2 + p2] = frozenset(
                q1 * n2 + q2 for q1 in range(s1.n) for q2 in range(n2)
                if q1 in s1.orth[p1] or q2 in s2.orth[p2])
    return Space(labels, orth)


def powerset(n: int) -> set[frozenset[int]]:
    return {frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)}


def rectangles(fam1: set[frozenset[int]], fam2: set[frozenset[int]],
               n2: int) -> set[frozenset[int]]:
    """Products F x G of nonempty members, plus the empty set: the minimal product."""
    out = {frozenset()}
    for f in fam1:
        for g in fam2:
            if f and g:
                out.add(frozenset(a * n2 + b for a in f for b in g))
    return out


def minimal_boolean_product(n1: int, n2: int) -> tuple[Space, set[frozenset[int]]]:
    """minimal(boolean:n1, boolean:n2): product orthogonality, rectangle family."""
    return product(boolean(n1), boolean(n2)), rectangles(powerset(n1), powerset(n2), n2)


def ppl_text(space: Space, family: set[frozenset[int]]) -> str:
    """A ``ppl v1`` document; the empty set, singletons and the full set are implied."""
    out = ["ppl v1", "atoms " + " ".join(space.labels)]
    for m in sorted(family, key=lambda s: (len(s), sorted(s))):
        if 1 < len(m) < space.n:
            out.append("closed " + " ".join(space.labels[i] for i in sorted(m)))
    for p in range(space.n):
        for q in sorted(space.orth[p]):
            if p < q:
                out.append(f"orth {space.labels[p]} {space.labels[q]}")
    return "\n".join(out) + "\n"


def search_spec_text(target: str) -> str:
    return (f"search v1\ntarget {target}\ncount {SEARCH_COUNT}\nnmax {SEARCH_NMAX}\n"
            f"density {SEARCH_DENSITY}\nseed {SEARCH_SEED}\n")


def write_inputs(workload: str, work: Path) -> None:
    """Write the input files the workload's operations read."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "symmetry":
        for n2 in (2, 4):
            space, family = minimal_boolean_product(4, n2)
            (work / f"minimal-b4-b{n2}.ppl").write_text(ppl_text(space, family))
    elif workload == "search":
        for t in SEARCH_TARGETS:
            (work / f"{t}.search").write_text(search_spec_text(t))
