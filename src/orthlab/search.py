"""Seeded search for would-be counterexamples to the product no-go claims.

A search spec names a target predicate and a generator schedule::

    search v1
    target separated-orthomodular-nonboolean
    count 200
    nmax 4
    density 0.5
    seed 1

Instance i derives everything from one splitmix64 stream seeded with
``seed + i``: two sizes in 1..nmax, then two seeds for
:func:`orthlab.catalog.random_space`.  The factors of a block of
instances are drawn together by :func:`orthlab.catalog.random_spaces`,
which gives each the space ``random_space`` gives, and the target runs
once per distinct factor pair of a run.  A hit is an instance
satisfying the target; hits carry the full serialized factor spaces so
they can be replayed, and any hit contradicts a structural claim this
package is built around.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import (check_covering_law, check_orthomodular,
                     find_compatible_orthocomplementation, is_boolean)
from .catalog import SplitMix64, random_spaces
from .errors import CapacityError, CouldNotSeparateError, ParseError
from .formats import _tokenize, parse_natural, serialize_statespace
from .products import minimal_product, separated_product
from .statespace import PPL, StateSpace, property_lattice


@dataclass(frozen=True)
class SearchSpec:
    target: str
    count: int
    nmax: int = 4
    density: float = 0.5
    seed: int = 1


@dataclass(frozen=True)
class InstanceResult:
    index: int
    seed: int
    n1: int
    n2: int
    status: str  # "pass" | "hit" | "invalid"
    detail: str = ""


@dataclass(frozen=True)
class Hit:
    instance: InstanceResult
    input1: str
    input2: str


@dataclass(frozen=True)
class SearchReport:
    spec: SearchSpec
    instances: tuple[InstanceResult, ...]
    hits: tuple[Hit, ...]

    @property
    def invalid(self) -> int:
        return sum(1 for r in self.instances if r.status == "invalid")


def _sep_orthomodular_nonboolean(ss1: StateSpace, ss2: StateSpace) -> str | None:
    """Hit iff the separated product is orthomodular and neither factor is Boolean."""
    for ss in (ss1, ss2):
        if is_boolean(property_lattice(ss)):
            return None
    if check_orthomodular(property_lattice(separated_product(ss1, ss2))).holds:
        return "separated product is orthomodular with two non-Boolean factors"
    return None


def _nontrivial_minimal_product(ss1: StateSpace, ss2: StateSpace) -> PPL | None:
    """The minimal product of the two property lattices, or None when a factor is trivial.

    A factor is trivial, a lattice of at most two elements, exactly when
    it has one atom: a T1 family on n ≥ 2 atoms holds ∅, the n singletons
    and the full set.  So no lattice is built to decide it.
    """
    if ss1.n == 1 or ss2.n == 1:
        return None
    return minimal_product(property_lattice(ss1), property_lattice(ss2))


def _minimal_oc_nontrivial(ss1: StateSpace, ss2: StateSpace) -> str | None:
    """Hit iff the minimal product admits a compatible complement with both factors nontrivial."""
    prod = _nontrivial_minimal_product(ss1, ss2)
    if prod is not None and find_compatible_orthocomplementation(prod).holds:
        return "minimal product admits a compatible orthocomplementation with nontrivial factors"
    return None


def _minimal_covering_nontrivial(ss1: StateSpace, ss2: StateSpace) -> str | None:
    """Hit iff the minimal product satisfies the covering law with both factors nontrivial."""
    prod = _nontrivial_minimal_product(ss1, ss2)
    if prod is not None and check_covering_law(prod).holds:
        return "minimal product satisfies the covering law with nontrivial factors"
    return None


TARGETS = {
    "separated-orthomodular-nonboolean": _sep_orthomodular_nonboolean,
    "minimal-orthocomplementation-nontrivial": _minimal_oc_nontrivial,
    "minimal-covering-nontrivial": _minimal_covering_nontrivial,
}


def parse_search_spec(text: str) -> SearchSpec:
    lines = _tokenize(text)
    if not lines or [t[0] for t in lines[0]] != ["search", "v1"]:
        raise ParseError("expected 'search v1' header",
                         lines[0][0][1] if lines else 0)
    fields: dict[str, str] = {}
    for toks in lines[1:]:
        if len(toks) != 2:
            raise ParseError("expected 'key value'", toks[0][1], toks[0][2])
        key, (value, line, col) = toks[0][0], toks[1]
        if key not in ("target", "count", "nmax", "density", "seed"):
            raise ParseError(f"unknown key {key!r}", toks[0][1], toks[0][2])
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", line, col)
        fields[key] = value
    if "target" not in fields or "count" not in fields:
        raise ParseError("spec needs at least 'target' and 'count'", 0, 0)
    if fields["target"] not in TARGETS:
        raise ParseError(f"unknown target {fields['target']!r}", 0, 0)
    try:
        return SearchSpec(
            target=fields["target"],
            count=parse_natural(fields["count"]),
            nmax=parse_natural(fields.get("nmax", "4")),
            density=float(fields.get("density", "0.5")),
            seed=parse_natural(fields.get("seed", "1")),
        )
    except ValueError as exc:
        raise ParseError(f"bad value in search spec: {exc}", 0, 0) from exc


#: Instances drawn per block: two factors each, so a block asks
#: :func:`random_spaces` for at most 1,024 seeds and holds that many spaces.
BLOCK = 512


def _draw_factors(factors: list[tuple[int, int]],
                  density: float) -> dict[tuple[int, int], StateSpace | Exception]:
    """``random_space(n, density, seed)`` for each (n, seed), or what that call raises.

    One :func:`random_spaces` call draws all seeds of one n.  An error it
    raises for its (n, density) is kept for each of them, so the search
    raises it at the first instance that reads such a factor.
    """
    by_n: dict[int, list[int]] = {}
    for n, seed in factors:
        by_n.setdefault(n, []).append(seed)
    drawn: dict[tuple[int, int], StateSpace | Exception] = {}
    for n, seeds in by_n.items():
        try:
            spaces = random_spaces(n, density, seeds)
        except (ValueError, CapacityError) as exc:
            spaces = [exc] * len(seeds)
        drawn.update(zip(((n, seed) for seed in seeds), spaces))
    return drawn


def _factor(drawn: StateSpace | Exception) -> StateSpace:
    if isinstance(drawn, Exception):
        raise drawn
    return drawn


def run_search(spec: SearchSpec) -> SearchReport:
    """Evaluate the target over the seeded instance schedule; deterministic.

    The factors of a block of instances are drawn first, and the target
    then runs once per distinct factor pair of the run, its verdict kept
    for the later instances of that pair, across blocks.  The rows of
    both relations key the verdict exactly: ``random_spaces`` labels its
    states s0…s{n-1}, so the rows fix the space, and every target is a
    pure function of its two spaces.  A target that raises keeps no
    verdict, so the report and the instance at which an error surfaces
    are those of drawing each factor, and running the target, as its
    instance comes.
    """
    if spec.count < 0 or spec.nmax < 1:
        raise ValueError("count must be >= 0 and nmax >= 1")
    target = TARGETS[spec.target]
    verdicts: dict[tuple[tuple[int, ...], tuple[int, ...]], str | None] = {}
    instances = []
    hits = []
    for start in range(0, spec.count, BLOCK):
        block = []
        for i in range(start, min(spec.count, start + BLOCK)):
            rng = SplitMix64(spec.seed + i)
            n1 = 1 + rng.next_below(spec.nmax)
            n2 = 1 + rng.next_below(spec.nmax)
            block.append((i, n1, n2, rng.next_u64(), rng.next_u64()))
        drawn = _draw_factors([f for _, n1, n2, s1, s2 in block for f in ((n1, s1), (n2, s2))],
                              spec.density)
        for i, n1, n2, seed1, seed2 in block:
            inst_seed = spec.seed + i
            try:
                ss1 = _factor(drawn[n1, seed1])
                ss2 = _factor(drawn[n2, seed2])
            except CouldNotSeparateError as exc:
                instances.append(InstanceResult(i, inst_seed, n1, n2, "invalid", str(exc)))
                continue
            pair = (ss1.orth.rows, ss2.orth.rows)
            if pair not in verdicts:
                verdicts[pair] = target(ss1, ss2)
            detail = verdicts[pair]
            if detail is None:
                instances.append(InstanceResult(i, inst_seed, n1, n2, "pass"))
            else:
                result = InstanceResult(i, inst_seed, n1, n2, "hit", detail)
                instances.append(result)
                hits.append(Hit(result, serialize_statespace(ss1), serialize_statespace(ss2)))
    return SearchReport(spec, tuple(instances), tuple(hits))


def render_report(report: SearchReport) -> str:
    """One finding per line; hits include the serialized factor inputs."""
    out = []
    for r in report.instances:
        out.append(f"instance\t{r.index}\tseed\t{r.seed}\tn1\t{r.n1}\tn2\t{r.n2}"
                   f"\tstatus\t{r.status}" + (f"\t{r.detail}" if r.detail else ""))
    for h in report.hits:
        for tag, text in (("input1", h.input1), ("input2", h.input2)):
            for line in text.rstrip("\n").splitlines():
                out.append(f"hit\t{h.instance.index}\t{tag}\t{line}")
    out.append(f"summary\tcount\t{len(report.instances)}\thits\t{len(report.hits)}"
               f"\tinvalid\t{report.invalid}")
    return "\n".join(out) + "\n"
