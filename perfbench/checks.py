"""Checks of every operation's output against answers computed apart from orthlab.

Expected answers come from the definitions (``workloads``), from
construction facts stated in the README, and from the brute-force oracles
in ``tests/oracles.py``.  Nothing here imports orthlab.  ``Checker.check``
returns None for a correct output and a reason otherwise; ``mutations``
makes deliberately wrong outputs that the self-test feeds back to the
checks, each of which must be rejected.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as cartesian
from typing import Callable

import workloads as W

sys.path.insert(0, str(W.ROOT / "tests"))
import oracles as ora  # noqa: E402

#: Operations that fail today because of a fault in the program.
KNOWN_FAULTS = {
    "plane-minimal-b4-b4":
        "find_plane_symmetry's pinned backtracking exhausts its node budget "
        "although every ordered pair has a witness",
}

AXIOMS = ("orthocomplementation", "orthomodular", "covering", "boolean", "irreducible")


class Rejected(Exception):
    """An output is wrong; the message says why."""


def _require(ok: bool, why: str) -> None:
    if not ok:
        raise Rejected(why)


# -- inputs, built apart from the program --------------------------------------

@dataclass
class Lattice:
    """One input: a space, its closed-set family, and what the program must report."""

    space: W.Space
    build: Callable[[], set[frozenset[int]]]
    expected_elements: Callable[[], int] | None = None
    verdicts: dict[str, str] = field(default_factory=dict)
    exit_code: int = 0

    @cached_property
    def family(self) -> set[frozenset[int]]:
        return self.build()

    @cached_property
    def full(self) -> frozenset[int]:
        return frozenset(range(self.space.n))

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.space.labels)}

    @cached_property
    def comp(self) -> dict[frozenset[int], frozenset[int]]:
        """The compatible complement of a property lattice: A goes to its perp."""
        return {a: ora.perp(self.space.orth, a) for a in self.family}

    def parse_set(self, text: str) -> frozenset[int]:
        _require(text.startswith("{") and text.endswith("}"), f"not a set: {text!r}")
        body = text[1:-1]
        labels = re.findall(r"\([^()]*\)|[^,]+", body) if body else []
        _require(",".join(labels) == body, f"cannot split {text!r} into labels")
        unknown = [lab for lab in labels if lab not in self.index]
        _require(not unknown, f"unknown labels {unknown}")
        return frozenset(self.index[lab] for lab in labels)

    def format_set(self, s: frozenset[int]) -> str:
        return "{" + ",".join(self.space.labels[i] for i in sorted(s)) + "}"

    def is_central(self, z: frozenset[int]) -> bool:
        """The definition behind ``oracles.central_elements``, for one member z."""
        zc = self.comp[z]
        return all(ora.family_join(self.family, f & z, f & zc) == f for f in self.family)

    def central_elements(self) -> set[frozenset[int]]:
        """Every central member.

        A central z splits each atom {p} as ({p} meet z) join ({p} meet z'),
        so z together with its perp covers every atom; only such members
        can be central, and those are tested by the definition.
        """
        return {z for z in self.family if z | self.comp[z] == self.full and self.is_central(z)}


def _mo_closed(n: int) -> set[frozenset[int]]:
    s = W.mo(n)
    return ora.closed_sets({p: set(q) for p, q in s.orth.items()})


def _blocks(k: int, factor: set[frozenset[int]], n2: int) -> set[frozenset[int]]:
    """separated(boolean:k, L): one closed set of L in each block {i} x atoms(L)."""
    return {frozenset(i * n2 + x for i, f in enumerate(choice) for x in f)
            for choice in cartesian(sorted(factor, key=sorted), repeat=k)}


def _perp_intersections(space: W.Space) -> set[frozenset[int]]:
    """Closed sets are exactly the intersections of perps of single states."""
    return ora.saturate_intersections([space.orth[p] for p in range(space.n)],
                                      range(space.n))


def _axioms_inputs() -> dict[str, Lattice]:
    mo3 = W.product(W.mo(3), W.mo(3))
    mo_verdicts = dict(zip(AXIOMS, ("pass", "pass", "pass", "fail", "fail")))
    out = {
        "axioms-boolean7": Lattice(
            W.boolean(7), lambda: W.powerset(7),
            verdicts=dict(zip(AXIOMS, ("pass", "pass", "pass", "pass", "fail")))),
        "separated-mo3-mo3": Lattice(
            mo3, lambda: _perp_intersections(mo3),
            expected_elements=lambda: len(_perp_intersections(mo3)),
            verdicts=dict(zip(AXIOMS, ("pass", "fail", "fail", "fail", "pass"))),
            exit_code=1),
        "minimal-mo3-mo3": Lattice(
            mo3, lambda: W.rectangles(_mo_closed(3), _mo_closed(3), 6),
            expected_elements=lambda: (len(_mo_closed(3)) - 1) ** 2 + 1,
            verdicts=dict(zip(AXIOMS, ("fail", "skip", "fail", "skip", "skip"))),
            exit_code=1),
    }
    for k, j in ((3, 3), (4, 2)):
        out[f"separated-boolean{k}-mo{j}"] = Lattice(
            W.product(W.boolean(k), W.mo(j)),
            lambda k=k, j=j: _blocks(k, _mo_closed(j), 2 * j),
            expected_elements=lambda k=k, j=j: len(_mo_closed(j)) ** k,
            verdicts=mo_verdicts)
    return out


def _symmetry_inputs() -> dict[str, Lattice]:
    b8 = Lattice(W.boolean(8), lambda: W.powerset(8))
    m42, m44 = (Lattice(W.product(W.boolean(4), W.boolean(k)),
                        lambda k=k: W.minimal_boolean_product(4, k)[1]) for k in (2, 4))
    return {
        "count-boolean8": b8,
        "count-mo6": Lattice(W.mo(6), lambda: _mo_closed(6)),
        "count-minimal-b4-b2": m42,
        "plane-boolean8": b8,
        "plane-mo4": Lattice(W.mo(4), lambda: _mo_closed(4)),
        "plane-minimal-b4-b2": m42,
        "plane-minimal-b4-b4": m44,
    }


#: Group orders: n! for boolean:n, 2^n n! for mo:n, and 4! 2! for
#: minimal(boolean:4, boolean:2), whose symmetries permute each factor.
COUNTS = {
    "count-boolean8": math.factorial(8),
    "count-mo6": 2 ** 6 * math.factorial(6),
    "count-minimal-b4-b2": math.factorial(4) * math.factorial(2),
}
#: Counts also confirmed by the brute-force oracle (small enough for it).
COUNTS_BY_ORACLE = ("count-minimal-b4-b2",)
#: Plane transitivity: boolean:n for n >= 4 and products of plane
#: transitive factors are; mo:n and minimal(boolean:4, boolean:2) are not.
PLANE = {"plane-boolean8": True, "plane-mo4": False,
         "plane-minimal-b4-b2": False, "plane-minimal-b4-b4": True}


# -- search, from the splitmix64 definition in catalog.py's docstring -----------

_M64 = (1 << 64) - 1


def splitmix64(seed: int):
    """The 64-bit outputs of splitmix64 seeded with ``seed``."""
    state = seed & _M64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield z ^ (z >> 31)


def instance_sizes(seed: int, nmax: int) -> tuple[int, int]:
    """Instance sizes (n1, n2): the first two draws of the stream, each mod nmax, plus one."""
    g = splitmix64(seed)
    return 1 + next(g) % nmax, 1 + next(g) % nmax


# -- the checker -----------------------------------------------------------------

class Checker:
    """Checks the outputs of one workload; caches what it computes along the way."""

    def __init__(self, workload: str):
        self.workload = workload
        self.inputs = {"axioms-ladder": _axioms_inputs,
                       "symmetry": _symmetry_inputs}.get(workload, dict)()
        self._verdicts: dict[tuple, str | None] = {}
        self._lines: dict[tuple, None] = {}
        self._witness_pairs: dict[tuple, bool] = {}

    def check(self, key: str, code: int | None, error: str | None, stdout: str) -> str | None:
        """None if the output is right; else why not.  Pure in its arguments."""
        memo = (key, code, error, stdout)
        if memo not in self._verdicts:
            try:
                _require(error is None, error or "")
                self._check(key, code, stdout)
                self._verdicts[memo] = None
            except Rejected as exc:
                self._verdicts[memo] = str(exc)
        return self._verdicts[memo]

    def _check(self, key: str, code: int | None, stdout: str) -> None:
        if self.workload == "axioms-ladder":
            lat = self.inputs[key]
            _require(code == lat.exit_code, f"exit code {code}, expected {lat.exit_code}")
            self._check_axioms(key, lat, stdout.splitlines())
        elif key.startswith("count-"):
            _require(code == 0, f"exit code {code}, expected 0")
            self._check_count(key, stdout)
        elif key.startswith("plane-"):
            expect = PLANE[key]
            _require(code == (0 if expect else 1),
                     f"exit code {code}, expected {0 if expect else 1}")
            self._check_plane(key, expect, stdout.splitlines())
        else:
            _require(code == 0, f"exit code {code}, expected 0 (no hits)")
            self._check_search(stdout.splitlines())

    # -- axioms-ladder ---------------------------------------------------------

    def _check_axioms(self, key: str, lat: Lattice, lines: list[str]) -> None:
        if lat.expected_elements is not None:
            _require(lines[:2] == [f"atoms\t{lat.space.n}",
                                   f"elements\t{lat.expected_elements()}"],
                     f"size lines {lines[:2]}, expected {lat.space.n} atoms and "
                     f"{lat.expected_elements()} elements")
            lines = lines[2:]
        _require(len(lines) == len(AXIOMS), f"{len(lines)} axiom lines, expected 5")
        for axiom, line in zip(AXIOMS, lines):
            fields = line.split("\t")
            _require(fields[0] == axiom, f"line {line!r} where {axiom} was due")
            verdict = fields[1] if len(fields) > 1 else ""
            _require(verdict == lat.verdicts[axiom],
                     f"{axiom} {verdict!r}, expected {lat.verdicts[axiom]}")
            if verdict == "skip":
                _require(fields[2:] == ["no orthocomplementation"], f"bad skip line {line!r}")
            elif verdict == "pass":
                _require(len(fields) == 2, f"pass line with extra fields {line!r}")
                if axiom == "irreducible":
                    self._line_once(key, line, lambda: _require(
                        lat.central_elements() == {frozenset(), lat.full},
                        "a nontrivial central element exists"))
            else:
                self._line_once(key, line, lambda: self._replay(lat, axiom, fields[2:]))

    def _line_once(self, key: str, line: str, fn) -> None:
        """Run a costly line check once per (operation, line); a rejection is not cached."""
        if (key, line) not in self._lines:
            fn()
            self._lines[(key, line)] = None

    def _replay(self, lat: Lattice, axiom: str, cert: list[str]) -> None:
        _require(len(cert) >= 2, "failure without a certificate")
        kind, parts = cert[0], {}
        for text in cert[1:]:
            name, sep, value = text.partition("=")
            _require(sep == "=" and name not in parts, f"bad certificate part {text!r}")
            parts[name] = lat.parse_set(value)
        fam, orth = lat.family, lat.space.orth

        def get(*names):
            _require(set(names) == set(parts), f"{kind} parts {sorted(parts)}")
            return [parts[n] for n in names]

        if axiom == "orthocomplementation" and kind in ("atom-row-not-closed",
                                                        "perp-not-closed"):
            # A compatible complement must send each member to its perp, so a
            # perp missing from the family rules every complement out.
            elem, req = get("atom" if kind == "atom-row-not-closed" else "element", "required")
            _require(elem in fam and (kind == "perp-not-closed" or len(elem) == 1),
                     f"{kind}: {lat.format_set(elem)} is not a member of the right kind")
            _require(req == ora.perp(orth, elem) and req not in fam,
                     f"{kind}: required set is not a missing perp")
        elif axiom == "orthomodular" and kind == "orthomodularity":
            _require(ora.replay_orthomodular(fam, lat.comp, *get("a", "b", "rebuilt")),
                     "orthomodularity certificate does not replay")
        elif axiom == "covering" and kind == "covering-law":
            _require(ora.replay_covering(fam, *get("p", "a", "join", "between")),
                     "covering certificate does not replay")
        elif axiom == "boolean" and kind == "distributivity":
            _require(ora.replay_distributivity(fam, *get("x", "y", "z")),
                     "distributivity certificate does not replay")
        elif axiom == "irreducible" and kind == "central-element":
            (z,) = get("z")
            _require(z in fam and z not in (frozenset(), lat.full) and lat.is_central(z),
                     f"{lat.format_set(z)} is not a nontrivial central element")
        else:
            raise Rejected(f"{axiom}: certificate kind {kind!r} cannot be replayed")

    # -- symmetry ----------------------------------------------------------------

    def _check_count(self, key: str, stdout: str) -> None:
        expect = COUNTS[key]
        _require(stdout == f"count\t{expect}\n", f"output {stdout!r}, expected count {expect}")
        if key in COUNTS_BY_ORACLE:
            lat = self.inputs[key]
            self._line_once(key, "oracle", lambda: _require(
                len(ora.all_symmetries(lat.space.orth, lat.family)) == expect,
                f"brute-force symmetry count differs from {expect}"))

    def _has_witness(self, key: str, p: int, q: int) -> bool:
        if (key, p, q) not in self._witness_pairs:
            lat = self.inputs[key]
            self._witness_pairs[(key, p, q)] = ora.exists_plane_symmetry(
                lat.space.orth, lat.family, p, q) is not None
        return self._witness_pairs[(key, p, q)]

    def _check_plane(self, key: str, expect: bool, lines: list[str]) -> None:
        lat = self.inputs[key]
        n = lat.space.n
        _require(lines[:1] == [f"plane-transitive\t{'true' if expect else 'false'}"],
                 f"first line {lines[:1]}, expected plane-transitive {expect}")
        if not expect:
            fields = lines[1].split("\t") if len(lines) == 2 else []
            _require(len(fields) == 3 and fields[0] == "failing-pair",
                     f"expected one failing-pair line, got {lines[1:]}")
            p, q = (lat.index.get(f) for f in fields[1:])
            _require(p is not None and q is not None, f"unknown atoms in {lines[1]!r}")
            _require(not self._has_witness(key, p, q),
                     f"pair {fields[1:]} has a plane witness")
            for i in range(p * n + q):
                _require(self._has_witness(key, *divmod(i, n)),
                         f"pair {divmod(i, n)} before the failing pair has no witness")
            return
        _require(len(lines) == 1 + n * n, f"{len(lines) - 1} witness lines, expected {n * n}")
        seen = set()
        orth, fam = lat.space.orth, lat.family
        for line in lines[1:]:
            fields = line.split("\t")
            _require(len(fields) == 6 and fields[0] == "witness", f"bad witness line {line!r}")
            try:
                p, q, p1, p2 = (lat.index[f] for f in fields[1:5])
                perm = tuple(lat.index[lab] for lab in fields[5].split(" "))
            except KeyError as exc:
                raise Rejected(f"unknown atom {exc} in {line!r}") from None
            _require((p, q) not in seen, f"pair {fields[1:3]} witnessed twice")
            seen.add((p, q))
            _require(sorted(perm) == list(range(n)), f"images {fields[5]!r} are no permutation")
            _require(perm[p] == q and p1 != p2, f"witness {line!r} does not map p to q")
            _require(all(perm[r] == r for r in ora.plane_atoms(fam, p1, p2)),
                     f"witness {line!r} moves an atom of its plane")
            _require(ora.is_symmetry_perm(orth, fam, perm), f"witness {line!r} is no symmetry")

    # -- search --------------------------------------------------------------------

    def _check_search(self, lines: list[str]) -> None:
        _require(not any(line.startswith("hit") for line in lines), "the search reports hits")
        _require(len(lines) == W.SEARCH_COUNT + 1,
                 f"{len(lines) - 1} instance lines, expected {W.SEARCH_COUNT}")
        invalid = 0
        for i, line in enumerate(lines[:-1]):
            f = line.split("\t")
            seed = W.SEARCH_SEED + i
            n1, n2 = instance_sizes(seed, W.SEARCH_NMAX)
            _require(f[:9] == ["instance", str(i), "seed", str(seed), "n1", str(n1),
                               "n2", str(n2), "status"],
                     f"instance line {line!r}, expected index {i}, seed {seed}, "
                     f"sizes {n1} and {n2}")
            status = f[9] if len(f) > 9 else ""
            _require(status in ("pass", "invalid"), f"instance {i} has status {status!r}")
            invalid += status == "invalid"
        summary = f"summary\tcount\t{W.SEARCH_COUNT}\thits\t0\tinvalid\t{invalid}"
        _require(lines[-1] == summary, f"summary {lines[-1]!r}, expected {summary!r}")


# -- self-test: wrong outputs the checks must reject -------------------------------

def mutations(checker: Checker, key: str, stdout: str) -> list[tuple[str, str]]:
    """(name, wrong output) pairs derived from a correct output of ``key``."""
    lines = stdout.splitlines()
    out = []

    def emit(name: str, new_lines: list[str]) -> None:
        out.append((name, "\n".join(new_lines) + "\n"))

    if checker.workload == "axioms-ladder":
        lat = checker.inputs[key]
        for i, line in enumerate(lines):
            f = line.split("\t")
            if f[0] == "elements":
                emit("elements off by one", lines[:i] + [f"elements\t{int(f[1]) + 1}"]
                     + lines[i + 1:])
            elif len(f) > 2 and f[1] == "fail":
                emit(f"{f[0]} verdict flipped", lines[:i] + [f"{f[0]}\tpass"] + lines[i + 1:])
                parts = dict(p.split("=", 1) for p in f[3:])
                swap = {"orthomodularity": ("a", "b"), "covering-law": ("join", "between"),
                        "atom-row-not-closed": ("atom", "required"),
                        "perp-not-closed": ("element", "required")}.get(f[2])
                if swap:
                    parts[swap[0]], parts[swap[1]] = parts[swap[1]], parts[swap[0]]
                elif f[2] == "distributivity":
                    parts["z"] = parts["x"]  # (x, y, x) always distributes
                elif f[2] == "central-element":
                    parts["z"] = lat.format_set(lat.full)
                new = "\t".join(f[:3] + [f"{k}={v}" for k, v in parts.items()])
                emit(f"{f[0]} certificate part changed", lines[:i] + [new] + lines[i + 1:])
            elif len(f) == 2 and f[1] == "pass":
                emit(f"{f[0]} verdict flipped", lines[:i] + [f"{f[0]}\tfail"] + lines[i + 1:])
    elif key.startswith("count-"):
        emit("count off by one", [f"count\t{COUNTS[key] + 1}"])
    elif key.startswith("plane-"):
        if lines[0].endswith("true"):
            f = lines[1].split("\t")
            images = f[5].split(" ")
            images[-1] = images[0]
            emit("one witness image changed", [lines[0], "\t".join(f[:5] + [" ".join(images)])]
                 + lines[2:])
            emit("witness dropped", lines[:-1])
        else:
            first = checker.inputs[key].space.labels[0]
            emit("failing pair moved", [lines[0], f"failing-pair\t{first}\t{first}"])
            emit("verdict flipped", ["plane-transitive\ttrue"])
    else:
        f = lines[0].split("\t")
        emit("a hit reported", ["\t".join(f[:9] + ["hit", "contradiction"])] + lines[1:-1]
             + ["hit\t0\tinput1\tstatespace v1",
                lines[-1].replace("\thits\t0\t", "\thits\t1\t")])
        f[5] = str(int(f[5]) % W.SEARCH_NMAX + 1)
        emit("instance size changed", ["\t".join(f)] + lines[1:])
        emit("instance dropped", lines[1:])
    return out


def self_test(checker: Checker,
              outputs: dict[str, tuple[int | None, str]]) -> tuple[int, list[str]]:
    """How many wrong outputs were tried, and the names of those the checks accepted."""
    tried, accepted = 0, []
    for key, (code, stdout) in outputs.items():
        for name, wrong in mutations(checker, key, stdout):
            tried += 1
            if checker.check(key, code, None, wrong) is None:
                accepted.append(f"{key}: {name}")
    return tried, accepted
