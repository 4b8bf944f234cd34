"""Line-oriented text formats for state spaces and ppl's.

State space files::

    statespace v1
    atoms a b c        # cumulative; more atoms lines extend the list
    orth a b           # symmetric closure is applied automatically

Ppl files add ``closed`` lines for the closed sets beyond the implied
empty set, singletons, and full set::

    ppl v1
    atoms a1 a2 b1 b2
    closed a1 a2
    orth a1 b1

Everything from '#' to end of line is a comment; tokens are whitespace
separated.  Serialization emits the canonical form, so serializing a
parsed canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import io

from .bitset import mask_bits
from .closure import ClosureSystem
from .errors import InvalidInstanceError, ParseError
from .statespace import (PPL, OrthoRelation, StateSpace, is_biorthogonal_family,
                         validate_state_space)


def format_atom_set(mask: int, labels: tuple[str, ...]) -> str:
    return "{" + ",".join(labels[i] for i in mask_bits(mask)) + "}"


def _tokenize(text: str) -> list[list[tuple[str, int, int]]]:
    """Per line: (token, line number, column), comments stripped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = []
        col = 0
        for tok in line.split():
            col = line.index(tok, col)
            toks.append((tok, lineno, col + 1))
            col += len(tok)
        if toks:
            out.append(toks)
    return out


class _SpaceReader:
    """Shared directive handling for the two formats."""

    def __init__(self, header: str):
        self.header = header
        self.labels: list[str] = []
        self.index: dict[str, int] = {}
        self.orth_pairs: list[tuple[int, int]] = []
        self.seen_pairs: set[tuple[int, int]] = set()

    def check_header(self, toks) -> None:
        words = [t[0] for t in toks]
        if words != [self.header, "v1"]:
            raise ParseError(f"expected '{self.header} v1' header", toks[0][1], toks[0][2])

    def lookup(self, tok: tuple[str, int, int]) -> int:
        label, line, col = tok
        got = self.index.get(label)
        if got is None:
            raise ParseError(f"unknown atom label {label!r}", line, col)
        return got

    def handle_atoms(self, toks) -> None:
        if len(toks) < 2:
            raise ParseError("atoms line needs at least one label", toks[0][1], toks[0][2])
        for label, line, col in toks[1:]:
            if label in self.index:
                raise ParseError(f"duplicate atom label {label!r}", line, col)
            self.index[label] = len(self.labels)
            self.labels.append(label)

    def handle_orth(self, toks) -> None:
        if len(toks) != 3:
            raise ParseError("orth line needs exactly two labels", toks[0][1], toks[0][2])
        p, q = self.lookup(toks[1]), self.lookup(toks[2])
        if p == q:
            raise ParseError(f"atom {toks[1][0]!r} declared orthogonal to itself",
                             toks[1][1], toks[1][2])
        key = (min(p, q), max(p, q))
        if key in self.seen_pairs:
            raise ParseError(f"duplicate orth declaration {toks[1][0]} {toks[2][0]}",
                             toks[1][1], toks[1][2])
        self.seen_pairs.add(key)
        self.orth_pairs.append(key)

    def finish_orth(self) -> OrthoRelation:
        if not self.labels:
            raise ParseError("no atoms declared", 0, 0)
        return OrthoRelation.from_pairs(len(self.labels), self.orth_pairs)


def parse_statespace(text: str, *, validate: bool = True) -> StateSpace:
    """Parse a ``statespace v1`` document.

    With ``validate`` (the default), a relation failing the orthogonality
    axioms raises :class:`InvalidInstanceError` carrying the report.
    """
    lines = _tokenize(text)
    if not lines:
        raise ParseError("empty document", 0, 0)
    reader = _SpaceReader("statespace")
    reader.check_header(lines[0])
    for toks in lines[1:]:
        word = toks[0][0]
        if word == "atoms":
            reader.handle_atoms(toks)
        elif word == "orth":
            reader.handle_orth(toks)
        else:
            raise ParseError(f"unknown directive {word!r}", toks[0][1], toks[0][2])
    ss = StateSpace(tuple(reader.labels), reader.finish_orth())
    if validate:
        report = validate_state_space(ss)
        if not report.ok:
            raise InvalidInstanceError(report)
    return ss


def serialize_statespace(ss: StateSpace) -> str:
    out = ["statespace v1", "atoms " + " ".join(ss.labels)]
    for p, q in ss.orth.pairs():
        out.append(f"orth {ss.labels[p]} {ss.labels[q]}")
    return "\n".join(out) + "\n"


def parse_ppl(text: str, *, validate: bool = True) -> PPL:
    """Parse a ``ppl v1`` document.

    The implied T1 sets (empty, singletons, full) are inserted.  The
    result is marked ``biorthogonal`` when the family is exactly the
    double-perp family, which is intersection-closed because
    A⊥⊥ ∩ B⊥⊥ = (A⊥ ∪ B⊥)⊥.  Any other family is verified
    intersection-closed pair by pair; a missing intersection is reported
    with the offending pair.  ``validate`` additionally runs the
    orthogonality axioms.
    """
    lines = _tokenize(text)
    if not lines:
        raise ParseError("empty document", 0, 0)
    reader = _SpaceReader("ppl")
    reader.check_header(lines[0])
    closed_decls: list[tuple[int, int]] = []  # (mask, line)
    explicit: set[int] = set()
    pending: list[list] = []
    for toks in lines[1:]:
        word = toks[0][0]
        if word == "atoms":
            reader.handle_atoms(toks)
        elif word == "orth":
            reader.handle_orth(toks)
        elif word == "closed":
            pending.append(toks)
        else:
            raise ParseError(f"unknown directive {word!r}", toks[0][1], toks[0][2])
    orth = reader.finish_orth()
    n = len(reader.labels)
    for toks in pending:
        mask = 0
        for tok in toks[1:]:
            a = reader.lookup(tok)
            if (mask >> a) & 1:
                raise ParseError(f"atom {tok[0]!r} repeated in closed set", tok[1], tok[2])
            mask |= 1 << a
        if mask in explicit:
            raise ParseError("duplicate closed set declaration", toks[0][1], toks[0][2])
        explicit.add(mask)
        closed_decls.append((mask, toks[0][1]))
    family = {0, (1 << n) - 1} | {1 << p for p in range(n)} | explicit
    cs = ClosureSystem.from_masks(n, family)
    biorthogonal = is_biorthogonal_family(cs, orth)
    defect = None if biorthogonal else cs.intersection_defect()
    if defect is not None:
        f, g = defect
        raise ParseError(
            "family is not intersection-closed: "
            f"{format_atom_set(f, tuple(reader.labels))} and "
            f"{format_atom_set(g, tuple(reader.labels))} meet in a missing set",
            next((ln for m, ln in closed_decls if m in (f, g)), lines[0][0][1]))
    ppl = PPL(cs=cs, orth=orth, labels=tuple(reader.labels), biorthogonal=biorthogonal)
    if validate:
        report = ppl.validate()
        if not report.ok:
            raise InvalidInstanceError(report)
    return ppl


def serialize_ppl(ppl: PPL) -> str:
    n = ppl.n
    full = (1 << n) - 1
    out = ["ppl v1", "atoms " + " ".join(ppl.labels)]
    for m in ppl.cs.masks:
        if m == 0 or m == full or m.bit_count() == 1:
            continue
        out.append("closed " + " ".join(ppl.labels[i] for i in mask_bits(m)))
    for p, q in ppl.orth.pairs():
        out.append(f"orth {ppl.labels[p]} {ppl.labels[q]}")
    return "\n".join(out) + "\n"


def sniff_format(text: str) -> str:
    """First word of the first meaningful line ('statespace', 'ppl', 'search',
    ...), split as :func:`_tokenize` splits it, without reading the lines after."""
    for chunk in io.StringIO(text):
        for line in chunk.splitlines():
            if words := line.split("#", 1)[0].split():
                return words[0]
    raise ParseError("empty document", 0, 0)
