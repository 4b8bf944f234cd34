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
from .errors import ParseError
from .statespace import PPL, OrthoRelation, StateSpace, is_biorthogonal_family


def parse_natural(text: str) -> int:
    """The integer that ``text`` writes in ASCII digits 0-9, else a ValueError.

    The one grammar of every count, size, seed and budget read from text:
    no sign, underscore, space or non-ASCII digit, which ``int`` accepts.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits 0-9, got {text!r}")
    return int(text)


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


def _read(text: str, header: str) -> tuple[tuple[str, ...], OrthoRelation, dict[int, int]]:
    """Labels, orthogonality and declared closed sets of a ``<header> v1`` document.

    Directives are checked line by line in file order; ``closed`` is one
    only in a ppl.  Its lines are read after the others, since they may
    name atoms that a later ``atoms`` line declares; each declared set is
    mapped to the line that declares it.
    """
    lines = _tokenize(text)
    if not lines:
        raise ParseError("empty document", 0, 0)
    if [t[0] for t in lines[0]] != [header, "v1"]:
        raise ParseError(f"expected '{header} v1' header", lines[0][0][1], lines[0][0][2])
    index: dict[str, int] = {}

    def lookup(tok: tuple[str, int, int]) -> int:
        if (got := index.get(tok[0])) is None:
            raise ParseError(f"unknown atom label {tok[0]!r}", tok[1], tok[2])
        return got

    pairs: set[tuple[int, int]] = set()
    closed_lines = []
    for toks in lines[1:]:
        word, line, col = toks[0]
        if word == "atoms":
            if len(toks) < 2:
                raise ParseError("atoms line needs at least one label", line, col)
            for label, line, col in toks[1:]:
                if label in index:
                    raise ParseError(f"duplicate atom label {label!r}", line, col)
                index[label] = len(index)
        elif word == "orth":
            if len(toks) != 3:
                raise ParseError("orth line needs exactly two labels", line, col)
            p, q = lookup(toks[1]), lookup(toks[2])
            if p == q:
                raise ParseError(f"atom {toks[1][0]!r} declared orthogonal to itself",
                                 toks[1][1], toks[1][2])
            key = (min(p, q), max(p, q))
            if key in pairs:
                raise ParseError(f"duplicate orth declaration {toks[1][0]} {toks[2][0]}",
                                 toks[1][1], toks[1][2])
            pairs.add(key)
        elif word == "closed" and header == "ppl":
            closed_lines.append(toks)
        else:
            raise ParseError(f"unknown directive {word!r}", line, col)
    if not index:
        raise ParseError("no atoms declared", 0, 0)
    closed: dict[int, int] = {}
    for toks in closed_lines:
        mask = 0
        for tok in toks[1:]:
            a = lookup(tok)
            if (mask >> a) & 1:
                raise ParseError(f"atom {tok[0]!r} repeated in closed set", tok[1], tok[2])
            mask |= 1 << a
        if mask in closed:
            raise ParseError("duplicate closed set declaration", toks[0][1], toks[0][2])
        closed[mask] = toks[0][1]
    return tuple(index), OrthoRelation.from_pairs(len(index), pairs), closed


def _write(header: str, labels: tuple[str, ...], orth: OrthoRelation,
           closed: list[int]) -> str:
    """The canonical document: header, one atoms line, closed lines, orth lines."""
    out = [f"{header} v1", "atoms " + " ".join(labels)]
    out += ["closed " + " ".join(labels[i] for i in mask_bits(m)) for m in closed]
    out += [f"orth {labels[p]} {labels[q]}" for p, q in orth.pairs()]
    return "\n".join(out) + "\n"


def parse_statespace(text: str) -> StateSpace:
    """Parse a ``statespace v1`` document.

    A relation failing the orthogonality axioms raises
    :class:`InvalidInstanceError` carrying the report, as
    :class:`StateSpace` does.
    """
    labels, orth, _ = _read(text, "statespace")
    return StateSpace(labels, orth)


def serialize_statespace(ss: StateSpace) -> str:
    return _write("statespace", ss.labels, ss.orth, [])


def parse_ppl(text: str) -> PPL:
    """Parse a ``ppl v1`` document.

    The implied T1 sets (empty, singletons, full) are inserted.  The
    result is marked ``biorthogonal`` when the family is exactly the
    double-perp family, which is intersection-closed because
    A⊥⊥ ∩ B⊥⊥ = (A⊥ ∪ B⊥)⊥.  Any other family is verified
    intersection-closed pair by pair; a missing intersection is reported
    with the offending pair, at the earlier of their two ``closed`` lines
    (an implied set meets every set in a member, so both are declared).
    A relation failing the orthogonality axioms then raises
    :class:`InvalidInstanceError`, as :class:`PPL` does.
    """
    labels, orth, closed = _read(text, "ppl")
    n = len(labels)
    cs = ClosureSystem(n, {0, (1 << n) - 1, *(1 << p for p in range(n)), *closed})
    biorthogonal = is_biorthogonal_family(cs, orth)
    defect = None if biorthogonal else cs.intersection_defect()
    if defect is not None:
        f, g = defect
        raise ParseError(
            "family is not intersection-closed: "
            f"{format_atom_set(f, labels)} and {format_atom_set(g, labels)} "
            "meet in a missing set", min(closed[f], closed[g]))
    return PPL(cs, orth, labels, biorthogonal)


def serialize_ppl(ppl: PPL) -> str:
    full = (1 << ppl.n) - 1
    return _write("ppl", ppl.labels, ppl.orth,
                  [m for m in ppl.cs.masks if m.bit_count() > 1 and m != full])


def sniff_format(text: str) -> str:
    """First word of the first meaningful line ('statespace', 'ppl', 'search',
    ...), split as :func:`_tokenize` splits it, without reading the lines after."""
    for chunk in io.StringIO(text):
        for line in chunk.splitlines():
            if words := line.split("#", 1)[0].split():
                return words[0]
    raise ParseError("empty document", 0, 0)
