"""DOT rendering of the Hasse diagram of a closure system."""

from __future__ import annotations

from .closure import ClosureSystem
from .errors import CapacityError
from .formats import format_atom_set

#: Diagram sanity cap; larger lattices are unreadable as graphs anyway.
MAX_DOT_ELEMENTS = 500


def cover_pairs(cs: ClosureSystem) -> list[tuple[int, int]]:
    """Cover relation as (lower id, upper id) pairs, by upper id, then lower id."""
    pairs = [(i, j) for i, a in enumerate(cs.masks) for j in cs.upper_covers(a)]
    return sorted(pairs, key=lambda e: (e[1], e[0]))


def export_dot(cs: ClosureSystem, labels: tuple[str, ...]) -> str:
    """Hasse diagram in DOT, elements ranked by cardinality, bottom-up."""
    if len(cs) > MAX_DOT_ELEMENTS:
        raise CapacityError(
            f"{len(cs)} elements exceed the diagram cap of {MAX_DOT_ELEMENTS}")
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for i, m in enumerate(cs.masks):
        label = format_atom_set(m, labels).replace("\\", "\\\\").replace('"', '\\"')  # DOT string
        lines.append(f'  n{i} [label="{label}"];')
    by_card: dict[int, list[int]] = {}
    for i, m in enumerate(cs.masks):
        by_card.setdefault(m.bit_count(), []).append(i)
    for card in sorted(by_card):
        members = " ".join(f"n{i};" for i in by_card[card])
        lines.append(f"  {{ rank=same; {members} }}")
    for i, j in cover_pairs(cs):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
