"""Command line front end.

Sources are file paths or generator references like ``gen:boolean:4``,
``gen:mo:2``, ``gen:random:6:0.5:42``.  Reports are plain text, one
finding per line, tab separated.  Exit codes: 0 success (and the checked
property holds), 1 a checked property fails, 2 invalid input or any other
orthlab error, 3 budget or capacity exceeded.  Every error ends with an
``error\t...`` line on stderr, never a traceback; an exception from
outside orthlab's hierarchy (a bug) is an ``internal error`` and exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from . import catalog
from .axioms import SUITE_AXIOMS, Certificate, axiom_suite
from .dot import export_dot
from .errors import (BudgetExceededError, CapacityError, InvalidInstanceError, OrthlabError,
                     ParseError)
from .formats import (_tokenize, format_atom_set, parse_natural, parse_ppl, parse_statespace,
                      sniff_format)
from .products import minimal_product, separated_product
from .search import parse_search_spec, render_report, run_search
from .statespace import PPL, StateSpace, property_lattice
from .symmetry import (DEFAULT_BUDGET, count_symmetries, enumerate_symmetries,
                       is_plane_transitive)

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_INVALID_INPUT = 2
EXIT_RESOURCE = 3


def resolve_budget(flag: str | None) -> int:
    """The node budget from ``--budget``, else ``ORTHLAB_BUDGET``, else the default.

    Raises ValueError unless the chosen value is an integer of at least 1
    in ASCII digits.
    """
    text = flag if flag is not None else os.environ.get("ORTHLAB_BUDGET")
    if flag is None and not text:
        return DEFAULT_BUDGET
    try:
        budget = parse_natural(text)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {text!r}")
    return budget


def load_source(src: str) -> StateSpace | PPL:
    if src.startswith("gen:"):
        return catalog.from_spec(src[4:])
    text = Path(src).read_text()
    kind = sniff_format(text)
    if kind == "statespace":
        return parse_statespace(text)
    if kind == "ppl":
        return parse_ppl(text)
    _, line, col = _tokenize(text)[0][0]
    raise ParseError(f"unrecognized document type {kind!r}", line, col)


def as_ppl(obj: StateSpace | PPL) -> PPL:
    return property_lattice(obj) if isinstance(obj, StateSpace) else obj


def _cert_text(cert: Certificate, labels: tuple[str, ...]) -> str:
    cols = [cert.kind]
    for name, val in cert.parts:
        cols.append(f"{name}={format_atom_set(val.bits, labels)}")
    return "\t".join(cols)


def _print_axioms(ppl: PPL) -> int:
    """Print the axiom suite's report lines; the exit code.

    Orthocomplementation, orthomodularity, and the covering law decide the
    exit status; Booleanness and irreducibility are classification only.
    """
    reports = axiom_suite(ppl)
    for name, rep in zip(SUITE_AXIOMS, reports):
        if rep is None:
            print(f"{name}\tskip\tno orthocomplementation")
        elif rep.holds:
            print(f"{name}\tpass")
        else:
            print(f"{name}\tfail\t{_cert_text(rep.certificate, ppl.labels)}")
    core_ok = all(rep is not None and rep.holds for rep in reports[:3])
    return EXIT_OK if core_ok else EXIT_PROPERTY_FAILS


def _print_family(ppl: PPL, dot: bool) -> bool:
    """Print the family as DOT, or its ``atoms`` and ``elements`` lines; was it DOT?"""
    cs = ppl.cs  # built before any output, so a cap error leaves stdout empty
    if dot:
        sys.stdout.write(export_dot(cs, ppl.labels))
        return True
    print(f"atoms\t{ppl.n}")
    print(f"elements\t{len(cs)}")
    return False


def cmd_validate(args) -> int:
    try:
        obj = load_source(args.src)
        report, labels = obj.validate(), obj.labels
    except InvalidInstanceError as exc:  # the report of the object that was refused
        report, labels = exc.report, exc.labels
    for c in report.checks:
        verdict = ["pass"] if c.ok else ["fail", *(labels[i] for i in c.witness)]
        print("\t".join([c.name, *verdict]))
    return EXIT_OK if report.ok else EXIT_PROPERTY_FAILS


def cmd_lattice(args) -> int:
    ppl = as_ppl(load_source(args.src))
    if not _print_family(ppl, args.dot):
        for i, m in enumerate(ppl.cs.masks):
            print(f"element\t{i}\t{format_atom_set(m, ppl.labels)}")
    return EXIT_OK


def cmd_axioms(args) -> int:
    return _print_axioms(as_ppl(load_source(args.src)))


def cmd_product(args) -> int:
    if args.dot and args.axioms:
        raise ValueError("--dot and --axioms cannot be combined")
    a = load_source(args.src1)
    b = load_source(args.src2)
    if args.separated:
        if not (isinstance(a, StateSpace) and isinstance(b, StateSpace)):
            raise ParseError("--separated needs two state spaces", 0, 0)
        ppl = property_lattice(separated_product(a, b))
    else:
        ppl = minimal_product(as_ppl(a), as_ppl(b))
    if _print_family(ppl, args.dot) or not args.axioms:
        return EXIT_OK
    return _print_axioms(ppl)


@contextmanager
def _atoms_named(labels: tuple[str, ...]) -> Iterator[None]:
    """Let a budget error raised inside name its atoms by ``labels``."""
    try:
        yield
    except BudgetExceededError as exc:
        exc.labels = labels
        raise


def cmd_plane(args) -> int:
    ppl = as_ppl(load_source(args.src))
    with _atoms_named(ppl.labels):
        report = is_plane_transitive(ppl, budget=args.budget, witnesses=args.witnesses)
    print(f"plane-transitive\t{'true' if report.transitive else 'false'}")
    if report.note:
        print(f"note\t{report.note}")
    for w in report.witnesses or ():
        images = " ".join(ppl.labels[t] for t in w.perm)
        print(f"witness\t{ppl.labels[w.p]}\t{ppl.labels[w.q]}"
              f"\t{ppl.labels[w.p1]}\t{ppl.labels[w.p2]}\t{images}")
    if not report.transitive and report.failing_pair is not None:
        p, q = report.failing_pair
        print(f"failing-pair\t{ppl.labels[p]}\t{ppl.labels[q]}")
    return EXIT_OK if report.transitive else EXIT_PROPERTY_FAILS


def cmd_symmetries(args) -> int:
    ppl = as_ppl(load_source(args.src))
    if args.count_only:
        with _atoms_named(ppl.labels):
            print(f"count\t{count_symmetries(ppl, budget=args.budget)}")
        return EXIT_OK
    count = 0
    for perm in enumerate_symmetries(ppl, budget=args.budget):
        count += 1
        print("symmetry\t" + " ".join(ppl.labels[t] for t in perm))
    print(f"count\t{count}")
    return EXIT_OK


def cmd_search(args) -> int:
    spec = parse_search_spec(Path(args.specfile).read_text())
    report = run_search(spec)
    sys.stdout.write(render_report(report))
    return EXIT_PROPERTY_FAILS if report.hits else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthlab",
        description="finite orthogonality spaces, property lattices, and their symmetries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the axioms of a source")
    p.add_argument("src")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("lattice", help="list the closed sets (or emit DOT)")
    p.add_argument("src")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("axioms", help="run the lattice axiom suite")
    p.add_argument("src")
    p.set_defaults(fn=cmd_axioms)

    p = sub.add_parser("product", help="build a product of two sources")
    p.add_argument("src1")
    p.add_argument("src2")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--separated", action="store_true")
    kind.add_argument("--minimal", action="store_true")
    p.add_argument("--axioms", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("plane", help="decide plane transitivity")
    p.add_argument("src")
    p.add_argument("--witnesses", action="store_true")
    p.add_argument("--budget")
    p.set_defaults(fn=cmd_plane)

    p = sub.add_parser("symmetries", help="enumerate the symmetry group")
    p.add_argument("src")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--budget")
    p.set_defaults(fn=cmd_symmetries)

    p = sub.add_parser("search", help="run a seeded counterexample search")
    p.add_argument("specfile")
    p.set_defaults(fn=cmd_search)

    return parser


def error_exit(exc: Exception) -> int:
    """Print the ``error`` line for ``exc`` on stderr, as ``main`` and both
    ``scripts/`` do; the exit code, 3 for a capacity or budget, else 2."""
    known = isinstance(exc, (OrthlabError, OSError, ValueError))
    text = exc if known else f"internal error: {type(exc).__name__}: {exc}"
    print(f"error\t{text}", file=sys.stderr)
    if isinstance(exc, (CapacityError, BudgetExceededError)):
        return EXIT_RESOURCE
    return EXIT_INVALID_INPUT


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "budget"):
            args.budget = resolve_budget(args.budget)
        return args.fn(args)
    except Exception as exc:
        return error_exit(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
