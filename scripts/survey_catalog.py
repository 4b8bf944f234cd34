#!/usr/bin/env python3
"""Survey the built-in catalog.

For each Boolean space and lantern in range: property-lattice size, the
axiom profile, symmetry-group order, and plane transitivity.  With
``--products``, the same profile for the minimal and separated products
of every catalog pair that fits the atom budget.  A cell prints
``unknown`` when its own answer runs out of a search's node budget or
needs a closed family over the family cap: the element count and the
axiom cells read the family, the symmetry count and the plane verdict
do not.  A product that cannot be built at all prints ``unknown`` in
every cell.  Any other error ends the run with one ``error`` line on
stderr, as in the ``orthlab`` command: exit 3 when a capacity runs out,
2 otherwise.
"""

import argparse
import sys

import orthlab as O
from orthlab.axioms import axiom_suite
from orthlab.cli import error_exit
from orthlab.errors import BudgetExceededError, CapacityError
from orthlab.products import minimal_product, separated_product
from orthlab.statespace import property_lattice
from orthlab.symmetry import count_symmetries, is_plane_transitive

PROFILE_KEYS = ("oc", "om", "covering", "boolean", "irreducible")


def yn(flag) -> str:
    return {True: "yes", False: "no", None: "-"}[flag]


def axiom_profile(ppl) -> dict:
    """yes/no per axiom of the suite, - where it needs a missing complement,
    and ``unknown`` for all if the suite needs a family over the cap."""
    try:
        reports = axiom_suite(ppl)
    except CapacityError:
        return dict.fromkeys(PROFILE_KEYS, "unknown")
    return {key: yn(None if rep is None else rep.holds)
            for key, rep in zip(PROFILE_KEYS, reports)}


def or_unknown(answer) -> str:
    """``answer()`` as text, or ``unknown`` if it runs out of budget or
    needs a family over the cap."""
    try:
        return str(answer())
    except (BudgetExceededError, CapacityError):
        return "unknown"


def survey_line(name: str, ppl) -> str:
    cols = [name, f"atoms={ppl.n}", f"elements={or_unknown(lambda: len(ppl.cs))}"]
    cols += [f"{key}={flag}" for key, flag in axiom_profile(ppl).items()]
    cols.append(f"symmetries={or_unknown(lambda: count_symmetries(ppl))}")
    cols.append("plane-transitive=" + or_unknown(
        lambda: yn(is_plane_transitive(ppl, witnesses=False).transitive)))
    return "\t".join(cols)


def product_line(name: str, atoms: int, build) -> str:
    """The survey line of the product ``build()`` makes, or its name and
    atom count with ``unknown`` cells if it cannot be built."""
    try:
        ppl = build()
    except CapacityError:
        keys = ("elements", *PROFILE_KEYS, "symmetries", "plane-transitive")
        return "\t".join([name, f"atoms={atoms}"] + [f"{key}=unknown" for key in keys])
    return survey_line(name, ppl)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--boolean-max", type=int, default=5,
                    help="largest Boolean space (default 5)")
    ap.add_argument("--lantern-max", type=int, default=3,
                    help="largest lantern MO_n (default 3)")
    ap.add_argument("--products", action="store_true",
                    help="also profile catalog products")
    ap.add_argument("--product-atoms", type=int, default=16,
                    help="atom budget for product pairs (default 16)")
    try:
        survey(ap.parse_args())
    except Exception as exc:
        return error_exit(exc)
    return 0


def survey(args) -> None:
    members = [(f"boolean:{n}", O.boolean_space(n))
               for n in range(1, args.boolean_max + 1)]
    members += [(f"mo:{n}", O.mo_lantern(n))
                for n in range(2, args.lantern_max + 1)]
    ppls = [(name, property_lattice(ss)) for name, ss in members]

    for name, ppl in ppls:
        print(survey_line(name, ppl))

    if args.products:
        print()
        for name1, ss1 in members:
            for name2, ss2 in members:
                if ss1.n * ss2.n > args.product_atoms:
                    continue
                p1, p2 = property_lattice(ss1), property_lattice(ss2)
                print(product_line(f"minimal({name1},{name2})", ss1.n * ss2.n,
                                   lambda: minimal_product(p1, p2)))
                print(product_line(f"separated({name1},{name2})", ss1.n * ss2.n,
                                   lambda: property_lattice(separated_product(ss1, ss2))))


if __name__ == "__main__":
    sys.exit(main())
