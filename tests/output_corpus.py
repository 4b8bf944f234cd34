"""Fingerprint the CLI's output over a fixed corpus of commands.

Run it against a checkout and compare with another, or with the
committed ``tests/output_corpus.txt``, which CI diffs a fresh run
against::

    PYTHONPATH=<checkout>/src python tests/output_corpus.py > out.txt

A change that alters output on purpose regenerates that file, so its
diff names the commands whose output changed.

Each command is one call of ``orthlab.cli.main`` in process.  It prints
one line per command: the arguments, the exit code, and the sha256 of
stdout and of stderr.  Input files go to a temporary directory, shown as
``{work}`` in the arguments.  Two checkouts that print the same lines
give the same bytes and exit codes on every command of the corpus.

The corpus holds the single-source commands on the Boolean spaces
boolean:1-7, the lanterns mo:2-4 and 30 seeded random spaces; both
products, with and without ``--axioms``, over catalog pairs of up to 36
atoms; serialized and malformed ``.statespace`` and ``.ppl`` documents;
the three search specs of the benchmark's ``search`` workload; and six
more search specs whose factors give up, are complete graphs or single
points, repeat one factor pair after another over three blocks, or whose
product exceeds the ground-set cap.  A last few list
symmetries or search planes under small budgets, most of which run out
(exit 3).  The documents that fail the axioms or the ground-set cap also
go through ``plane``, ``symmetries`` and both products with mo:2, and one
product asks for ``--dot`` with ``--axioms``.
Only the standard library is imported here; orthlab comes from
``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SINGLE = (("validate",), ("lattice",), ("lattice", "--dot"), ("axioms",), ("plane",),
          ("plane", "--witnesses"), ("symmetries", "--count-only"))
DOCUMENT = (("validate",), ("lattice",), ("lattice", "--dot"), ("axioms",))
#: Product factors.  boolean:6 is left out: the separated axiom suites of its
#: products with boolean:3 and mo:3 take 27-54 s each.
CATALOG = tuple(f"boolean:{k}" for k in range(1, 6)) + ("mo:2", "mo:3", "mo:4")
SEARCH_TARGETS = ("separated-orthomodular-nonboolean",
                  "minimal-orthocomplementation-nontrivial", "minimal-covering-nontrivial")
#: Search specs beyond the benchmark's, as (name, target, count, nmax, density,
#: seed): factors that give up after 10,000 attempts beside ones that
#: separate (density 0.05) or all of them (density 0.0), complete graphs,
#: one-state factors, 1,100 instances over three blocks of the search in
#: which every factor pair repeats (at most three states, one separating
#: relation per size), and a product over the ground-set cap (exit 3).
EDGE_SEARCHES = (
    ("sparse", "minimal-covering-nontrivial", 100, 6, 0.05, 1),
    ("empty", "separated-orthomodular-nonboolean", 30, 2, 0.0, 1),
    ("complete", "minimal-orthocomplementation-nontrivial", 30, 8, 1.0, 1),
    ("points", "separated-orthomodular-nonboolean", 30, 1, 0.5, 1),
    ("repeats", "minimal-covering-nontrivial", 1100, 3, 0.5, 5),
    ("over-capacity", "minimal-covering-nontrivial", 30, 65, 0.5, 1),
)

#: Listings and budgeted searches: each budget error names the query that
#: used it up, and the last names the plane that query held fixed.
BUDGETED = (
    ("symmetries", "gen:mo:2"),
    ("symmetries", "gen:boolean:4", "--budget", "5"),
    ("symmetries", "gen:mo:3", "--count-only", "--budget", "5"),
    ("plane", "gen:boolean:4", "--budget", "3"),
    ("plane", "gen:boolean:4", "--witnesses", "--budget", "3"),
    ("plane", "gen:boolean:4", "--witnesses", "--budget", "6"),
    ("plane", "gen:random:9:0.3:13", "--witnesses", "--budget", "16"),
)

#: Documents that parse but fail the axioms or the ground-set cap.
INVALID = ("not-separating.statespace", "not-separating.ppl", "over-capacity.statespace")

#: Documents no parser should accept, and edge cases around the accepted ones.
MALFORMED = {
    "empty.statespace": "",
    "comment-only.statespace": "# nothing here\n   # still nothing\n",
    "comment-only.ppl": "\n# c\n",
    "bad-header.statespace": "spacestate v1\natoms a\n",
    "bad-version.ppl": "ppl v2\natoms a\n",
    "late-header.statespace": "\n\n  # c\n  search v1\n",
    "unknown-directive.statespace": "statespace v1\nfoo a\n",
    "closed-in-statespace.statespace": "statespace v1\natoms a b\nclosed a\n",
    "no-labels.statespace": "statespace v1\natoms\n",
    "duplicate-atom.ppl": "ppl v1\natoms a b\natoms b\n",
    "unknown-atom.statespace": "statespace v1\natoms a b\north a c\n",
    "orth-arity.ppl": "ppl v1\natoms a b\north a\n",
    "self-orth.statespace": "statespace v1\natoms a b\north b b\n",
    "duplicate-orth.ppl": "ppl v1\natoms a b\north a b\north b a\n",
    "no-atoms.statespace": "statespace v1\n",
    "no-atoms.ppl": "ppl v1\north a b\n",
    "no-atoms-closed.ppl": "ppl v1\nclosed\n",
    "late-atom-closed.ppl": "ppl v1\natoms a b c\nclosed a d\natoms d\n"
                            "orth a b\north a c\north a d\north b c\north b d\north c d\n",
    "orth-after-bad-closed.ppl": "ppl v1\natoms a b\nclosed a q\north a z\n",
    "repeated-in-closed.ppl": "ppl v1\natoms a b\nclosed a a\north a b\n",
    "duplicate-closed.ppl": "ppl v1\natoms a b c\nclosed a b\nclosed b a\north a b\n",
    "not-intersection-closed.ppl": "ppl v1\natoms a b c d\nclosed a b c\nclosed b c d\n"
                                   "orth a b\north a c\north a d\north b c\north b d\n"
                                   "orth c d\n",
    "not-separating.statespace": "statespace v1\natoms a b c\north a c\north b c\n",
    "not-separating.ppl": "ppl v1\natoms a b\n",
    # valid, but {a1,a2} is closed beyond the double-perp family: not involutive
    "not-biorthogonal.ppl": "ppl v1\natoms a1 a2 b1 b2\nclosed a1 a2\north a1 b1\north a2 b2\n",
    "quoted-labels.statespace": 'statespace v1\natoms a"x b\\y\north a"x b\\y\n',
    "search-spec.statespace": "search v1\ntarget x\ncount 1\n",
    "over-capacity.statespace": "statespace v1\natoms " + " ".join(f"x{i}" for i in range(65))
                                + "\n",
}


def random_refs() -> list[str]:
    """30 seeded random spaces of 1 to 7 states."""
    return [f"random:{1 + i % 7}:{(0.3, 0.5, 0.7)[i % 3]}:{9100 + i}" for i in range(30)]


def commands(work: Path) -> list[list[str]]:
    """Every command of the corpus, in a fixed order; writes the input files.

    The serialized documents are written by the checkout under test, so
    each also gets a ``write`` command, whose stdout is the document.
    """
    from orthlab import catalog, formats, products, statespace

    out = []
    singles = [f"boolean:{k}" for k in range(1, 8)] + ["mo:2", "mo:3", "mo:4"]
    for ref in singles + random_refs():
        out += [[cmd[0], f"gen:{ref}", *cmd[1:]] for cmd in SINGLE]
    sizes = {ref: catalog.from_spec(ref).n for ref in CATALOG}
    for a in CATALOG:
        for b in CATALOG:
            if sizes[a] * sizes[b] <= 36:
                for kind in ("--separated", "--minimal"):
                    out.append(["product", f"gen:{a}", f"gen:{b}", kind])
                    out.append(["product", f"gen:{a}", f"gen:{b}", kind, "--axioms"])
    docs = dict(MALFORMED)
    for ref in ("boolean:3", "mo:3", "random:5:0.5:7"):
        ss = catalog.from_spec(ref)
        docs[f"{ref}.statespace"] = formats.serialize_statespace(ss)
        docs[f"{ref}.ppl"] = formats.serialize_ppl(statespace.property_lattice(ss))
    for a, b in (("boolean:2", "boolean:3"), ("mo:2", "boolean:2"), ("boolean:4", "boolean:4")):
        prod = products.minimal_product(*(statespace.property_lattice(catalog.from_spec(r))
                                          for r in (a, b)))
        docs[f"minimal-{a}-{b}.ppl"] = formats.serialize_ppl(prod)
    for name, text in docs.items():
        path = work / name
        path.write_text(text)
        if name not in MALFORMED:
            out.append(["write", str(path)])
        out += [[cmd[0], str(path), *cmd[1:]] for cmd in DOCUMENT]
    for name in docs:
        if name not in MALFORMED:
            out += [["plane", str(work / name)], ["symmetries", str(work / name), "--count-only"]]
    for name in INVALID:
        out += [["plane", str(work / name)], ["symmetries", str(work / name), "--count-only"]]
        if name.startswith("not-separating"):
            out += [["product", str(work / name), "gen:mo:2", kind]
                    for kind in ("--separated", "--minimal")]
    out.append(["product", "gen:mo:2", "gen:mo:2", "--minimal", "--dot", "--axioms"])
    for target in SEARCH_TARGETS:
        path = work / f"{target}.search"
        path.write_text(f"search v1\ntarget {target}\ncount 300\nnmax 5\ndensity 0.5\nseed 1\n")
        out.append(["search", str(path)])
    for name, target, count, nmax, density, seed in EDGE_SEARCHES:
        path = work / f"{name}.search"
        path.write_text(f"search v1\ntarget {target}\ncount {count}\nnmax {nmax}\n"
                        f"density {density}\nseed {seed}\n")
        out.append(["search", str(path)])
    out += [list(argv) for argv in BUDGETED]
    return out


def fingerprint(argv: list[str], work: Path) -> str:
    """The corpus line of one command: arguments, exit code, sha256 of stdout and stderr."""
    from orthlab.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        if argv[0] == "write":
            code = 0
            print(Path(argv[1]).read_text(), end="")
        else:
            code = main(argv)
    shown = " ".join(argv).replace(str(work), "{work}")
    digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (stdout, stderr))
    return f"{shown}\t{code}\t" + "\t".join(digests)


def corpus_lines(select=lambda argv: True) -> list[str]:
    """The lines of the commands ``select`` keeps, run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        return [fingerprint(argv, work) for argv in commands(work) if select(argv)]


if __name__ == "__main__":
    for line in corpus_lines():
        print(line)
    sys.stdout.flush()
