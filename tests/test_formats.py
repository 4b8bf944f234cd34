"""Text formats: parsing, canonical serialization, and error positions."""

import random

import pytest

import orthlab as O
from orthlab import formats
from orthlab.cli import load_source
from orthlab.errors import InvalidInstanceError, ParseError
from orthlab.formats import (
    _tokenize,
    format_atom_set,
    parse_ppl,
    parse_statespace,
    serialize_ppl,
    serialize_statespace,
    sniff_format,
)

import oracles as ora


# ---------------------------------------------------------------------------
# state space documents

def test_minimal_single_atom_document():
    ss = parse_statespace("statespace v1\natoms a\n")
    assert ss.labels == ("a",)
    assert ss.orth.rows == (0,)


def test_statespace_parsing_with_comments_and_cumulative_atoms():
    text = """
    statespace v1      # header comment
    atoms a b          # first two
    atoms c
    orth b a           # symmetric closure
    orth a c
    orth c b
    """
    ss = parse_statespace(text)
    assert ss.labels == ("a", "b", "c")
    assert list(ss.orth.pairs()) == [(0, 1), (0, 2), (1, 2)]


def test_statespace_roundtrip_is_canonical(mo2):
    text = serialize_statespace(mo2)
    assert text == "statespace v1\natoms a1 a2 b1 b2\north a1 b1\north a2 b2\n"
    again = parse_statespace(text)
    assert again == mo2
    assert serialize_statespace(again) == text


def test_random_space_roundtrip(random_batch):
    for ss in random_batch[:10]:
        assert parse_statespace(serialize_statespace(ss)) == ss


def test_statespace_validation_failure_carries_report():
    text = "statespace v1\natoms a b c\north a c\north b c\n"
    with pytest.raises(InvalidInstanceError) as err:
        parse_statespace(text)
    assert [c.name for c in err.value.report.failures()] == ["separating"]
    assert not err.value.report.ok
    assert err.value.labels == ("a", "b", "c")


#: The exact error of each malformed document below: message with position, line, column.
SYNTAX_ERRORS = {
    "": ("empty document", 0, 0),
    "# only a comment\n\n": ("empty document", 0, 0),
    "spacestate v1\n": ("expected 'statespace v1' header (line 1, col 1)", 1, 1),
    "statespace v2\n": ("expected 'statespace v1' header (line 1, col 1)", 1, 1),
    "statespace v1\nfoo a\n": ("unknown directive 'foo' (line 2, col 1)", 2, 1),
    "statespace v1\natoms\n": ("atoms line needs at least one label (line 2, col 1)", 2, 1),
    "statespace v1\natoms a a\n": ("duplicate atom label 'a' (line 2, col 9)", 2, 9),
    "statespace v1\natoms a\north a b\n": ("unknown atom label 'b' (line 3, col 8)", 3, 8),
    "statespace v1\natoms a b\north a\n":
        ("orth line needs exactly two labels (line 3, col 1)", 3, 1),
    "statespace v1\natoms a b\north a a\n":
        ("atom 'a' declared orthogonal to itself (line 3, col 6)", 3, 6),
    "statespace v1\natoms a b\north a b\north b a\n":
        ("duplicate orth declaration b a (line 4, col 6)", 4, 6),
    "statespace v1\north a b\n": ("unknown atom label 'a' (line 2, col 6)", 2, 6),
    "statespace v1\natoms a b\nclosed a\n": ("unknown directive 'closed' (line 3, col 1)", 3, 1),
    "statespace v1 # c\n# c\n": ("no atoms declared", 0, 0),
    "\n  # c\n": ("empty document", 0, 0),
    "ppl v2\n": ("expected 'ppl v1' header (line 1, col 1)", 1, 1),
    "ppl v1\natoms a b\nclosed a a\north a b\n":
        ("atom 'a' repeated in closed set (line 3, col 10)", 3, 10),
    "ppl v1\natoms a b c\nclosed a b\nclosed a b\north a b\n":
        ("duplicate closed set declaration (line 4, col 1)", 4, 1),
    "ppl v1\natoms a b\nclosed a q\north a b\n":
        ("unknown atom label 'q' (line 3, col 10)", 3, 10),
    # every directive line is read before any closed line
    "ppl v1\natoms a b\nclosed a q\north a z\n": ("unknown atom label 'z' (line 4, col 8)", 4, 8),
    "ppl v1\natoms a b\nfoo\n": ("unknown directive 'foo' (line 3, col 1)", 3, 1),
    "ppl v1\nclosed a\n": ("no atoms declared", 0, 0),
}


def _syntax_error(parse, text, fragment) -> ParseError:
    """The error ``parse`` raises on ``text``, checked against :data:`SYNTAX_ERRORS`."""
    with pytest.raises(ParseError) as err:
        parse(text)
    message, line, col = SYNTAX_ERRORS[text]
    assert fragment in message
    assert (str(err.value), err.value.line, err.value.col) == (message, line, col)
    return err.value


@pytest.mark.parametrize("text,line,fragment", [
    ("", 0, "empty"),
    ("spacestate v1\n", 1, "header"),
    ("statespace v2\n", 1, "header"),
    ("statespace v1\nfoo a\n", 2, "directive"),
    ("statespace v1\natoms\n", 2, "at least one"),
    ("statespace v1\natoms a a\n", 2, "duplicate atom"),
    ("statespace v1\natoms a\north a b\n", 3, "unknown atom"),
    ("statespace v1\natoms a b\north a\n", 3, "exactly two"),
    ("statespace v1\natoms a b\north a a\n", 3, "itself"),
    ("statespace v1\natoms a b\north a b\north b a\n", 4, "duplicate orth"),
    ("statespace v1\north a b\n", 2, "unknown atom"),
    ("statespace v1\natoms a b\nclosed a\n", 3, "directive"),
    ("statespace v1 # c\n# c\n", 0, "no atoms"),
    ("# only a comment\n\n", 0, "empty"),
])
def test_statespace_syntax_errors(text, line, fragment):
    assert _syntax_error(parse_statespace, text, fragment).line == line


def test_self_orthogonality_is_rejected_before_validation():
    # a syntax-stage rejection, raised before the relation reaches StateSpace
    with pytest.raises(ParseError):
        parse_statespace("statespace v1\natoms a b\north b b\n")


def test_error_columns_point_at_the_offending_token():
    with pytest.raises(ParseError) as err:
        parse_statespace("statespace v1\natoms a b\north a c\n")
    assert (err.value.line, err.value.col) == (3, 8)


# ---------------------------------------------------------------------------
# ppl documents

def test_ppl_document_inserts_implied_sets():
    ppl = parse_ppl("ppl v1\natoms a b\north a b\n")
    assert ppl.cs.masks == (0b00, 0b01, 0b10, 0b11)
    assert ppl.biorthogonal  # the Boolean square's family is its double-perp family


def test_ppl_roundtrip_of_a_product(b2_ppl):
    prod = O.minimal_product(b2_ppl, b2_ppl)
    text = serialize_ppl(prod)
    again = parse_ppl(text)
    assert again.cs.masks == prod.cs.masks
    assert again.orth.rows == prod.orth.rows
    assert again.labels == prod.labels
    assert serialize_ppl(again) == text


def _double_perp_family(ppl):
    return ora.family_to_sets(ppl.cs.masks) == ora.closed_sets(ora.rows_to_dict(ppl.orth.rows))


def test_ppl_biorthogonal_flag_agrees_with_oracle(random_batch, b2_ppl, b3_ppl, mo2_ppl, mo3_ppl):
    catalog = (b2_ppl, b3_ppl, mo2_ppl, mo3_ppl)
    for ppl in [O.property_lattice(ss) for ss in random_batch] + list(catalog):
        assert _double_perp_family(ppl)
        assert parse_ppl(serialize_ppl(ppl)).biorthogonal
    for a in catalog[:3]:
        for b in catalog[:3]:
            if a.n * b.n > 12:
                continue  # keep the 2^n oracle scan small
            prod = O.minimal_product(a, b)
            assert not _double_perp_family(prod)
            assert not parse_ppl(serialize_ppl(prod)).biorthogonal
    # random T1 families on catalog orthogonalities, checked against the oracle
    rng = random.Random(11)
    verdicts = set()
    for base in catalog[1:]:
        for _ in range(6):
            gens = [1 << p for p in range(base.n)] + [rng.getrandbits(base.n) for _ in range(2)]
            cs = O.meet_closure(gens, base.n)
            ppl = O.PPL(cs, base.orth, base.labels)
            verdict = parse_ppl(serialize_ppl(ppl)).biorthogonal
            assert verdict == _double_perp_family(ppl)
            verdicts.add(verdict)
    assert False in verdicts


def test_ppl_serialization_lists_only_informative_sets(mo2_ppl):
    text = serialize_ppl(mo2_ppl)
    assert "closed" not in text  # family is exactly the implied sets
    again = parse_ppl(text)
    assert again.cs.masks == mo2_ppl.cs.masks


def test_declaring_an_implied_set_is_harmless():
    ppl = parse_ppl("ppl v1\natoms a b\nclosed a\north a b\n")
    assert ppl.cs.masks == (0b00, 0b01, 0b10, 0b11)


@pytest.mark.parametrize("text,fragment", [
    ("ppl v1\natoms a b\nclosed a a\north a b\n", "repeated"),
    ("ppl v1\natoms a b c\nclosed a b\nclosed a b\north a b\n", "duplicate closed"),
    ("ppl v1\natoms a b\nclosed a q\north a b\n", "unknown atom"),
    ("ppl v1\natoms a b\nclosed a q\north a z\n", "unknown atom"),
    ("ppl v1\natoms a b\nfoo\n", "directive"),
    ("ppl v2\n", "header"),
    ("ppl v1\nclosed a\n", "no atoms"),
    ("", "empty"),
    ("\n  # c\n", "empty"),
])
def test_ppl_syntax_errors(text, fragment):
    _syntax_error(parse_ppl, text, fragment)


def test_closed_lines_may_name_atoms_declared_later():
    ppl = parse_ppl("ppl v1\natoms a b\nclosed b c\natoms c\n"
                    "orth a b\north a c\north b c\n")
    assert ppl.labels == ("a", "b", "c")
    assert ppl.cs.masks == (0b000, 0b001, 0b010, 0b100, 0b110, 0b111)


def test_ppl_intersection_defect_reports_the_pair():
    text = ("ppl v1\natoms a b c d\n"
            "closed a b c\nclosed b c d\n"
            "orth a b\north a c\north a d\north b c\north b d\north c d\n")
    with pytest.raises(ParseError) as err:
        parse_ppl(text)
    msg = str(err.value)
    assert "intersection-closed" in msg and "{a,b,c}" in msg and "{b,c,d}" in msg
    assert err.value.line == 3


def test_ppl_of_a_property_lattice_skips_the_pairwise_intersection_scan(monkeypatch, mo3_ppl):
    # a double-perp family is intersection-closed by the Galois connection
    def scan(self):
        raise AssertionError("pairwise intersection scan ran")
    monkeypatch.setattr(O.ClosureSystem, "intersection_defect", scan)
    ppl = parse_ppl(serialize_ppl(mo3_ppl))
    assert ppl.biorthogonal
    assert ppl.cs.masks == mo3_ppl.cs.masks


def test_ppl_validation_failure():
    with pytest.raises(InvalidInstanceError) as err:
        parse_ppl("ppl v1\natoms a b\n")  # empty orthogonality cannot separate
    # the family of implied sets is T1, so its check passes
    assert [(c.name, c.ok) for c in err.value.report.checks] == [
        ("antireflexive", True), ("symmetric", True), ("separating", False), ("t1", True)]


# ---------------------------------------------------------------------------
# small helpers

def test_format_atom_set():
    assert format_atom_set(0b000, ("a", "b", "c")) == "{}"
    assert format_atom_set(0b101, ("a", "b", "c")) == "{a,c}"


def test_sniff_format():
    assert sniff_format("# hi\nstatespace v1\n") == "statespace"
    assert sniff_format("ppl v1\n") == "ppl"
    assert sniff_format("search v1\n") == "search"
    with pytest.raises(ParseError):
        sniff_format("   # only a comment\n")


def test_sniff_format_reads_the_word_the_tokenizer_would():
    # leading blank and comment lines, every line break str.splitlines
    # knows, and whitespace that str.split skips; an empty document raises
    pieces = ["", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ", " ", "\t",
              "# c\n", "#x", "##", "a#b", "ppl", " v1", "statespace"]
    rng = random.Random(3)
    for _ in range(5000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(7)))
        words = [toks[0][0] for toks in _tokenize(text)]
        if words:
            assert sniff_format(text) == words[0], repr(text)
        else:
            with pytest.raises(ParseError, match="^empty document$"):
                sniff_format(text)


@pytest.mark.parametrize("text", [
    serialize_ppl(O.property_lattice(O.mo_lantern(2))),
    "\n# a statespace\n\n" + serialize_statespace(O.boolean_space(3)),
])
def test_load_source_tokenizes_once(monkeypatch, tmp_path, text):
    calls = []

    def counting(text):
        calls.append(len(text))
        return _tokenize(text)

    monkeypatch.setattr(formats, "_tokenize", counting)
    path = tmp_path / "doc.txt"
    path.write_text(text)
    assert load_source(str(path)).n in (3, 4)
    assert calls == [len(text)]
