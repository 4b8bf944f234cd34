"""End-to-end command line behavior, run in process."""

import math

import pytest

import orthlab as O
from orthlab import cli, errors, symmetry
from orthlab.cli import main
from orthlab.search import TARGETS
from orthlab.statespace import CheckResult, ValidationReport


@pytest.fixture(autouse=True)
def _clean_budget_env(monkeypatch):
    monkeypatch.delenv("ORTHLAB_BUDGET", raising=False)


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out.splitlines(), captured.err
    return _run


# ---------------------------------------------------------------------------
# validate

def test_validate_generated_space_passes(run):
    code, out, _ = run("validate", "gen:mo:2")
    assert code == 0
    assert out == ["antireflexive\tpass", "symmetric\tpass", "separating\tpass"]


def test_validate_ppl_document_includes_t1(run, tmp_path, mo2_ppl):
    path = tmp_path / "m.ppl"
    path.write_text(O.serialize_ppl(mo2_ppl))
    code, out, _ = run("validate", str(path))
    assert code == 0
    assert out == ["antireflexive\tpass", "symmetric\tpass",
                   "separating\tpass", "t1\tpass"]


def test_validate_reports_labeled_witness(run, tmp_path):
    path = tmp_path / "bad.space"
    path.write_text("statespace v1\natoms a b c\north a c\north b c\n")
    code, out, _ = run("validate", str(path))
    assert code == 1
    assert "separating\tfail\ta\tb" in out
    assert "antireflexive\tpass" in out


def test_validate_reports_labeled_witness_of_a_ppl(run, tmp_path):
    path = tmp_path / "bad.ppl"
    path.write_text("ppl v1\natoms a b c\north a c\north b c\n")
    code, out, _ = run("validate", str(path))
    assert code == 1
    assert out == ["antireflexive\tpass", "symmetric\tpass", "separating\tfail\ta\tb",
                   "t1\tpass"]


def test_missing_file_is_invalid_input(run, tmp_path):
    code, out, err = run("validate", str(tmp_path / "nope.space"))
    assert code == 2
    assert not out
    assert err.startswith("error\t")


def test_bad_generator_reference_is_invalid_input(run):
    code, _, err = run("validate", "gen:nope:3")
    assert code == 2
    assert "error\t" in err


def test_unknown_document_type_is_invalid_input(run, tmp_path):
    path = tmp_path / "odd.txt"
    path.write_text("garbage v1\n")
    assert run("validate", str(path))[0] == 2


@pytest.mark.parametrize("text,error", [
    ("garbage v1\n", "'garbage' (line 1, col 1)"),
    ("\n\n# c\nsearch v1\n", "'search' (line 4, col 1)"),
    ("# c\n   search v1  # spec\n", "'search' (line 2, col 4)"),
])
def test_unknown_document_type_names_the_first_word_where_it_sits(run, tmp_path, text, error):
    path = tmp_path / "odd.txt"
    path.write_text(text)
    assert run("axioms", str(path)) == (2, [], f"error\tunrecognized document type {error}\n")


# ---------------------------------------------------------------------------
# lattice

def test_lattice_listing_is_canonical(run):
    code, out, _ = run("lattice", "gen:mo:2")
    assert code == 0
    assert out == [
        "atoms\t4",
        "elements\t6",
        "element\t0\t{}",
        "element\t1\t{a1}",
        "element\t2\t{a2}",
        "element\t3\t{b1}",
        "element\t4\t{b2}",
        "element\t5\t{a1,a2,b1,b2}",
    ]


def test_lattice_dot_output(run):
    code, out, _ = run("lattice", "gen:boolean:2", "--dot")
    assert code == 0
    assert out[0].startswith("digraph")
    assert out[-1] == "}"


def test_dot_labels_escape_quotes_and_backslashes(run, tmp_path):
    path = tmp_path / "q.statespace"
    path.write_text('statespace v1\natoms a"x b\\y\north a"x b\\y\n')
    code, out, _ = run("lattice", str(path), "--dot")
    assert code == 0
    assert [line for line in out if "[label=" in line] == [
        '  n0 [label="{}"];',
        '  n1 [label="{a\\"x}"];',
        '  n2 [label="{b\\\\y}"];',
        '  n3 [label="{a\\"x,b\\\\y}"];',
    ]
    # the report lines keep the labels as they are
    assert run("lattice", str(path))[1][2:] == [
        'element\t0\t{}', 'element\t1\t{a"x}', 'element\t2\t{b\\y}', 'element\t3\t{a"x,b\\y}']


# ---------------------------------------------------------------------------
# axioms

def test_axioms_on_nondistributive_lantern(run):
    code, out, _ = run("axioms", "gen:mo:2")
    assert code == 0
    assert out[:3] == ["orthocomplementation\tpass", "orthomodular\tpass",
                       "covering\tpass"]
    assert out[3].startswith("boolean\tfail\tdistributivity\tx={")
    assert out[4] == "irreducible\tpass"


def test_axioms_classification_lines_do_not_affect_exit(run):
    code, out, _ = run("axioms", "gen:boolean:2")
    assert code == 0
    assert "boolean\tpass" in out
    assert "irreducible\tfail\tcentral-element\tz={a}" in out


# ---------------------------------------------------------------------------
# product

def test_minimal_product_axioms_with_certificates(run):
    code, out, _ = run("product", "gen:boolean:2", "gen:boolean:2",
                       "--minimal", "--axioms")
    assert code == 1
    assert out[0] == "atoms\t4"
    assert out[1] == "elements\t10"
    assert out[2].startswith("orthocomplementation\tfail\tatom-row-not-closed\t")
    assert out[3] == "orthomodular\tskip\tno orthocomplementation"
    assert out[4] == ("covering\tfail\tcovering-law\tp={(b,b)}\ta={(a,a)}"
                      "\tjoin={(a,a),(a,b),(b,a),(b,b)}\tbetween={(a,a),(a,b)}")
    assert out[5] == "boolean\tskip\tno orthocomplementation"
    assert out[6] == "irreducible\tskip\tno orthocomplementation"


def test_separated_product_axioms(run):
    code, out, _ = run("product", "gen:mo:2", "gen:mo:2",
                       "--separated", "--axioms")
    assert code == 1
    assert out[0] == "atoms\t16"
    assert out[1] == "elements\t114"
    assert out[2] == "orthocomplementation\tpass"
    assert out[3].startswith("orthomodular\tfail\torthomodularity\ta={")
    assert any(line.startswith("covering\tfail\tcovering-law\t") for line in out)


def test_separated_product_summary_only(run):
    code, out, _ = run("product", "gen:boolean:2", "gen:boolean:2", "--separated")
    assert code == 0
    assert out == ["atoms\t4", "elements\t16"]


def test_separated_product_requires_state_spaces(run, tmp_path, mo2_ppl):
    path = tmp_path / "m.ppl"
    path.write_text(O.serialize_ppl(mo2_ppl))
    code, _, err = run("product", str(path), "gen:boolean:2", "--separated")
    assert code == 2
    assert "state spaces" in err


def test_product_dot_output(run):
    code, out, _ = run("product", "gen:boolean:2", "gen:boolean:2",
                       "--minimal", "--dot")
    assert code == 0
    assert out[0].startswith("digraph")


@pytest.mark.parametrize("kind", ["--minimal", "--separated"])
def test_product_refuses_dot_with_axioms_before_loading(run, tmp_path, kind):
    # the missing file shows that no source is read
    for src in ("gen:mo:2", str(tmp_path / "missing.statespace")):
        code, out, err = run("product", src, "gen:mo:2", kind, "--dot", "--axioms")
        assert (code, out, err) == (2, [], "error\t--dot and --axioms cannot be combined\n")


def test_product_mode_flag_is_required(run):
    with pytest.raises(SystemExit):
        main(["product", "gen:boolean:2", "gen:boolean:2"])
    with pytest.raises(SystemExit):
        main(["product", "gen:boolean:2", "gen:boolean:2",
              "--separated", "--minimal"])


# ---------------------------------------------------------------------------
# plane

def test_plane_negative_with_failing_pair(run):
    code, out, _ = run("plane", "gen:boolean:3")
    assert code == 1
    assert out == ["plane-transitive\tfalse", "failing-pair\ta\tb"]


def test_plane_positive_with_witnesses(run):
    code, out, _ = run("plane", "gen:boolean:4", "--witnesses")
    assert code == 0
    assert out[0] == "plane-transitive\ttrue"
    witnesses = [line for line in out[1:] if line.startswith("witness\t")]
    assert len(witnesses) == 16
    cols = witnesses[0].split("\t")
    assert len(cols) == 6 and len(cols[5].split(" ")) == 4


def test_plane_budget_exhaustion(run):
    code, _, err = run("plane", "gen:boolean:4", "--budget", "2")
    assert code == 3
    # the group's probes come first and share the budget: the level-1 probe
    # b -> c runs out, before any plane is probed; the atoms are named by
    # label, as on stdout
    assert err == ("error\tsearch budget exhausted after 3 node expansions"
                   " mapping atom b to atom c\n")


def test_plane_budget_error_names_the_plane_by_label(run, monkeypatch):
    # with no generators every plane is the first of its orbit and gets
    # stabilizer probes, so the budget runs out in one, which fixes a plane
    monkeypatch.setattr(symmetry, "_group", lambda ppl, b, colours: (1, []))
    code, _, err = run("plane", "gen:boolean:4", "--budget", "2")
    assert code == 3
    assert err == ("error\tsearch budget exhausted after 3 node expansions"
                   " mapping atom a to atom b with the plane of atoms c and d fixed\n")


# ---------------------------------------------------------------------------
# symmetries

def test_symmetry_count_only(run):
    code, out, _ = run("symmetries", "gen:mo:2", "--count-only")
    assert code == 0
    assert out == ["count\t8"]


def test_symmetry_listing_starts_with_identity(run):
    code, out, _ = run("symmetries", "gen:mo:2")
    assert code == 0
    assert out[0] == "symmetry\ta1 a2 b1 b2"
    assert sum(line.startswith("symmetry\t") for line in out) == 8
    assert out[-1] == "count\t8"


def test_symmetry_budget_flag(run):
    assert run("symmetries", "gen:mo:3", "--budget", "5")[0] == 3
    code, _, err = run("symmetries", "gen:mo:3", "--count-only", "--budget", "5")
    assert code == 3
    assert err.endswith(" mapping atom a2 to atom a3\n")  # labels, not indices


def test_symmetry_budget_env_var(run, monkeypatch):
    monkeypatch.setenv("ORTHLAB_BUDGET", "5")
    assert run("symmetries", "gen:mo:3")[0] == 3
    monkeypatch.setenv("ORTHLAB_BUDGET", "1000000")
    code, out, _ = run("symmetries", "gen:mo:3", "--count-only")
    assert code == 0
    assert out == ["count\t48"]


@pytest.mark.parametrize("where, value, expected", [
    ("env", "abc", 2),
    ("env", "0", 2),
    ("env", "-5", 2),
    ("env", "5", 3),
    ("env", "1000000", 0),
    ("flag", "abc", 2),
    ("flag", "0", 2),
    ("flag", "-5", 2),
    ("flag", "5", 3),
    ("flag", "1000000", 0),
    ("src", "directory", 2),  # a source path that cannot be read as a file
])
def test_budget_value_exit_codes(run, monkeypatch, tmp_path, where, value, expected):
    argv = ["symmetries", "gen:mo:3", "--count-only"]
    if where == "env":
        monkeypatch.setenv("ORTHLAB_BUDGET", value)
    elif where == "flag":
        argv += ["--budget", value]
    else:
        argv[1] = str(tmp_path)
    code, out, err = run(*argv)
    assert code == expected
    if expected == 0:
        assert out == ["count\t48"]
    else:
        assert not out
        assert err.startswith("error\t")


@pytest.mark.parametrize("where, value", [
    ("gen", "boolean:+3"),
    ("gen", "boolean:\uff13"),  # a full-width 3
    ("gen", "boolean:1_0"),
    ("gen", "boolean:1e1"),
    ("gen", "boolean: 3"),
    ("gen", "mo:-2"),
    ("gen", "random:+4:0.5:3"),
    ("gen", "random:4:0.5:-3"),
    ("spec", "count +3"),
    ("spec", "count 1_0"),
    ("spec", "nmax \uff13"),
    ("spec", "seed -1"),
    ("env", "\uff11_0"),
    ("env", "+5"),
    ("env", " 5"),
    ("flag", "1_000"),
])
def test_numbers_are_ascii_digits_only(run, monkeypatch, tmp_path, where, value):
    # Python's int() accepts every one of these; the grammar is [0-9]+
    argv = ["symmetries", "gen:mo:3", "--count-only"]
    if where == "gen":
        argv[1] = f"gen:{value}"
    elif where == "spec":
        spec = tmp_path / "s.search"
        count = "" if value.startswith("count") else "count 3\n"
        spec.write_text(f"search v1\ntarget minimal-covering-nontrivial\n{count}{value}\n")
        argv = ["search", str(spec)]
    elif where == "env":
        monkeypatch.setenv("ORTHLAB_BUDGET", value)
    else:
        argv += ["--budget", value]
    code, out, err = run(*argv)
    assert (code, out) == (2, [])
    assert len(err.splitlines()) == 1 and err.startswith("error\t")
    assert "invalid literal" not in err
    if where in ("gen", "spec"):
        assert "expected ASCII digits 0-9" in err


@pytest.mark.parametrize("exc, expected", [
    (errors.ParseError("bad token", 1, 1), 2),
    (errors.InvalidInstanceError(ValidationReport((CheckResult("t1", False),))), 2),
    (errors.CouldNotSeparateError("no separating relation"), 2),
    (errors.InvariantViolationError("broken invariant"), 2),
    (errors.OrthlabError("generic"), 2),
    (OSError("unreadable"), 2),
    (ValueError("bad value"), 2),
    (AssertionError("broken assumption"), 2),
    (KeyError("missing"), 2),
    (errors.CapacityError("too big"), 3),
    (errors.BudgetExceededError(7), 3),
    (RuntimeError("unexpected state"), 2),
])
def test_error_class_exit_codes(run, monkeypatch, exc, expected):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "load_source", fail)
    code, out, err = run("axioms", "gen:mo:2")
    assert code == expected
    assert not out
    assert err.startswith("error\t") and "Traceback" not in err
    if not isinstance(exc, (errors.OrthlabError, OSError, ValueError)):
        assert err.startswith(f"error\tinternal error: {type(exc).__name__}: ")


# ---------------------------------------------------------------------------
# search

def test_search_empty_schedule(run, tmp_path):
    spec = tmp_path / "s.search"
    spec.write_text("search v1\ntarget minimal-covering-nontrivial\ncount 0\n")
    code, out, _ = run("search", str(spec))
    assert code == 0
    assert out == ["summary\tcount\t0\thits\t0\tinvalid\t0"]


def test_search_reports_instances(run, tmp_path):
    spec = tmp_path / "s.search"
    spec.write_text("search v1\ntarget minimal-orthocomplementation-nontrivial\n"
                    "count 3\nnmax 2\nseed 5\n")
    code, out, _ = run("search", str(spec))
    assert code == 0
    assert sum(line.startswith("instance\t") for line in out) == 3
    assert out[-1].startswith("summary\tcount\t3\thits\t0")


def test_search_hit_sets_exit_code(run, tmp_path, monkeypatch):
    monkeypatch.setitem(TARGETS, "always", lambda s1, s2: "contrived")
    spec = tmp_path / "s.search"
    spec.write_text("search v1\ntarget always\ncount 1\nnmax 2\n")
    code, out, _ = run("search", str(spec))
    assert code == 1
    assert "hit\t0\tinput1\tstatespace v1" in out


def test_search_bad_spec_is_invalid_input(run, tmp_path):
    spec = tmp_path / "s.search"
    spec.write_text("search v1\ntarget nope\ncount 1\n")
    assert run("search", str(spec))[0] == 2
    assert run("search", str(tmp_path / "missing.search"))[0] == 2


# ---------------------------------------------------------------------------
# a closed family is built only where the command reads it

CAP_ERROR = "error\tclosure family exceeds cap of 1000000 sets"


def test_symmetry_count_needs_no_family(run):
    code, out, _ = run("symmetries", "gen:boolean:64", "--count-only")
    assert (code, out) == (0, [f"count\t{math.factorial(64)}"])


@pytest.mark.parametrize("argv", [("validate",), ("axioms",), ("plane",),
                                  ("plane", "--witnesses"), ("symmetries", "--count-only")])
def test_a_statespace_file_over_the_ground_cap_is_refused(run, tmp_path, argv):
    # boolean:65 as a file; the catalog refuses gen:boolean:65 with the same line
    path = tmp_path / "boolean65.statespace"
    path.write_text("statespace v1\natoms " + " ".join(f"x{p}" for p in range(65)) + "\n"
                    + "".join(f"orth x{p} x{q}\n" for p in range(65) for q in range(p + 1, 65)))
    for src in (str(path), "gen:boolean:65"):
        code, out, err = run(argv[0], src, *argv[1:])
        assert (code, out, err.splitlines()) == (3, [], ["error\tground set of 65 atoms exceeds capacity 64"])


def test_plane_transitivity_needs_no_family(run):
    code, out, _ = run("plane", "gen:boolean:32")
    assert (code, out) == (0, ["plane-transitive\ttrue"])


def test_passing_axioms_read_the_whole_family(run):
    code, out, err = run("axioms", "gen:boolean:20")
    assert (code, out, err.splitlines()) == (3, [], [CAP_ERROR])


@pytest.mark.parametrize("argv", [
    ("lattice", "gen:boolean:20"),
    ("lattice", "gen:boolean:20", "--dot"),
    ("product", "gen:boolean:4", "gen:boolean:5", "--separated"),
])
def test_a_family_over_the_cap_leaves_stdout_empty(run, argv):
    code, out, err = run(*argv)
    assert (code, out, err.splitlines()) == (3, [], [CAP_ERROR])


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_search_answers_at_eight_states(run, tmp_path, target):
    spec = tmp_path / "s.search"
    spec.write_text(f"search v1\ntarget {target}\ncount 200\nnmax 8\nseed 1\n")
    code, out, err = run("search", str(spec))
    assert (code, err) == (0, "")
    assert len(out) == 201
    assert {line.split("\t")[9] for line in out[:-1]} <= {"pass", "invalid"}
    assert out[-1].startswith("summary\tcount\t200\thits\t0\t")
