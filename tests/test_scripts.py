"""The two scripts, run at small settings: exit codes and the shape of every line.

Also the package import in a fresh interpreter, which must not load numpy.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from orthlab import statespace
from orthlab.search import TARGETS
from orthlab.symmetry import count_symmetries

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

FLAG = "(yes|no|-)"
SURVEY_LINE = re.compile(
    rf"(boolean|mo):\d+\tatoms=\d+\telements=\d+\toc={FLAG}\tom={FLAG}"
    rf"\tcovering=(yes|no)\tboolean={FLAG}\tirreducible={FLAG}"
    r"\tsymmetries=\d+\tplane-transitive=(yes|no)")
PRODUCT_LINE = re.compile(
    rf"(minimal|separated)\((boolean|mo):\d+,(boolean|mo):\d+\)\tatoms=\d+\telements=\d+"
    rf"\toc={FLAG}\tom={FLAG}\tcovering=(yes|no)\tboolean={FLAG}\tirreducible={FLAG}"
    r"\tsymmetries=(\d+|unknown)\tplane-transitive=(yes|no|unknown)")
SUMMARY_LINE = re.compile(r"([a-z-]+)\tcount\t(\d+)\thits\t(\d+)\tinvalid\t\d+")


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_importing_the_cli_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, orthlab, orthlab.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_survey_catalog_defaults():
    proc = _run_script("survey_catalog.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split("\t")[0] for line in lines] == \
        ["boolean:1", "boolean:2", "boolean:3", "boolean:4", "boolean:5", "mo:2", "mo:3"]
    for line in lines:
        assert SURVEY_LINE.fullmatch(line), line


def test_survey_catalog_products_report_symmetries_and_planes():
    proc = _run_script("survey_catalog.py", "--products", "--product-atoms", "8")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    products = lines[lines.index("") + 1:]
    assert len(products) == 2 * 20  # both products of the 20 pairs of at most 8 atoms
    for line in products:
        assert PRODUCT_LINE.fullmatch(line), line
    # the separated product of two Boolean spaces is the Boolean space on
    # their 8 pairs: all 8! permutations, and plane transitive
    assert ("separated(boolean:2,boolean:4)\tatoms=8\telements=256\toc=yes\tom=yes"
            "\tcovering=yes\tboolean=yes\tirreducible=no\tsymmetries=40320"
            "\tplane-transitive=yes") in products


def test_survey_prints_unknown_when_a_budget_runs_out(mo3_ppl):
    script = _load_script("survey_catalog.py")
    assert script.or_unknown(lambda: count_symmetries(mo3_ppl, budget=1)) == "unknown"
    assert script.or_unknown(lambda: count_symmetries(mo3_ppl)) == "48"


def test_survey_prints_unknown_cells_for_a_product_over_the_family_cap(monkeypatch, capsys):
    script = _load_script("survey_catalog.py")
    real = statespace.meet_closure

    def capped(masks, n):  # a cap of 20 sets: the separated 8-atom products have 36
        return real(masks, n, max_family=20)

    # property lattices build their family on its first read, so the cap
    # fires there, and the cells that read no family still answer
    monkeypatch.setattr(statespace, "meet_closure", capped)
    monkeypatch.setattr(sys, "argv", ["survey_catalog.py", "--boolean-max", "2", "--lantern-max",
                                      "2", "--products", "--product-atoms", "8"])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    products = lines[lines.index("") + 1:]
    assert len(products) == 2 * 8  # every pair of at most 8 atoms, both products
    unknown = [line for line in products if "=unknown" in line]
    assert unknown == [
        f"separated({pair})\tatoms=8\telements=unknown\toc=unknown\tom=unknown"
        "\tcovering=unknown\tboolean=unknown\tirreducible=unknown\tsymmetries=128"
        "\tplane-transitive=no" for pair in ("boolean:2,mo:2", "mo:2,boolean:2")]
    for line in products:
        assert line in unknown or PRODUCT_LINE.fullmatch(line), line


def test_mine_counterexamples_small_run():
    proc = _run_script("mine_counterexamples.py", "--count", "30")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(TARGETS)
    for line, target in zip(lines, sorted(TARGETS)):
        match = SUMMARY_LINE.fullmatch(line)
        assert match, line
        assert match.groups()[:3] == (target, "30", "0")


@pytest.mark.parametrize("args, code, error", [
    # seed 5 draws a 9-state and an 8-state factor, and their product of 72
    # atoms exceeds the ground-set capacity (the searches decide every
    # instance from joins, so no family of theirs meets the family cap)
    (("--nmax", "9", "--count", "1", "--seed", "5",
      "--target", "minimal-covering-nontrivial"),
     3, "error\tground set of 72 atoms exceeds capacity 64"),
    (("--count", "-1"), 2, "error\tcount must be >= 0 and nmax >= 1"),
], ids=["capacity", "invalid-count"])
def test_mine_counterexamples_errors_exit_like_the_cli(args, code, error):
    proc = _run_script("mine_counterexamples.py", *args)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines() == [error]
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_survey_over_capacity_exits_like_the_cli():
    proc = _run_script("survey_catalog.py", "--lantern-max", "40")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "error\tground set of 66 atoms exceeds capacity 64\n"
    assert proc.stdout == ""


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


@pytest.mark.parametrize("name, call", [("survey_catalog.py", "axiom_suite"),
                                        ("mine_counterexamples.py", "run_search")])
def test_scripts_report_internal_errors_like_the_cli(monkeypatch, capsys, name, call):
    script = _load_script(name)
    monkeypatch.setattr(script, call, _boom)
    monkeypatch.setattr(sys, "argv", [name])
    assert script.main() == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error\tinternal error: RuntimeError: boom\n")


@pytest.mark.parametrize("full_report", [False, True])
def test_mine_counterexamples_prints_hits_as_report_lines(monkeypatch, capsys, full_report):
    script = _load_script("mine_counterexamples.py")
    target = "minimal-covering-nontrivial"
    monkeypatch.setitem(TARGETS, target, lambda ss1, ss2: "forced hit")
    argv = ["mine_counterexamples.py", "--count", "2", "--target", target]
    monkeypatch.setattr(sys, "argv", argv + ["--full-report"] * full_report)
    assert script.main() == 1
    lines = capsys.readouterr().out.splitlines()
    summary = f"{target}\tcount\t2\thits\t2\tinvalid\t0"
    assert lines.count(summary) == 1
    assert not any(line.startswith("summary\t") for line in lines)
    hits = [line for line in lines if line.startswith("hit\t")]
    assert {line.split("\t")[1] for line in hits} == {"0", "1"}
    assert all(line.split("\t")[2] in ("input1", "input2") for line in hits)
    if full_report:
        assert lines[-1] == summary
        assert sum(line.startswith("instance\t") for line in lines) == 2
    else:
        assert lines == [summary] + hits
