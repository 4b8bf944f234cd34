"""The benchmark's tracer against the current package, in process.

``perfbench/tracer.py`` wraps orthlab's functions by name and reads a few
results in its hooks (``len(r.cs)``, ``r.stats.checked``,
``r.instances``) and one method on the class
(``ClosureSystem.permutation_failure``).  When a rename or a changed
result breaks one of them, a traced benchmark run ends ``incorrect``
although every untraced output is right.  Here every operation of the
three workloads runs once plain and once traced, on the inputs
``perfbench/workloads.py`` writes, and both runs must give the same exit
code, stdout and stderr.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from orthlab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")

#: A layer figure each workload's hooks must fill in.
FILLED = {"axioms-ladder": "axioms.orthomodular_checked",
          "symmetry": "statespace.property_lattice_calls",
          "search": "search.instances"}


def _run(argv: list[str], run=None) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv) if run is None else run(main, argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_operations_print_what_untraced_ones_print(workload, tmp_path):
    workloads.write_inputs(workload, tmp_path)
    t = tracer.Tracer()
    for op in workloads.WORKLOADS[workload]:
        argv = op.resolved(tmp_path)
        plain = _run(argv)
        t.install()
        try:
            traced = _run(argv, t.run_op)
        finally:
            t.uninstall()
        assert traced == plain, op.key
    metrics = t.layer_metrics()
    assert metrics[FILLED[workload]] > 0
