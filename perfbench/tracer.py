"""Spans around orthlab's layers, installed from outside the package.

Every public module-level function of the traced modules is wrapped, and
each wrapper is bound under every name a module looks it up by: ``cli``
and ``search`` import checkers by name (``from .axioms import
check_boolean``), so patching ``orthlab.axioms`` alone would miss those
calls.  The search's target predicates are reached through its
``TARGETS`` dict and are wrapped there.  Two methods of
``ClosureSystem`` are wrapped on the class: ``permutation_failure`` gets
a span and ``closure_mask`` only a call counter, since it runs up to
millions of times inside the axiom scans.  ``bitset`` and the methods of
the data classes (``PPL.join_mask``, ``OrthoRelation.perp_mask``) are
per-element primitives and are left alone; their time is part of their
caller's self time.  ``dot`` is left out too: no workload exports DOT.

Spans stay in memory: name, start, end, parent span and operation.  A
span's self time is its duration minus the durations of its children.
The operation itself is the root span ``cli.main``, so the self times of
an operation add up to its duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

TRACED_MODULES = ("formats", "catalog", "statespace", "closure", "products",
                  "axioms", "symmetry", "search")
ALL_MODULES = TRACED_MODULES + ("cli",)
ROOT_SPAN = "cli.main"


class Tracer:
    """Collects spans and counters; ``install`` patches orthlab, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []  # [span index, name, start, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [len(self.spans), name, time.perf_counter(), 0.0]
        self.spans.append(None)  # placeholder keeps the index stable for children
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "span stack out of order"
        idx, name, start, child = frame
        dur = end - start
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans[idx] = (name, start, end, parent[0] if parent else -1, self.op)

    def run_op(self, fn, *args):
        """Run one operation as the root span."""
        self.op += 1
        self._stack.clear()
        frame = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            # A time limit can interrupt the operation between a span's
            # open and close; close whatever it left open.
            while self._stack and self._stack[-1] is not frame:
                self._close(self._stack[-1])
            self._close(frame)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span of the same name."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(frame)
                counts[name + ".yielded"] += 1
                yield item

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self) -> dict:
        """Work counts read off the results of particular calls."""
        c = self.counts

        def add(key, value):
            c[key] += value

        return {
            "statespace.property_lattice": lambda r: add("statespace.closed_sets", len(r.cs)),
            "search.run_search": lambda r: add("search.instances", len(r.instances)),
            "closure.ClosureSystem.permutation_failure":
                lambda r: add("closure.permutation_failure.accepted", r is None),
            **{f"axioms.{f}": (lambda r, k=k: add(f"axioms.{k}_checked", r.stats.checked))
               for f, k in (("check_orthomodular", "orthomodular"),
                            ("check_covering_law", "covering"),
                            ("check_boolean", "boolean"),
                            ("check_irreducible", "irreducible"))},
        }

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"orthlab.{m}") for m in ALL_MODULES}
        hooks = self._hooks()
        wrapped: dict[int, object] = {}
        for m in TRACED_MODULES:
            mod = mods[m]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{m}.{attr}"
                wrapped[id(fn)] = (self._wrap_generator(name, fn)
                                   if inspect.isgeneratorfunction(fn)
                                   else self._wrap(name, fn, hooks.get(name)))
        # Bind each wrapper under every name that refers to the original.
        for mod in (*mods.values(), sys.modules["orthlab"]):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._set(mod, attr, wrapped[id(value)])
        targets = mods["search"].TARGETS
        for key, fn in list(targets.items()):
            self._undo.append((targets, key, fn))
            targets[key] = self._wrap(f"search.target.{fn.__name__}", fn)
        cs = mods["closure"].ClosureSystem
        pf = "closure.ClosureSystem.permutation_failure"
        self._set(cs, "permutation_failure", self._wrap(pf, cs.permutation_failure, hooks[pf]))
        self._set(cs, "closure_mask", self._counter("closure.closure_mask", cs.closure_mask))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures, keyed by metric name (see README)."""
        s, c = self.self_s, self.counts
        out: dict[str, float] = {}
        for layer in ALL_MODULES:
            out[f"{layer}.self_s"] = sum(v for k, v in s.items() if k.split(".")[0] == layer)
        calls = c["closure.ClosureSystem.permutation_failure"]
        out.update({
            "formats.parse_ppl_s": s["formats.parse_ppl"],
            "catalog.random_space_s": s["catalog.random_space"],
            "catalog.random_space_calls": c["catalog.random_space"],
            "statespace.property_lattice_s": s["statespace.property_lattice"],
            "statespace.property_lattice_calls": c["statespace.property_lattice"],
            "statespace.closed_sets": c["statespace.closed_sets"],
            "products.separated_product_s": s["products.separated_product"],
            "products.minimal_product_s": s["products.minimal_product"],
            "products.built": c["products.separated_product"] + c["products.minimal_product"],
            "axioms.orthocomplementation_s": s["axioms.find_compatible_orthocomplementation"],
            "closure.closure_mask_calls": c["closure.closure_mask"],
            "closure.permutation_failure_s": s["closure.ClosureSystem.permutation_failure"],
            "closure.permutation_failure_calls": calls,
            "closure.leaf_accept_ratio":
                c["closure.permutation_failure.accepted"] / calls if calls else 0.0,
            "symmetry.enumerate_s": s["symmetry.enumerate_symmetries"],
            "symmetry.symmetries": c["symmetry.enumerate_symmetries.yielded"],
            "symmetry.plane_s": s["symmetry.is_plane_transitive"]
            + s["symmetry.find_plane_symmetry"],
            "symmetry.plane_queries": c["symmetry.find_plane_symmetry"],
            "search.instances": c["search.instances"],
            "search.target_s": sum(v for k, v in s.items() if k.startswith("search.target.")),
            "search.slowest_instance_s": max(
                (span[2] - span[1] for span in self.spans
                 if span is not None and span[0].startswith("search.target.")),
                default=0.0),
        })
        for k in ("orthomodular", "covering", "boolean", "irreducible"):
            fn = {"covering": "check_covering_law"}.get(k, f"check_{k}")
            out[f"axioms.{k}_s"] = s[f"axioms.{fn}"]
            out[f"axioms.{k}_checked"] = c[f"axioms.{k}_checked"]
        return out

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def write(self, path: Path, round_index: int) -> None:
        """Append every span as one tab-separated line: round, name, start, end, parent, op."""
        with path.open("a") as fh:
            if round_index == 0:
                fh.write("round\tname\tstart\tend\tparent\top\n")
            for span in self.spans:
                if span is None:  # opened when a time limit struck
                    continue
                name, start, end, parent, op = span
                fh.write(f"{round_index}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
