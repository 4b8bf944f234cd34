"""orthlab benchmark: run one workload, check every output, print its metrics.

    python3 perfbench/run.py --workload axioms-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a fresh
single-threaded worker process (``worker.py``); a few more workers that
only do the set-up measure ``setup_s``.  This process then checks every
output against answers computed apart from orthlab (``checks.py``), runs
the checks' self-test, and prints one summary line per operation and, as
the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

#: Set-up-only workers per run; with the main worker they give the samples
#: whose median is ``setup_s``.
SETUP_PROBES = 6
#: The main worker stops starting operations at 140 s (worker.HARD_STOP_S).
WORKER_TIMEOUT_S = 160
OUT = W.ROOT / ".perfbench_out"
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def spawn_worker(args: list[str], work: Path, timeout: float) -> tuple[float, dict]:
    """Run worker.py to its end; returns its start time and its JSON result."""
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), *args,
           "--work", str(work)]
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=env, cwd=W.ROOT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return t_spawn, json.loads(proc.stdout.splitlines()[-1])


def round_sums(rounds: list[list[dict]], field: str) -> list[float]:
    return [sum(op[field] for op in ops) for ops in rounds]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="accepted for the driver; the inputs are pinned (README)")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (W.ROOT / "src" / "orthlab").is_dir():
        print(f"perfbench: no orthlab sources under {W.ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        import checks
    except ImportError as exc:
        print(f"perfbench: cannot load the output checks: {exc}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload]
    setup = []
    for i in range(SETUP_PROBES):
        t_spawn, probe = spawn_worker(common + ["--seconds", "0", "--setup-only"],
                                      OUT / f"work-{os.getpid()}-{i}", 60)
        setup.append(probe["ready"] - t_spawn)
    spans = OUT / f"spans-{args.workload}.tsv"
    t_spawn, res = spawn_worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--spans", str(spans)],
        OUT / f"work-{os.getpid()}-main", WORKER_TIMEOUT_S)
    setup.append(res["ready"] - t_spawn)

    checker = checks.Checker(args.workload)
    outputs = res["outputs"]
    verdicts = {key: [checker.check(key, v["code"], v["error"], v["stdout"]) for v in variants]
                for key, variants in outputs.items()}
    rounds = res["untraced"] + [r["ops"] for r in res["traced"]]
    records = [op for ops in rounds for op in ops]
    failed = [op for op in records if verdicts[op["key"]][op["variant"]] is not None]
    problems = sorted({f"{op['key']}: {verdicts[op['key']][op['variant']]}" for op in failed})
    unexpected = [p for p in problems if p.split(":")[0] not in checks.KNOWN_FAULTS]
    for p in problems:
        print(f"perfbench: failed: {p}", file=sys.stderr)

    passing = {}
    for key, variants in outputs.items():
        for v, verdict in zip(variants, verdicts[key]):
            if verdict is None:
                passing.setdefault(key, (v["code"], v["stdout"]))
    tried, accepted = checks.self_test(checker, passing)
    print(f"self-test\twrong_outputs\t{tried}\taccepted\t{len(accepted)}")
    for a in accepted:
        print(f"perfbench: self-test: a wrong output was accepted: {a}", file=sys.stderr)

    run_s = statistics.median(round_sums(res["untraced"], "wall"))
    if args.trace:
        traced_run_s = statistics.median(round_sums([r["ops"] for r in res["traced"]], "wall"))
        overhead = traced_run_s - run_s
        # The self times of an operation's spans add up to the operation's
        # traced wall time, less the tracer's own bookkeeping around the
        # root span; so they add up to run_s within the tracing overhead.
        self_sum = statistics.median(r["self_total"] for r in res["traced"])
        sums_ok = abs(self_sum - traced_run_s) <= 0.01 * traced_run_s
        if not sums_ok:
            print(f"perfbench: layer self times add up to {self_sum} s, not to the "
                  f"traced run_s {traced_run_s} s", file=sys.stderr)
        names = res["traced"][0]["layers"]
        metrics = {name: statistics.median(r["layers"][name] for r in res["traced"])
                   for name in names}
        metrics["tracing.overhead_s"] = overhead
        unit = {"_s": "s", "ratio": "ratio"}
        report = {name: {"value": value,
                         "unit": next((u for suf, u in unit.items() if name.endswith(suf)),
                                      "count")}
                  for name, value in metrics.items()}
    else:
        sums_ok = True
        report = {
            "run_s": {"value": run_s, "unit": "s"},
            "cpu_s": {"value": statistics.median(round_sums(res["untraced"], "cpu")),
                      "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
        }

    for i, ops in enumerate(rounds):
        kind = "untraced" if i < len(res["untraced"]) else "traced"
        print(f"round\t{i}\t{kind}\twall_s\t{sum(o['wall'] for o in ops):.4f}"
              f"\tcpu_s\t{sum(o['cpu'] for o in ops):.4f}")
    for op in W.WORKLOADS[args.workload]:
        walls = [o["wall"] for o in records if o["key"] == op.key]
        bad = sum(1 for o in failed if o["key"] == op.key)
        print(f"op\t{op.key}\truns\t{len(walls)}\tmedian_s\t{statistics.median(walls):.4f}"
              f"\tfailed\t{bad}")
    print(json.dumps({
        "correct": not unexpected and not accepted and sums_ok,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
