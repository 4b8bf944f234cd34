"""One workload in a fresh process: set-up, then whole rounds of operations.

Started by ``run.py``, never by hand.  Set-up imports orthlab (and numpy
with it) from the checkout's ``src`` and writes the workload's input
files.  Each operation then calls ``orthlab.cli.main(argv)`` with stdout
and stderr captured, under its own time limit.  Rounds repeat while
another one fits in ``--seconds``; a round always runs all of its operations.
With ``--trace 1`` each round runs every operation untraced and then
traced.  The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import workloads as W

#: No operation starts after this many seconds of the worker's life; any
#: left in a round count as failed, so the run still ends in time.
HARD_STOP_S = 140.0


class OperationTimeout(BaseException):
    """Raised by the alarm inside an operation that ran past its limit.

    A BaseException, so the CLI's own ``except`` clauses cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise OperationTimeout


def set_up(workload: str, work: Path):
    """Import orthlab from the checkout and write the input files; returns cli.main."""
    sys.path.insert(0, str(W.ROOT / "src"))
    import orthlab.cli

    src = (W.ROOT / "src").resolve()
    if src not in Path(orthlab.cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: orthlab was imported from {orthlab.cli.__file__}, "
                         f"not from {src}")
    W.write_inputs(workload, work)
    return orthlab.cli.main


class Runner:
    """Runs the operations and keeps each one's distinct outputs."""

    def __init__(self, main, ops: list[W.Op], work: Path, started: float):
        self.main = main
        self.ops = ops
        self.work = work
        self.stop_at = started + HARD_STOP_S
        self.outputs: dict[str, list[dict]] = {op.key: [] for op in ops}

    def _record(self, key: str, result: dict) -> int:
        """Index of this result among the operation's distinct outputs."""
        seen = self.outputs[key]
        if result not in seen:
            seen.append(result)
        return seen.index(result)

    def run_op(self, op: W.Op, tracer=None) -> dict:
        limit = min(op.limit_s, self.stop_at - time.perf_counter())
        out, err = io.StringIO(), io.StringIO()
        code = error = None
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if limit <= 0:
            error = "not started: the run's hard stop had passed"
        else:
            try:
                signal.setitimer(signal.ITIMER_REAL, limit)
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = (tracer.run_op(self.main, op.resolved(self.work)) if tracer
                                else self.main(op.resolved(self.work)))
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OperationTimeout:
                error = f"exceeded its {limit:.1f} s limit"
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
            except Exception as exc:  # any crash is a failed operation, not a failed run
                error = f"raised {type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        variant = self._record(op.key, {"code": code, "error": error,
                                        "stdout": out.getvalue(), "stderr": err.getvalue()})
        return {"key": op.key, "wall": wall, "cpu": cpu, "variant": variant}

    def rounds(self, seconds: float, traced: bool) -> list[dict]:
        """Whole rounds while another one fits in ``seconds`` (at least one).

        A traced round runs each operation twice, untraced and then
        traced, so that both runs see the machine in the same state.
        """
        rounds = []
        t0 = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            if traced:
                from tracer import Tracer  # only traced runs pay for importing it
                tracer, plain, spanned = Tracer(), [], []
                for op in self.ops:
                    plain.append(self.run_op(op))
                    tracer.install()
                    try:
                        spanned.append(self.run_op(op, tracer))
                    finally:
                        tracer.uninstall()
                rounds.append({"untraced": plain, "traced": spanned, "tracer": tracer})
            else:
                rounds.append({"untraced": [self.run_op(op) for op in self.ops]})
            # Stop when another round as long as this one would run past
            # --seconds, so a run never measures much longer than asked.
            now = time.perf_counter()
            last = now - r0
            if now - t0 + last > seconds or now + last > self.stop_at:
                return rounds


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli_main = set_up(args.workload, args.work)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(cli_main, list(W.WORKLOADS[args.workload]), args.work, started)
    rounds = runner.rounds(args.seconds, traced=bool(args.trace))
    traced = [r for r in rounds if "tracer" in r]
    if args.spans and traced:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.unlink(missing_ok=True)
        for i, r in enumerate(traced):
            r["tracer"].write(args.spans, round_index=i)
    result = {
        "ready": ready,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": runner.outputs,
        "untraced": [r["untraced"] for r in rounds],
        "traced": [{"ops": r["traced"], "layers": r["tracer"].layer_metrics(),
                    "self_total": r["tracer"].self_total()} for r in traced],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
