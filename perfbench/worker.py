"""One benchmark process: set up a workload, then measure it.

Started by run.py, never by hand.  It prints ``READY`` once spindex is
imported, the inputs are built and one untimed warm-up operation has run;
run.py times set-up from process start to that line.  It then prints one
JSON line with the measurement: each operation's best time and the outcome
of every operation, or with ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spindex  # noqa: E402
from spindex import torus_index as ti  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

TYPED_ERRORS = (ti.AmbiguousKernelError, ti.NonConvergenceError)
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
TRACE_ROUNDS = 2   # times the traced run makes each operation, plain and traced


class Tally:
    """Outcome of every operation attempted, by class."""

    def __init__(self):
        self.attempted = self.ok = self.wrong = self.typed = self.raised = 0
        self.unexpected = 0   # any failure outside the known-defect battery
        self.reported = set()  # kinds whose first failure went to stderr

    def report(self, op, what: str) -> None:
        if op.kind not in self.reported:
            self.reported.add(op.kind)
            print(f"{op.kind} {what}:\n{traceback.format_exc()}", file=sys.stderr)

    def run(self, op):
        """Call op, classify its outcome, and return the seconds the call took."""
        start = time.perf_counter()
        try:
            out = op.call()
        except TYPED_ERRORS:
            elapsed = time.perf_counter() - start
            self.attempted += 1
            self.typed += 1
            # the round's inputs are certified: refusing one is a regression
            self.unexpected += not op.known_defect
            if not op.known_defect:
                self.report(op, "raised a typed error")
            return elapsed
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            elapsed = time.perf_counter() - start
            self.attempted += 1
            self.raised += 1
            self.unexpected += not op.known_defect
            self.report(op, "raised")
            return elapsed
        elapsed = time.perf_counter() - start
        self.attempted += 1
        try:
            right = bool(op.check(out))
        except Exception:  # noqa: BLE001 - a malformed result is a wrong one
            self.report(op, "returned an unreadable result")
            right = False
        if right:
            self.ok += 1
        else:
            self.wrong += 1
            self.unexpected += not op.known_defect
        return elapsed

    @property
    def failed(self) -> int:
        return self.wrong + self.typed + self.raised

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "correct": self.unexpected == 0, "ok": self.ok,
                "wrong_results": self.wrong, "typed_errors": self.typed,
                "raised": self.raised,
                "failed_share": self.failed / self.attempted if self.attempted else 0.0}


def measure(workload, seconds: float, battery, ops) -> dict:
    """Battery once, then the round again and again until ``seconds`` of
    wall time have passed, at least once.  Each operation of the round
    reports its best time; the battery counts only in the outcomes."""
    tally = Tally()
    start = time.perf_counter()
    for op in battery:
        tally.run(op)
    best = [float("inf")] * len(ops)
    ok_before, attempted_before = tally.ok, tally.attempted
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            best[i] = min(best[i], tally.run(op))
        rounds += 1
    return {**tally.summary(), "rounds": rounds, "best_s": best,
            "round_ok": tally.ok - ok_before,
            "round_attempted": tally.attempted - attempted_before,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def measure_traced(workload, seed: int, battery, ops) -> dict:
    """Run each operation of the battery and the round TRACE_ROUNDS times
    plain and as often traced, the two back to back and each first in every
    other round, so that a slow stretch of the machine hits both alike.  The
    overhead compares them by each operation's best time; counts repeat
    exactly for a seed."""
    import tracing

    ops = battery + ops
    tracer = tracing.Tracer()
    tracing.install(tracer)
    plain, traced = Tally(), Tally()
    best = {"plain": [float("inf")] * len(ops), "traced": [float("inf")] * len(ops)}

    def run_plain(i, op):
        tracer.disable()
        best["plain"][i] = min(best["plain"][i], plain.run(op))

    def run_traced(i, op):
        tracer.enable()
        tracer.op_id = i
        frame = tracer.push("op:" + op.kind)
        try:
            best["traced"][i] = min(best["traced"][i], traced.run(op))
        finally:
            tracer.pop(frame)

    for r in range(TRACE_ROUNDS):
        for i, op in enumerate(ops):
            for run in ((run_plain, run_traced) if r % 2 == 0 else (run_traced, run_plain)):
                run(i, op)
    tracer.disable()
    plain_s, traced_s = sum(best["plain"]), sum(best["traced"])
    overhead_pct = 100.0 * (traced_s / plain_s - 1.0)
    metrics = tracing.layer_metrics(tracer, {"torus_index.typed_errors": traced.typed,
                                             "trace.overhead_pct": overhead_pct})
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.json"),
                {"workload": workload.name, "seed": seed,
                 "ops": [op.kind for op in ops]})
    if plain.summary() != traced.summary():
        traced.unexpected += 1
        print("traced outcomes differ from the plain run", file=sys.stderr)
    return {**traced.summary(), "plain_s": plain_s, "traced_s": traced_s,
            "layers": metrics, "moves": tracing.LAYER_METRICS}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--battery", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    expected = os.path.join(ROOT, "src", "spindex")
    if os.path.dirname(os.path.abspath(spindex.__file__)) != expected:
        print(f"spindex imported from {spindex.__file__}, not {expected}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    battery = workload.battery() if args.battery else []
    ops = workload.round()
    Tally().run(workload.warm_up())  # untimed and uncounted: the rounds check
    print("READY", flush=True)
    if args.trace:
        result = measure_traced(workload, args.seed, battery, ops)
    else:
        result = measure(workload, args.seconds, battery, ops)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
