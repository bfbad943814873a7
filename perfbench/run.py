"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a spindex checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` it starts four fresh worker processes
one after the other.  Each imports spindex, builds the inputs and finishes
one warm-up operation (``setup_s`` is the median of the four times that
takes), then runs the workload's round for a quarter of ``S`` seconds; each
operation's time is its best over all rounds of all four.  With
``--trace 1`` one worker runs the same operations plain and traced, and
reports the per-layer metrics.  The last line of stdout is the JSON result;
the lines before it say the same in words, with the environment.  A copy of
everything goes to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Measuring processes per plain run.  On a 2-core Xeon VM one Python process
# ran the same round up to a third slower than the next, throughout its
# life, so each operation's best time is taken over several processes; each
# is also one set-up sample.
WORKERS = 4
TAIL_BEYOND = 10    # op_tail_ms is the highest percentile with ten values beyond it
DEADLINE_S = 170.0  # the whole run, set-up included
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Workloads whose numpy calls are on matrices of at most 64 x 64 run with one
# BLAS thread.  On a 2-vCPU VM the second OpenBLAS thread, spinning idle
# after a call, slowed the Python thread by up to 1.7x for seconds at a time.
ONE_BLAS_THREAD = ("exact-sparse", "spin-cover", "modules-symbols")
# end-to-end metrics that are printed but not declared in BENCHMARK.json:
# they are zero on most workloads, and a declared metric must never be zero
REPORTED_ONLY_UNITS = {"failed_share": "share", "wrong_results": "count"}


class BenchError(RuntimeError):
    pass


def worker_env(workload: str) -> dict:
    """The caller's environment with spindex's src first on the path and
    BLAS threads capped at the number of usable cores, or at one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    cap = 1 if workload in ONE_BLAS_THREAD else len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else cap
        env[var] = str(min(limit, cap))
    return env


def environment(env: dict, args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in _read_lines("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def _read_lines(path: str):
    try:
        with open(path) as fh:
            return fh.readlines()
    except OSError:
        return []


def run_worker(args, env: dict, deadline: float, seconds: float, battery: bool):
    """Start one worker; return (seconds until READY, parsed result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--battery", str(int(battery))]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker exited with code {code} before finishing")
    lines = [line for line in rest.splitlines() if line.strip()]
    if not lines:
        raise BenchError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def combine(parts) -> dict:
    """End-to-end metrics from the workers' results.  The typical round has
    each operation at its best time over all rounds of all workers, as
    timeit recommends: slower repeats of the same computation measure load
    from other tenants of the machine, not the program."""
    typical = sorted(min(times) for times in zip(*(p["best_s"] for p in parts)))
    if len(typical) <= TAIL_BEYOND:
        raise BenchError(f"a round of {len(typical)} operations has no tail")
    counts = {k: sum(p[k] for p in parts)
              for k in ("attempted", "failed", "ok", "wrong_results", "typed_errors", "raised",
                        "rounds", "round_ok", "round_attempted")}
    return {**counts, "correct": all(p["correct"] for p in parts),
            "failed_share": counts["failed"] / counts["attempted"],
            "values": len(typical),
            "ops_per_s": (counts["round_ok"] / counts["round_attempted"]
                          * len(typical) / sum(typical)),
            "op_p50_ms": 1e3 * statistics.median(typical),
            "op_tail_ms": 1e3 * typical[-1 - TAIL_BEYOND],
            "tail_percentile": 100.0 * (len(typical) - 1 - TAIL_BEYOND) / (len(typical) - 1),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts)}


def declared_metrics(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "spindex", "__init__.py")):
        print(f"no spindex package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(args.workload)
    try:
        if args.trace:
            setups, (_, result) = [], run_worker(args, env, deadline, args.seconds, True)
        else:
            runs = [run_worker(args, env, deadline, args.seconds / WORKERS, i == 0)
                    for i in range(WORKERS)]
            setups = [setup_s for setup_s, _ in runs]
            result = combine([part for _, part in runs])
            result["setup_s"] = statistics.median(setups)
    except (BenchError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    record = {"environment": environment(env, args), "setups_s": setups, "result": result}
    if args.trace:
        values, units = result["layers"], declared_metrics("per_layer")
    else:
        values, units = result, declared_metrics("end_to_end")
    missing = set(units) - set(values)
    if missing:
        print(f"benchmark failed: no value for {sorted(missing)}", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment: " + json.dumps(record["environment"]))
    print(report(args, result, setups, units))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


def report(args, result: dict, setups, units: dict) -> str:
    lines = [f"{args.workload} seed {args.seed}: {result['attempted']} operations, "
             f"{result['ok']} correct, {result['wrong_results']} wrong, "
             f"{result['typed_errors']} typed errors, {result['raised']} other errors"]
    if args.trace:
        lines.append(f"tracing overhead: {result['layers']['trace.overhead_pct']:.1f} % "
                     f"({result['plain_s']:.3f} s plain, {result['traced_s']:.3f} s traced)")
        for name, value in result["layers"].items():
            lines.append(f"  {name} = {value:.6g} {units[name]}"
                         f"   (moves {result['moves'][name]})")
        return "\n".join(lines)
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"correct results per second of a typical round of {result['values']} "
                     f"operations, each at its best over {result['rounds']} rounds "
                     f"in {len(setups)} processes",
        "op_p50_ms": "median of the typical round",
        "op_tail_ms": f"p{result['tail_percentile']:.4g} of the typical round's "
                      f"{result['values']} values, {TAIL_BEYOND} beyond it",
        "failed_share": f"{result['failed']} of {result['attempted']} attempted",
        "wrong_results": "returned without error but disagree with the known answer",
        "peak_rss_mb": "the largest of the measuring processes",
    }
    units = {**REPORTED_ONLY_UNITS, **units}
    lines += [f"  {name} = {result[name]:.6g} {units[name]}   ({note})"
              for name, note in notes.items()]
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
