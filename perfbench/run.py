"""Benchmark of the htfoliation verifier.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sphere-s7 --seed 42 --seconds 20 --trace 0

Each iteration runs in a fresh child process, one at a time (a closed loop
with one client), with BLAS pinned to one thread, because a command-line
user pays import, table building and cache fills on every run.  Every
report is checked (see workloads.py).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from traced iterations, each run after an untraced
one so that the tracing overhead is measured too.
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

import layers
from workloads import WORKLOADS, Workload, judge

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: set-up-only children per run (after one warm-up child that is discarded),
#: so that setup_s is a median even when a run has room for one iteration
SETUP_PROBES = 5
#: a run starts no iteration after this many seconds, and a child still
#: running at RUN_LIMIT_S is killed, so a run ends within the 180 s allowed
HARD_STOP_S = 120.0
RUN_LIMIT_S = 170.0

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]


class ChildFailed(RuntimeError):
    pass


def spawn(root: str, request: dict, timeout: float = RUN_LIMIT_S) -> dict:
    """Run child.py once and return its result with the CPU time and peak
    RSS the kernel accounted to it."""
    env = dict(os.environ, **BLAS_PIN)
    request = dict(request, t_spawn=time.monotonic())
    proc = subprocess.Popen([sys.executable, CHILD, json.dumps(request)],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read().decode()
    except BaseException:
        proc.kill()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}:\n{out[-4000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def summary(values: list[float]) -> dict:
    """Median and quartiles (both quartiles equal the value for one sample)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def environment(seed: int, numpy_version: str) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "machine": platform.machine(),
            "blas_threads": BLAS_PIN,
            "seed": seed}


def measure(root: str, wl: Workload, seed: int, seconds: float,
            trace: bool) -> dict:
    """Run the workload for about ``seconds`` and return the full result."""
    base = {"workload": [p.to_json() for p in wl.parts], "seed": seed}
    t_start = time.monotonic()

    def child(**kind):
        left = RUN_LIMIT_S - (time.monotonic() - t_start)
        return spawn(root, dict(base, **kind), timeout=max(left, 1.0))

    child(trace=False, setup_only=True)                    # warm-up
    setups = [child(trace=False, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    attempted = failed = 0
    problems: list[str] = []
    first_reports = None
    while True:
        t_iteration = time.monotonic()
        runs = [child(trace=False, setup_only=False)]
        if trace:
            runs.append(child(trace=True, setup_only=False))
        for res in runs:
            a, f, why = judge(wl, res["reports"], first_reports)
            first_reports = first_reports or res["reports"]
            attempted, failed = attempted + a, failed + f
            problems += why
        plain.append(runs[0])
        traced += runs[1:]
        setups.append(runs[0]["setup_s"])
        now = time.monotonic()
        # start another iteration only if it should end within the budget
        if 2 * now - t_iteration - t_start > seconds or now - t_start > HARD_STOP_S:
            break
    samples = {"setup_s": setups,
               "wall_s": [r["wall_s"] for r in plain],
               "cpu_s": [r["cpu_s"] for r in plain],
               "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
    result = {"workload": wl.name, "trace": trace,
              "environment": environment(seed, plain[0]["numpy"]),
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted,
              "problems": problems[:20],
              "end_to_end": {k: dict(summary(samples[k]), unit=u,
                                     samples=samples[k])
                             for k, u in END_TO_END},
              "part_wall_s": [summary([r["part_wall_s"][i] for r in plain])
                              for i in range(len(wl.parts))]}
    if trace:
        per_layer = {}
        for name, unit, _ in layers.PER_LAYER:
            if name == "trace_overhead":
                values = [t["wall_s"] / p["wall_s"]
                          for t, p in zip(traced, plain)]
            else:
                values = [t["layers"][name] for t in traced]
            per_layer[name] = dict(summary(values), unit=unit)
        result["per_layer"] = per_layer
        result["part_layers"] = traced[0]["part_layers"]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result (samples, "
                                  "quartiles, environment) to this file")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "htfoliation", "__init__.py")):
        print(f"error: {root} holds no src/htfoliation; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    try:
        result = measure(root, WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"{args.workload} environment: {json.dumps(result['environment'])}")
    section = result["per_layer"] if args.trace else result["end_to_end"]
    for name, s in section.items():
        print(f"{args.workload} {name}: median {s['median']:.6g} {s['unit']} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"{args.workload} fail_ratio: {result['fail_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for why in result["problems"]:
        print(f"{args.workload} FAILED: {why}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in section.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
