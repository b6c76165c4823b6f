"""End-to-end benchmark of the HiPress reproduction.

    python3 perfbench/run.py --workload steady-warm --seed 1 --seconds 24 \
        --trace 0

Runs one workload (see README.md in this directory) in a child process of
its own, through the production entry points, and checks every output.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the workload twice, untraced and then with every layer wrapped, and
prints the per-layer split plus the tracing overhead.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero, without
that line, if the workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sweep-cold", "steady-warm", "elastic-churn", "train-compressed")
END_TO_END = ("iters_per_s", "iter_s.p50", "peak_rss_mb", "setup_s")
#: Printed but left out of the result line: the simulator workloads have
#: too few iterations per pass for a tail, so only train-compressed's p90
#: has ten samples beyond it.  (``fail_ratio`` is printed too; the result
#: line carries it as ``failed`` / ``attempted``.)
PRINTED_ONLY = ("iter_s.p90",)
#: A run must end within 180 s, and a traced run starts two children.
CHILD_TIMEOUT_S = 85
#: Extra processes that only import the program, for ``setup_s``: one
#: start-up is ~0.45 s and swings by a third with the host's load, so
#: ``setup_s`` takes the median start-up of these and the workload's own.
IMPORT_PROBES = 6
#: BLAS/OpenMP threads: one, so timings do not depend on what else runs.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def run_child(args, trace: int, *extra: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), *extra,
           "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return json.loads(lines[-1])


def add_setup(result: dict, probes: list) -> None:
    """``setup_s``: median process start-up plus median in-process set-up,
    scaled by the run's slowdown like the other timings.

    The start-ups are not scaled by probes taken in their own processes:
    that was tried, and on ``elastic-churn`` it read 0.37 s on a slow host
    and 0.50 s on a fast one, a bias past the bound.
    """
    starts = probes + [result["imports_s"]]
    result["starts_s"] = starts
    raw = statistics.median(starts) + statistics.median(result["setups_s"])
    result["raw"]["setup_s"] = raw
    result["metrics"]["setup_s"] = {
        "value": raw / result["probe"]["slowdown"], "unit": "s"}


def describe(args, result: dict, label: str) -> None:
    metrics = result["metrics"]
    k, n = result["iterations"], result["samples"]
    print(f"{args.workload} ({label}): seed {args.seed}, {result['passes']} "
          f"passes in {result['wall_s']:.2f} s, closed loop, one client")
    per_pass = f"median pass of {k} iterations, {n} samples"
    notes = {
        "iters_per_s": per_pass,
        "iter_s.p50": per_pass,
        "iter_s.p90": f"{per_pass}, {result['beyond_p90']} beyond it",
        "peak_rss_mb": "workload process",
        "setup_s": (f"median of {len(result['starts_s'])} start-ups to "
                    f"imported, {min(result['starts_s']):.3f}-"
                    f"{max(result['starts_s']):.3f} s, + median of "
                    f"{len(result['setups_s'])} set-ups: "
                    + ", ".join(f"{s:.3f}" for s in result["setups_s"])),
    }
    probe = result["probe"]
    print(f"  host probe: median {probe['median_s'] * 1e3:.2f} ms over "
          f"{probe['samples']} samples, slowdown {probe['slowdown']:.4f}; "
          f"timings are host seconds divided by the slowdown")
    for name in END_TO_END + PRINTED_ONLY:
        metric = metrics[name]
        raw = (f"raw {result['raw'][name]:.6g}; "
               if name in result["raw"] else "")
        print(f"  {name:<12} {metric['value']:12.6g} {metric['unit']:<4} "
              f"({raw}{notes[name]})")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<12} {ratio:12.6g} {'':<4} "
          f"({result['failed']} of {result['attempted']} iterations)")
    for group, (count, median) in result["groups"].items():
        print(f"    {group:<16} {count:>4} iterations, median {median:.4f} s")
    seeds = result["references"]["seeds"]
    print("  checked against "
          + ("references.json and" if result["references"]["required"] else
             f"no reference (references.json records this workload for "
             f"seeds {min(seeds)}-{max(seeds)}) but")
          + " against each key's first output in this run")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        probes = [run_child(args, 0, "--imports-only")["imports_s"]
                  for _ in range(IMPORT_PROBES)]
        plain = run_child(args, trace=0)
        add_setup(plain, probes)
        describe(args, plain, "untraced")
        if not args.trace:
            runs = [plain]
            metrics = {name: plain["metrics"][name] for name in END_TO_END}
        else:
            traced = run_child(args, trace=1)
            add_setup(traced, probes)
            describe(args, traced, "traced")
            runs = [plain, traced]
            metrics = {name: value for name, value
                       in traced["metrics"].items()
                       if name not in END_TO_END + PRINTED_ONLY}
            metrics["tracing.overhead"] = {
                "value": (plain["metrics"]["iters_per_s"]["value"]
                          / traced["metrics"]["iters_per_s"]["value"]),
                "unit": "ratio"}
            for name, metric in metrics.items():
                print(f"  {name:<36} {metric['value']:14.6g} "
                      f"{metric['unit']}")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError, ZeroDivisionError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
