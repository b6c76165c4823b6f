"""One workload in its own process: set up, run timed passes, check outputs.

``run.py`` starts this script once per measured run, so ``peak_rss_mb`` is
the workload's own.  The last line of standard output is one JSON object
with the metrics, the sample counts and the check results.  With
``--imports-only`` it stops after the imports and prints only how long the
process took to get there; ``run.py`` takes the median of several such
start-ups for ``setup_s``.

    python3 perfbench/worker.py --workload steady-warm --seed 1 \
        --seconds 24 --trace 0 --spawned-at <time.time() of the parent>
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
OUT = HERE / "out"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Every iteration is timed at least this often, so that its median time
#: shrugs off a burst of load from outside the process.
MIN_PASSES = 3
#: Failure messages kept for the report.
MAX_PROBLEMS = 20
#: Largest share of the traced wall time the harness itself may take
#: outside every layer span before the traced run counts as failed.
MAX_HARNESS_SHARE = 0.05


def load_workloads():
    """Import the program from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro
    found = Path(repro.__file__).resolve().parent.parent
    if found != SRC.resolve():
        raise SystemExit(f"imported repro from {found}, not {SRC}")
    import workloads
    return workloads


class Checker:
    """Counts attempted and failed iterations and keeps the good timings.

    An iteration fails when it raised, when its output differs from the
    recorded reference for its key, when ``require_references`` is set and
    its key has no reference, or when it differs bit for bit from the first
    output this run produced for the same key.
    """

    def __init__(self, references: Dict[str, Any],
                 matches: Callable[[Any, Any], bool],
                 require_references: bool) -> None:
        self.references = references
        self.matches = matches
        self.require_references = require_references
        self.first: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.samples: Dict[str, List[float]] = {}
        self.group_of: Dict[str, str] = {}

    def record(self, key: str, observed: Any, seconds: float, group: str,
               timed: bool) -> None:
        self.attempted += 1
        problem = None
        if isinstance(observed, BaseException):
            problem = f"raised {type(observed).__name__}: {observed}"
        else:
            observed = json.loads(json.dumps(observed))
            reference = self.references.get(key)
            if reference is None and self.require_references:
                problem = "no recorded reference for this key"
            elif reference is not None and not self.matches(reference,
                                                            observed):
                problem = f"{observed!r} differs from reference {reference!r}"
            elif self.first.setdefault(key, observed) != observed:
                problem = (f"{observed!r} differs from this run's first "
                           f"output {self.first[key]!r}")
        if problem is not None:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{key}: {problem}")
        elif timed:
            self.samples.setdefault(key, []).append(seconds)
            self.group_of[key] = group

    def medians(self) -> Dict[str, float]:
        """Each iteration's median host time over the run's passes."""
        return {key: statistics.median(values)
                for key, values in self.samples.items()}


def timing_metrics(medians: List[float]) -> Dict[str, tuple]:
    """Throughput and percentiles of the median pass.

    The median pass is every iteration at its median time; a pass holds
    each iteration once, so these are the figures of one typical pass.
    """
    if not medians:
        return {"iters_per_s": (0.0, "1/s"), "iter_s.p50": (0.0, "s"),
                "iter_s.p90": (0.0, "s")}
    p90 = (statistics.quantiles(medians, n=10, method="inclusive")[8]
           if len(medians) > 1 else medians[0])
    return {"iters_per_s": (len(medians) / sum(medians), "1/s"),
            "iter_s.p50": (statistics.median(medians), "s"),
            "iter_s.p90": (p90, "s")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--imports-only", action="store_true")
    args = parser.parse_args(argv)

    workloads = load_workloads()
    from hostspeed import HostProbe
    from tracer import Tracer
    imports_s = time.time() - args.spawned_at
    if args.imports_only:
        print(json.dumps({"imports_s": imports_s}))
        return 0

    references = json.loads(REFERENCES.read_text())
    cache = workloads.GraphCacheCounter()
    workload = workloads.WORKLOADS[args.workload](args.seed, cache)
    recorded_seeds = references["seeds"]
    # Simulator keys name only the config, so their references hold for
    # every seed; elastic and trainer keys hold only for recorded seeds.
    require = not workload.SEEDED_KEYS or args.seed in recorded_seeds
    checker = Checker(references[args.workload], workload.matches, require)

    probe = HostProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        workload.setup()
        for row in workload.warm():
            checker.record(*row, timed=False)
        setups.append(time.perf_counter() - start)

    tracer = Tracer() if args.trace else None
    hits_before, misses_before = cache.totals()
    passes = 0
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        while True:
            for row in workload.run_pass(passes):
                checker.record(*row, timed=True)
                probe.maybe_sample()
            passes += 1
            if (passes >= MIN_PASSES
                    and time.perf_counter() - start >= args.seconds):
                break
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    hits, misses = cache.totals()

    medians = checker.medians()
    raw = timing_metrics(sorted(medians.values()))
    slowdown = probe.slowdown()
    metrics = {"iters_per_s": (raw["iters_per_s"][0] * slowdown, "1/s")}
    for name in ("iter_s.p50", "iter_s.p90"):
        metrics[name] = (raw[name][0] / slowdown, "s")
    metrics.update({
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    })
    if tracer is not None:
        layers = tracer.layer_metrics(wall_s, hits - hits_before,
                                      misses - misses_before)
        # Self times plus harness.self_s equal the traced wall time by
        # construction.  What can go wrong is time that no metric reports,
        # or a harness that hides work outside the layer spans.
        unreported = tracer.unreported_spans()
        if unreported:
            checker.failed += 1
            checker.problems.append(
                f"spans with no per-layer metric: {sorted(unreported)}")
        harness_s = layers["harness.self_s"][0]
        if not 0.0 <= harness_s <= MAX_HARNESS_SHARE * wall_s:
            checker.failed += 1
            checker.problems.append(
                f"harness.self_s {harness_s} s is outside [0, "
                f"{MAX_HARNESS_SHARE}] of the traced wall time {wall_s} s")
        metrics.update(layers)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")

    groups: Dict[str, List[float]] = {}
    for key, median in medians.items():
        groups.setdefault(checker.group_of[key], []).append(median)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "iterations": len(medians),
        "samples": sum(len(v) for v in checker.samples.values()),
        "beyond_p90": sum(len(v) for key, v in checker.samples.items()
                          if medians[key] > raw["iter_s.p90"][0]),
        "passes": passes,
        "raw": {name: value for name, (value, _unit) in raw.items()},
        "probe": {"samples": len(probe.samples), "slowdown": slowdown,
                  "median_s": statistics.median(probe.samples)},
        "references": {"seeds": recorded_seeds, "required": require},
        "wall_s": wall_s,
        "imports_s": imports_s,
        "setups_s": setups,
        "groups": {group: [len(values), statistics.median(values)]
                   for group, values in sorted(groups.items())},
        "problems": checker.problems,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
