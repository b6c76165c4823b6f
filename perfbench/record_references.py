"""Record the reference outputs the benchmark checks every run against.

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONHASHSEED=0 python3 perfbench/record_references.py

Runs one set-up and one pass of every workload for each of ``SEEDS`` and
writes a fresh ``references.json`` beside this file.  Simulator results are
keyed by config alone, so they hold for every seed; elastic epochs (status
and roster) and trainer losses are keyed by seed, and ``worker.py`` requires
them only for the seeds listed in the file.  Re-record only when the
program's outputs are meant to change, and say so in the change that does
it.
"""

from __future__ import annotations

import json
import os
import sys

from worker import REFERENCES, load_workloads

SEEDS = range(10)


def record(workloads, name: str, seed: int, into: dict) -> None:
    workload = workloads.WORKLOADS[name](seed, workloads.GraphCacheCounter())
    workload.setup()
    rows = list(workload.warm()) + list(workload.run_pass(0))
    for key, observed, _seconds, _group in rows:
        if isinstance(observed, BaseException):
            raise SystemExit(f"{name} seed {seed}: {key} raised {observed!r}")
        if isinstance(observed, dict):   # elastic: status and roster only
            observed = {k: observed[k] for k in ("status", "roster")}
        observed = json.loads(json.dumps(observed))
        if into.setdefault(key, observed) != observed:
            raise SystemExit(f"{name}: {key} differs between seeds")


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "PYTHONHASHSEED"):
        if os.environ.get(var) != ("0" if var == "PYTHONHASHSEED" else "1"):
            raise SystemExit(f"run with the environment run.py gives the "
                             f"workloads ({var} is not set to match)")
    workloads = load_workloads()
    references: dict = {"seeds": list(SEEDS)}
    for name in workloads.WORKLOADS:
        references[name] = {}
        for seed in SEEDS:
            record(workloads, name, seed, references[name])
            print(f"{name} seed {seed}: {len(references[name])} keys",
                  file=sys.stderr)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True)
                          + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
