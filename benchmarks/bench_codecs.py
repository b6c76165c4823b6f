"""Benchmark: real encode/decode time of every registry codec.

The convergence runs (``DataParallelTrainer``) pay for each gradient one
encode and one decode per worker per step, through
``WorkerCompressionState.roundtrip`` with error feedback.  This times the
three on a 1M-float gradient for every registry codec, with the §6.1
default parameters:

* **encode** -- ``algorithm.encode(g)``;
* **decode** -- ``algorithm.decode(buffer)``;
* **roundtrip** -- ``WorkerCompressionState(algorithm, "error").roundtrip``,
  the production call path: residual add, encode, one decode, residual
  update.

It also counts the decodes each round trip makes; the round trip reuses
the decode the feedback state computes, so the count must be exactly 1.

Usage::

    PYTHONPATH=src python benchmarks/bench_codecs.py           # full
    PYTHONPATH=src python benchmarks/bench_codecs.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_codecs.py \\
        --baseline old.json --output BENCH_codecs.json      # before/after

Writes ``BENCH_codecs.json`` (override with ``--output``).  With
``--baseline``, a previous run's results (say, from an older checkout) are
embedded as ``before`` beside a per-codec speedup.  Exits non-zero if any
round trip decodes more than once.  The JSON is written before that check,
so a run on an older checkout that decodes twice still exits 1 but leaves
a usable ``--baseline`` file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.algorithms import available_algorithms
from repro.experiments.common import default_algorithm
from repro.minidnn import WorkerCompressionState

ELEMENTS = 1_000_000
OPS = ("encode_s", "decode_s", "roundtrip_s")


def timed(fn, reps):
    """Median wall seconds of ``reps`` calls (after one warm-up call)."""
    fn()
    samples = []
    for _ in range(reps):
        gc.collect()
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def bench_codec(name, grad, reps):
    algorithm = default_algorithm(name)
    buf = algorithm.encode(grad)
    row = {
        "codec": name,
        "encode_s": timed(lambda: algorithm.encode(grad), reps),
        "decode_s": timed(lambda: algorithm.decode(buf), reps),
        "wire_ratio": buf.nbytes / grad.nbytes,
    }
    worker = WorkerCompressionState(algorithm, "error")
    row["roundtrip_s"] = timed(lambda: worker.roundtrip("g", grad), reps)

    decodes = []
    decode = algorithm.decode
    algorithm.decode = lambda b: decodes.append(1) or decode(b)
    worker.roundtrip("g", grad)
    row["decodes_per_roundtrip"] = len(decodes)
    return row


def speedups(before, after):
    old = {row["codec"]: row for row in before}
    out = {}
    for row in after:
        prev = old.get(row["codec"])
        if prev is not None:
            out[row["codec"]] = {op: round(prev[op] / row[op], 3)
                                 for op in OPS if row[op] > 0}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="3 timed calls per measurement, not 9 (CI)")
    parser.add_argument("--output", default="BENCH_codecs.json",
                        help="result JSON path")
    parser.add_argument("--baseline", default=None,
                        help="an earlier run's JSON, embedded as 'before'")
    args = parser.parse_args(argv)
    reps = 3 if args.smoke else 9

    grad = (np.random.default_rng(0).standard_normal(ELEMENTS) * 0.1
            ).astype(np.float32)
    results = []
    for name in available_algorithms():
        row = bench_codec(name, grad, reps)
        results.append(row)
        print(f"{name:10s} encode {row['encode_s'] * 1e3:8.2f} ms   "
              f"decode {row['decode_s'] * 1e3:8.2f} ms   "
              f"roundtrip {row['roundtrip_s'] * 1e3:8.2f} ms   "
              f"({row['decodes_per_roundtrip']} decode/roundtrip)")

    payload = {
        "benchmark": "codec_kernels", "elements": ELEMENTS, "reps": reps,
        "smoke": args.smoke,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "results": results,
    }
    if args.baseline:
        before = json.loads(Path(args.baseline).read_text())
        payload["before"] = {"host": before.get("host"),
                             "results": before["results"]}
        payload["speedup"] = speedups(before["results"], results)
        for codec, ratios in payload["speedup"].items():
            print(f"{codec:10s} speedup " + "   ".join(
                f"{op[:-2]} {ratio:.2f}x" for op, ratio in ratios.items()))
    Path(args.output).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"[results -> {args.output}]")

    extra = [r["codec"] for r in results if r["decodes_per_roundtrip"] != 1]
    if extra:
        print("FAIL: round trip decodes more than once for: "
              + ", ".join(extra))
        return 1
    print("OK: every round trip decodes exactly once")
    return 0


if __name__ == "__main__":
    sys.exit(main())
