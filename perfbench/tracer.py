"""Per-layer host-time tracing installed from outside the program.

Every wrapper is set on the attribute the caller actually resolves at call
time (a module global, a class method, or a registry codec's class), so the
program under test is unchanged and the untraced run pays nothing.  Spans are
kept in memory as ``(name, start, end, parent)`` rows and written out once
the run ends; a layer's self time is its span's duration minus its child
spans.  Generator-returning calls (``Fabric.transfer``) are counted, never
timed, because the call returns before any of the work happens.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Lowered task kinds counted per recipe (``casync.lower.tasks.<kind>``);
#: IR barriers lower to ``notify`` tasks, and any kind not listed is
#: counted under ``other``.
TASK_KINDS = ("send", "encode", "decode", "merge", "cpu", "copy", "barrier")
_KIND_ALIASES = {"notify": "barrier"}

#: Span name -> the per-layer metric its self time is reported under.
SELF_METRICS = {
    "experiments.run_system": "experiments.self_s",
    "training.elastic": "training.elastic.self_s",
    "training.elastic.epoch_inputs": "training.elastic.epoch_inputs_s",
    "training.loop": "training.loop.self_s",
    "casync.planner": "casync.planner.self_s",
    "casync.lower.build_graph": "casync.lower.cache_s",
    "casync.passes": "casync.passes.self_s",
    "casync.lower": "casync.lower.self_s",
    "casync.lower.instantiate": "casync.lower.instantiate_s",
    "casync.tasks.run_graph": "casync.tasks.self_s",
    "casync.tasks.arm": "casync.tasks.arm_s",
    "casync.memory": "casync.memory.self_s",
    "faults.robust": "faults.robust_s",
    "sim.loop": "sim.loop_s",
    "net.bulk": "net.bulk_s",
    "minidnn.trainer": "minidnn.trainer.self_s",
    "minidnn.forward": "minidnn.forward_s",
    "minidnn.backward": "minidnn.backward_s",
    "minidnn.optim": "minidnn.optim_s",
    "algorithms.feedback": "algorithms.feedback.self_s",
    "harness.probe": "harness.probe_s",
}


def codec_names() -> List[str]:
    """Registry names of every codec the trainers may use."""
    from repro.algorithms import available_algorithms
    return available_algorithms()


class Tracer:
    """In-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _timed(self, name: str, fn: Callable,
               after: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so children see our id
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        """Replace ``attr`` where it is defined (a module or a class)."""
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def time(self, owner, attr: str, name: str, after=None) -> None:
        self._patch(owner, attr, lambda fn: self._timed(name, fn, after))

    def count(self, owner, attr: str, key: str) -> None:
        self._patch(owner, attr, lambda fn: self._counted(key, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        import hostspeed
        import repro.training
        from repro.algorithms import FLOAT_BYTES, feedback, get_algorithm
        from repro.casync import lower, tasks
        from repro.experiments import common
        from repro.minidnn import layers, optim, parallel
        from repro.net import fabric
        from repro.sim import core
        from repro.training import elastic, loop

        counts = self.counts

        def count_ops(_args, plan):
            counts["casync.passes.ops"] += len(plan.ops)

        def count_tasks(_args, recipe):
            counts["casync.lower.tasks"] += len(recipe.specs)
            for spec in recipe.specs:
                kind = _KIND_ALIASES.get(spec.kind, spec.kind)
                if kind not in TASK_KINDS:
                    kind = "other"
                counts[f"casync.lower.tasks.{kind}"] += 1

        def count_armed(args, _events):
            counts["casync.tasks.armed_tasks"] += len(args[0].tasks)

        def count_bulk(args, _result):
            counts["net.bulk_messages"] += len(args[1])

        self.time(hostspeed.HostProbe, "sample", "harness.probe")
        self.time(common, "run_system", "experiments.run_system")
        self.time(repro.training, "run_elastic", "training.elastic")
        self.time(elastic, "epoch_inputs", "training.elastic.epoch_inputs")
        for module in (common, elastic):
            self.time(module, "simulate_iteration", "training.loop")
            self.time(module, "make_plans", "casync.planner")
        self.time(lower, "build_graph", "casync.lower.build_graph")
        self.time(lower, "build_plan", "casync.passes", count_ops)
        self.time(lower, "lower_plan", "casync.lower", count_tasks)
        self.time(lower, "instantiate", "casync.lower.instantiate")
        self.time(loop, "run_graph", "casync.tasks.run_graph")
        self.time(loop, "run_graph_robust", "faults.robust")
        self.time(loop, "peak_buffer_memory", "casync.memory")
        self.time(tasks.TaskGraph, "arm", "casync.tasks.arm", count_armed)
        self.time(core.Environment, "run_until_complete", "sim.loop")
        self.time(core.Environment, "run", "sim.loop")
        self.count(core.Environment, "step", "sim.events")
        self.time(fabric.Fabric, "bulk_transfer", "net.bulk", count_bulk)
        self.count(fabric.Fabric, "transfer", "net.transfer_calls")

        self.time(parallel.DataParallelTrainer, "step", "minidnn.trainer")
        self.time(layers.Sequential, "forward", "minidnn.forward")
        self.time(layers.Sequential, "backward", "minidnn.backward")
        self.time(optim.SGD, "step", "minidnn.optim")
        self.time(feedback.ErrorFeedback, "compress", "algorithms.feedback")
        self.time(feedback.DGCMomentum, "compress", "algorithms.feedback")

        codecs: Dict[type, str] = {}
        for name in codec_names():
            cls = type(get_algorithm(name))
            if cls in codecs:
                raise ValueError(f"codecs {codecs[cls]!r} and {name!r} share "
                                 f"class {cls.__name__}; cannot time apart")
            codecs[cls] = name
        for cls, name in codecs.items():
            def count_wire(args, buffer, name=name):
                counts[f"algorithms.{name}.raw_bytes"] += (
                    args[1].size * FLOAT_BYTES)
                counts[f"algorithms.{name}.wire_bytes"] += buffer.nbytes

            for op in ("encode", "decode"):
                if op in cls.__dict__:
                    self.time(cls, op, f"algorithms.{name}.{op}",
                              count_wire if op == "encode" else None)

    # -- reporting -------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time per span name; roots' total under ``"<roots>"``."""
        child_time = [0.0] * len(self.spans)
        totals: Counter = Counter()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                totals["<roots>"] += end - start
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def unreported_spans(self) -> set:
        """Span names whose self time no per-layer metric reports."""
        codec_spans = {f"algorithms.{codec}.{op}" for codec in codec_names()
                       for op in ("encode", "decode")}
        return {name for name, _s, _e, _p in self.spans
                if name not in SELF_METRICS and name not in codec_spans}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, out)

    def layer_metrics(self, wall_s: float, cache_hits: int,
                      cache_misses: int) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        selfs = self.self_times()
        calls = Counter(name for name, _s, _e, _p in self.spans)
        counts = self.counts
        metrics: Dict[str, Tuple[float, str]] = {}
        for span, metric in SELF_METRICS.items():
            metrics[metric] = (selfs.get(span, 0.0), "s")
        for codec in codec_names():
            for op in ("encode", "decode"):
                metrics[f"algorithms.{codec}.{op}_s"] = (
                    selfs.get(f"algorithms.{codec}.{op}", 0.0), "s")
            raw = counts[f"algorithms.{codec}.raw_bytes"]
            metrics[f"algorithms.{codec}.raw_mb"] = (raw / 2**20, "MB")
            metrics[f"algorithms.{codec}.wire_ratio"] = (
                counts[f"algorithms.{codec}.wire_bytes"] / raw if raw else 0.0,
                "ratio")
        metrics["casync.planner.calls"] = (calls["casync.planner"], "count")
        metrics["casync.passes.calls"] = (calls["casync.passes"], "count")
        metrics["casync.passes.ops"] = (counts["casync.passes.ops"], "count")
        metrics["casync.lower.tasks"] = (counts["casync.lower.tasks"], "count")
        for kind in TASK_KINDS + ("other",):
            metrics[f"casync.lower.tasks.{kind}"] = (
                counts[f"casync.lower.tasks.{kind}"], "count")
        lookups = cache_hits + cache_misses
        metrics["casync.lower.cache_hits"] = (cache_hits, "count")
        metrics["casync.lower.cache_misses"] = (cache_misses, "count")
        metrics["casync.lower.cache_hit_ratio"] = (
            cache_hits / lookups if lookups else 0.0, "ratio")
        metrics["casync.tasks.armed_tasks"] = (
            counts["casync.tasks.armed_tasks"], "count")
        events = counts["sim.events"]
        metrics["sim.events"] = (events, "count")
        metrics["sim.us_per_event"] = (
            selfs.get("sim.loop", 0.0) * 1e6 / events if events else 0.0,
            "us")
        metrics["net.bulk_calls"] = (calls["net.bulk"], "count")
        metrics["net.bulk_messages"] = (counts["net.bulk_messages"], "count")
        metrics["net.transfer_calls"] = (
            counts["net.transfer_calls"], "count")
        metrics["faults.robust_calls"] = (calls["faults.robust"], "count")
        metrics["harness.self_s"] = (wall_s - selfs.get("<roots>", 0.0), "s")
        metrics["harness.traced_wall_s"] = (wall_s, "s")
        return metrics
