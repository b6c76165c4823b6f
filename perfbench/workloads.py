"""The four benchmark workloads, each a closed loop with one client.

A workload builds its inputs from the benchmark seed (``setup``), then runs
whole passes (``run_pass``) that yield one row per iteration:
``(key, observed, seconds, group)``.  ``observed`` is the iteration's output
as a JSON value, or the exception it raised; ``key`` names the output so the
harness can compare it with the recorded reference and with its own first
occurrence in this run.  Only the generated inputs reach the program.

Import this module only after ``src/`` is on ``sys.path`` (see worker.py).
"""

from __future__ import annotations

import math
import random
import time
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

import repro.training
from repro.algorithms import available_algorithms
from repro.casync.lower import default_graph_cache
from repro.cluster import get_cluster
from repro.experiments import common
from repro.faults.elastic import random_membership_schedule
from repro.minidnn import (ClassificationData, DataParallelTrainer, Dense,
                           ReLU, Sequential)
from repro.models import get_model
from repro.strategies import get_strategy
from repro.training import elastic

Row = Tuple[str, Any, float, str]


def derived_rng(workload: str, seed: int) -> random.Random:
    """A generator private to (workload, seed); str seeds hash stably."""
    return random.Random(f"{workload}/{seed}")


class GraphCacheCounter:
    """Hits and misses of ``default_graph_cache()``, kept across clears.

    ``GraphCache.clear`` zeroes its counters, so they are banked first.
    """

    def __init__(self) -> None:
        self.cache = default_graph_cache()
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        self.hits += self.cache.hits
        self.misses += self.cache.misses
        self.cache.clear()

    def totals(self) -> Tuple[int, int]:
        return self.hits + self.cache.hits, self.misses + self.cache.misses


class Workload:
    """Base: ``setup`` builds inputs, ``warm`` fills caches, passes run."""

    name = ""
    #: Whether output keys hold the seed, so that references exist only
    #: for the seeds ``record_references.py`` recorded.
    SEEDED_KEYS = False

    def __init__(self, seed: int, cache: GraphCacheCounter) -> None:
        self.seed = seed
        self.cache = cache
        #: Draws the config order of every pass; ``setup`` draws its
        #: inputs from its own generator so that repeated set-ups agree.
        self.rng = derived_rng(f"{self.name}/order", seed)

    def input_rng(self) -> random.Random:
        return derived_rng(self.name, self.seed)

    def setup(self) -> None:
        raise NotImplementedError

    def warm(self) -> Iterator[Row]:
        return iter(())

    def run_pass(self, index: int) -> Iterator[Row]:
        raise NotImplementedError

    @staticmethod
    def matches(reference: Any, observed: Any) -> bool:
        return reference == observed


def _timed_system(system: str, algorithm, model, cluster) -> Tuple[Any, float]:
    start = time.perf_counter()
    try:
        result = common.run_system(system, model, cluster,
                                   algorithm=algorithm)
    except Exception as exc:  # a failed iteration, reported by the harness
        return exc, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    return [result.iteration_time, result.throughput,
            result.coordinator_batches, result.peak_comm_buffer_bytes], elapsed


class SweepCold(Workload):
    """Six §6.1 systems x {vgg19, resnet50}, each config on a cold cache."""

    name = "sweep-cold"
    NODES = 6
    SYSTEMS = (("byteps", None), ("ring", None), ("byteps-oss", "onebit"),
               ("ring-oss", "dgc"), ("hipress-ps", "onebit"),
               ("hipress-ring", "dgc"))
    MODELS = ("vgg19", "resnet50")

    def setup(self) -> None:
        self.cluster = get_cluster("ec2-v100", num_nodes=self.NODES)
        self.models = {name: get_model(name) for name in self.MODELS}
        self.configs = [(system, algo, model) for model in self.MODELS
                        for system, algo in self.SYSTEMS]

    def run_pass(self, index: int) -> Iterator[Row]:
        order = list(self.configs)
        self.rng.shuffle(order)
        for system, algo, model in order:
            self.cache.clear()
            observed, elapsed = _timed_system(
                system, algo, self.models[model], self.cluster)
            yield (f"{model}/{system}/{algo}/{self.NODES}n", observed,
                   elapsed, system)


class SteadyWarm(Workload):
    """Multi-iteration vgg19 on a warm graph cache, systems round-robin."""

    name = "steady-warm"
    NODES = 16
    SYSTEMS = (("byteps", None), ("hipress-ps", "onebit"),
               ("hipress-ring", "onebit"))

    def setup(self) -> None:
        self.cluster = get_cluster("ec2-v100", num_nodes=self.NODES)
        self.model = get_model("vgg19")

    def warm(self) -> Iterator[Row]:
        self.cache.clear()
        return self.run_pass(-1)

    def run_pass(self, index: int) -> Iterator[Row]:
        order = list(self.SYSTEMS)
        self.rng.shuffle(order)
        for system, algo in order:
            observed, elapsed = _timed_system(system, algo, self.model,
                                              self.cluster)
            yield (f"vgg19/{system}/{algo}/{self.NODES}n", observed, elapsed,
                   system)


class EpochClock:
    """Start time of every elastic epoch, stamped where each epoch begins.

    ``run_elastic`` calls ``epoch_inputs`` once at the top of every epoch,
    so consecutive stamps bound one epoch's host time.  One clock read per
    epoch; it is installed in the untraced run as well.
    """

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.original = elastic.epoch_inputs

        def stamped(*args, **kwargs):
            self.stamps.append(time.perf_counter())
            return self.original(*args, **kwargs)
        elastic.epoch_inputs = stamped


class ElasticChurn(Workload):
    """hipress-ring + dgc under seeded light churn on hetero-mixed nodes."""

    name = "elastic-churn"
    SEEDED_KEYS = True
    NODES = 8
    #: Many short schedules rather than a few long ones: each churn history
    #: is a random walk of the roster, so a few long walks make the total
    #: work depend on the seed far more than many short ones do.  Over ten
    #: seeds the median epoch's time spread 0.28 (IQR over median) with
    #: twelve walks and 0.11-0.15 with sixteen.
    EPOCHS = 2
    SCHEDULES = 16
    CHURN_RATE = 1.0   # the "light" churn of repro.experiments.elastic

    def __init__(self, seed: int, cache: GraphCacheCounter) -> None:
        super().__init__(seed, cache)
        self.clock = EpochClock()

    def setup(self) -> None:
        self.cluster = get_cluster("hetero-mixed", num_nodes=self.NODES)
        self.model = get_model("vgg19")
        self.config = common.SYSTEMS["hipress-ring"]
        self.algorithm = common.default_algorithm("dgc")
        rng = self.input_rng()
        seeds = [rng.randrange(2**31) for _ in range(self.SCHEDULES)]
        self.schedules = [(s, random_membership_schedule(
            seed=s, num_nodes=self.NODES, epochs=self.EPOCHS,
            churn_rate=self.CHURN_RATE)) for s in seeds]

    def run_pass(self, index: int) -> Iterator[Row]:
        cfg = self.config
        for schedule_seed, schedule in self.schedules:
            self.cache.clear()
            self.clock.stamps.clear()
            try:
                report = repro.training.run_elastic(
                    self.model, self.cluster, get_strategy(cfg.strategy),
                    schedule, epochs=self.EPOCHS, algorithm=self.algorithm,
                    planner_kind=cfg.planner_kind,
                    use_coordinator=cfg.use_coordinator,
                    batch_compression=cfg.batch_compression)
            except Exception as exc:  # every epoch of the run failed
                for epoch in range(self.EPOCHS):
                    yield f"{schedule_seed}/{epoch}", exc, 0.0, "epoch"
                continue
            stamps = self.clock.stamps + [time.perf_counter()]
            for outcome, begin, end in zip(report.epochs, stamps, stamps[1:]):
                observed = {"status": outcome.status,
                            "roster": list(outcome.roster),
                            "elapsed_s": outcome.elapsed_s,
                            "departures": [list(d)
                                           for d in outcome.departures]}
                yield (f"{schedule_seed}/{outcome.epoch}", observed,
                       end - begin, "epoch")

    @staticmethod
    def matches(reference: Any, observed: Any) -> bool:
        return (isinstance(observed, dict)
                and all(observed.get(k) == v for k, v in reference.items()))


class TrainCompressed(Workload):
    """Real data-parallel training: one trainer per registry codec."""

    name = "train-compressed"
    SEEDED_KEYS = True
    DIMS = (128, 512, 256, 8)
    WORKERS = 4
    BATCH = 32
    STEPS = 16         # steps per trainer per pass; trainers restart each pass

    def setup(self) -> None:
        rng = self.input_rng()
        self.data_seed = rng.randrange(2**31)
        self.init_seed = rng.randrange(2**31)
        self.batch_seed = rng.randrange(2**31)
        self.data = ClassificationData(
            num_classes=self.DIMS[-1], dim=self.DIMS[0], train_size=4096,
            test_size=64, noise=6.0, seed=self.data_seed)
        self.shards = [self.data.shard(w, self.WORKERS)
                       for w in range(self.WORKERS)]
        self.codecs = ["none"] + available_algorithms()
        self.trainers = self._trainers()

    def _trainers(self) -> Dict[str, DataParallelTrainer]:
        def build():
            rng = np.random.default_rng(self.init_seed)
            layers = []
            for fan_in, fan_out in zip(self.DIMS, self.DIMS[1:]):
                layers += [Dense(fan_in, fan_out, rng=rng), ReLU()]
            return Sequential(*layers[:-1])

        trainers = {}
        for codec in self.codecs:
            algorithm = (None if codec == "none"
                         else common.default_algorithm(codec))
            trainers[codec] = DataParallelTrainer(
                build, num_workers=self.WORKERS, batch_size=self.BATCH,
                lr=0.05, momentum=0.9, algorithm=algorithm,
                feedback="dgc" if codec == "dgc" else "error",
                seed=self.init_seed)
        return trainers

    def run_pass(self, index: int) -> Iterator[Row]:
        trainers = self.trainers if index == 0 else self._trainers()
        order = list(self.codecs)
        self.rng.shuffle(order)
        batches = np.random.default_rng(self.batch_seed)
        for step in range(self.STEPS):
            shard_batches = []
            for x, y in self.shards:
                idx = batches.integers(0, len(x), size=self.BATCH)
                shard_batches.append((x[idx], y[idx]))
            for codec in order:
                start = time.perf_counter()
                try:
                    observed = float(trainers[codec].step(shard_batches))
                    if not math.isfinite(observed):
                        observed = ValueError(f"loss {observed}")
                except Exception as exc:
                    observed = exc
                yield (f"{self.seed}/{codec}/{step}", observed,
                       time.perf_counter() - start, codec)

    @staticmethod
    def matches(reference: Any, observed: Any) -> bool:
        return (isinstance(observed, float)
                and math.isclose(reference, observed, rel_tol=1e-6,
                                 abs_tol=1e-9))


WORKLOADS = {cls.name: cls for cls in
             (SweepCold, SteadyWarm, ElasticChurn, TrainCompressed)}
