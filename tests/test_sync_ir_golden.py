"""Golden snapshots of the SyncPlan IR, per strategy x algorithm.

Each case builds the full frontend pipeline (directive passes -> expand
-> op passes -> verify) for a fixed model on a 4-node EC2 cluster and
compares the complete JSON dump against a checked-in golden file under
``tests/golden/sync_ir/``.  Any change to a strategy frontend, a pass, or
the IR encoding shows up as a readable JSON diff here -- alongside the
behavioural check in ``test_graph_equivalence.py`` which hashes the
executed timeline.

The lowered recipes are pinned too: ``tests/golden/recipe_digests.json``
holds a sha256 over every :class:`~repro.casync.lower.TaskSpec` field of
each case, plus a mixed-fleet, a WAN and an adaptive-palette case.  Trace
hashes never see ``out_nbytes`` or ``launch_overhead``, and the IR
snapshots stop before costing, so this is what pins the cost model.

Regenerate after an intentional IR change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_sync_ir_golden.py

and review the diff like any other code change.
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.casync.decisions import DecisionMap, GradientDecision
from repro.casync.lower import lower_plan
from repro.casync.passes import PassContext, build_plan
from repro.cluster import ec2_v100_cluster, get_cluster
from repro.experiments.common import default_algorithm
from repro.models import GradientSpec, ModelSpec
from repro.strategies import (
    BytePS,
    BytePSOSSCompression,
    CaSyncPS,
    CaSyncRing,
    RingAllreduce,
    RingOSSCompression,
)
from repro.training import make_plans

GOLDEN_DIR = Path(__file__).parent / "golden" / "sync_ir"
RECIPE_GOLDEN = Path(__file__).parent / "golden" / "recipe_digests.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"
NUM_NODES = 4
MB = 1024 * 1024

#: (case name, strategy factory, algorithm name, planner preset)
CASES = [
    ("byteps", BytePS, None, None),
    ("ring", RingAllreduce, None, None),
]
for _algo in ("tbq", "dgc", "onebit"):
    CASES.extend([
        (f"casync-ps-{_algo}", CaSyncPS, _algo, "ps_colocated"),
        (f"casync-ring-{_algo}", CaSyncRing, _algo, "ring"),
        (f"byteps-oss-{_algo}", BytePSOSSCompression, _algo, None),
        (f"ring-oss-{_algo}", RingOSSCompression, _algo, None),
    ])


def golden_model() -> ModelSpec:
    """Fixed workload: sizes straddle the partition (4MB) and
    bulk-eligibility (256KB) thresholds so every pass has work to do."""
    sizes = (8 * MB, 3 * MB, 192 * 1024, 48 * 1024)
    grads = tuple(GradientSpec(f"gold.g{i}", s)
                  for i, s in enumerate(sizes))
    return ModelSpec(name="gold", gradients=grads, batch_size=4,
                     batch_unit="images", v100_iteration_s=0.002)


def case_context(algo_name, preset, cluster=None, decisions=None):
    cluster = cluster if cluster is not None else ec2_v100_cluster(NUM_NODES)
    algorithm = default_algorithm(algo_name) if algo_name else None
    model = golden_model()
    plans = (make_plans(model, cluster, algorithm, preset)
             if preset else None)
    pctx = PassContext(num_nodes=cluster.num_nodes, cluster=cluster,
                       algorithm=algorithm, plans=plans,
                       decisions=decisions)
    return pctx, model


def build_case(strategy_cls, algo_name, preset):
    pctx, model = case_context(algo_name, preset)
    return build_plan(strategy_cls(), pctx, model)


@pytest.mark.parametrize("name,strategy_cls,algo,preset", CASES,
                         ids=[c[0] for c in CASES])
def test_ir_matches_golden(name, strategy_cls, algo, preset):
    plan = build_case(strategy_cls, algo, preset)
    dumped = json.loads(plan.to_json())
    path = GOLDEN_DIR / f"{name}-n{NUM_NODES}.json"
    if REGEN:
        # Atomic replace: under pytest-xdist several workers may
        # regenerate concurrently; a reader must never see a torn file.
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(plan.to_json() + "\n")
        os.replace(tmp, path)
        return
    assert path.exists(), (
        f"missing golden {path.name}; regenerate with REPRO_REGEN_GOLDEN=1")
    golden = json.loads(path.read_text())
    assert dumped == golden, (
        f"SyncPlan IR for {name} drifted from {path.name}; if intentional, "
        "regenerate with REPRO_REGEN_GOLDEN=1 and review the diff")


def test_golden_dir_has_no_stale_files():
    if REGEN:
        # Mid-regeneration another xdist worker may not have written its
        # cases yet; the check only means something against a settled dir.
        pytest.skip("regenerating goldens; stale check needs a settled dir")
    expected = {f"{c[0]}-n{NUM_NODES}.json" for c in CASES}
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected


def test_golden_plans_are_deterministic():
    a = build_case(CaSyncPS, "tbq", "ps_colocated")
    b = build_case(CaSyncPS, "tbq", "ps_colocated")
    assert a.digest() == b.digest()


# -- lowered recipes -----------------------------------------------------------


def _adaptive_decisions():
    """Per-gradient codecs: a palette override, the plan default, and a
    gradient sent raw, so one recipe is costed under three codecs."""
    decide = [GradientDecision(compress=True, algorithm="alt"),
              GradientDecision(compress=True),
              GradientDecision(compress=False),
              GradientDecision(compress=True, algorithm="alt")]
    names = [g.name for g in golden_model().gradients]
    return DecisionMap(dict(zip(names, decide)),
                       {"alt": default_algorithm("dgc")})


def _adaptive_strategy():
    return CaSyncPS(selective=False, adaptive=True)


#: (case name, strategy factory, algorithm, preset, cluster, decisions)
RECIPE_CASES = [(name, cls, algo, preset, None, None)
                for name, cls, algo, preset in CASES] + [
    ("hetero-mixed-casync-ps-onebit", CaSyncPS, "onebit", "ps_colocated",
     lambda: get_cluster("hetero-mixed", num_nodes=NUM_NODES), None),
    ("wan-edge-casync-ring-dgc", CaSyncRing, "dgc", "ring",
     lambda: get_cluster("wan-edge", num_nodes=NUM_NODES), None),
    ("adaptive-casync-ps-onebit+dgc", _adaptive_strategy, "onebit", None,
     None, _adaptive_decisions),
]


def recipe_digest(recipe) -> str:
    """sha256 over every field of every spec, in recipe order."""
    h = hashlib.sha256()
    for spec in recipe.specs:
        h.update(repr(dataclasses.astuple(spec)).encode())
        h.update(b"\n")
    return h.hexdigest()


def lowered_digests():
    digests = {}
    for name, factory, algo, preset, cluster, decisions in RECIPE_CASES:
        pctx, model = case_context(
            algo, preset, cluster=cluster() if cluster else None,
            decisions=decisions() if decisions else None)
        plan = build_plan(factory(), pctx, model)
        digests[name] = recipe_digest(lower_plan(plan, pctx))
    return digests


def test_lowered_recipes_match_golden():
    digests = lowered_digests()
    if REGEN:
        tmp = RECIPE_GOLDEN.with_name(
            f".{RECIPE_GOLDEN.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, RECIPE_GOLDEN)
        return
    golden = json.loads(RECIPE_GOLDEN.read_text())
    drifted = sorted(name for name in golden | digests
                     if golden.get(name) != digests.get(name))
    assert not drifted, (
        f"lowered recipes drifted from {RECIPE_GOLDEN.name}: {drifted}; if "
        "the cost model is meant to change, regenerate with "
        "REPRO_REGEN_GOLDEN=1 and say why")
