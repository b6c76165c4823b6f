"""Tests for the event timeline of simulated iterations."""

import pytest

from repro.algorithms import OneBit
from repro.cluster import ec2_v100_cluster
from repro.models import GradientSpec, ModelSpec
from repro.strategies import CaSyncPS, RingAllreduce
from repro.telemetry import (TelemetryCollector, parse_chrome_trace,
                             to_chrome_trace)
from repro.training import make_plans, simulate_iteration
from repro.training.loop import OPTIMIZER_FRACTION
from repro.training.trace import trace_iteration

MB = 1024 * 1024


def tiny_model():
    grads = (GradientSpec("t.g0", 16 * MB), GradientSpec("t.g1", 4 * MB))
    return ModelSpec(name="t", gradients=grads, batch_size=8,
                     batch_unit="images", v100_iteration_s=0.01)


def run_trace(strategy=None, algorithm=None, plans=False, **kw):
    model = tiny_model()
    cluster = ec2_v100_cluster(3)
    strategy = strategy or RingAllreduce()
    plan_map = None
    if plans:
        plan_map = make_plans(model, cluster, algorithm, "ps_colocated")
    return trace_iteration(model, cluster, strategy, algorithm=algorithm,
                           plans=plan_map, **kw)


def test_trace_contains_all_lanes():
    trace = run_trace(strategy=CaSyncPS(selective=False),
                      algorithm=OneBit())
    lanes = {e.lane for e in trace.events}
    assert "gpu-compute" in lanes
    assert "gpu-compression" in lanes
    assert "network" in lanes


def test_trace_events_within_horizon():
    trace = run_trace()
    for event in trace.events:
        assert event.start >= 0
        assert event.start <= trace.finish_time + 1e-9


def test_trace_compute_covers_model_time():
    trace = run_trace()
    compute = sum(e.duration for e in trace.events_on(0, "gpu-compute"))
    assert compute == pytest.approx(0.01, rel=0.05)


def test_trace_exports_through_telemetry_chrome_exporter():
    tel = TelemetryCollector()
    run_trace(strategy=CaSyncPS(selective=False), algorithm=OneBit(),
              telemetry=tel)
    spans = parse_chrome_trace(to_chrome_trace(tel))["spans"]
    tracks = {(span["node"], span["track"]) for span in spans}
    for node in range(3):
        for track in ("gpu-compute", "encode", "transfer"):
            assert (node, f"node{node}/{track}") in tracks, (node, track)


def test_trace_network_events_carry_transfers():
    trace = run_trace()
    sends = [e for e in trace.events if e.lane == "network"]
    assert sends
    assert all(e.duration >= 0 for e in sends)


def test_trace_events_on_filters():
    trace = run_trace()
    all_node0 = trace.events_on(0)
    net_node0 = trace.events_on(0, "network")
    assert len(net_node0) <= len(all_node0)
    assert all(e.node == 0 for e in all_node0)


@pytest.mark.parametrize("make_strategy,algorithm", [
    (RingAllreduce, None),
    (lambda: CaSyncPS(selective=False), OneBit()),
], ids=["ring", "casync-ps-onebit"])
def test_trace_and_simulate_run_one_round(make_strategy, algorithm):
    model = tiny_model()
    cluster = ec2_v100_cluster(3)
    result = simulate_iteration(model, cluster, make_strategy(),
                                algorithm=algorithm, local_aggregation=False)
    trace = trace_iteration(model, cluster, make_strategy(),
                            algorithm=algorithm)
    assert result.iteration_time == (
        trace.finish_time + result.compute_time * OPTIMIZER_FRACTION)
