"""Property tests for the vectorized bulk-transfer path.

The one-NumPy-pass-per-step fast path must be indistinguishable from
issuing every message through :meth:`Fabric.transfer` one by one.  Under
random link profiles Hypothesis checks, message for message:

* identical delivery instants (exact float equality, not approx -- the
  vector path's left-fold accumulates are bit-compatible by design);
* byte conservation: every non-loopback byte lands in the transfer
  statistics exactly once, per node and in total;
* the batched single-completion-event interface reports the same times
  the per-message interfaces deliver at;
* under a random fault schedule (crashes, link degrades) both engines
  must produce identical per-message outcomes -- the vector engine is
  required to fall back to the per-message path, so a crash mid-bulk
  aborts exactly the transfers the oracle aborts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultInjector, FaultSchedule, LinkDegrade, NodeCrash
from repro.faults.errors import TransferError
from repro.net import Fabric, NetworkSpec
from repro.sim import DEFAULT_ENGINE, HEAP_ENGINE, Environment

ENGINES = {"heap": HEAP_ENGINE, "tuned": DEFAULT_ENGINE}


@st.composite
def bulk_plan(draw):
    nodes = draw(st.integers(2, 6))
    spec = NetworkSpec(
        bandwidth_gbps=draw(st.floats(0.5, 200.0)),
        latency_us=draw(st.floats(0.0, 50.0)),
        efficiency=draw(st.floats(0.3, 1.0)))
    transfers = draw(st.lists(
        st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1),
                  st.floats(0.0, 8e6)),
        min_size=1, max_size=30))
    return nodes, spec, transfers


def _run_handler(engine, nodes, spec, transfers):
    """Issue one bulk step via the handler interface; log deliveries."""
    env = Environment(engine=engine)
    fabric = Fabric(env, nodes, spec)
    log = []
    fabric.bulk_transfer(transfers, handler=lambda i: log.append(
        (i, env.now)))
    env.run()
    return log, fabric.stats


@given(plan=bulk_plan())
@settings(max_examples=100, deadline=None)
def test_vectorized_bulk_matches_per_message_oracle(plan):
    nodes, spec, transfers = plan
    oracle_log, oracle_stats = _run_handler(HEAP_ENGINE, nodes, spec,
                                            transfers)
    tuned_log, tuned_stats = _run_handler(DEFAULT_ENGINE, nodes, spec,
                                          transfers)
    assert tuned_log == oracle_log, (
        "per-message delivery times or ordering diverged")
    assert tuned_stats.bytes_sent == oracle_stats.bytes_sent
    assert tuned_stats.messages == oracle_stats.messages
    assert tuned_stats.per_node_bytes == oracle_stats.per_node_bytes


@given(plan=bulk_plan())
@settings(max_examples=100, deadline=None)
def test_bulk_conserves_bytes(plan):
    nodes, spec, transfers = plan
    _log, stats = _run_handler(DEFAULT_ENGINE, nodes, spec, transfers)
    wire = [(s, d, n) for s, d, n in transfers if s != d]
    assert stats.messages == len(wire)
    assert stats.bytes_sent == pytest.approx(sum(n for _s, _d, n in wire))
    for node in range(nodes):
        sent = sum(n for s, _d, n in wire if s == node)
        assert stats.per_node_bytes.get(node, 0.0) == pytest.approx(sent)


@given(plan=bulk_plan())
@settings(max_examples=60, deadline=None)
def test_batched_completion_reports_exact_delivery_times(plan):
    nodes, spec, transfers = plan
    times = {}
    for name, engine in ENGINES.items():
        env = Environment(engine=engine)
        fabric = Fabric(env, nodes, spec)
        done = fabric.bulk_transfer_batched(transfers)
        env.run()
        times[name] = tuple(done.value)
    assert times["tuned"] == times["heap"]
    # The single batch event must report the instants the handler
    # interface actually delivers at.
    log, _stats = _run_handler(DEFAULT_ENGINE, nodes, spec, transfers)
    delivered = dict(log)
    assert times["tuned"] == tuple(delivered[i]
                                   for i in range(len(transfers)))


@st.composite
def faulty_plan(draw):
    nodes, spec, transfers = draw(bulk_plan())
    events = draw(st.lists(st.one_of(
        st.builds(NodeCrash, at=st.floats(0.0, 0.01),
                  node=st.integers(0, nodes - 1)),
        st.builds(LinkDegrade, at=st.floats(0.0, 0.01),
                  src=st.just(0), dst=st.integers(1, nodes - 1),
                  factor=st.floats(1.0, 10.0)),
    ), min_size=1, max_size=4))
    return nodes, spec, transfers, FaultSchedule.of(*events)


def _run_faulty(engine, nodes, spec, transfers, schedule):
    env = Environment(engine=engine)
    fabric = Fabric(env, nodes, spec)
    FaultInjector(env, schedule, fabric=fabric)
    outcomes = [None] * len(transfers)

    def watch(index, completion):
        try:
            yield completion
            outcomes[index] = ("ok", env.now)
        except TransferError as exc:
            outcomes[index] = ("fail", env.now, str(exc))

    completions = fabric.bulk_transfer(transfers)
    for i, completion in enumerate(completions):
        env.process(watch(i, completion))
    env.run(until=1.0)
    return outcomes, fabric.faults.log


@given(plan=faulty_plan())
@settings(max_examples=60, deadline=None)
def test_crash_mid_bulk_aborts_identically(plan):
    nodes, spec, transfers, schedule = plan
    oracle, oracle_log = _run_faulty(HEAP_ENGINE, nodes, spec, transfers,
                                     schedule)
    tuned, tuned_log = _run_faulty(DEFAULT_ENGINE, nodes, spec, transfers,
                                   schedule)
    assert tuned == oracle, "fault outcomes diverged between engines"
    assert tuned_log.attempted_bytes == oracle_log.attempted_bytes
    assert tuned_log.delivered_bytes == oracle_log.delivered_bytes
    assert tuned_log.dropped_bytes == oracle_log.dropped_bytes


def test_crash_actually_aborts_some_transfers():
    """Non-vacuity check: the sink dying mid-incast drops messages on
    both engines, and drops the *same* ones."""
    nodes = 4
    spec = NetworkSpec(bandwidth_gbps=1.0, latency_us=5.0)
    transfers = [(src, 0, 4e6) for src in (1, 2, 3)]
    schedule = FaultSchedule.of(NodeCrash(at=0.005, node=0))
    results = {}
    for name, engine in ENGINES.items():
        outcomes, log = _run_faulty(engine, nodes, spec, transfers,
                                    schedule)
        assert any(o is not None and o[0] == "fail" for o in outcomes), (
            f"{name}: expected the crash to abort at least one transfer")
        results[name] = (outcomes, log.delivered_bytes, log.dropped_bytes)
    assert results["tuned"] == results["heap"]
