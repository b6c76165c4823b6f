"""Engine-equivalence battery: heap oracle vs the tuned simulator core.

The high-throughput core (slotted calendar queue, pooled carrier events,
inline sends, vectorized bulk transfers) must be *invisible* to the
simulation: for every configuration in the SYSTEMS matrix -- plus the
CaSync ablation ladder -- the executed timeline has to be bit-identical
whichever engine runs it.  The heap engine (``HEAP_ENGINE``) is the
pre-refactor implementation kept as a differential oracle; this suite
replays every case from the graph-equivalence matrix on both engines and
compares :func:`~repro.training.trace.trace_hash` digests.
"""

import pytest

from repro.sim import DEFAULT_ENGINE, HEAP_ENGINE, use_engine

from tests.test_graph_equivalence import CASES


@pytest.mark.parametrize("case", sorted(CASES))
def test_heap_oracle_matches_tuned_engine(case):
    with use_engine(HEAP_ENGINE):
        oracle = CASES[case]()
    with use_engine(DEFAULT_ENGINE):
        tuned = CASES[case]()
    assert tuned == oracle, (
        f"{case}: tuned engine diverged from the heap oracle")
