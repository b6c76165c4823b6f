"""A fixed probe of the host's speed, independent of the program under test.

The measuring host is a shared VM whose speed drifts by up to ±40% over
minutes, because other tenants contend for its cores and caches.  Medians
within one run remove short bursts, but not the drift between runs, so the
benchmark reports timings scaled to a reference host speed: every
``INTERVAL_S`` of a run, between two iterations, the worker times this probe,
and a run's timings are divided by its ``slowdown`` (median probe time over
``REFERENCE_S``).  The probe mixes the two kinds of work the workloads do in
pure Python: heap and dict operations on a small working set, and pointer
chasing through ~10 MB of objects.  It touches nothing of the program, so a
change to the program moves the scaled timings and leaves the probe alone.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import List

#: Probe time, in seconds, on the reference host: an unloaded 2-core x86 VM.
REFERENCE_S = 0.015
#: Host seconds between two probes in a run (~4% of a run goes to probes).
INTERVAL_S = 0.5


class _Node:
    __slots__ = ("value", "next")


class HostProbe:
    """Times the fixed probe and keeps the samples of one run."""

    CHAIN = 200_000      # objects in the pointer-chasing ring
    STEPS = 60_000       # links followed per probe
    HEAP_ITEMS = 8_000   # pushes and pops per probe

    def __init__(self) -> None:
        nodes = [_Node() for _ in range(self.CHAIN)]
        order = list(range(self.CHAIN))
        random.Random(1).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].value = 0.5
            nodes[here].next = nodes[there]
        self.head = nodes[0]
        self.samples: List[float] = []
        self.last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        heap: list = []
        counts: dict = {}
        for i in range(self.HEAP_ITEMS):
            heapq.heappush(heap, ((i * 7919) % 100003, i))
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        while heap:
            heapq.heappop(heap)
        node, total = self.head, 0.0
        for _ in range(self.STEPS):
            total += node.value
            node = node.next
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def maybe_sample(self) -> None:
        """Probe if ``INTERVAL_S`` has passed since the last probe ended."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def slowdown(self) -> float:
        """How much slower than the reference host this run's host was."""
        return statistics.median(self.samples) / REFERENCE_S
