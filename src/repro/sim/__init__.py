"""Deterministic discrete-event simulation kernel (SimPy-flavoured).

This package is the timing substrate for the whole reproduction: network
transfers, GPU kernels, and synchronization protocols are all simulated
processes scheduled by :class:`Environment`.
"""

from .core import (
    AllOf,
    AnyOf,
    DEFAULT_ENGINE,
    Environment,
    Event,
    HEAP_ENGINE,
    Interrupt,
    Process,
    SimEngine,
    SimulationError,
    Timeout,
    use_engine,
    NORMAL,
    URGENT,
)
from .queues import HeapQueue, SlottedQueue
from .resources import Channel, Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "DEFAULT_ENGINE",
    "Environment",
    "Event",
    "HEAP_ENGINE",
    "HeapQueue",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "SimEngine",
    "SimulationError",
    "SlottedQueue",
    "Store",
    "Timeout",
    "use_engine",
    "NORMAL",
    "URGENT",
]
