"""Discrete-event simulation kernel.

This package provides the minimal machinery the rest of the reproduction is
built on: a deterministic event loop (:class:`~repro.sim.engine.Engine`),
generator-based processes, waitable events and timeouts, and synchronisation
primitives (semaphores, FIFO resources, signals).

The style is deliberately SimPy-like: a *process* is a Python generator that
``yield``\\ s :class:`~repro.sim.events.Event` objects; the engine resumes the
generator when the yielded event triggers.  All simulated time is in
**seconds** (floats); determinism is guaranteed by a monotonically increasing
tie-break sequence number in the event heap.
"""

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, EventFailed, Interrupt, Process, Timeout
from repro.sim.invariants import Sanitizer, SanitizerError
from repro.sim.request import IORequest, RequestRegistry
from repro.sim.resources import Resource, Semaphore, Signal
from repro.sim.stats import Histogram, HistogramSnapshot, StatSet, TimeWeighted
from repro.sim.trace import Span, TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "EventFailed",
    "Histogram",
    "HistogramSnapshot",
    "IORequest",
    "Interrupt",
    "Process",
    "RequestRegistry",
    "Resource",
    "Sanitizer",
    "SanitizerError",
    "Semaphore",
    "Signal",
    "SimulationError",
    "Span",
    "StatSet",
    "TimeWeighted",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
