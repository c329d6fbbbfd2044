"""Discrete-event agenda and seeded random streams.

The agenda is deliberately small: a monotonic clock and a lazily cancelled
binary heap of callbacks.  Only the multi-tenant
:class:`~repro.workloads.engine.WorkloadEngine` runs on
:class:`repro.simulation.engine.Simulator`; a standalone broadcast, the
NetPIPE probes and the baseline schedules advance a
:class:`~repro.network.fluid.FluidNetwork` clock directly.
"""

from repro.simulation.engine import Event, Simulator, SimulationError
from repro.simulation.rng import RandomStreams, derive_seed

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "RandomStreams",
    "derive_seed",
]
