"""Discrete-event agenda and seed derivation.

The agenda is deliberately small: a monotonic clock and a lazily cancelled
binary heap of callbacks.  Only the multi-tenant
:class:`~repro.workloads.engine.WorkloadEngine` runs on
:class:`repro.simulation.engine.Simulator`; a standalone broadcast, the
NetPIPE probes and the baseline schedules advance a
:class:`~repro.network.fluid.FluidNetwork` clock directly.

A seed is a plain ``int``: each random stream is a NumPy generator seeded
with :func:`~repro.simulation.rng.derive_seed` from the experiment seed and
a label path.
"""

from repro.simulation.engine import Event, Simulator, SimulationError
from repro.simulation.rng import derive_seed

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "derive_seed",
]
