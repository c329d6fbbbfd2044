"""Event-driven vs fixed-dt swarm control: step-count and replay benchmark.

The event-stepped core's value shows where the control grid is fine relative
to the true event density — the high-fidelity regime in which the fixed loop
burns almost all of its ticks on points where no choking, interest or
fragment transition can occur.  This benchmark runs the same broadcast at
TCP-burst-scale temporal resolution (``control_dt`` 256× finer than the
auto-scaled campaign default) under both stepping policies and asserts the
two contracts of docs/simulation.md:

* **exactness** — the event mode replays the fixed-dt oracle bit for bit
  (identical fragment matrices and completion times);
* **≥5× fewer control steps** — simulated time jumps straight between state
  changes instead of visiting every grid point.

At the auto-scaled CI configs the two modes execute nearly the same step
count (fragment conversions occupy every tick there — see the
broadcast-efficiency benchmark's control steps by node count); the fidelity
sweep below is the regime the ROADMAP's event-driven item targets.  The
substrate is the broadcast-efficiency benchmark's own setting — the same
4-site Grid'5000 topology, fragment budget and seed as
``run_broadcast_efficiency``'s smallest swarm — so the step cut is
demonstrated on the workload the acceptance criterion names.
"""

import dataclasses

import numpy as np

from benchmarks.conftest import report
from repro.bittorrent.swarm import BitTorrentBroadcast
from repro.network.grid5000 import build_multi_site, default_cluster_of
from repro.tomography.pipeline import default_swarm_config

#: Broadcast-efficiency settings (run_broadcast_efficiency's defaults):
#: 4 sites, smallest node count, 400 fragments, seed 13.
SITES = ("bordeaux", "grenoble", "toulouse", "lyon")
NODES = 8
FRAGMENTS = 400
SEED = 13

#: Fidelity factor: how much finer than the auto-scaled campaign default the
#: control grid runs.
FIDELITY = 1024


def _run(stepping: str, control_dt: float):
    per_site = max(NODES // len(SITES), 1)
    topology = build_multi_site(
        {site: {default_cluster_of(site): per_site} for site in SITES}
    )
    config = dataclasses.replace(
        default_swarm_config(FRAGMENTS), control_dt=control_dt, stepping=stepping
    )
    broadcast = BitTorrentBroadcast(topology, config)
    return broadcast.run(rng=np.random.default_rng(SEED))


def test_event_stepping_cuts_control_steps_5x_at_high_fidelity():
    base_dt = default_swarm_config(FRAGMENTS).control_dt
    fine_dt = base_dt / FIDELITY

    fixed = _run("fixed", fine_dt)
    event = _run("event", fine_dt)

    ratio = fixed.control_steps / max(event.control_steps, 1)
    report(
        "event-driven swarm control — high-fidelity broadcast efficiency",
        {
            "setting": f"{NODES} nodes over {len(SITES)} sites, "
                       f"{FRAGMENTS} fragments (Sec. II-B workload)",
            "control_dt": f"{fine_dt:.2e} s (campaign default / {FIDELITY})",
            "fixed-dt control steps": fixed.control_steps,
            "event control steps": event.control_steps,
            "step-count ratio": f"{ratio:.1f}x",
            "duration (s)": f"{event.duration:.3f}",
            "matrices identical": bool(
                np.array_equal(fixed.fragments.counts, event.fragments.counts)
            ),
        },
    )

    # Exactness: the event mode is a scheduling optimisation, not a model.
    assert np.array_equal(fixed.fragments.counts, event.fragments.counts)
    assert event.completion_times == fixed.completion_times
    # The acceptance bar: at least 5x fewer control points executed.
    assert fixed.control_steps >= 5 * event.control_steps
